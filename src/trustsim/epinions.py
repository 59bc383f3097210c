"""Ingestion of ratings files in the classic three-column review format.

Input lines are ``user item rating`` (comma- or whitespace-separated) with
integer ratings from 1 to 5. Each user becomes an advisor dataset: one record
per item the user rated, with features computed from how *other* users rated
that item and a label from the user's own satisfaction (4 or above counts as
trustworthy). Item-level ground truth is the fraction of all ratings at 4 or
above. The file is UTF-8 (a leading byte-order mark is dropped), and a rating
in anything but ASCII digits makes its line malformed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .advisor import AdvisorDataset
from .core import Probability

#: Feature schema for ratings-derived records, in order.
RATINGS_SCHEMA = ("mean_rating_others", "rating_count", "rating_variance")

#: A user's own rating at or above this counts as a trustworthy interaction.
SATISFACTION_CUTOFF = 4

#: Ingestion aborts when more than this share of the non-blank lines is malformed.
MAX_SKIP_RATIO = 0.1


def ground_truth_trust(ratings: Sequence[int]) -> Probability:
    """Actual trust of an item: the fraction of its ratings at or above
    :data:`SATISFACTION_CUTOFF`."""
    if not ratings:
        raise ValueError("an item with no ratings has no ground truth")
    return Probability(sum(1 for r in ratings if r >= SATISFACTION_CUTOFF) / len(ratings))


class IngestError(ValueError):
    """The ratings file is unusable (unreadable, empty, or mostly malformed)."""


@dataclass
class IngestStats:
    users: int = 0
    items: int = 0
    reviews: int = 0
    skipped: int = 0

    def report(self) -> str:
        return (
            f"{self.users} users, {self.items} items, "
            f"{self.reviews} reviews, {self.skipped} skipped"
        )


@dataclass
class EpinionsData:
    datasets: dict[str, AdvisorDataset]
    item_truth: dict[str, float]
    item_features: dict[str, tuple[float, float, float]]
    stats: IngestStats


def _split_line(line: str) -> list[str]:
    if "," in line:
        return [part.strip() for part in line.split(",")]
    return line.split()


def _parse_ratings(path: str | Path) -> tuple[list[tuple[str, str, int]], int]:
    rows: list[tuple[str, str, int]] = []
    skipped = 0
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except OSError as exc:
        raise IngestError(f"cannot read ratings file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # exc.object is the file after any byte-order mark; lines are numbered as
        # splitlines() below splits them, the bad byte's own line ("x") last
        before, bad = exc.object[: exc.start].decode(), exc.object[exc.start]
        number = len((before + "x").splitlines())
        raise IngestError(f"{path}, line {number}: byte {bad:#04x} is not UTF-8 text") from exc
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = _split_line(line)
        if len(parts) != 3:
            skipped += 1
            continue
        user, item, raw_rating = parts
        try:
            rating = int(raw_rating)
        except ValueError:
            skipped += 1
            continue
        # int() reads the digits of any script ("５" is 5); a rating is ASCII
        if not raw_rating.isascii() or not 1 <= rating <= 5 or not user or not item:
            skipped += 1
            continue
        rows.append((user, item, rating))
    return rows, skipped


def _mean(values: list[int]) -> float:
    return sum(values) / len(values)


def _variance(values: list[int]) -> float:
    mu = _mean(values)
    return sum((v - mu) ** 2 for v in values) / len(values)


def ingest_epinions(ratings_path: str | Path) -> EpinionsData:
    """Parse a ratings file into advisor datasets and item ground truths.

    Malformed lines are counted and skipped; when they exceed
    :data:`MAX_SKIP_RATIO` of the non-blank lines the whole ingestion aborts
    rather than silently building on a broken file.
    """
    rows, skipped = _parse_ratings(ratings_path)
    total = len(rows) + skipped
    if total == 0 or not rows:
        raise IngestError(f"{ratings_path}: no usable ratings")
    if skipped / total > MAX_SKIP_RATIO:
        raise IngestError(
            f"{ratings_path}: {skipped} of {total} lines malformed, aborting"
        )

    by_item: dict[str, list[tuple[str, int]]] = {}
    for user, item, rating in rows:
        by_item.setdefault(item, []).append((user, rating))
    global_mean = _mean([rating for _, _, rating in rows])

    item_truth: dict[str, float] = {}
    item_features: dict[str, tuple[float, float, float]] = {}
    for item, pairs in by_item.items():
        ratings = [rating for _, rating in pairs]
        item_truth[item] = float(ground_truth_trust(ratings))
        item_features[item] = (_mean(ratings), float(len(ratings)), _variance(ratings))

    # each user's feature rows and labels (1: rated at or above the cutoff)
    per_user: dict[str, tuple[list[tuple[float, float, float]], list[bool]]] = {}
    for user, item, rating in rows:
        others = [r for (u, r) in by_item[item] if u != user]
        if others:
            features = (_mean(others), float(len(others)), _variance(others))
        else:
            # Imputation for single-rater items: no peers to describe them.
            features = (global_mean, 0.0, 0.0)
        feature_rows, labels = per_user.setdefault(user, ([], []))
        feature_rows.append(features)
        labels.append(rating >= SATISFACTION_CUTOFF)
    datasets = {
        user: AdvisorDataset(RATINGS_SCHEMA, feature_rows, labels)
        for user, (feature_rows, labels) in per_user.items()
    }

    stats = IngestStats(
        users=len(datasets), items=len(by_item), reviews=len(rows), skipped=skipped
    )
    return EpinionsData(datasets, item_truth, item_features, stats)
