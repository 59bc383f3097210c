"""Ingestion of ratings files in the classic three-column review format.

Input lines are ``user item rating``, fields separated by commas or else by
runs of ASCII spaces and tabs, and a rating is exactly one ASCII digit from 1
to 5. Each user becomes an advisor dataset: one record per item the user
rated, with features computed from how *other* users rated that item and a
label from the user's own satisfaction (4 or above counts as trustworthy). Item-level ground truth is the fraction of all ratings at 4 or
above. The file is UTF-8 (a leading byte-order mark is dropped); its lines end
at ``\n``, ``\r\n`` or a lone ``\r``. Unicode spaces and line separators
(U+3000, U+0085, U+2028, ``\x1c``, ...) are ordinary characters, so a line
that relies on them is malformed, as is a rating such as ``+4``, ``0_5``,
``05`` or the full-width ``５``.
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


#: The blanks that pad and separate fields.
_BLANKS = " \t"

#: The ratings a file may hold, by their exact text.
_RATING_OF = {str(rating): rating for rating in range(1, 6)}


def _lines(text: str) -> list[str]:
    """``text`` split at ``\n``, ``\r\n`` and a lone ``\r`` only (Python's
    universal newlines); ``str.splitlines`` also splits at U+0085, U+2028,
    ``\x1c`` and other separators that a ratings file does not use."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _split_line(line: str) -> list[str]:
    """The fields of a line stripped of blanks: split at commas when it has
    one, else at each run of blanks."""
    if "," in line:
        return [part.strip(_BLANKS) for part in line.split(",")]
    return [part for part in line.replace("\t", " ").split(" ") if part]


def _parse_ratings(path: str | Path) -> tuple[list[tuple[str, str, int]], int]:
    rows: list[tuple[str, str, int]] = []
    skipped = 0
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except OSError as exc:
        raise IngestError(f"cannot read ratings file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # exc.object is the file after any byte-order mark; lines are numbered as
        # _lines() below splits them, the bad byte's own line ("x") last
        before, bad = exc.object[: exc.start].decode(), exc.object[exc.start]
        number = len(_lines(before + "x"))
        raise IngestError(f"{path}, line {number}: byte {bad:#04x} is not UTF-8 text") from exc
    for line in _lines(text):
        line = line.strip(_BLANKS)
        if not line or line.startswith("#"):
            continue
        parts = _split_line(line)
        if len(parts) != 3:
            skipped += 1
            continue
        user, item, raw_rating = parts
        rating = _RATING_OF.get(raw_rating)
        if rating is None or not user or not item:
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
