"""The benchmark's workloads: their inputs, the timed entry call and the output checks.

Two workloads enter through ``trustsim.simulate.run_scenario`` and one through
``trustsim.cli.main``. Every input derives from the benchmark seed; the ratings
file of ``ratings-cli`` is generated here and the program only reads the file.

Each workload turns what one run produced into the same canonical outputs
(summary fields plus the final credibility ledger), so one set of checks and one
reference format serve all three.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from trustsim import cli
from trustsim.simulate import ScenarioConfig, run_scenario

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: Seed whose outputs are compared against ``reference.json``.
PINNED_SEED = 42

#: Largest absolute difference allowed between a float output and its
#: reference. Far above float re-association noise (about 1e-10 for the fused
#: beliefs), far below the change one flipped decision makes (about 1e-3).
REFERENCE_TOLERANCE = 1e-6

#: Largest deviation from 1 allowed for the beliefs of one trace record.
BELIEF_SUM_TOLERANCE = 1e-9

_SCENARIO_FIELDS = {
    "sybil-rounds": {
        "full": dict(
            n_advisors=100, n_items=50, n_iterations=10, attack_kind="sybil",
            attacker_fraction=0.3, sybil_count=4, records_per_advisor=60,
        ),
        "toy": dict(
            n_advisors=10, n_items=6, n_iterations=3, attack_kind="sybil",
            attacker_fraction=0.3, sybil_count=2, records_per_advisor=20,
        ),
    },
    "deep-build": {
        "full": dict(
            n_advisors=25, n_items=10, n_iterations=3, attack_kind="none",
            records_per_advisor=400,
        ),
        "toy": dict(
            n_advisors=4, n_items=6, n_iterations=3, attack_kind="none",
            records_per_advisor=40,
        ),
    },
}

# Ratings file shape and the CLI run over it. The item exponent gives the top
# item about 2,000 of the 20,000 reviews, which is what makes ingestion cost
# show (it grows with the square of an item's rater count).
_CLI_SCALES = {
    "full": dict(users=2500, items=300, reviews=20000, advisors=100, cli_items=30, iterations=10),
    "toy": dict(users=200, items=30, reviews=1500, advisors=10, cli_items=5, iterations=3),
}
ITEM_POPULARITY_EXPONENT = 0.85
USER_ACTIVITY_EXPONENT = 0.3


class CheckFailed(Exception):
    """A run's outputs are wrong: missing, malformed or off the reference."""


@dataclass
class Outputs:
    """What every workload's run is checked on."""

    mae_mean: float
    mae_plain_mean: float
    cells: int
    skipped: int
    credibility: dict[str, float]
    trace_digest: str | None = None


class ScenarioWorkload:
    """``run_scenario`` on a synthetic population."""

    def __init__(self, name: str, seed: int, toy: bool) -> None:
        self.fields = _SCENARIO_FIELDS[name]["toy" if toy else "full"]
        self.seed = seed
        self.rounds = self.fields["n_items"] * self.fields["n_iterations"]
        self.inputs: dict = {}

    def describe(self) -> dict:
        return {"entry": "trustsim.simulate.run_scenario", "config": self.fields}

    def prepare(self) -> None:
        """Nothing to do before a run: the population is synthesised inside it."""

    def call(self):
        return run_scenario(ScenarioConfig(seed=self.seed, **self.fields))

    def outputs(self, result) -> Outputs:
        return Outputs(
            mae_mean=float(result.summary[0]),
            mae_plain_mean=float(result.summary_plain[0]),
            cells=int(result.per_item_mae.size - result.skipped_cells),
            skipped=int(result.skipped_cells),
            credibility={
                str(agent.value): float(score)
                for agent, score in result.credibility_ledger.as_map().items()
            },
        )

    def file_sizes(self) -> dict[str, int]:
        return {}


class CliWorkload:
    """``trustsim simulate --ratings`` on a generated ratings file, trace on."""

    def __init__(self, seed: int, work_dir: Path, toy: bool) -> None:
        self.scale = _CLI_SCALES["toy" if toy else "full"]
        self.seed = seed
        self.work_dir = work_dir
        self.ratings_path = work_dir / "ratings.txt"
        self.out_dir = work_dir / "run"
        self.rounds = self.scale["cli_items"] * self.scale["iterations"]
        self.inputs: dict = {}
        self.argv = [
            "simulate", "--ratings", str(self.ratings_path),
            "--attack", "whitewash", "--reset-period", "3",
            "--advisors", str(self.scale["advisors"]),
            "--items", str(self.scale["cli_items"]),
            "--iterations", str(self.scale["iterations"]),
            "--seed", str(seed), "--out", str(self.out_dir),
        ]

    def describe(self) -> dict:
        placeholders = {str(self.ratings_path): "<ratings.txt>", str(self.out_dir): "<out>"}
        return {"entry": "trustsim.cli.main", "argv": [placeholders.get(a, a) for a in self.argv]}

    def generate(self) -> None:
        """Write the seeded ratings file and record the properties that drive cost."""
        self.work_dir.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        props = generate_ratings(
            self.ratings_path, self.seed,
            self.scale["users"], self.scale["items"], self.scale["reviews"],
        )
        self.inputs = {**props, "generate_s": time.perf_counter() - start}

    def prepare(self) -> None:
        """Clear the previous run's directory, so each run writes from scratch."""
        if self.out_dir.exists():
            shutil.rmtree(self.out_dir)

    def call(self) -> int:
        # cli.main prints a one-line notice; keep the benchmark's stdout clean.
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def outputs(self, code: int) -> Outputs:
        if code != 0:
            raise CheckFailed(f"trustsim simulate exited with {code}")
        try:
            raw = (self.out_dir / "trace.jsonl").read_bytes()
        except OSError as exc:
            raise CheckFailed(f"no trace: {exc}") from exc
        lines = raw.decode().splitlines()
        if len(lines) != self.rounds:
            raise CheckFailed(f"trace.jsonl has {len(lines)} records, expected {self.rounds}")
        for number, line in enumerate(lines, 1):
            try:
                beliefs = json.loads(line)["beliefs"]
                total = beliefs["trust"] + beliefs["distrust"] + beliefs["uncertainty"]
            except (ValueError, KeyError, TypeError) as exc:
                raise CheckFailed(f"trace.jsonl line {number} is malformed: {exc}") from exc
            if abs(total - 1.0) > BELIEF_SUM_TOLERANCE:
                raise CheckFailed(f"trace.jsonl line {number}: beliefs sum to {total!r}")
        try:
            summary = json.loads((self.out_dir / "summary.json").read_text())
            ledger = (self.out_dir / "credibility.tsv").read_text().splitlines()[1:]
            credibility = {
                agent: float(score)
                for agent, score in (line.split("\t") for line in ledger if line.strip())
            }
            return Outputs(
                mae_mean=float(summary["mae_mean"]),
                mae_plain_mean=float(summary["mae_plain_mean"]),
                cells=int(summary["cells"]),
                skipped=int(summary["skipped"]),
                credibility=credibility,
                trace_digest=hashlib.sha256(raw).hexdigest(),
            )
        except (OSError, ValueError, KeyError) as exc:
            raise CheckFailed(f"run directory is incomplete or malformed: {exc}") from exc

    def file_sizes(self) -> dict[str, int]:
        return {path.name: path.stat().st_size for path in self.out_dir.iterdir()}


def make(name: str, seed: int, work_dir: Path, toy: bool = False):
    if name == "ratings-cli":
        workload = CliWorkload(seed, work_dir, toy)
        workload.generate()
        return workload
    return ScenarioWorkload(name, seed, toy)


def generate_ratings(path: Path, seed: int, n_users: int, n_items: int, n_reviews: int) -> dict:
    """Write ``user item rating`` lines with Zipf-like item popularity.

    Item k (by popularity) gets a share of the reviews proportional to
    k^-ITEM_POPULARITY_EXPONENT; its raters are drawn without replacement, with
    mildly skewed user activity, so no user rates an item twice. Each item has
    a latent quality that centres its ratings. Lines are shuffled, since
    ingestion order decides record order and hence cross-validation folds.
    """
    rng = np.random.default_rng(seed)
    weights = np.arange(1, n_items + 1) ** -ITEM_POPULARITY_EXPONENT
    raters = np.clip(np.rint(weights / weights.sum() * n_reviews), 1, n_users).astype(int)
    activity = np.arange(1, n_users + 1) ** -USER_ACTIVITY_EXPONENT
    activity /= activity.sum()
    user_ids = rng.permutation(n_users)
    item_ids = rng.permutation(n_items)
    quality = rng.uniform(0.0, 1.0, n_items)
    lines = []
    for item in range(n_items):
        users = rng.choice(n_users, size=raters[item], replace=False, p=activity)
        ratings = np.clip(np.rint(rng.normal(1 + 4 * quality[item], 1.0, raters[item])), 1, 5)
        lines.extend(
            f"u{user_ids[u]} i{item_ids[item]} {int(r)}" for u, r in zip(users, ratings)
        )
    order = rng.permutation(len(lines))
    path.write_text("\n".join(lines[i] for i in order) + "\n")
    users_seen = {line.split(" ", 1)[0] for line in lines}
    return {
        "reviews": len(lines),
        "users": len(users_seen),
        "items": n_items,
        "max_item_raters": int(raters.max()),
    }


def check(outputs: Outputs, rounds: int) -> None:
    """Invariants that hold for every seed."""
    if outputs.cells + outputs.skipped != rounds:
        raise CheckFailed(f"cells {outputs.cells} + skipped {outputs.skipped} != {rounds} rounds")
    if outputs.cells < 1:
        raise CheckFailed("no round had a responder")
    for key in ("mae_mean", "mae_plain_mean"):
        value = getattr(outputs, key)
        if not 0.0 <= value <= 1.0:
            raise CheckFailed(f"{key} = {value!r} lies outside [0, 1]")
    if not outputs.credibility:
        raise CheckFailed("the final credibility ledger is empty")
    for agent, score in outputs.credibility.items():
        if not 0.0 <= score <= 1.0:
            raise CheckFailed(f"credibility of {agent} = {score!r} lies outside [0, 1]")


def reference_for(name: str) -> dict:
    return json.loads(REFERENCE_PATH.read_text())["workloads"][name]


def compare_with_reference(outputs: Outputs, reference: dict) -> None:
    """Pinned-seed check: exact counts, floats within REFERENCE_TOLERANCE."""
    for key in ("cells", "skipped"):
        if getattr(outputs, key) != reference[key]:
            raise CheckFailed(f"{key} = {getattr(outputs, key)}, reference {reference[key]}")
    for key in ("mae_mean", "mae_plain_mean"):
        if not math.isclose(getattr(outputs, key), reference[key], rel_tol=0.0, abs_tol=REFERENCE_TOLERANCE):
            raise CheckFailed(f"{key} = {getattr(outputs, key)!r}, reference {reference[key]!r}")
    expected = reference["credibility"]
    if set(outputs.credibility) != set(expected):
        raise CheckFailed(
            f"final ledger holds {len(outputs.credibility)} identities, reference {len(expected)}"
        )
    for agent, score in expected.items():
        if not math.isclose(outputs.credibility[agent], score, rel_tol=0.0, abs_tol=REFERENCE_TOLERANCE):
            raise CheckFailed(
                f"credibility of {agent} = {outputs.credibility[agent]!r}, reference {score!r}"
            )
