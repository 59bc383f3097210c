"""Run the benchmark in pairs: a parent checkout against this one, alternating.

    python tools/bench_pairs.py --parent ../trustsim-parent --pairs 10
    python tools/bench_pairs.py --parent ../trustsim-parent --workload sybil-rounds --pairs 3

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, one run at a time; which side goes first
switches from pair to pair. The run length T is the ``run_seconds`` that
``BENCHMARK.json`` declares, and the workloads default to those it lists. Per
pair and workload it prints the five end-to-end metrics, the number of
repetitions (scenarios) the run fitted and the median over those repetitions
of each one's own ``setup_s`` and ``round_ms_p50`` (read from the run's
``.perfbench_out`` result file), each beside its change/parent ratio. The
per-repetition medians do not move with the repetition count, so they tell a
change in the work itself from a run that merely fitted more repetitions.
Beside them it prints ``e2_scenario_s``, ``e2_setup_s``, ``e2_round_ms_p50``
and ``e2_round_ms_tail``: the benchmark's own summary with each step's slowest
repetition (second slowest for the tail) replaced by an unbiased estimate of
its expected maximum (expected second largest) over 2 repetitions, read from
the same result file (``expected_max``). A summary per workload follows: each
side's median and quartiles, the ratio of the medians and in how many pairs
the change read lower. Where a median ratio of an end-to-end metric moved
past that metric's ``bound`` in ``BENCHMARK.json``, in either direction, the
line is marked ``past its N % bound`` (worse or better) and shows the ratio of
the repetition counts beside it, since a run that fits more repetitions reads
higher maxima and more memory.

Each run is started through a small launcher process (``launched``), so that
its ``peak_rss_mb`` is its own and not this script's.

The script only starts the benchmark and reads what it wrote; it imports
nothing from ``perfbench/`` and writes nothing there.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("scenario_s", "setup_s", "round_ms_p50", "round_ms_tail", "peak_rss_mb")
#: Read from the result file, not from the run's printed metrics.
REPETITIONS, REP_SETUP, REP_ROUND_P50 = "repetitions", "rep_setup_s", "rep_round_ms_p50"
#: Draws whose expected maximum stands in for the maximum over every repetition.
#: Two draws read at about the repetitions' upper quartile (1.01-1.05 x q3 on
#: sybil-rounds); six read about 31 % above it.
DRAWS = 2
EXPECTED = tuple(f"e{DRAWS}_{name}" for name in METRICS[:4])
COLUMNS = METRICS + (REPETITIONS, REP_SETUP, REP_ROUND_P50) + EXPECTED


def order_weights(n: int, k: int, rank: int = 1) -> np.ndarray:
    """Weights of the sorted sample x_(1) <= ... <= x_(n) whose sum with it is
    the unbiased estimate of the expected ``rank``-th largest of ``k`` draws
    (``rank`` 1 or 2): x_(i) is that value in C(i-1, k-1) of the C(n, k)
    k-subsets for the largest, and in C(i-1, k-2)*(n-i) for the second."""
    if not 1 <= rank <= 2 or not rank <= k <= n:
        raise ValueError(f"need 1 <= rank <= 2 and rank <= k <= n, got {rank}, {k}, {n}")
    subsets = math.comb(n, k)
    if rank == 1:
        return np.array([math.comb(i - 1, k - 1) / subsets for i in range(1, n + 1)])
    return np.array([math.comb(i - 1, k - 2) * (n - i) / subsets for i in range(1, n + 1)])


def tail_rank(rounds: int) -> int:
    """1-based rank of the tail round: the highest whole percentile with at
    least 10 rounds beyond it, as the benchmark takes it."""
    percentile = 100 * (rounds - 10) // rounds
    return math.ceil(percentile * rounds / 100)


def expected_max(reps: list[dict], k: int = DRAWS) -> dict[str, float]:
    """The benchmark's end-to-end summary of a run, each step's slowest
    repetition (second slowest for ``round_ms_tail``) replaced by its
    expected value over ``k`` repetitions, estimated from all of them.

    Each repetition's ``points`` split it into the same steps; ``calls`` name
    the step calls and where they start and end in ``points``.
    """
    ranked = np.sort(np.diff(np.array([rep["points"] for rep in reps]), axis=1), axis=0)
    largest = order_weights(len(reps), k) @ ranked
    second = order_weights(len(reps), k, rank=2) @ ranked
    rounds = [(entry, exit) for name, entry, exit in reps[0]["calls"] if name == "run_round"]
    return {
        "scenario_s": float(largest.sum()),
        "setup_s": float(largest[: rounds[0][0]].sum()),
        "round_ms_p50": statistics.median(float(largest[a:b].sum()) * 1e3 for a, b in rounds),
        "round_ms_tail": sorted(float(second[a:b].sum()) * 1e3 for a, b in rounds)[
            tail_rank(len(rounds)) - 1
        ],
    }


def launched(command: list[str]) -> list[str]:
    """``command`` started from a fresh, small Python process. On Linux a child
    starts with its parent's peak resident set as its own (``ru_maxrss``
    carries over fork and exec), and this script grows as it reads result
    files; a run started from the launcher reports its own peak."""
    launcher = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"
    return [sys.executable, "-c", launcher, *command]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One benchmark run in ``checkout``: its metrics, repetition count and
    per-repetition medians; exits when the run fails or is wrong."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        launched(command), cwd=checkout, capture_output=True, text=True, check=False
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {workload} in {checkout} exited {done.returncode}:\n{done.stderr}")
    summary = json.loads(lines[-1])
    if not summary["correct"]:
        sys.exit(f"bench_pairs: {workload} in {checkout} is not correct:\n{done.stdout}")
    result = checkout / ".perfbench_out" / f"BENCH_{workload}_seed{seed}_trace0.json"
    reps = json.loads(result.read_text(encoding="utf-8"))["repetitions"]
    values = {name: summary["metrics"][name]["value"] for name in METRICS}
    values[REPETITIONS] = len(reps)
    values[REP_SETUP] = statistics.median(rep["setup_s"] for rep in reps)
    values[REP_ROUND_P50] = statistics.median(rep["round_ms_p50"] for rep in reps)
    estimated = expected_max(reps) if len(reps) >= DRAWS else dict.fromkeys(METRICS, math.nan)
    values.update({f"e{DRAWS}_{name}": estimated[name] for name in METRICS[:4]})
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def gate_marks(ratios: dict[str, float], declared: list[dict]) -> dict[str, str]:
    """The end-to-end metrics of ``declared`` (``BENCHMARK.json``'s
    ``end_to_end``) whose change/parent ratio in ``ratios`` moved past the
    metric's ``bound``, in either direction, each with its mark."""
    marks = {}
    for metric in declared:
        ratio = ratios.get(metric["name"])
        if ratio is None or abs(ratio - 1.0) <= metric["bound"]:
            continue
        worse = (ratio > 1.0) == (metric["better"] == "lower")
        marks[metric["name"]] = (
            f"past its {metric['bound']:.0%} bound, {'worse' if worse else 'better'}"
        )
    return marks


def summary_lines(
    parent_runs: list[dict], change_runs: list[dict], declared: list[dict]
) -> list[str]:
    """Per column: each side's median and quartiles over the pairs, the ratio
    of the medians and in how many pairs the change read lower; a metric that
    moved past its bound is marked, beside the repetition-count ratio."""
    medians = {
        name: (
            quartiles([run[name] for run in parent_runs]),
            quartiles([run[name] for run in change_runs]),
        )
        for name in COLUMNS
    }
    ratios = {name: change[1] / parent[1] for name, (parent, change) in medians.items()}
    marks = gate_marks(ratios, declared)
    lines = []
    for name, ((p1, p2, p3), (c1, c2, c3)) in medians.items():
        lower = sum(c[name] < p[name] for p, c in zip(parent_runs, change_runs))
        line = (
            f"  {name}: parent {p2:.4g} (q1 {p1:.4g}, q3 {p3:.4g}), change {c2:.4g} "
            f"(q1 {c1:.4g}, q3 {c3:.4g}), ratio {ratios[name]:.3f}, "
            f"change lower in {lower} of {len(parent_runs)}"
        )
        if name in marks:
            line += f"  ** {marks[name]}; repetitions ratio {ratios[REPETITIONS]:.3f}"
        lines.append(line)
    return lines


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument(
        "--workload", action="append", help="default: every workload of BENCHMARK.json"
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    seconds = declared["run_seconds"]
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    runs: dict[str, dict[str, list[dict]]] = {w: {"parent": [], "change": []} for w in workloads}

    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in workloads:
            got = {side: run_once(sides[side], workload, args.seed, seconds) for side in order}
            for side in order:
                runs[workload][side].append(got[side])
            cells = "  ".join(
                f"{name} {got['parent'][name]:.4g}/{got['change'][name]:.4g}"
                f" ({got['change'][name] / got['parent'][name]:.3f})"
                for name in COLUMNS
            )
            print(f"pair {pair + 1} {workload} ({order[0]} first), parent/change (ratio): {cells}",
                  flush=True)

    for workload in workloads:
        print(f"{workload}: {args.pairs} pairs, seed {args.seed}, {seconds:g} s a run")
        sides = runs[workload]
        for line in summary_lines(sides["parent"], sides["change"], declared["end_to_end"]):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
