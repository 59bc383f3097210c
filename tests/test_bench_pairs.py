"""``tools/bench_pairs.py``'s expected-maximum summary against brute force,
and its launcher.

The estimate of the expected largest (or second largest) of ``k`` draws,
from ``n`` repetitions, must be the average of that order statistic over
every ``k``-subset of the repetitions. A run started through the launcher
must report its own peak memory, not that of the script that started it.
"""

import importlib.util
import itertools
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def estimate(values, k, rank=1):
    return float(bench_pairs.order_weights(len(values), k, rank) @ np.sort(values))


def samples(seed, n):
    rng = random.Random(seed)
    return [rng.lognormvariate(0.0, 0.5) for _ in range(n)]


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_one_draw_is_the_mean(n):
    values = samples(n, n)
    assert estimate(values, 1) == pytest.approx(statistics.fmean(values), rel=1e-12)


@pytest.mark.parametrize("n", [2, 6, 11])
def test_all_draws_give_the_largest_and_the_second_largest(n):
    values = samples(n, n)
    assert estimate(values, n) == max(values)
    assert estimate(values, n, rank=2) == sorted(values)[-2]


@pytest.mark.parametrize("n", range(6, 11))
@pytest.mark.parametrize("rank", [1, 2])
def test_six_draws_average_every_six_subset(n, rank):
    values = samples(100 + n, n)
    brute = statistics.fmean(
        sorted(subset)[-rank] for subset in itertools.combinations(values, 6)
    )
    assert estimate(values, 6, rank) == pytest.approx(brute, rel=1e-12)


def test_ties_and_bad_arguments():
    assert estimate([2.0] * 7, 6) == pytest.approx(2.0)
    assert estimate([2.0] * 7, 6, rank=2) == pytest.approx(2.0)
    for n, k, rank in [(5, 6, 1), (3, 1, 2), (3, 2, 3)]:
        with pytest.raises(ValueError):
            bench_pairs.order_weights(n, k, rank)


def repetition(step_seconds):
    """A result-file repetition: entry, one setup step, 20 rounds, exit."""
    points = [0.0, *itertools.accumulate(step_seconds)]
    calls = [["build_advisor", 1, 2]] + [["run_round", 2 * r + 3, 2 * r + 4] for r in range(20)]
    assert len(points) == 2 * 20 + 5
    return {"points": points, "calls": calls}


def test_summary_with_every_repetition_as_draws_is_the_max_based_one():
    rng = random.Random(1)
    reps = [repetition([rng.uniform(0.1, 1.0) for _ in range(44)]) for _ in range(7)]
    steps = np.diff(np.array([rep["points"] for rep in reps]), axis=1)
    slowest, second = np.sort(steps, axis=0)[-1], np.sort(steps, axis=0)[-2]
    rounds = [(2 * r + 3, 2 * r + 4) for r in range(20)]
    got = bench_pairs.expected_max(reps, k=len(reps))
    assert got["scenario_s"] == pytest.approx(slowest.sum())
    assert got["setup_s"] == pytest.approx(slowest[:3].sum())
    assert got["round_ms_p50"] == pytest.approx(
        statistics.median(slowest[a:b].sum() * 1e3 for a, b in rounds)
    )
    # 20 rounds: p50 is the highest whole percentile with 10 rounds beyond it
    assert bench_pairs.tail_rank(20) == 10
    assert got["round_ms_tail"] == pytest.approx(
        sorted(second[a:b].sum() * 1e3 for a, b in rounds)[9]
    )


#: Prints the peak resident set of the process it runs in, in MB (Linux units).
PEAK_MB = [sys.executable, "-c",
           "import resource; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)"]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KB on Linux")
def test_a_launched_run_reports_its_own_peak_memory():
    held = b"x" * (100 << 20)  # written, so resident
    direct = float(subprocess.check_output(PEAK_MB))
    launched = float(subprocess.check_output(bench_pairs.launched(PEAK_MB)))
    # a direct child starts with this process's peak; a launched one does not
    assert direct >= 100
    assert launched < 50
    del held


DECLARED = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)["end_to_end"]


def test_gate_marks_ratios_past_their_bound_either_way():
    ratios = {
        "scenario_s": 1.25,  # bound 0.24: worse
        "setup_s": 0.74,  # bound 0.25: better
        "round_ms_p50": 0.77,  # bound 0.24: inside
        "round_ms_tail": 1.2,
        "peak_rss_mb": 1.11,  # bound 0.10: worse
        "repetitions": 2.0,  # not an end-to-end metric
    }
    assert bench_pairs.gate_marks(ratios, DECLARED) == {
        "scenario_s": "past its 24% bound, worse",
        "setup_s": "past its 25% bound, better",
        "peak_rss_mb": "past its 10% bound, worse",
    }


def test_summary_prints_the_mark_beside_the_repetition_ratio():
    def run(scale, reps):
        values = dict.fromkeys(bench_pairs.COLUMNS, 1.0)
        values.update(round_ms_p50=scale, repetitions=reps)
        return values

    parent = [run(1.0, 100), run(1.1, 100), run(0.9, 100)]
    change = [run(0.3, 120), run(0.33, 120), run(0.27, 120)]
    lines = bench_pairs.summary_lines(parent, change, DECLARED)
    assert len(lines) == len(bench_pairs.COLUMNS)
    (marked,) = [line for line in lines if "**" in line]
    assert marked.startswith("  round_ms_p50: parent 1 ")
    assert marked.endswith(
        "ratio 0.300, change lower in 3 of 3  ** past its 24% bound, better; "
        "repetitions ratio 1.200"
    )
