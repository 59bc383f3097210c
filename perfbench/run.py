#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of trustsim on three named workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sybil-rounds --seed 1 --seconds 44 --trace 0

The package is imported from ``src/`` beside this directory, never from an
install. A run repeats the workload's scenario until ``--seconds`` are spent
(three times at least), timing each repetition at its step boundaries, and
reports one scenario made of each step's slowest repetition (``summarise``).

``--trace 0`` times each repetition with no instrumentation but timestamps at
entry to and exit from the step functions of ``trustsim.simulate``
(``STEP_FUNCTIONS``: ingestion, population synthesis, each advisor build, each
round) and reports the end-to-end metrics. ``--trace 1`` alternates such
repetitions with traced ones, which record spans at every module boundary
(see ``spans.py``), and reports the per-layer metrics, the traced
``scenario_s`` beside the untraced one, and the phase and layer that dominate
the scenario.

Every repetition's outputs are checked (exit code, trace records, summary
fields, final credibility ledger); at seed 42 they are also compared with
``reference.json``. Human-readable lines go first; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A result file with the environment lands in ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# One single-threaded process per workload: pin numeric libraries before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"
NAMES = ("sybil-rounds", "deep-build", "ratings-cli")
MIN_REPS = 3

#: Units of the end-to-end metrics, by name.
END_TO_END_UNITS = {
    "scenario_s": "s",
    "setup_s": "s",
    "round_ms_p50": "ms",
    "round_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

#: Per-scenario values kept for every untraced repetition.
PER_SCENARIO = ("scenario_s", "setup_s", "round_ms_p50", "round_ms_tail")

#: Predicted dominant phase of each workload.
PREDICTED_PHASE = {"sybil-rounds": "rounds", "deep-build": "build", "ratings-cli": "ingestion"}


def load_package():
    """Import trustsim from this checkout's ``src/``; exit 2 when it is missing."""
    package = ROOT / "src" / "trustsim"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no trustsim sources at {package}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import trustsim

    if Path(trustsim.__file__).resolve().parent != package:
        print(f"perfbench: imported trustsim from {trustsim.__file__}, not {package}", file=sys.stderr)
        raise SystemExit(2)
    return trustsim


#: Functions of ``trustsim.simulate`` that ``run_scenario`` looks up in that
#: module and calls once per scenario phase, per advisor or per round. Their
#: entries and exits split a scenario into the same sequence of steps on every
#: repetition of a run.
STEP_FUNCTIONS = (
    "ingest_epinions",
    "population_from_ratings",
    "synthesize_population",
    "build_advisor",
    "run_round",
)


class StepClock:
    """Timestamps at entry to and exit from each of ``STEP_FUNCTIONS``.

    ``marks`` holds the timestamps in the order taken; ``calls`` holds, per
    call, the function name and the positions of its entry and exit marks.
    """

    def __init__(self) -> None:
        self.marks: list[float] = []
        self.calls: list[tuple[str, int, int]] = []

    def __enter__(self) -> "StepClock":
        from trustsim import simulate

        self._simulate = simulate
        self._originals = {
            name: getattr(simulate, name) for name in STEP_FUNCTIONS if hasattr(simulate, name)
        }
        for name, original in self._originals.items():
            setattr(simulate, name, self._wrap(name, original))
        return self

    def _wrap(self, name: str, original):
        marks, calls, clock = self.marks, self.calls, time.perf_counter

        def step(*args, **kwargs):
            entry = len(marks)
            marks.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                calls.append((name, entry, len(marks)))
                marks.append(clock())

        return step

    def __exit__(self, *exc) -> None:
        for name, original in self._originals.items():
            setattr(self._simulate, name, original)


def tail_rank(rounds: int) -> tuple[int, int]:
    """Highest whole percentile with at least 10 rounds beyond it, and its 1-based rank."""
    if rounds <= 10:
        raise ValueError(f"a tail needs more than 10 rounds, the workload has {rounds}")
    percentile = 100 * (rounds - 10) // rounds
    return percentile, math.ceil(percentile * rounds / 100)


def timed(workload, recorder=None):
    """One call of the workload's entry point: (seconds, start time, result)."""
    import spans

    workload.prepare()
    gc.collect()
    call = workload.call
    if recorder is not None:
        call = recorder.wrap(spans.SCENARIO, call)
    start = time.perf_counter()
    result = call()
    return time.perf_counter() - start, start, result


def untraced_rep(workload) -> dict:
    """One scenario timed at its step boundaries (``StepClock``).

    ``points`` are the scenario's entry (0), every step mark and its exit, in
    seconds from entry; ``calls`` gives each step call's name and the indices
    of its entry and exit in ``points``.
    """
    with StepClock() as clock:
        seconds, start, result = timed(workload)
    points = [0.0] + [mark - start for mark in clock.marks] + [seconds]
    calls = sorted((entry + 1, exit + 1, name) for name, entry, exit in clock.calls)
    calls = [(name, entry, exit) for entry, exit, name in calls]
    rounds = [(entry, exit) for name, entry, exit in calls if name == "run_round"]
    if not rounds:
        raise RuntimeError("the scenario ran no rounds")
    latencies = sorted((points[b] - points[a]) * 1e3 for a, b in rounds)
    _, rank = tail_rank(len(latencies))
    return {
        "scenario_s": seconds,
        "setup_s": points[rounds[0][0]],
        "round_ms_p50": statistics.median(latencies),
        "round_ms_tail": latencies[rank - 1],
        "rounds": len(latencies),
        "points": points,
        "calls": calls,
        "result": result,
    }


def traced_rep(workload) -> dict:
    import spans

    recorder = spans.SpanRecorder()
    with spans.instrument(recorder):
        seconds, _, result = timed(workload, recorder=recorder)
    return {"scenario_s": seconds, "recorder": recorder, "result": result}


def check_rep(workload, result, first, reference):
    """Check one repetition's outputs; returns them, raises workloads.CheckFailed."""
    import workloads

    outputs = workload.outputs(result)
    workloads.check(outputs, workload.rounds)
    if first is not None and outputs != first:
        raise workloads.CheckFailed("outputs differ from the first repetition of this run")
    if reference is not None:
        workloads.compare_with_reference(outputs, reference)
    return outputs


def environment(trustsim, seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=False,
            )
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "trustsim").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "split_backend": getattr(trustsim, "SPLIT_BACKEND", None),
        "trustsim": getattr(trustsim, "__version__", None),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def summarise(reps: list[dict]) -> dict[str, float]:
    """End-to-end figures of a run, from the slowest repetition of each step.

    Every repetition of a run takes the same steps (``StepClock``): the stretch
    from entry to the first step call, each call, each gap between two calls,
    and the stretch from the last call to exit. ``scenario_s`` sums each step's
    slowest repetition, ``setup_s`` does so up to the first round, and
    ``round_ms_p50`` is the median over rounds of each round's slowest
    repetition. ``round_ms_tail`` takes each round's second-slowest
    repetition instead: with the slowest, a single stall in any one
    repetition would reach the tail.

    On a shared host the machine flips between a fast and a slow state about
    2x apart, for stretches from under a second to minutes. A step lasts
    milliseconds to seconds, and a run's repetitions of it come seconds apart,
    so nearly every step is seen in the slow state at least once, and the
    figures measure the program in that one state whatever share of the run
    the host spent in it (see README).
    """
    layout = [tuple(call) for call in reps[0]["calls"]]
    for rep in reps:
        if len(rep["points"]) != len(reps[0]["points"]) or [tuple(c) for c in rep["calls"]] != layout:
            raise RuntimeError("repetitions of the scenario took different steps")
    ranked = np.sort(np.diff(np.array([rep["points"] for rep in reps]), axis=1), axis=0)
    slowest, second = ranked[-1], ranked[-2]
    rounds = [(entry, exit) for name, entry, exit in layout if name == "run_round"]
    _, rank = tail_rank(len(rounds))
    return {
        "scenario_s": float(slowest.sum()),
        "setup_s": float(slowest[: rounds[0][0]].sum()),
        "round_ms_p50": statistics.median(float(slowest[a:b].sum()) * 1e3 for a, b in rounds),
        "round_ms_tail": sorted(float(second[a:b].sum()) * 1e3 for a, b in rounds)[rank - 1],
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args) -> dict:
    trustsim = load_package()
    import spans
    import workloads

    work_dir = OUT_ROOT / ("toy" if args.toy else "full") / f"{args.workload}-seed{args.seed}"
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload, args.seed, work_dir, toy=args.toy)
    reference = None
    if args.seed == workloads.PINNED_SEED and not args.toy:
        reference = workloads.reference_for(args.workload)

    # Fill lazy state (first numpy calls, imports inside the package) on a toy run.
    warm = workloads.make(args.workload, args.seed, work_dir / "warmup", toy=True)
    warm.outputs(warm.call())

    attempted = failed = 0
    errors: list[str] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    first = None
    kinds = ("untraced", "traced") if args.trace else ("untraced",)
    deadline = time.perf_counter() + args.seconds
    cycle_times: list[float] = []
    while True:
        cycle_start = time.perf_counter()
        for kind in kinds:
            attempted += 1
            try:
                rep = untraced_rep(workload) if kind == "untraced" else traced_rep(workload)
                first = check_rep(workload, rep.pop("result"), first, reference)
            except Exception as exc:  # noqa: BLE001 - a failed repetition is counted, not fatal
                failed += 1
                errors.append(f"{kind}: {type(exc).__name__}: {exc}")
                continue
            (untraced if kind == "untraced" else traced).append(rep)
        cycle_times.append(time.perf_counter() - cycle_start)
        cycles = len(cycle_times)
        if cycles >= (1 if args.trace else MIN_REPS) and (
            time.perf_counter() + max(cycle_times) > deadline
        ):
            break

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "toy": args.toy,
        "environment": environment(trustsim, args.seed),
        "scenario": workload.describe(),
        "inputs": workload.inputs,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        "repetitions": untraced,
    }
    metrics: dict[str, float] = {}
    if untraced:
        rounds = untraced[0]["rounds"]
        percentile, _ = tail_rank(rounds)
        report["round_samples"] = {"rounds_per_scenario": rounds, "tail_percentile": percentile}
        report["quartiles"] = {
            name: quartiles([rep[name] for rep in untraced]) for name in PER_SCENARIO
        }
    if not args.trace and len(untraced) >= 2:
        metrics = summarise(untraced)
        metrics["peak_rss_mb"] = peak_rss_mb()
    if args.trace and traced and untraced:
        per_rep = [spans.layer_metrics(rep["recorder"]) for rep in traced]
        layer = {name: statistics.median(rep[name] for rep in per_rep) for name in per_rep[0]}
        layer.update(file_metrics(workload))
        layer["trace.scenario_s"] = max(rep["scenario_s"] for rep in traced)
        layer["trace.untraced_scenario_s"] = max(rep["scenario_s"] for rep in untraced)
        report["breakdown"] = spans.breakdown(traced[-1]["recorder"])
        report["layer_metrics"] = layer
        traced[-1]["recorder"].save(work_dir / "spans.npz")
        metrics = layer
    report["metrics"] = metrics
    return report


def file_metrics(workload) -> dict[str, int]:
    """Sizes of what the CLI wrote; 0 on workloads that do not go through it."""
    sizes = workload.file_sizes()
    records = 0
    if "trace.jsonl" in sizes:
        with open(workload.out_dir / "trace.jsonl", "rb") as handle:
            records = sum(1 for _ in handle)
    return {
        "cli.trace_bytes": sizes.get("trace.jsonl", 0),
        "cli.trace_records": records,
        "cli.output_bytes": sum(size for name, size in sizes.items() if name != "trace.jsonl"),
    }


def units(trace: int) -> dict[str, str]:
    if not trace:
        return END_TO_END_UNITS
    import spans

    return spans.LAYER_UNITS


def print_report(report: dict) -> None:
    env = report["environment"]
    print(
        f"perfbench {report['workload']} seed={env['seed']} trace={report['trace']} "
        f"backend={env['split_backend']} trustsim={env['trustsim']} python={env['python']} "
        f"numpy={env['numpy']} nproc={env['nproc']} commit={env['git_commit'] or 'n/a'}"
    )
    if report["inputs"]:
        print("  input: " + " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                                     for k, v in report["inputs"].items()) + " (generation not timed)")
    for error in report["errors"]:
        print(f"  FAILED {error}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"  failed_frac = {failed / attempted:.4g} fraction  ({failed} of {attempted} scenario runs)")
    metric_units = units(report["trace"])
    samples = report.get("round_samples", {})
    rounds = samples.get("rounds_per_scenario")
    notes = {
        "round_ms_p50": f"p50 of {rounds} rounds",
        "round_ms_tail": f"p{samples.get('tail_percentile')} of {rounds} rounds",
        "peak_rss_mb": "peak resident set of this process",
    }
    quart = report.get("quartiles", {})
    for name, value in report["metrics"].items():
        note = notes.get(name, "")
        if name in quart and not report["trace"]:
            q1, _, q3 = quart[name]
            scenarios = len(report["repetitions"])
            which = "second slowest" if name == "round_ms_tail" else "slowest"
            note = "; ".join(filter(None, [
                f"steps' {which} of {scenarios} scenarios", note,
                f"per scenario q1 {q1:.4g}, q3 {q3:.4g}",
            ]))
        print(f"  {name} = {value:.6g} {metric_units[name]}" + (f"  ({note})" if note else ""))
    if "breakdown" in report:
        phases = report["breakdown"]["phase_share"]
        layers = report["breakdown"]["layer_self_share"]
        traced, bare = report["metrics"]["trace.scenario_s"], report["metrics"]["trace.untraced_scenario_s"]
        print(f"  tracing overhead: traced scenario_s {traced:.4g} s vs untraced {bare:.4g} s "
              f"({traced / bare - 1:+.1%})")
        print("  phase share: " + ", ".join(f"{k} {v:.1%}" for k, v in phases.items()))
        print("  layer self-time share: " + ", ".join(f"{k} {v:.1%}" for k, v in layers.items()))
        dominant = max((k for k in phases if k != "other"), key=phases.get)
        predicted = PREDICTED_PHASE[report["workload"]]
        verdict = "as predicted" if dominant == predicted else f"DIFFERS from the prediction ({predicted})"
        print(f"  dominant phase: {dominant}, {verdict}; dominant layer: {next(iter(layers))}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    report = run(args)
    OUT_ROOT.mkdir(exist_ok=True)
    result_path = OUT_ROOT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}{'_toy' if args.toy else ''}.json"
    result_path.write_text(json.dumps(report, indent=1, default=float) + "\n")
    print_report(report)
    metric_units = units(args.trace)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": metric_units[name]}
            for name, value in report["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
