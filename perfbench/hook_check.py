#!/usr/bin/env python3
"""Check that the step timestamps of untraced runs do not move scenario_s.

Alternates bare repetitions (the package untouched) with hooked ones (the
timestamp wrappers around ``run.STEP_FUNCTIONS`` in ``trustsim.simulate`` that
``--trace 0`` runs use), switching which goes first in each pair, and prints
the median and quartiles of ``scenario_s`` for each side:

    python3 perfbench/hook_check.py --workload sybil-rounds --pairs 6
"""

from __future__ import annotations

import argparse
import statistics

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=run.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=6)
    args = parser.parse_args()

    run.load_package()
    import workloads

    work_dir = run.OUT_ROOT / "hook_check" / f"{args.workload}-seed{args.seed}"
    workload = workloads.make(args.workload, args.seed, work_dir)
    bare: list[float] = []
    hooked: list[float] = []
    for pair in range(args.pairs):
        for with_hook in (pair % 2 == 1, pair % 2 == 0):
            if with_hook:
                hooked.append(run.untraced_rep(workload)["scenario_s"])
            else:
                bare.append(run.timed(workload)[0])
    hook_faster = sum(h < b for h, b in zip(hooked, bare))
    for label, values in (("bare", bare), ("hooked", hooked)):
        q1, q2, q3 = run.quartiles(values)
        print(f"{label:>6}: scenario_s median {q2:.4f} s (q1 {q1:.4f}, q3 {q3:.4f}), {len(values)} runs")
    ratio = statistics.median(hooked) / statistics.median(bare) - 1
    print(f"hooked/bare - 1 = {ratio:+.2%}; hooked faster in {hook_faster} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
