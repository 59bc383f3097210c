#!/usr/bin/env python3
"""Benchmark the compiled split kernel against the pure-Python fallback.

Times full tree fits (the kernel runs once per node) over a range of dataset
sizes, checks that both backends grow identical trees while at it, and prints
a speedup table. Without a built compiled kernel it times the pure-Python one
alone. Run from the repository root:

    python benchmarks/bench_split.py
"""

import argparse
import time

import numpy as np

from trustsim import _splitpy
from trustsim import tree

try:
    from trustsim import _splitc
except ImportError:
    _splitc = None


def make_problem(rng, n, d, noise=0.15):
    X = np.ascontiguousarray(rng.random((n, d)))
    clean = X[:, 0] > 0.5
    flip = rng.random(n) < noise
    y = np.ascontiguousarray((clean ^ flip).astype(np.uint8))
    return X, y


def time_fit(X, y, backend, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fitted = tree.fit(X, y, max_depth=8, min_leaf=2, backend=backend)
        best = min(best, time.perf_counter() - start)
    return best, fitted


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--features", type=int, default=8)
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[100, 500, 2000, 10000, 40000]
    )
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    print(f"tree fits, d={args.features}, best of {args.repeats} runs")
    if _splitc is None:
        print("compiled kernel not built; timing the python kernel alone")
        print(f"{'rows':>8}  {'python':>10}")
    else:
        print(f"{'rows':>8}  {'python':>10}  {'compiled':>10}  {'speedup':>8}")
    for n in args.sizes:
        X, y = make_problem(rng, n, args.features)
        t_py, tree_py = time_fit(X, y, _splitpy, args.repeats)
        if _splitc is None:
            print(f"{n:>8}  {t_py * 1e3:>8.1f}ms")
            continue
        t_c, tree_c = time_fit(X, y, _splitc, args.repeats)
        assert tree_py == tree_c, "backends grew different trees"
        print(f"{n:>8}  {t_py * 1e3:>8.1f}ms  {t_c * 1e3:>8.1f}ms  {t_py / t_c:>7.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
