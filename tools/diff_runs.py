"""Compare trustsim run directories file by file, or a fixed matrix of runs at two commits.

    python tools/diff_runs.py RUN_A RUN_B
    python tools/diff_runs.py --ref GIT_REF

With two directories it compares every file either holds. A file that only
one side has, or whose bytes differ, is reported; for a text file, at the
first line that differs. ``trace.jsonl`` is read record by record: the report
gives the first record that differs, how many records' verdicts differ, and
the largest absolute change in the fused beliefs and in ``credibility_after``
between records at the same position.

With ``--ref`` it exports HEAD and ``GIT_REF`` with ``git archive`` into a
temporary directory (nothing is registered in the repository), runs
``trustsim simulate`` from each export's ``src`` on the same fixed matrix
(``MATRIX``: 100 advisors x 50 items under sybil and under camouflage, the
benchmark's ``deep-build`` shape with no attack, its ``ratings-cli`` inputs
under whitewash, and starved sybil and whitewash at desk scale; so every
attack kind and all three benchmark shapes) and compares each pair of run
directories. The ratings file is written once, by HEAD's
``perfbench/workloads.py`` generator.

It exits 0 when nothing differs and 1 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Scale and seed of the benchmark's ``ratings-cli`` inputs (``perfbench/workloads.py``).
RATINGS = dict(seed=42, n_users=2500, n_items=300, n_reviews=20000)
RATINGS_FILE = "RATINGS"  # replaced by the generated file's path

#: The runs compared under ``--ref``: name -> ``trustsim simulate`` arguments.
MATRIX = {
    "sybil-100x50": [
        "--attack", "sybil", "--seed", "42", "--advisors", "100", "--items", "50",
        "--iterations", "10",
    ],
    # camouflage polls a new population every iteration, so no round
    # reuses another's fusion
    "camouflage-100x50": [
        "--attack", "camouflage", "--seed", "42", "--advisors", "100", "--items", "50",
        "--iterations", "10", "--switch-iteration", "4",
    ],
    "deep-build-none": [
        "--attack", "none", "--seed", "42", "--advisors", "25", "--records-per-advisor", "400",
        "--items", "10", "--iterations", "3",
    ],
    "ratings-cli-whitewash": [
        "--ratings", RATINGS_FILE, "--attack", "whitewash", "--reset-period", "3",
        "--advisors", "100", "--items", "30", "--iterations", "10", "--seed", "42",
    ],
    "sybil-starved": [
        "--attack", "sybil", "--seed", "13", "--initial-budget", "2", "--period-length", "3",
        "--advisors", "20", "--items", "10", "--iterations", "10",
    ],
    "whitewash-starved": [
        "--attack", "whitewash", "--seed", "3", "--reset-period", "3", "--initial-budget", "2",
        "--advisors", "20", "--items", "10", "--iterations", "10",
    ],
}

_GENERATE = (
    "import sys; from pathlib import Path; from workloads import generate_ratings; "
    "generate_ratings(Path(sys.argv[1]), *map(int, sys.argv[2:]))"
)


def _first_line_apart(a: bytes, b: bytes) -> int:
    """1-based number of the first line where ``a`` and ``b`` differ."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for number, (x, y) in enumerate(zip(lines_a, lines_b), 1):
        if x != y:
            return number
    return min(len(lines_a), len(lines_b)) + 1


def diff_trace(a: bytes, b: bytes) -> str:
    """How two ``trace.jsonl`` files differ, in one line."""
    records_a = [json.loads(line) for line in a.splitlines()]
    records_b = [json.loads(line) for line in b.splitlines()]
    first = None
    verdicts = 0
    beliefs = credibility = 0.0
    for number, (x, y) in enumerate(zip(records_a, records_b), 1):
        if x == y:
            continue
        first = first or number
        verdicts += x.get("verdict") != y.get("verdict")
        for side in ("trust", "distrust", "uncertainty"):
            beliefs = max(beliefs, abs(x["beliefs"][side] - y["beliefs"][side]))
        after_a, after_b = x["credibility_after"], y["credibility_after"]
        for agent in after_a.keys() & after_b.keys():
            credibility = max(credibility, abs(after_a[agent] - after_b[agent]))
    if first is None:
        first = min(len(records_a), len(records_b)) + 1
    return (
        f"first differing record {first} ({len(records_a)} and {len(records_b)} records); "
        f"{verdicts} verdicts differ; largest change in beliefs {beliefs:.3g}, "
        f"in credibility_after {credibility:.3g}"
    )


def diff_dirs(a: Path, b: Path) -> list[str]:
    """One line per file that differs between run directories ``a`` and ``b``."""
    names_a = {path.name for path in a.iterdir() if path.is_file()}
    names_b = {path.name for path in b.iterdir() if path.is_file()}
    found = []
    for name in sorted(names_a | names_b):
        if name not in names_b or name not in names_a:
            found.append(f"{name}: only in {a if name in names_a else b}")
            continue
        bytes_a, bytes_b = (a / name).read_bytes(), (b / name).read_bytes()
        if bytes_a == bytes_b:
            continue
        if name == "trace.jsonl":
            found.append(f"{name}: {diff_trace(bytes_a, bytes_b)}")
        else:
            found.append(f"{name}: differs from line {_first_line_apart(bytes_a, bytes_b)}")
    return found


def report(label: str, a: Path, b: Path) -> bool:
    """Print how ``a`` and ``b`` differ under ``label``; True when they do."""
    found = diff_dirs(a, b)
    if not found:
        count = sum(1 for path in a.iterdir() if path.is_file())
        print(f"{label}: no difference ({count} files)")
        return False
    print(f"{label}: {len(found)} files differ")
    for line in found:
        print(f"  {line}")
    return True


def export(ref: str, into: Path) -> Path:
    """The tree of ``ref`` written under ``into`` by ``git archive``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref], cwd=ROOT, capture_output=True, check=False
    )
    if archive.returncode != 0:
        sys.exit(f"diff_runs: git archive {ref} failed: {archive.stderr.decode().strip()}")
    into.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    return into


def simulate(checkout: Path, argv: list[str], out: Path) -> None:
    """``trustsim simulate`` from ``checkout``'s ``src``, writing into ``out``."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "trustsim", "simulate", *argv, "--out", str(out)],
        cwd=out.parent, env=env, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        sys.exit(f"diff_runs: simulate {' '.join(argv)} in {checkout} exited "
                 f"{done.returncode}:\n{done.stderr}")


def compare_refs(ref: str) -> bool:
    """Run ``MATRIX`` at HEAD and at ``ref`` and report each pair; True when
    any pair differs."""
    with tempfile.TemporaryDirectory(prefix="diff_runs-") as scratch:
        work = Path(scratch)
        sides = {"HEAD": export("HEAD", work / "head"), ref: export(ref, work / "ref")}
        ratings = work / "ratings.txt"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            str(sides["HEAD"] / part) for part in ("perfbench", "src"))}
        subprocess.run(
            [sys.executable, "-c", _GENERATE, str(ratings), *map(str, RATINGS.values())],
            env=env, check=True,
        )
        differs = False
        for name, argv in MATRIX.items():
            argv = [str(ratings) if arg == RATINGS_FILE else arg for arg in argv]
            runs = []
            for label, checkout in sides.items():
                out = work / "runs" / label.replace("/", "_") / name
                out.parent.mkdir(parents=True, exist_ok=True)
                simulate(checkout, argv, out)
                runs.append(out)
            differs |= report(f"{name} (HEAD against {ref})", *runs)
        return differs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dirs", nargs="*", type=Path, help="two run directories")
    parser.add_argument("--ref", help="git ref whose runs to compare with HEAD's")
    args = parser.parse_args(argv)
    if len(args.dirs) != (0 if args.ref is not None else 2):
        parser.error("give two run directories, or --ref GIT_REF alone")
    if args.ref is not None:
        return int(compare_refs(args.ref))
    return int(report(f"{args.dirs[0]} against {args.dirs[1]}", *args.dirs))


if __name__ == "__main__":
    sys.exit(main())
