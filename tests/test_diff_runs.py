"""``tools/diff_runs.py`` on run directories: identical runs read "no
difference", and a doctored file is reported where it was changed."""

import importlib.util
import json
from pathlib import Path

import pytest

from trustsim.cli import main

spec = importlib.util.spec_from_file_location(
    "diff_runs", Path(__file__).resolve().parent.parent / "tools" / "diff_runs.py"
)
diff_runs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(diff_runs)

#: The size of the golden cases (tests/test_golden.py).
SMALL = ["--advisors", "8", "--items", "4", "--iterations", "5", "--records-per-advisor", "24"]


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    for name in ("a", "b"):
        argv = ["simulate", "--attack", "sybil", "--seed", "7", *SMALL, "--out", str(root / name)]
        assert main(argv) == 0
    return root / "a", root / "b"


def test_identical_runs_read_no_difference(two_runs, capsys):
    assert diff_runs.diff_dirs(*two_runs) == []
    assert diff_runs.main([str(path) for path in two_runs]) == 0
    assert capsys.readouterr().out.endswith(": no difference (8 files)\n")


def test_a_doctored_trace_record_is_reported_at_its_record(two_runs, tmp_path, capsys):
    a, b = two_runs
    doctored = tmp_path / "doctored"
    doctored.mkdir()
    for path in b.iterdir():
        (doctored / path.name).write_bytes(path.read_bytes())
    lines = (doctored / "trace.jsonl").read_text().splitlines()
    record = json.loads(lines[2])
    record["verdict"] = "N" if record["verdict"] == "T" else "T"
    record["beliefs"]["trust"] += 0.25
    agent = sorted(record["credibility_after"])[0]
    record["credibility_after"][agent] -= 0.5
    lines[2] = json.dumps(record, sort_keys=True)
    (doctored / "trace.jsonl").write_text("\n".join(lines) + "\n")
    (doctored / "series.csv").write_text(
        (doctored / "series.csv").read_text().replace("\n4,", "\n4,9", 1)
    )
    (doctored / "summary.txt").unlink()

    assert diff_runs.main([str(a), str(doctored)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith(": 3 files differ")
    assert out[1:] == [
        "  series.csv: differs from line 5",
        f"  summary.txt: only in {a}",
        f"  trace.jsonl: first differing record 3 ({len(lines)} and {len(lines)} records); "
        "1 verdicts differ; largest change in beliefs 0.25, in credibility_after 0.5",
    ]


def test_two_directories_or_a_ref(capsys):
    with pytest.raises(SystemExit):
        diff_runs.main(["only-one"])
    with pytest.raises(SystemExit):
        diff_runs.main(["a", "b", "--ref", "HEAD"])
