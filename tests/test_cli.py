import codecs
import json
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import get_args, get_type_hints

import pytest

from trustsim import cli
from trustsim.cli import main
from trustsim.simulate import ScenarioConfig

ROOT = Path(__file__).resolve().parent.parent

FAST = [
    "--advisors", "6",
    "--items", "3",
    "--iterations", "4",
    "--records-per-advisor", "24",
]


# The config keys that are not their field's name; a flag is its key with - for _.
RENAMED_KEYS = {
    "attack_kind": "attack",
    "n_advisors": "advisors",
    "n_items": "items",
    "n_iterations": "iterations",
    "ratings_path": "ratings",
}
# Every ScenarioConfig field annotated int or float (optionally | None).
NUMERIC_KEYS = [
    RENAMED_KEYS.get(name, name)
    for name, hint in get_type_hints(ScenarioConfig).items()
    if {int, float} & {hint, *get_args(hint)}
]


def run_cli(*argv):
    return main(list(argv))


def test_simulate_smoke_writes_all_artifacts(tmp_path):
    out = tmp_path / "run"
    code = run_cli(
        "simulate",
        "--attack", "sybil",
        "--attacker-fraction", "0.3",
        "--seed", "42",
        "--out", str(out),
        *FAST,
    )
    assert code == 0
    summary = (out / "summary.txt").read_text()
    assert summary.splitlines()[1].startswith("sybil")
    for name in (
        "summary.json",
        "series.csv",
        "per_item_mae.csv",
        "trace.jsonl",
        "config.json",
        "credibility.tsv",
        "inquiries.tsv",
    ):
        assert (out / name).exists(), name
    config = json.loads((out / "config.json").read_text())
    assert config["seed"] == 42
    assert config["attack"] == "sybil"


def test_simulate_series_has_one_row_per_iteration(tmp_path):
    out = tmp_path / "run"
    code = run_cli(
        "simulate",
        "--attack", "camouflage",
        "--switch-iteration", "3",
        "--iterations", "10",
        "--seed", "7",
        "--advisors", "6",
        "--items", "3",
        "--records-per-advisor", "24",
        "--out", str(out),
    )
    assert code == 0
    lines = (out / "series.csv").read_text().splitlines()
    assert lines[0] == "iteration,mean_mae,mean_attacker_credibility,mean_honest_credibility"
    assert len(lines) == 11


def test_missing_seed_exits_2(capsys, tmp_path):
    code = run_cli("simulate", "--attack", "sybil", "--out", str(tmp_path / "x"))
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_unknown_config_key_exits_2_and_names_it(tmp_path, capsys):
    # no step of the mechanism reads trust statements, so trust_file is as
    # unknown as a typo
    for key, value in (("advisrs", 5), ("trust_file", "trust.txt")):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 1, key: value}))
        out = tmp_path / "x"
        code = run_cli("simulate", "--config", str(config), "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == f"error: {key}: unknown configuration key\n"
        assert not out.exists()


def test_out_config_key_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys):
    # the output directory is a flag of the command, not a scenario setting
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 3, "advisors": 4, "out": "r3"}))
    code = run_cli("simulate", "--config", str(config))
    assert code == 2
    assert capsys.readouterr().err == "error: out: unknown configuration key\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


RUN_FILES = (
    "summary.txt",
    "summary.json",
    "series.csv",
    "per_item_mae.csv",
    "credibility.tsv",
    "inquiries.tsv",
    "trace.jsonl",
    "config.json",
)


@pytest.mark.parametrize(
    "argv",
    [
        ["--seed", "3", "--advisors", "6", "--items", "3", "--iterations", "2",
         "--records-per-advisor", "20"],
        ["--attack", "whitewash", "--seed", "9", "--reset-period", "1", "--k-folds", "3",
         "--advisors", "4", "--items", "2", "--iterations", "3", "--initial-budget", "2",
         "--ratings", "RATINGS"],
    ],
    ids=["synthetic", "ratings"],
)
def test_config_json_reruns_its_run(tmp_path, argv):
    ratings = _ratings_file(tmp_path / "ratings.txt")
    argv = [ratings if a == "RATINGS" else a for a in argv]
    first, second = tmp_path / "r1", tmp_path / "r2"
    assert run_cli("simulate", *argv, "--out", str(first)) == 0
    assert run_cli("simulate", "--config", str(first / "config.json"), "--out", str(second)) == 0
    for name in RUN_FILES:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--seed", "1", "--trust-file", "trust.txt"],
        ["ingest", "--ratings", "ratings.txt", "--trust-file", "trust.txt"],
    ],
    ids=["simulate", "ingest"],
)
def test_trust_file_flag_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", str(out))
    assert exc.value.code == 2
    assert "unrecognized arguments: --trust-file" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, key",
    [
        ("--sybil-count", "sybil_count"),
        ("--switch-iteration", "switch_iteration"),
        ("--reset-period", "reset_period"),
    ],
)
def test_attack_parameter_at_zero_exits_2_and_names_it(tmp_path, capsys, flag, key):
    out = tmp_path / "x"
    code = run_cli("simulate", "--seed", "1", flag, "0", "--out", str(out), *FAST)
    assert code == 2
    assert capsys.readouterr().err == f"error: {key}: must be at least 1\n"
    assert not out.exists()


def test_invalid_value_exits_2(tmp_path, capsys):
    code = run_cli(
        "simulate", "--seed", "1", "--attacker-fraction", "1.4",
        "--out", str(tmp_path / "x"), *FAST,
    )
    assert code == 2
    assert "attacker_fraction" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("advisors", 2.5),
        ("items", "3"),
        ("iterations", True),
        ("initial_budget", 1.0),
        ("attacker_fraction", "0.3"),
        ("noise", False),
        ("ratings", 5),
    ]
    + [
        (key, value)
        for key in NUMERIC_KEYS
        for value in (True, "1")
        if (key, value) != ("iterations", True)  # listed above
    ],
)
def test_mistyped_config_value_exits_2_and_names_it(tmp_path, capsys, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1, key: value}))
    out = tmp_path / "x"
    code = run_cli("simulate", "--config", str(config), "--out", str(out))
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {key}: must be")
    assert not out.exists()


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize(
    "budget, code", [(2**62, 0), (2**62 + 1, 2), (99999999999999999999999, 2)]
)
def test_initial_budget_past_int64_room_exits_2_and_names_it(tmp_path, capsys, via, budget, code):
    # budgets are int64 vectors: an initial budget above 2**62 would overflow
    out = tmp_path / "x"
    if via == "flag":
        argv = ["--seed", "1", "--initial-budget", str(budget)]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 1, "initial_budget": budget}))
        argv = ["--config", str(config)]
    assert run_cli("simulate", *argv, "--out", str(out), *FAST) == code
    if code == 2:
        assert capsys.readouterr().err == "error: initial_budget: must be at most 2**62\n"
        assert not out.exists()
    else:
        assert "budget\t0\t" in (out / "inquiries.tsv").read_text()


def _ratings_file(path):
    path.write_text("".join(f"u{u} i{i} {1 + (u + i) % 5}\n" for u in range(5) for i in range(3)))
    return str(path)


# A valid value for each setting that differs from its default and from SMALL.
SETTING_SAMPLES = {
    "seed": 3,
    "n_advisors": 4,
    "attacker_fraction": 0.5,
    "attack_kind": "sybil",
    "sybil_count": 2,
    "switch_iteration": 2,
    "reset_period": 2,
    "n_items": 2,
    "n_iterations": 2,
    "participation_threshold": 0.6,
    "max_depth": 3,
    "min_leaf": 1,
    "k_folds": 3,
    "initial_credibility": 0.4,
    "initial_budget": 7,
    "period_length": 2,
    "noise": 0.2,
    "records_per_advisor": 9,
    "n_features": 3,
    "ratings_path": "RATINGS",  # replaced by a ratings file the test writes
}
SMALL = {"seed": 1, "n_advisors": 3, "n_items": 1, "n_iterations": 1,
         "records_per_advisor": 8, "k_folds": 2}


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("name", [f.name for f in fields(ScenarioConfig)])
def test_every_setting_reaches_the_run(tmp_path, monkeypatch, name, via):
    value = SETTING_SAMPLES[name]
    if value == "RATINGS":
        value = _ratings_file(tmp_path / "ratings.txt")
    settings = {**SMALL, name: value}
    seen = []
    run_scenario = cli.run_scenario

    def recording_run(config, trace=None):
        seen.append(config)
        return run_scenario(config, trace=trace)

    monkeypatch.setattr(cli, "run_scenario", recording_run)
    keyed = {RENAMED_KEYS.get(n, n): v for n, v in settings.items()}
    out = tmp_path / "run"
    if via == "flag":
        argv = [a for k, v in keyed.items() for a in ("--" + k.replace("_", "-"), str(v))]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(keyed))
        argv = ["--config", str(config)]
    assert run_cli("simulate", *argv, "--out", str(out)) == 0
    (effective,) = seen
    assert getattr(effective, name) == value
    assert type(getattr(effective, name)) is type(value)
    written = json.loads((out / "config.json").read_text())
    assert written == {RENAMED_KEYS.get(n, n): v for n, v in asdict(effective).items()}
    assert written[RENAMED_KEYS.get(name, name)] == value


@pytest.mark.parametrize(
    "argv",
    [
        ["--seed", "-1"],
        ["--seed", "-2", "--ratings", "RATINGS"],
        ["--config", "CONFIG"],
    ],
    ids=["flag", "ratings", "config"],
)
def test_negative_seed_exits_2_and_names_it(tmp_path, capsys, argv):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": -3}))
    ratings = _ratings_file(tmp_path / "ratings.txt")
    argv = [{"RATINGS": ratings, "CONFIG": str(config)}.get(a, a) for a in argv]
    out = tmp_path / "x"
    code = run_cli(
        "simulate", *argv, "--advisors", "4", "--items", "2", "--iterations", "1",
        "--out", str(out),
    )
    assert code == 2
    assert capsys.readouterr().err == "error: seed: must be nonnegative\n"
    assert not out.exists()


def test_integral_float_fields_accept_json_integers(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1, "attacker_fraction": 0, "noise": 0}))
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", str(config), "--out", str(out), *FAST) == 0


def test_single_record_per_advisor_exits_2(tmp_path, capsys):
    out = tmp_path / "x"
    code = run_cli(
        "simulate", "--seed", "1", "--records-per-advisor", "1", "--out", str(out)
    )
    assert code == 2
    assert "records_per_advisor" in capsys.readouterr().err
    assert not out.exists()


def test_single_fold_exits_2(tmp_path, capsys):
    out = tmp_path / "x"
    code = run_cli(
        "simulate", "--seed", "1", "--advisors", "3", "--items", "2", "--iterations", "1",
        "--k-folds", "1", "--out", str(out),
    )
    assert code == 2
    assert "k_folds" in capsys.readouterr().err
    assert not out.exists()


def test_flag_overrides_config_file(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 5, "attack": "none", "advisors": 6,
                                  "items": 3, "iterations": 2,
                                  "records_per_advisor": 24}))
    out = tmp_path / "run"
    code = run_cli(
        "simulate", "--config", str(config), "--attack", "whitewash",
        "--out", str(out),
    )
    assert code == 0
    effective = json.loads((out / "config.json").read_text())
    assert effective["attack"] == "whitewashing"
    assert effective["seed"] == 5


def test_byte_identical_reruns(tmp_path):
    args = ["simulate", "--attack", "sybil", "--seed", "11", *FAST]
    first, second = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", str(first)) == 0
    assert run_cli(*args, "--out", str(second)) == 0
    for name in ("summary.txt", "series.csv", "per_item_mae.csv", "trace.jsonl"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_ingest_toy_file(tmp_path, capsys):
    ratings = tmp_path / "ratings.txt"
    ratings.write_text("u1,i1,5\nu2,i1,4\nu1,i2,1\n")
    out = tmp_path / "ingested"
    code = run_cli("ingest", "--ratings", str(ratings), "--out", str(out))
    assert code == 0
    assert "2 users, 2 items, 3 reviews, 0 skipped" in capsys.readouterr().out
    assert (out / "stats.txt").read_text().startswith("2 users")
    assert (out / "datasets" / "user_u1.csv").exists()
    assert (out / "items.csv").read_text().splitlines()[0] == "item_id,ground_truth,n_ratings"


def test_ingest_counts_malformed(tmp_path, capsys):
    ratings = tmp_path / "ratings.txt"
    ratings.write_text("u1,i1,5\n" * 9 + "u1,i1,9\n")
    code = run_cli("ingest", "--ratings", str(ratings), "--out", str(tmp_path / "o"))
    assert code == 0
    assert "1 skipped" in capsys.readouterr().out


def test_ingest_rejects_user_id_with_path_separator_before_writing(tmp_path, capsys):
    ratings = tmp_path / "ratings.txt"
    ratings.write_text("u1 i1 5\na/b i1 4\nu2 i1 2\n")
    out = tmp_path / "ingested"
    code = run_cli("ingest", "--ratings", str(ratings), "--out", str(out))
    assert code == 2
    assert capsys.readouterr().err == "error: user id 'a/b' cannot be part of a file name\n"
    assert not out.exists()


def test_simulate_accepts_user_id_with_path_separator(tmp_path):
    ratings = tmp_path / "ratings.txt"
    ratings.write_text("".join(f"a/{u} i{i} {1 + (u * i) % 5}\n" for u in range(4) for i in range(3)))
    out = tmp_path / "run"
    code = run_cli(
        "simulate", "--seed", "1", "--ratings", str(ratings), "--advisors", "3",
        "--items", "2", "--iterations", "1", "--k-folds", "2", "--out", str(out),
    )
    assert code == 0


def test_ingest_missing_file_exits_2(tmp_path):
    code = run_cli(
        "ingest", "--ratings", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o")
    )
    assert code == 2


@pytest.mark.parametrize("command", ["simulate", "ingest"])
@pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "under-a-file"])
def test_out_that_is_not_a_directory_exits_2_naming_it(tmp_path, capsys, command, below):
    occupied = tmp_path / "FILE"
    occupied.write_text("kept\n")
    out = occupied.joinpath(*below)
    if command == "simulate":
        argv = ["simulate", "--seed", "1", *FAST]
    else:
        # --out is checked before the ratings file is read
        argv = ["ingest", "--ratings", str(tmp_path / "nope.txt")]
    code = run_cli(*argv, "--out", str(out))
    assert code == 2
    assert capsys.readouterr().err == f"error: --out: {occupied} is not a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["FILE"]
    assert occupied.read_text() == "kept\n"



def test_failed_run_leaves_no_directory_behind(tmp_path, capsys):
    out = tmp_path / "runs" / "d"
    code = run_cli(
        "simulate", "--seed", "1", "--ratings", str(tmp_path / "missing.txt"), "--out", str(out)
    )
    assert code == 1
    assert "cannot read ratings file" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_failed_run_keeps_existing_directory_as_it_was(tmp_path):
    out = tmp_path / "d"
    out.mkdir()
    (out / "trace.jsonl").write_text("earlier run\n")
    code = run_cli(
        "simulate", "--seed", "1", "--ratings", str(tmp_path / "missing.txt"), "--out", str(out)
    )
    assert code == 1
    assert [p.name for p in out.iterdir()] == ["trace.jsonl"]
    assert (out / "trace.jsonl").read_text() == "earlier run\n"


def test_successful_run_leaves_no_partial_trace(tmp_path):
    out = tmp_path / "run"
    assert run_cli("simulate", "--seed", "3", "--out", str(out), *FAST) == 0
    assert (out / "trace.jsonl").stat().st_size > 0
    assert not (out / "trace.jsonl.partial").exists()

def _write_summary(path, attack):
    path.mkdir(parents=True)
    (path / "summary.json").write_text(
        json.dumps(
            {
                "attack": attack,
                "seed": 1,
                "mae_mean": 0.01,
                "mae_std": 0.002,
                "mae_plain_mean": 0.2,
                "mae_plain_std": 0.04,
                "cells": 30,
                "skipped": 0,
            }
        )
    )


def test_report_merges_three_scenarios(tmp_path, capsys):
    for attack in ("sybil", "camouflage", "whitewashing"):
        _write_summary(tmp_path / attack, attack)
    code = run_cli(
        "report",
        str(tmp_path / "sybil"),
        str(tmp_path / "camouflage"),
        str(tmp_path / "whitewashing"),
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[1].startswith("sybil")
    assert lines[2].startswith("camouflage")
    assert lines[3].startswith("whitewashing")


def test_report_suffixes_duplicate_attacks(tmp_path, capsys):
    _write_summary(tmp_path / "one", "sybil")
    _write_summary(tmp_path / "two", "sybil")
    code = run_cli("report", str(tmp_path / "one"), str(tmp_path / "two"))
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("sybil ")
    assert lines[2].startswith("sybil(two)")


def test_report_empty_dir_exits_2(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli("report", str(empty)) == 2


@pytest.mark.parametrize(
    "text, complaint",
    [
        ('{"attack": "sybil", "mae_mean": 0.01', "is not valid JSON"),
        ('{"seed": 1}', "has no 'attack'"),
        ('["sybil"]', "must hold a JSON object"),
        ('{"attack": "sybil", "mae_mean": "low"}', "'mae_mean' = 'low'"),
    ],
    ids=["truncated", "missing-key", "not-an-object", "not-a-number"],
)
def test_report_malformed_summary_exits_2_naming_the_file(tmp_path, capsys, text, complaint):
    _write_summary(tmp_path / "good", "none")
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "summary.json").write_text(text)
    assert run_cli("report", str(tmp_path / "good"), str(bad)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert str(bad / "summary.json") in err
    assert complaint in err


def test_report_writes_output_file(tmp_path):
    _write_summary(tmp_path / "one", "none")
    table = tmp_path / "table.txt"
    assert run_cli("report", str(tmp_path / "one"), "--out", str(table)) == 0
    assert table.read_text().splitlines()[1].startswith("none")


# ---------------------------------------------------------------------------
# encodings: inputs are UTF-8 (a leading byte-order mark is dropped), outputs
# are written as UTF-8, and no file is opened with the locale's default
# ---------------------------------------------------------------------------

TOY_RATINGS = "u1,i1,5\nu2,i1,4\nu1,i2,1\n"


def _ingested(out):
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def test_ingest_drops_a_byte_order_mark(tmp_path, capsys):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(TOY_RATINGS.encode())
    marked.write_bytes(codecs.BOM_UTF8 + TOY_RATINGS.encode())
    assert run_cli("ingest", "--ratings", str(plain), "--out", str(tmp_path / "a")) == 0
    assert run_cli("ingest", "--ratings", str(marked), "--out", str(tmp_path / "b")) == 0
    assert capsys.readouterr().out.splitlines()[1] == "2 users, 2 items, 3 reviews, 0 skipped"
    written = _ingested(tmp_path / "b")
    assert sorted(written) == [
        "datasets/user_u1.csv", "datasets/user_u2.csv", "items.csv", "stats.txt",
    ]
    assert written == _ingested(tmp_path / "a")


@pytest.mark.parametrize(
    "mark, end", [(b"", b"\n"), (codecs.BOM_UTF8, b"\n"), (b"", b"\r\n"), (b"", b"\r")],
    ids=["plain", "marked", "crlf", "cr"],
)
@pytest.mark.parametrize("command, code", [("ingest", 2), ("simulate", 1)])
def test_ratings_byte_outside_utf8_names_file_and_line(tmp_path, capsys, mark, end, command, code):
    ratings = tmp_path / "ratings.txt"
    ratings.write_bytes(mark + end.join([b"u1,i1,5", b"", b"u2,i1,4", b"u1,i2,\xff1", b""]))
    out = tmp_path / "out"
    argv = ["--ratings", str(ratings), "--out", str(out)]
    if command == "simulate":
        argv += ["--seed", "1", "--advisors", "2", "--items", "2", "--k-folds", "2"]
    assert run_cli(command, *argv) == code
    assert capsys.readouterr().err == f"error: {ratings}, line 4: byte 0xff is not UTF-8 text\n"
    assert not out.exists()


def test_config_byte_outside_utf8_exits_2_naming_the_file(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"seed": 1, "attack": "n\xffne"}')
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", str(config), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(f"error: config: {config} is not UTF-8 text: ")
    assert not out.exists()


def test_config_file_with_a_byte_order_mark_is_read(tmp_path):
    config = tmp_path / "config.json"
    config.write_bytes(codecs.BOM_UTF8 + json.dumps({"seed": 4, "iterations": 2}).encode())
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", str(config), "--out", str(out), *FAST[:4]) == 0
    written = json.loads((out / "config.json").read_text(encoding="utf-8"))
    assert (written["seed"], written["iterations"]) == (4, 2)


@pytest.mark.parametrize("digit", ["\uff15", "\u0665", "\u09eb"])  # 5 in three other scripts
def test_rating_in_non_ascii_digits_is_malformed(tmp_path, capsys, digit):
    ratings = tmp_path / "ratings.txt"
    ratings.write_text("u1,i1,5\n" * 9 + f"u2,i1,{digit}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("ingest", "--ratings", str(ratings), "--out", str(out)) == 0
    assert capsys.readouterr().out == "1 users, 1 items, 9 reviews, 1 skipped\n"
    assert not (out / "datasets" / "user_u2.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "simulate --ratings", "ingest"])
def test_no_file_is_opened_with_the_default_encoding(tmp_path, command):
    ratings = _ratings_file(tmp_path / "ratings.txt")
    out = str(tmp_path / "out")
    argv = {
        "simulate": ["simulate", "--seed", "2", *FAST, "--out", out],
        "simulate --ratings": [
            "simulate", "--seed", "2", "--ratings", ratings, "--advisors", "3",
            "--items", "2", "--iterations", "2", "--k-folds", "2", "--out", out,
        ],
        "ingest": ["ingest", "--ratings", ratings, "--out", out],
    }[command]
    done = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-m", "trustsim", *argv],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
