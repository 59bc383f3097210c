"""Command-line entry point: run scenarios, ingest ratings, merge reports.

Configuration precedence is flags > config file (JSON, keys named like the
flags) > built-in defaults. Every run echoes its effective config into the
output directory so any artifact can be regenerated exactly. Exit codes are
stable: 0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from .epinions import IngestError, ingest_epinions
from .advisor import save_dataset
from .simulate import (
    ATTACK_KINDS,
    ConfigError,
    KEY_OF_FIELD,
    SETTING_TYPES,
    ScenarioConfig,
    format_float,
    run_scenario,
    write_outputs,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

# Every setting's config key, and so its flag: the key with - for _.
_FIELD_OF_KEY = {KEY_OF_FIELD.get(name, name): name for name in SETTING_TYPES}

# Characters that cannot appear in a file name, so not in an ingested user id.
_PATH_CHARS = [c for c in (os.sep, os.altsep, "\0") if c]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trustsim",
        description="Credibility-weighted trust aggregation and attack simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one attack scenario")
    sim.add_argument("--config", type=Path, help="JSON config file; flags override it")
    for key, name in _FIELD_OF_KEY.items():
        flag = "--" + key.replace("_", "-")
        if name == "attack_kind":
            sim.add_argument(flag, choices=[*ATTACK_KINDS, "whitewash"])
        else:
            sim.add_argument(flag, type=SETTING_TYPES[name])
    sim.add_argument("--out", type=Path, help="output directory")
    sim.set_defaults(func=cmd_simulate)

    ing = sub.add_parser("ingest", help="parse a ratings file into dataset files")
    ing.add_argument("--ratings", required=True)
    ing.add_argument("--out", type=Path, required=True)
    ing.set_defaults(func=cmd_ingest)

    rep = sub.add_parser("report", help="merge scenario summaries into one table")
    rep.add_argument("dirs", nargs="+", type=Path)
    rep.add_argument("--out", type=Path, help="also write the table to this file")
    rep.set_defaults(func=cmd_report)
    return parser


def _merge_config(args: argparse.Namespace) -> ScenarioConfig:
    merged: dict = {}
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8-sig"))
        except OSError as exc:
            raise ConfigError("config", f"cannot read {args.config}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError("config", f"{args.config} is not UTF-8 text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"{args.config} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config", "config file must hold a JSON object")
        for key, value in loaded.items():
            if key not in _FIELD_OF_KEY:
                raise ConfigError(key, "unknown configuration key")
            merged[_FIELD_OF_KEY[key]] = value
    for key, name in _FIELD_OF_KEY.items():
        value = getattr(args, key)
        if value is not None:
            merged[name] = value
    if "attack_kind" in merged:
        attack = str(merged["attack_kind"])
        merged["attack_kind"] = "whitewashing" if attack == "whitewash" else attack
    if "seed" not in merged:
        raise ConfigError("seed", "a seed is required (flag --seed or config key)")
    # every key of merged is a field, and seed is present
    config = ScenarioConfig(**merged)
    try:
        config.validate()
    except ConfigError as exc:
        # name the key as the user wrote it, not the field it sets
        raise ConfigError(KEY_OF_FIELD.get(exc.key, exc.key), exc.message) from None
    return config


def _check_out(path: Path) -> Path | None:
    """``ConfigError`` unless the first of ``path`` and its parents that exists
    is a directory; else the outermost directory that creating ``path`` makes."""
    missing = None
    for candidate in (path, *path.parents):
        if candidate.exists():
            if not candidate.is_dir():
                raise ConfigError("--out", f"{candidate} is not a directory")
            break
        missing = candidate
    return missing


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _merge_config(args)
    out_dir = args.out or Path(f"run_{config.attack_kind}_{config.seed}")
    created = _check_out(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # The trace is written beside its final name and renamed once the run has
    # succeeded; a failed run removes what it created and leaves no partial
    # trace behind. A line is a few KB, so a 1 MiB buffer writes many lines
    # per system call where the default 8 KB one writes about one.
    partial = out_dir / "trace.jsonl.partial"
    try:
        with open(partial, "w", encoding="utf-8", buffering=1 << 20) as handle:

            def trace(line: str) -> None:
                handle.write(line + "\n")

            result = run_scenario(config, trace=trace)
        write_outputs(result, out_dir)
        os.replace(partial, out_dir / "trace.jsonl")
    except BaseException:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        else:
            partial.unlink(missing_ok=True)
        raise
    print(f"wrote scenario outputs to {out_dir}")
    return EXIT_OK


def cmd_ingest(args: argparse.Namespace) -> int:
    _check_out(args.out)
    try:
        data = ingest_epinions(args.ratings)
        for user in data.datasets:
            if any(c in user for c in _PATH_CHARS):
                raise IngestError(f"user id {user!r} cannot be part of a file name")
    except IngestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out: Path = args.out
    datasets_dir = out / "datasets"
    datasets_dir.mkdir(parents=True, exist_ok=True)
    for user, dataset in data.datasets.items():
        save_dataset(dataset, datasets_dir / f"user_{user}.csv")
    item_lines = ["item_id,ground_truth,n_ratings"]
    for item in sorted(data.item_truth):
        truth = data.item_truth[item]
        count = int(data.item_features[item][1])
        item_lines.append(f"{item},{truth!r},{count}")
    (out / "items.csv").write_text("\n".join(item_lines) + "\n", encoding="utf-8")
    (out / "stats.txt").write_text(data.stats.report() + "\n", encoding="utf-8")
    print(data.stats.report())
    return EXIT_OK


#: The fields ``report`` reads from a ``summary.json``, and the values each may hold.
_SUMMARY_FIELDS = {
    "attack": (str,),
    "mae_mean": (int, float),
    "mae_std": (int, float),
    "mae_plain_mean": (int, float),
    "mae_plain_std": (int, float),
}


def _read_summary(path: Path) -> dict:
    """The summary a run wrote to ``path``; ``ValueError`` says what is wrong
    with a file that is not one."""
    try:
        summary = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"is not valid JSON: {exc}") from None
    if not isinstance(summary, dict):
        raise ValueError("must hold a JSON object")
    for key, kinds in _SUMMARY_FIELDS.items():
        if key not in summary:
            raise ValueError(f"has no {key!r}")
        value = summary[key]
        if not isinstance(value, kinds) or isinstance(value, bool):
            raise ValueError(f"holds {key!r} = {value!r}, not a {kinds[-1].__name__}")
    return summary


def cmd_report(args: argparse.Namespace) -> int:
    rows: list[tuple[str, dict]] = []
    for directory in args.dirs:
        summary_path = directory / "summary.json"
        if not summary_path.exists():
            print(f"error: {directory} has no summary.json", file=sys.stderr)
            return EXIT_USAGE
        try:
            rows.append((directory.name, _read_summary(summary_path)))
        except ValueError as exc:
            print(f"error: {summary_path} {exc}", file=sys.stderr)
            return EXIT_USAGE

    seen_attacks: dict[str, int] = {}
    lines = ["attack  mae_mean  mae_std  mae_plain_mean  mae_plain_std  run"]
    for run_id, summary in rows:
        attack = summary["attack"]
        seen_attacks[attack] = seen_attacks.get(attack, 0) + 1
        label = attack if seen_attacks[attack] == 1 else f"{attack}({run_id})"
        lines.append(
            "  ".join(
                [
                    label,
                    format_float(summary["mae_mean"]),
                    format_float(summary["mae_std"]),
                    format_float(summary["mae_plain_mean"]),
                    format_float(summary["mae_plain_std"]),
                    run_id,
                ]
            )
        )
    table = "\n".join(lines) + "\n"
    print(table, end="")
    if args.out is not None:
        args.out.write_text(table, encoding="utf-8")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
