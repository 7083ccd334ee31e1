"""Command-line front end: synth, run, report.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 runtime error.
Log verbosity comes from the ILE_LOG environment variable (error|info|debug).
"""

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import loop, synth
from .config import load_config
from .datasets import save_table
from .errors import ConfigError, DataError, IleError

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


class _Parser(argparse.ArgumentParser):
    # usage problems become ConfigError so main() can map them to exit code 1
    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(prog="ile", description="Iterative self-training runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p_synth.add_argument("kind", choices=synth.SYNTH_KINDS)
    p_synth.add_argument("--classes", type=int, default=2)
    p_synth.add_argument("--per-class", type=int, required=True)
    p_synth.add_argument("--noise", type=float, default=0.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True, help="output CSV path")

    p_run = sub.add_parser("run", help="run the iterative loop from a config file")
    p_run.add_argument("--config", required=True, help="JSON run config path")
    p_run.add_argument("--seed", type=int, default=None, help="override config seed")
    p_run.add_argument("--out", default=None, help="override output directory")
    p_run.add_argument(
        "--dry-run", action="store_true", help="validate config and exit"
    )

    p_report = sub.add_parser("report", help="summarize a finished run directory")
    p_report.add_argument("run_dir", help="directory containing report.json")
    return parser


def cmd_synth(args) -> int:
    samples = synth.generate(
        args.kind, args.classes, args.per_class, args.noise, args.seed
    )
    save_table(samples, args.out, format="csv")
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if cfg.output_dir is None and args.out is None:
        raise ConfigError("no output directory: set output_dir in the config or pass --out")
    if cfg.data.path is not None and not os.path.exists(cfg.data.path):
        raise DataError(f"data file not found: {cfg.data.path}")
    if args.dry_run:
        print(f"config {args.config} OK")
        return 0
    payload = loop.run(cfg, output_dir=args.out)
    out = args.out if args.out is not None else cfg.output_dir
    summary = payload.get("summary")
    if summary is not None:
        final = summary["final_val_error_mean"]
    else:
        final = payload["final_val_error"]
    if final is not None:
        print(f"final validation error {100.0 * final:.2f}%; artifacts in {out}")
    else:
        print(f"run finished; artifacts in {out}")
    return 0


def _fmt_pct(x):
    return f"{100.0 * x:.2f}%"


def _improvement(points):
    # positive means the error fell
    return f"  (improvement {100.0 * points:+.2f} points)" if points is not None else ""


def _single_lines(rep):
    bench = rep["benchmark_val_error"]
    final = rep["final_val_error"]
    records = rep["iterations"]
    lines = [f"benchmark error : {_fmt_pct(bench) if bench is not None else 'n/a'}"]
    if not records:
        return lines
    lines.append(
        f"final error     : {_fmt_pct(final) if final is not None else 'n/a'}"
        + _improvement(rep["improvement"])
    )
    added = sum(r["added_count"] for r in records)
    acc = records[-1]["cumulative_addition_accuracy"]
    acc_text = f"  (addition accuracy {_fmt_pct(acc)})" if acc is not None else ""
    lines.append(f"added samples   : {added}{acc_text}")
    lines.append(f"iterations      : {len(records)}")
    return lines


def _summary_lines(payload):
    s = payload["summary"]
    bench, bench_std = s["benchmark_val_error_mean"], s["benchmark_val_error_std"]
    final, final_std = s["final_val_error_mean"], s["final_val_error_std"]
    lines = []
    if bench is not None:
        lines.append(f"benchmark error : {_fmt_pct(bench)} (±{100.0 * bench_std:.2f})")
    if final is not None:
        lines.append(
            f"final error     : {_fmt_pct(final)} (±{100.0 * final_std:.2f})"
            + _improvement(s["improvement_mean"])
        )
    acc = s["cumulative_addition_accuracy_mean"]
    acc_text = f"  (addition accuracy {_fmt_pct(acc)})" if acc is not None else ""
    lines.append(f"added samples   : {s['added_count_mean']:.1f} mean{acc_text}")
    lines.append(f"repeats         : {s['repeat_count']}")
    return lines


def _write_curves(run_dir, repeats):
    n = max((len(rep["iterations"]) for rep in repeats), default=0)
    multi = len(repeats) > 1

    def column_name(base, k):
        return f"{base}_r{k}" if multi else base

    for filename, field in (
        ("curve_error.tsv", "val_error"),
        ("curve_growth.tsv", "dl_size"),
    ):
        path = Path(run_dir) / filename
        with open(path, "w") as fh:
            headers = ["iteration"] + [
                column_name(field, k) for k in range(len(repeats))
            ]
            fh.write("\t".join(headers) + "\n")
            for i in range(n):
                row = [str(i + 1)]
                for rep in repeats:
                    records = rep["iterations"]
                    if i < len(records) and records[i][field] is not None:
                        row.append(repr(records[i][field]))
                    else:
                        row.append("")
                fh.write("\t".join(row) + "\n")


def cmd_report(args) -> int:
    path = Path(args.run_dir) / "report.json"
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from exc

    # a payload of the wrong shape fails on a missing key or a wrong type
    try:
        if "summary" in payload:
            lines, repeats = _summary_lines(payload), payload["repeats"]
        else:
            lines, repeats = _single_lines(payload), [payload]
        _write_curves(args.run_dir, repeats)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path} is not an ile report") from exc
    print("\n".join(lines))
    return 0


def main(argv=None) -> int:
    level_name = os.environ.get("ILE_LOG", "info").lower()
    try:
        level = _LOG_LEVELS[level_name]
    except KeyError:
        print(f"error: ILE_LOG must be one of {sorted(_LOG_LEVELS)}", file=sys.stderr)
        return 1
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")

    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "synth":
            return cmd_synth(args)
        if args.command == "run":
            return cmd_run(args)
        return cmd_report(args)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except IleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
