"""Command-line entry points.

Subcommands: ``mine`` (check-ins file -> pattern and report CSVs),
``generate`` (deterministic synthetic check-ins), ``bench`` (both miners
across support levels).  Exit codes: 0 success, 2 configuration or usage
error (before ``mine`` reads input or ``bench`` generates data), 4 miner
disagreement in bench, 3 input error, out of memory or any other library
error (such as a sequence too long for the bitmap miner), always reported as
one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .bench import MINERS, _check_bench_settings, format_table, run_bench, write_bench_csv
from .checkins import (
    DEFAULT_WINDOWS,
    _collector_paused,
    default_config,
    load_config,
    parse_checkins,
    resolve_timezone,
    run_pipeline,
    serialize_checkins,
)
from .errors import FormatError, InvalidConfigError, MinerMismatchError, SeqmineError
from .prefixspan import MinerConfig
from .rules import (VALID_SORT_KEYS, _check_report_settings, build_report,
                    write_report_csv, write_report_jsonl)
from .synth import (SINGAPORE_SHAPE, GeneratorConfig, _generate, bms_shape,
                    generate_synthetic)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_MISMATCH = 4


def _min_support(text: str) -> int | float:
    """Integer = absolute count, decimal = fraction; MinerConfig checks the range."""
    try:
        value = float(text) if "." in text or "e" in text.lower() else int(text)
        MinerConfig(min_support=value)
    except InvalidConfigError as exc:  # a ValueError too: the library's message
        raise argparse.ArgumentTypeError(str(exc))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"min-support must be a count or fraction, got {text!r}"
        )
    return value


def _support_list(text: str) -> list[int | float]:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("need at least one support level")
    return [_min_support(p.strip()) for p in parts]


def _detect_format(path: str, explicit: str | None) -> str:
    if explicit:
        return explicit
    return "jsonl" if Path(path).suffix.lower() in (".jsonl", ".ndjson", ".json") else "csv"


def _load_analysis_config(args) -> tuple:
    """Resolve the activity map and windows from flags or packaged defaults."""
    try:
        if args.activity_map:
            amap, file_windows = load_config(args.activity_map)
        else:
            amap, file_windows = default_config()
        if args.windows:
            _, windows = load_config(args.windows)
            if not windows:
                raise InvalidConfigError(
                    f"--windows: {args.windows} defines no windows"
                )
        else:
            windows = file_windows or DEFAULT_WINDOWS
        return amap, windows
    except (OSError, FormatError) as exc:
        raise InvalidConfigError(f"--activity-map/--windows: {exc}")


def cmd_mine(args) -> int:
    amap, windows = _load_analysis_config(args)
    tz = resolve_timezone(args.tz)
    cfg = MinerConfig(min_support=args.min_support, max_length=args.max_length)
    _check_report_settings(args.top_k, args.sort, None)  # the default n_activities
    fmt = _detect_format(args.input, args.format)
    try:
        parsed = parse_checkins(args.input, fmt)
    except FileNotFoundError:
        raise FormatError(f"--input: no such file: {args.input}")
    except FormatError as exc:
        raise FormatError(f"--input: {exc}")
    for reject in parsed.rejects[:20]:
        print(f"rejected line {reject.line_no}: {reject.reason}", file=sys.stderr)
    if len(parsed.rejects) > 20:
        print(f"... {len(parsed.rejects) - 20} more rejects", file=sys.stderr)

    result = run_pipeline(
        parsed.checkins,
        amap,
        windows=windows,
        tz=tz,
        grouping=args.grouping,
    )
    db = result.database
    dropped, rejected = result.tag_result.dropped, len(parsed.rejects)
    del parsed, result  # only the counts outlive the records: mining reuses their memory
    patterns = MINERS[args.miner](db, cfg)
    report = build_report(patterns, db, top_k=args.top_k, sort_key=args.sort)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "patterns.csv", "w", encoding="utf-8", newline="") as fp:
        patterns.to_csv(fp)
    with open(out_dir / "patterns.jsonl", "w", encoding="utf-8") as fp:
        patterns.to_jsonl(fp)
    with open(out_dir / "report.csv", "w", encoding="utf-8", newline="") as fp:
        write_report_csv(report, fp)
    with open(out_dir / "report.jsonl", "w", encoding="utf-8") as fp:
        write_report_jsonl(report, fp)
    print(
        f"sequences={len(db)} dropped={dropped} rejected={rejected} "
        f"patterns={len(patterns)} report_rows={len(report)} out={out_dir}"
    )
    return EXIT_OK


def _generator_config(args) -> GeneratorConfig:
    """The --shape's config with only the size and length flags given replaced."""
    given = {
        field: value
        for field in ("n_users", "checkins_min", "checkins_max")
        if (value := getattr(args, field, None)) is not None
    }
    if args.shape == "bms" and given.keys() - {"n_users"}:
        raise InvalidConfigError(
            "--checkins-min/--checkins-max apply to --shape singapore only"
        )
    try:
        return replace(bms_shape() if args.shape == "bms" else SINGAPORE_SHAPE, **given)
    except InvalidConfigError as exc:
        flags = "/".join("--" + f.removeprefix("n_").replace("_", "-") for f in given)
        raise InvalidConfigError(f"{flags}: {exc}")


def cmd_generate(args) -> int:
    cfg = _generator_config(args)
    fmt = _detect_format(args.out, args.format)
    with open(args.out, "w", encoding="utf-8", newline="") as fp:
        # each record is written as it is drawn: none is held
        written = serialize_checkins(_generate(cfg, args.seed), fp, fmt)
    print(
        f"wrote {written} check-ins for {cfg.n_users} users "
        f"to {args.out} (seed={args.seed}, shape={args.shape})"
    )
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = _generator_config(args)
    _check_bench_settings(args.supports, args.repeats)
    checkins = generate_synthetic(cfg, args.seed)
    amap, _ = default_config()
    result = run_pipeline(checkins, amap, grouping="trip")
    db = result.database
    results = run_bench(db, args.supports, repeats=args.repeats)
    print(format_table(results))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fp:
            write_bench_csv(results, fp)
        print(f"wrote {args.out}")
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a usage error for ``main`` to report as one ``error:`` line,
    instead of printing the usage block and exiting."""

    def error(self, message: str):
        raise InvalidConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    # subparsers are made with the parent's class
    parser = _ArgumentParser(
        prog="seqmine",
        description="Sequential activity pattern mining over check-in data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mine = sub.add_parser("mine", help="mine patterns from a check-ins file")
    p_mine.add_argument("--input", required=True, help="check-ins CSV or JSONL file")
    p_mine.add_argument("--format", choices=("csv", "jsonl"), default=None,
                        help="input format (default: by file extension)")
    p_mine.add_argument("--min-support", type=_min_support, default=0.01,
                        help="count (int) or fraction (0,1] (default 0.01)")
    p_mine.add_argument("--max-length", type=int, default=3,
                        help="max items per pattern (default 3)")
    p_mine.add_argument("--windows", default=None,
                        help="config file with 'window NAME HH:MM HH:MM' lines")
    p_mine.add_argument("--activity-map", default=None,
                        help="config file with 'pattern = activity' lines")
    p_mine.add_argument("--tz", default="+08:00",
                        help="timezone for window assignment (default +08:00)")
    p_mine.add_argument("--grouping", choices=("window", "trip"), default="window")
    p_mine.add_argument("--miner", choices=sorted(MINERS), default="prefixspan")
    p_mine.add_argument("--top-k", type=int, default=None,
                        help="truncate the report to the top K rows")
    p_mine.add_argument("--sort", choices=VALID_SORT_KEYS, default="frequency")
    p_mine.add_argument("--out", default="out", help="output directory")
    p_mine.set_defaults(func=cmd_mine)

    p_gen = sub.add_parser("generate", help="write a synthetic check-ins file")
    p_gen.add_argument("--users", dest="n_users", metavar="USERS", type=int,
                       help="number of users (default: shape default)")
    p_gen.add_argument("--checkins-min", type=int)
    p_gen.add_argument("--checkins-max", type=int)
    p_gen.add_argument("--seed", type=int, default=7)
    p_gen.add_argument("--shape", choices=("singapore", "bms"), default="singapore")
    p_gen.add_argument("--format", choices=("csv", "jsonl"), default=None)
    p_gen.add_argument("--out", required=True, help="output file")
    p_gen.set_defaults(func=cmd_generate)

    p_bench = sub.add_parser("bench", help="compare both miners on one dataset")
    p_bench.add_argument("--shape", choices=("singapore", "bms"), default="bms")
    p_bench.add_argument("--users", dest="n_users", metavar="USERS", type=int)
    p_bench.add_argument("--supports", type=_support_list,
                         default=[0.005, 0.01, 0.02],
                         help="comma-separated counts or fractions")
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.add_argument("--seed", type=int, default=7)
    p_bench.add_argument("--out", default=None, help="results CSV path")
    p_bench.set_defaults(func=cmd_bench)
    return parser


# Built once per process: each parser holds a few hundred objects in reference
# cycles, which a command run under the paused collector would keep alive.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        with _collector_paused():
            return args.func(args)
    except SystemExit as exc:  # --help, after argparse printed it
        return int(exc.code or 0)
    except (SeqmineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, InvalidConfigError):
            return EXIT_CONFIG
        return EXIT_MISMATCH if isinstance(exc, MinerMismatchError) else EXIT_INPUT
    except MemoryError:
        pass  # its traceback holds the work's frames: report once they are freed
    print("error: out of memory", file=sys.stderr)
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
