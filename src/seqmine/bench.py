"""Benchmark harness: run both miners over support levels on one database.

Runtimes are recorded, never judged: which miner wins depends on hardware
and data shape.  The full pattern sets, supports included, must agree at
every support level; a mismatch means a correctness bug and is raised as a
hard error.  ``_check_bench_settings`` holds the settings rules, so the CLI
refuses a bad setting before it generates the database.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
from dataclasses import asdict, dataclass, fields
from typing import IO, Callable, Iterable, Sequence as SequenceABC

from .core import SequenceDatabase, _csv_line, _is_count
from .errors import InvalidConfigError, MinerMismatchError
from .prefixspan import MinerConfig, PatternSet, mine
from .spam import mine_spam

#: The miner registry, shared by the bench harness and ``seqmine mine``.
MINERS: dict[str, Callable[[SequenceDatabase, MinerConfig], PatternSet]] = {
    "prefixspan": mine,
    "spam": mine_spam,
}


@dataclass(frozen=True)
class BenchResult:
    """One (miner, support) measurement."""

    miner: str
    n_sequences: int
    avg_elements: float
    alphabet_size: int
    min_support: int | float
    min_count: int
    wall_time_s: float  # median over repeats
    # ru_maxrss: the process's peak since it started, so within one run_bench
    # call no row reads below an earlier one (SPAM's holds PrefixSpan's peak)
    peak_rss_kb: int
    pattern_count: int


def dataset_stats(db: SequenceDatabase) -> tuple[int, float, int]:
    """(sequence count, mean elements per sequence, alphabet size)."""
    n = len(db)
    avg = sum(len(s.elements) for s in db.sequences) / n if n else 0.0
    return n, avg, len(db.dictionary)


def _peak_rss_kb() -> int:
    # ru_maxrss is KiB on Linux, bytes on macOS; normalize to KiB.
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss // 1024 if sys.platform == "darwin" else rss


def _check_bench_settings(supports: SequenceABC[int | float], repeats: int) -> None:
    """run_bench's settings rules; ``seqmine bench`` runs them before any data."""
    if not _is_count(repeats, 1):
        raise InvalidConfigError(f"repeats must be an int >= 1, got {repeats!r}")
    if not supports:
        raise InvalidConfigError("need at least one support level")


def run_bench(
    db: SequenceDatabase,
    supports: SequenceABC[int | float],
    repeats: int = 3,
) -> list[BenchResult]:
    """Median wall time and pattern count per (miner, support).

    Every miner in ``MINERS`` runs, in registry order.  Raises
    ``MinerMismatchError`` when the miners' pattern sets differ in any
    pattern or support, or, where both sets carry them, in the sequences
    found holding any pattern.
    """
    _check_bench_settings(supports, repeats)
    n, avg, alphabet = dataset_stats(db)
    results: list[BenchResult] = []
    for support in supports:
        cfg = MinerConfig(min_support=support)
        min_count = cfg.resolve_min_count(n)
        found: dict[str, PatternSet] = {}
        for name, fn in MINERS.items():
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                patterns = fn(db, cfg)
                times.append(time.perf_counter() - t0)
            found[name] = patterns
            results.append(
                BenchResult(
                    miner=name,
                    n_sequences=n,
                    avg_elements=avg,
                    alphabet_size=alphabet,
                    min_support=support,
                    min_count=min_count,
                    wall_time_s=statistics.median(times),
                    peak_rss_kb=_peak_rss_kb(),
                    pattern_count=len(patterns),
                )
            )
        names = list(found)
        for previous, name in zip(names, names[1:]):
            a, b = found[previous].as_dict(), found[name].as_dict()
            if a != b:
                raise MinerMismatchError(
                    f"{name} and {previous} disagree on {len(a.items() ^ b.items())} "
                    f"(pattern, support) pairs at support {support}"
                )
            # equal pattern sets come in the same canonical order
            ha, hb = found[previous]._holders_in(db), found[name]._holders_in(db)
            if ha is not None and hb is not None and ha != hb:
                differing = sum(x != y for x, y in zip(ha, hb))
                raise MinerMismatchError(
                    f"{name} and {previous} disagree on the holders of {differing} "
                    f"patterns at support {support}"
                )
    return results


def write_bench_csv(results: Iterable[BenchResult], fp: IO[str]) -> None:
    """One ``core._csv_line`` per result, the csv module's bytes: one column
    per BenchResult field, mean length and time to 4 places."""
    fp.write(_csv_line([f.name for f in fields(BenchResult)]))
    for r in results:
        fp.write(_csv_line({**asdict(r), "avg_elements": f"{r.avg_elements:.4f}",
                            "wall_time_s": f"{r.wall_time_s:.4f}"}.values()))


def format_table(results: SequenceABC[BenchResult]) -> str:
    """Aligned text table of the results."""
    headers = ["miner", "support", "min_count", "time_s", "rss_kb", "patterns"]
    rows = [[r.miner, str(r.min_support), str(r.min_count), f"{r.wall_time_s:.3f}",
             str(r.peak_rss_kb), str(r.pattern_count)] for r in results]
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    lines = [headers, ["-" * w for w in widths], *rows]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(line, widths))
                     for line in lines)
