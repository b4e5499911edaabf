"""Release acceptance gate.

Six end-to-end criteria, one test each, every one printing a single
PASS line with its measured numbers (run with ``pytest -s`` to see them).
Budgets are wall-clock upper bounds on this suite's reference hardware
class; the functional assertions are exact.
"""

import io
import random
import time
from collections import defaultdict

from seqmine import (
    MinerConfig,
    SINGAPORE_SHAPE,
    bms_shape,
    build_report,
    default_config,
    generate_synthetic,
    mine,
    mine_spam,
    parse_checkins,
    projection_table,
    run_bench,
    run_pipeline,
    serialize_checkins,
    write_bench_csv,
    write_report_csv,
)
from seqmine.checkins import resolve_timezone

import oracle
from conftest import as_database

# Single-item projected databases of the letter fixture (min_count=2),
# infrequent items elided, and the complete pattern set grouped by first
# item, written in the compact notation.
PROJECTION_GOLDEN = {
    "a": "((abc)(ac)d(cf)), ((_d)c(bc)(ae)), ((_b)(df)cb), ((_f)cbc)",
    "b": "((_c)(ac)d(cf)), ((_c)(ae)), ((df)cb), (c)",
    "c": "((ac)d(cf)), ((bc)(ae)), (b), (bc)",
    "d": "((cf)), (c(bc)(ae)), ((_f)cb)",
    "e": "((_f)(ab)(df)cb), ((af)cbc)",
    "f": "((ab)(df)cb), (cbc)",
}

PATTERN_GOLDEN = {
    "a": "(a), (aa), (ab), (a(bc)), (a(bc)a), (aba), (abc), ((ab)), ((ab)c),"
         " ((ab)d), ((ab)f), ((ab)dc), (ac), (aca), (acb), (acc), (ad),"
         " (adc), (af)",
    "b": "(b), (ba), (bc), ((bc)), ((bc)a), (bd), (bdc), (bf)",
    "c": "(c), (ca), (cb), (cc)",
    "d": "(d), (db), (dc), (dcb)",
    "e": "(e), (ea), (eab), (eac), (eacb), (eb), (ebc), (ec), (ecb), (ef),"
         " (efb), (efc), (efcb)",
    "f": "(f), (fb), (fbc), (fc), (fcb)",
}


def test_criterion_1_projection_and_pattern_goldens(letters_db):
    """Exact projected-database renderings and the verbatim pattern groups."""
    t0 = time.perf_counter()
    assert projection_table(letters_db, 2) == PROJECTION_GOLDEN

    ps = mine(letters_db, MinerConfig(min_support=2))
    groups = defaultdict(set)
    for p in ps:
        first = letters_db.dictionary.decode(p.sequence.elements[0][0])
        groups[first].add("(" + p.render(letters_db.dictionary) + ")")
    expected = {
        k: {tok.strip() for tok in v.split(", ")} for k, v in PATTERN_GOLDEN.items()
    }
    assert dict(groups) == expected
    assert len(groups["a"]) == 19 and len(groups["f"]) == 5
    assert len(ps) == 53

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion-1 goldens: 6 projection tables exact, "
          f"53 patterns verbatim in groups a..f ({elapsed:.2f}s < 1s)")


def test_criterion_2_oracle_equivalence():
    """Pattern-growth miner equals exhaustive enumeration on 200 random
    databases at min_count 1, 2 and 3: sets and supports, zero tolerance."""
    t0 = time.perf_counter()
    n_compared = 0
    for seed in range(200):
        raw = oracle.random_db(random.Random(seed))
        db = as_database(raw)
        # every candidate occurs at least once, so min_count 1 gives every
        # support and a higher threshold filters them
        supports = oracle.mine_exhaustive(raw, 1)
        for min_count in (1, 2, 3):
            expected = {p: c for p, c in supports.items() if c >= min_count}
            got = mine(db, MinerConfig(min_support=min_count)).as_dict()
            assert got == expected, f"seed {seed} min_count {min_count}"
            n_compared += len(expected)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nPASS criterion-2 oracle equivalence: 200 databases x "
          f"min_count 1..3, {n_compared} patterns compared, zero mismatches "
          f"({elapsed:.1f}s < 60s)")


def test_criterion_3_miner_cross_check(digits_db):
    """Bitmap miner output is identical to the pattern-growth miner's."""
    t0 = time.perf_counter()
    for seed in range(200):
        db = as_database(oracle.random_db(random.Random(seed)))
        for min_count in (1, 2, 3):
            cfg = MinerConfig(min_support=min_count)
            assert list(mine(db, cfg)) == list(mine_spam(db, cfg)), seed
    for cfg in (MinerConfig(min_support=3, max_length=3), MinerConfig(min_support=2)):
        assert list(mine(digits_db, cfg)) == list(mine_spam(digits_db, cfg))
    elapsed = time.perf_counter() - t0
    print(f"\nPASS criterion-3 miner cross-check: 200 databases x 3 thresholds "
          f"plus the digit fixture, outputs identical ({elapsed:.1f}s)")


def test_criterion_4_anti_monotonicity(letters_db):
    """Every leading truncation of a mined pattern is itself mined, with
    support at least the pattern's."""
    t0 = time.perf_counter()
    checked = 0
    dbs = [as_database(oracle.random_db(random.Random(seed))) for seed in range(200)]
    dbs.append(letters_db)
    for db in dbs:
        supports = mine(db, MinerConfig(min_support=2)).as_dict()
        for pattern, support in supports.items():
            for prefix in oracle.leading_truncations(pattern):
                assert prefix in supports
                assert supports[prefix] >= support
                checked += 1
    elapsed = time.perf_counter() - t0
    print(f"\nPASS criterion-4 anti-monotonicity: {checked} prefix relations "
          f"verified across 201 databases ({elapsed:.1f}s)")


def _pipeline_outputs(seed: int) -> tuple[bytes, bytes, int]:
    corpus = generate_synthetic(SINGAPORE_SHAPE, seed)
    buf = io.StringIO()
    serialize_checkins(corpus, buf)
    parsed = parse_checkins(io.StringIO(buf.getvalue()))
    assert not parsed.rejects
    amap, windows = default_config()
    result = run_pipeline(
        parsed.checkins, amap, windows=windows, tz=resolve_timezone("+08:00")
    )
    cfg = MinerConfig(min_support=0.01, max_length=3)
    patterns = mine(result.database, cfg)
    report = build_report(patterns, result.database)
    pat_buf, rep_buf = io.StringIO(), io.StringIO()
    patterns.to_csv(pat_buf)
    write_report_csv(report, rep_buf)
    return (
        pat_buf.getvalue().encode(),
        rep_buf.getvalue().encode(),
        len(report),
    )


def test_criterion_5_pipeline_end_to_end():
    """Synthetic tourist corpus through the full pipeline: windowed grouping,
    three-activity report, no blocklisted activity, byte-identical reruns."""
    t0 = time.perf_counter()
    corpus = generate_synthetic(SINGAPORE_SHAPE, 42)
    users = {c.user_id for c in corpus}
    assert len(users) == 1057
    assert 8 * 1057 <= len(corpus) <= 10 * 1057

    patterns_a, report_a, n_rows = _pipeline_outputs(42)
    patterns_b, report_b, _ = _pipeline_outputs(42)
    assert patterns_a == patterns_b and report_a == report_b

    lines = report_a.decode().splitlines()
    assert lines[0] == "activity_sequence,frequency,support,confidence"
    assert n_rows > 0
    assert "airport" not in report_a.decode().lower()
    assert all(line.count(",") == 3 for line in lines)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion-5 pipeline: 1057 users, {n_rows} report rows, "
          f"no blocklisted activities, reruns byte-identical "
          f"({elapsed:.1f}s < 30s)")


def test_criterion_6_clickstream_benchmark():
    """Click-stream-shaped benchmark: both miners at three thresholds,
    pattern counts agreeing at each; runtimes recorded, never judged."""
    t0 = time.perf_counter()
    cfg = bms_shape()
    corpus = generate_synthetic(cfg, 7)
    per_user = defaultdict(int)
    for c in corpus:
        per_user[c.user_id] += 1
    n = len(per_user)
    mean = len(corpus) / n
    assert n == 30000
    assert 2.3 * 0.95 <= mean <= 2.3 * 1.05

    amap, _ = default_config()
    db = run_pipeline(corpus, amap, grouping="trip").database
    results = run_bench(db, [0.005, 0.01, 0.02], repeats=1)  # raises on mismatch
    buf = io.StringIO()
    write_bench_csv(results, buf)
    assert buf.getvalue().count("\n") == 7  # header + 2 miners x 3 levels

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    times = {(r.miner, r.min_support): r.wall_time_s for r in results}
    counts = sorted({(r.min_support, r.pattern_count) for r in results})
    print(f"\nPASS criterion-6 benchmark: {n} sequences mean {mean:.3f} "
          f"elements, counts {counts} agree at all levels, "
          f"times recorded {times} ({elapsed:.1f}s < 300s)")
