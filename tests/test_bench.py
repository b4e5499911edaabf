import io
from array import array

import numpy as np
import pytest

from seqmine import (
    InvalidConfigError,
    MinerConfig,
    MinerMismatchError,
    mine,
    mine_spam,
    run_bench,
)
from seqmine.bench import MINERS, dataset_stats, format_table, write_bench_csv
from seqmine.prefixspan import Pattern, PatternSet


class TestDatasetStats:
    def test_digit_fixture(self, digits_db):
        assert dataset_stats(digits_db) == (4, 5.75, 7)

    def test_empty(self):
        from seqmine import SequenceDatabase

        assert dataset_stats(SequenceDatabase.from_raw([])) == (0, 0.0, 0)


class TestRunBench:
    def test_rows_per_miner_and_support(self, letters_db):
        results = run_bench(letters_db, [1, 2, 3], repeats=1)
        assert [(r.miner, r.min_support) for r in results] == [
            ("prefixspan", 1), ("spam", 1),
            ("prefixspan", 2), ("spam", 2),
            ("prefixspan", 3), ("spam", 3),
        ]
        by_support = {}
        for r in results:
            by_support.setdefault(r.min_support, set()).add(r.pattern_count)
        assert all(len(counts) == 1 for counts in by_support.values())
        counts = [results[i].pattern_count for i in (0, 2, 4)]
        assert counts == sorted(counts, reverse=True)

    def test_fractional_support_resolution(self, letters_db):
        (row, _) = run_bench(letters_db, [0.5], repeats=1)
        assert row.min_support == 0.5 and row.min_count == 2
        assert row.n_sequences == 4 and row.alphabet_size == 7

    def test_count_mismatch_is_fatal(self, letters_db, monkeypatch):
        def broken(db, cfg):
            full = mine(db, cfg)
            return PatternSet(full.patterns[:-1], full.n_sequences, full.dictionary)

        monkeypatch.setitem(MINERS, "spam", broken)
        with pytest.raises(MinerMismatchError):
            run_bench(letters_db, [2], repeats=1)

    def test_support_mismatch_is_fatal(self, letters_db, monkeypatch):
        def off_by_one(db, cfg):
            full = mine(db, cfg)
            first, *rest = full.patterns
            wrong = Pattern(first.sequence, first.support_count - 1)
            return PatternSet((wrong, *rest), full.n_sequences, full.dictionary)

        monkeypatch.setitem(MINERS, "spam", off_by_one)
        with pytest.raises(MinerMismatchError, match="disagree on 2"):
            run_bench(letters_db, [2], repeats=1)

    def test_holder_mismatch_is_fatal(self, letters_db, monkeypatch):
        def one_holder_off(db, cfg):
            found = mine_spam(db, cfg)
            ref, held = found._holders
            k = next(k for k, h in enumerate(held) if h is not None)
            wrong = array("i", held[k])
            wrong[-1] += 1
            object.__setattr__(found, "_holders", (ref, (*held[:k], wrong, *held[k + 1:])))
            return found

        monkeypatch.setitem(MINERS, "spam", one_holder_off)
        with pytest.raises(MinerMismatchError, match="holders of 1 patterns"):
            run_bench(letters_db, [2], repeats=1)

    def test_validation(self, letters_db):
        with pytest.raises(InvalidConfigError):
            run_bench(letters_db, [], repeats=1)
        with pytest.raises(InvalidConfigError):
            run_bench(letters_db, [2], repeats=0)

    @pytest.mark.parametrize("repeats", [2.5, True, "2", np.int64(2)])
    def test_non_int_repeats_rejected(self, letters_db, repeats):
        with pytest.raises(InvalidConfigError, match="repeats"):
            run_bench(letters_db, [2], repeats=repeats)

    def test_repeats_message(self, letters_db):
        with pytest.raises(InvalidConfigError) as exc:
            run_bench(letters_db, [2], repeats=0)
        assert str(exc.value) == "repeats must be an int >= 1, got 0"


class TestOutputs:
    def test_csv_layout(self, letters_db):
        results = run_bench(letters_db, [2], repeats=1)
        buf = io.StringIO()
        write_bench_csv(results, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == (
            "miner,n_sequences,avg_elements,alphabet_size,min_support,"
            "min_count,wall_time_s,peak_rss_kb,pattern_count"
        )
        assert len(lines) == 3
        assert lines[1].startswith("prefixspan,4,")
        assert lines[1].endswith(",53")

    def test_table_alignment(self, letters_db):
        results = run_bench(letters_db, [2], repeats=1)
        table = format_table(results)
        lines = table.splitlines()
        assert lines[0].split() == [
            "miner", "support", "min_count", "time_s", "rss_kb", "patterns"
        ]
        assert len(lines) == 2 + len(results)
        assert len({len(line) for line in lines if line.strip()}) <= 2
