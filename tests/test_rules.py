import copy
import csv
import io
import json
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqmine import (
    InvalidConfigError,
    MinerConfig,
    SequenceDatabase,
    UndefinedConfidenceError,
    build_report,
    mine,
    mine_spam,
    pattern_frequency,
    pattern_support,
    rule_confidence,
    write_report_csv,
    write_report_jsonl,
)
from seqmine.checkins import default_config, run_pipeline
from seqmine.core import ItemDictionary, Sequence, canonicalize, contains_subsequence
from seqmine.prefixspan import Pattern, PatternSet
from seqmine.rules import VALID_SORT_KEYS, RuleRow, count_minimal_occurrences
from seqmine.synth import bms_shape, generate_synthetic

import oracle
from conftest import (
    DIGIT_ROWS, LETTER_ROWS, as_database, lane_databases, long_sequences, short_patterns,
)


def pat(db, *elems):
    return canonicalize([list(e) for e in elems], db.dictionary)


class TestPatternSupport:
    def test_universal_pattern(self, digits_db):
        assert pattern_support(digits_db, pat(digits_db, ["1"])) == (4, 1.0)

    def test_absent_pattern(self, digits_db):
        assert pattern_support(digits_db, pat(digits_db, ["7"], ["7"])) == (0, 0.0)

    def test_multi_item_element(self, digits_db):
        assert pattern_support(digits_db, pat(digits_db, ["2", "3"], ["1"])) == (2, 0.5)

    def test_empty_pattern_rejected(self, digits_db):
        with pytest.raises(ValueError):
            pattern_support(digits_db, Sequence())


class TestRuleConfidence:
    def test_half_confident_rule(self, digits_db):
        # <(4 5)> occurs in two sequences, <(4 5),(2)> in one
        assert rule_confidence(digits_db, pat(digits_db, ["4", "5"], ["2"])) == 0.5

    def test_certain_rule(self, digits_db):
        assert rule_confidence(digits_db, pat(digits_db, ["4"], ["2"], ["1"])) == 1.0

    def test_zero_confidence(self, digits_db):
        assert rule_confidence(digits_db, pat(digits_db, ["7"], ["7"])) == 0.0

    def test_needs_two_elements(self, digits_db):
        with pytest.raises(ValueError):
            rule_confidence(digits_db, pat(digits_db, ["1"]))

    def test_undefined_when_antecedent_absent(self, digits_db):
        with pytest.raises(UndefinedConfidenceError):
            rule_confidence(digits_db, pat(digits_db, ["7"], ["7"], ["7"]))


class TestMinimalOccurrences:
    """A window counts once: shifting the anchor without reaching a new end
    position must not add to the tally."""

    def test_single_item_counts_positions(self, digits_db):
        s1 = digits_db.sequences[0]
        assert count_minimal_occurrences(s1, pat(digits_db, ["1"])) == 3

    def test_repeated_pattern_in_one_sequence(self, digits_db):
        s1 = digits_db.sequences[0]
        # 2 at elements 1 and 2; nearest following 1 at elements 2 and 4
        assert count_minimal_occurrences(s1, pat(digits_db, ["2"], ["1"])) == 2

    def test_overlapping_anchors_share_a_window(self, digits_db):
        s3 = digits_db.sequences[2]
        # 3 at elements 2 and 3 both complete at the same trailing 1
        assert count_minimal_occurrences(s3, pat(digits_db, ["3"], ["1"])) == 1

    def test_absent_pattern(self, digits_db):
        s2 = digits_db.sequences[1]
        assert count_minimal_occurrences(s2, pat(digits_db, ["5"])) == 0

    def test_empty_pattern_refused(self, digits_db):
        with pytest.raises(ValueError, match="non-empty"):
            count_minimal_occurrences(digits_db.sequences[0], Sequence())

    def test_database_totals(self, digits_db):
        assert pattern_frequency(digits_db, pat(digits_db, ["2"], ["1"])) == 5
        assert pattern_frequency(digits_db, pat(digits_db, ["3"], ["1"])) == 4

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_window_enumeration(self, seed):
        rng = random.Random(seed)
        raw = oracle.random_db(rng, max_seqs=4, max_elems=5, alphabet=4)
        raw = [s for s in raw if s]
        if not raw:
            return
        seq = rng.choice(raw)
        sub = rng.sample(seq, rng.randint(1, min(3, len(seq))))
        db = as_database(raw, alphabet=4)
        p = Sequence(tuple(tuple(e) for e in sub))
        for s_raw, s in zip(raw, db.sequences):
            assert count_minimal_occurrences(s, p) == oracle.minimal_windows(
                s_raw, p.elements
            )

    @given(s=long_sequences, p=short_patterns)
    @settings(max_examples=40, deadline=None)
    def test_long_sequences_match_window_enumeration(self, s, p):
        assert count_minimal_occurrences(s, p) == oracle.minimal_windows(
            s.elements, p.elements
        )


class TestBuildReport:
    def test_three_activity_rows(self, digits_db):
        ps = mine(digits_db, MinerConfig(min_support=3, max_length=3))
        rows = build_report(ps, digits_db)
        assert [
            (r.activity_sequence, r.frequency, r.support, r.confidence)
            for r in rows
        ] == [
            ("4 > 2 > 1", 3, 0.75, 1.0),
            ("4 > 3 > 1", 3, 0.75, 1.0),
        ]

    def test_unrestricted_rows_take_any_chain(self, digits_db):
        ps = mine(digits_db, MinerConfig(min_support=2))
        rows = build_report(ps, digits_db, n_activities=None)
        rendered = {r.activity_sequence for r in rows}
        assert "2+3 > 1" in rendered  # multi-item elements join with +
        assert all(" > " in r.activity_sequence for r in rows)

    def test_sorting_and_truncation(self, letters_db):
        ps = mine(letters_db, MinerConfig(min_support=2))
        for key in VALID_SORT_KEYS:
            rows = build_report(ps, letters_db, sort_key=key, n_activities=None)
            values = [getattr(r, key) for r in rows]
            assert values == sorted(values, reverse=True)
            assert build_report(
                ps, letters_db, sort_key=key, n_activities=None, top_k=5
            ) == rows[:5]

    def test_invalid_sort_key(self, digits_db):
        ps = mine(digits_db, MinerConfig(min_support=3))
        with pytest.raises(ValueError):
            build_report(ps, digits_db, sort_key="lift")

    def test_negative_top_k_rejected(self, digits_db):
        ps = mine(digits_db, MinerConfig(min_support=3))
        with pytest.raises(InvalidConfigError):
            build_report(ps, digits_db, top_k=-1)

    @pytest.mark.parametrize("n_activities", [1, 0, -1])
    def test_n_activities_below_two_rejected(self, digits_db, n_activities):
        ps = mine(digits_db, MinerConfig(min_support=3))
        with pytest.raises(InvalidConfigError):
            build_report(ps, digits_db, n_activities=n_activities)

    @pytest.mark.parametrize("kwargs, field", [
        ({"top_k": 1.5}, "top_k"),
        ({"top_k": True}, "top_k"),
        ({"top_k": "1"}, "top_k"),
        ({"top_k": np.int64(2)}, "top_k"),
        ({"n_activities": 2.5}, "n_activities"),
        ({"n_activities": "3"}, "n_activities"),
        ({"n_activities": np.int64(3)}, "n_activities"),
    ])
    def test_non_int_counts_rejected(self, digits_db, kwargs, field):
        ps = mine(digits_db, MinerConfig(min_support=3))
        with pytest.raises(InvalidConfigError, match=field):
            build_report(ps, digits_db, **kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"top_k": -1}, "top_k must be an int >= 0, got -1"),
        ({"top_k": 1.5}, "top_k must be an int >= 0, got 1.5"),
        ({"n_activities": 1}, "n_activities must be an int >= 2, got 1"),
        ({"n_activities": "3"}, "n_activities must be an int >= 2, got '3'"),
    ])
    def test_count_messages(self, digits_db, kwargs, message):
        ps = mine(digits_db, MinerConfig(min_support=3))
        with pytest.raises(InvalidConfigError) as exc:
            build_report(ps, digits_db, **kwargs)
        assert str(exc.value) == message

    def test_frequency_no_less_than_containing_sequences(self, letters_db):
        ps = mine(letters_db, MinerConfig(min_support=2))
        for r in build_report(ps, letters_db, n_activities=None):
            assert r.frequency >= r.pattern.support_count

    def test_confidence_uses_miner_counts(self, digits_db):
        ps = mine(digits_db, MinerConfig(min_support=3, max_length=3))
        for r in build_report(ps, digits_db):
            assert r.confidence == rule_confidence(digits_db, r.pattern.sequence)


class TestIndexedReport:
    """Hand-built and filtered pattern sets carry no holders, so build_report
    counts over the whole database; the plain scans pattern_frequency and
    pattern_support are the reference."""

    @staticmethod
    def assert_rows_match_scans(rows, db):
        for r in rows:
            p = r.pattern.sequence
            assert r.frequency == pattern_frequency(db, p)
            denom, _ = pattern_support(db, Sequence(p.elements[:-1]))
            assert r.confidence == r.pattern.support_count / denom

    @staticmethod
    def random_database(seed):
        # Items 0-3 only, in elements of one to three items: ids 4 and 5 are
        # in the dictionary but no sequence holds them.
        rng = random.Random(seed)
        return as_database(oracle.random_db(rng, max_seqs=8, max_elems=6, alphabet=4),
                           alphabet=6)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_rows_match_scans(self, seed):
        db = self.random_database(seed)
        ps = mine(db, MinerConfig(min_support=2, max_length=5))
        for n_activities in (3, None):
            self.assert_rows_match_scans(build_report(ps, db, n_activities=n_activities), db)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_filtered_pattern_set_falls_back(self, seed):
        # Keeping only three-element patterns drops every row's antecedent.
        db = self.random_database(seed)
        ps = mine(db, MinerConfig(min_support=2, max_length=5))
        kept = tuple(p for p in ps if len(p.sequence.elements) == 3)
        filtered = PatternSet(kept, ps.n_sequences, ps.dictionary)
        rows = build_report(filtered, db, n_activities=None)
        assert len(rows) == len(kept)
        self.assert_rows_match_scans(rows, db)

    def test_hand_built_patterns_with_absent_items(self):
        db = as_database([((0,), (1, 2)), ((1,), (0,), (2,))], alphabet=4)
        ps = PatternSet((
            Pattern(Sequence(((0,), (2,))), 2),    # antecedent <(0)> not in the set
            Pattern(Sequence(((1, 2), (3,))), 0),  # item 3 is in no sequence
        ), len(db), db.dictionary)
        rows = build_report(ps, db, n_activities=None)
        assert [(r.frequency, r.confidence) for r in rows] == [(2, 1.0), (0, 0.0)]
        self.assert_rows_match_scans(rows, db)

    def test_absent_antecedent_is_undefined(self):
        db = as_database([((0,), (1, 2)), ((1,), (0,), (2,))], alphabet=4)
        ps = PatternSet((Pattern(Sequence(((3,), (0,))), 0),), len(db), db.dictionary)
        with pytest.raises(UndefinedConfidenceError):
            build_report(ps, db, n_activities=None)

    def test_antecedent_held_at_support_zero_is_undefined(self):
        # The set holds the antecedent, so its count of 0 is the denominator.
        db = as_database([((0,), (1,))], alphabet=2)
        ps = PatternSet((
            Pattern(Sequence(((0,),)), 0),
            Pattern(Sequence(((0,), (1,))), 1),
        ), len(db), db.dictionary)
        with pytest.raises(UndefinedConfidenceError, match="never occurs"):
            build_report(ps, db, n_activities=None)

    def test_lone_pattern_confidence_counts_in_one_database(self):
        # Each 3-element pattern of 8 sequences, reported alone over the
        # first 2: the set lacks every antecedent, so both counts come from
        # the 2.  Taking the pattern's count from the 8 instead read 1.5 or
        # 2.0 on 5 of these rows (a > d > c read 2.0).
        db = SequenceDatabase.from_raw(LETTER_ROWS + DIGIT_ROWS)
        ps = mine(db, MinerConfig(min_support=2))
        first_two = SequenceDatabase(db.sequences[:2], db.seq_ids[:2], db.dictionary)
        confidences = {}
        for p in ps:
            if len(p.sequence.elements) != 3:
                continue
            lone = PatternSet((p,), ps.n_sequences, ps.dictionary)
            try:
                [row] = build_report(lone, first_two, n_activities=None)
            except UndefinedConfidenceError:  # the antecedent is in neither of the 2
                continue
            assert row.confidence == rule_confidence(first_two, p.sequence) <= 1
            confidences[row.activity_sequence] = row.confidence
        assert len(confidences) == 10
        assert confidences["a > d > c"] == 1.0

    @given(seed=st.integers(0, 10_000), n=st.integers(0, 8), lone=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_confidence_is_at_most_one_over_any_prefix(self, seed, n, lone):
        # One-pattern or randomly filtered sets, reported over the first n
        # sequences: a row's antecedent is either in the set, with counts
        # from the mined database, or counted in the prefix with the row's.
        db = self.random_database(seed)
        ps = mine(db, MinerConfig(min_support=2, max_length=5))
        prefix = SequenceDatabase(db.sequences[:n], db.seq_ids[:n], db.dictionary)
        if lone:
            subsets = [(p,) for p in ps]
        else:
            rng = random.Random(seed)
            subsets = [tuple(p for p in ps if rng.random() < 0.5)]
        for kept in subsets:
            try:
                rows = build_report(PatternSet(kept, ps.n_sequences, ps.dictionary),
                                    prefix, n_activities=None)
            except UndefinedConfidenceError:
                continue
            for r in rows:
                assert r.confidence <= 1


MINERS = pytest.mark.parametrize("miner", [mine, mine_spam], ids=["prefixspan", "spam"])


def without_holders(ps):
    return PatternSet(ps.patterns, ps.n_sequences, ps.dictionary)


def rows_of(rows):
    return [(r.pattern, r.activity_sequence, r.frequency, r.support, r.confidence)
            for r in rows]


class TestMinedHolders:
    """A mined set keeps the sequences its miner found holding each pattern
    of two or more elements, and build_report counts only in those."""

    @MINERS
    @given(db=lane_databases)
    @settings(max_examples=40, deadline=None)
    def test_holders_are_the_containing_sequences(self, miner, db):
        ps = miner(db, MinerConfig(min_support=2, max_length=3))
        held = ps._holders_in(db)
        assert len(held) == len(ps)
        for p, h in zip(ps, held):
            if len(p.sequence.elements) < 2:
                assert h is None
                continue
            assert list(h) == [
                i for i, s in enumerate(db.sequences) if contains_subsequence(s, p.sequence)
            ]
            assert len(h) == p.support_count

    @MINERS
    @given(db=lane_databases)
    @settings(max_examples=30, deadline=None)
    def test_rows_equal_rows_without_holders(self, miner, db):
        ps = miner(db, MinerConfig(min_support=2, max_length=3))
        for n_activities in (2, 3, None):
            rows = build_report(ps, db, n_activities=n_activities)
            assert rows_of(rows) == rows_of(
                build_report(without_holders(ps), db, n_activities=n_activities))
            for r in rows:
                assert r.frequency == pattern_frequency(db, r.pattern.sequence)

    @staticmethod
    def bms_trips(n_users):
        activity_map, _ = default_config()
        checkins = generate_synthetic(bms_shape(n_users), 7)
        return run_pipeline(checkins, activity_map, grouping="trip").database

    @MINERS
    def test_other_databases_count_over_their_own_sequences(self, miner):
        # Holders index the mined database; on any other one they would point
        # at the wrong sequences, or past the end.
        db = self.bms_trips(300)
        ps = miner(db, MinerConfig(min_support=0.01))
        seqs, ids = db.sequences, db.seq_ids
        half = len(db) // 2
        others = {
            "reversed": SequenceDatabase(seqs[::-1], ids[::-1], db.dictionary),
            "subset": SequenceDatabase(seqs[:half], ids[:half], db.dictionary),
            "superset": SequenceDatabase(seqs + seqs[:half],
                                         ids + tuple(f"x{i}" for i in ids[:half]),
                                         db.dictionary),
            "equal copy": SequenceDatabase(seqs, ids, db.dictionary),
        }
        assert sum(len(p.sequence.elements) > 1 for p in ps) >= 10
        for name, other in others.items():
            rows = build_report(ps, other, n_activities=None)
            assert len(rows) >= 10, name
            for r in rows:
                assert r.frequency == pattern_frequency(other, r.pattern.sequence), name

    @MINERS
    def test_support_is_the_mined_sets_fraction(self, miner):
        # Mined from 8 sequences, reported over the first 2: support stays
        # support_count / 8, while frequency is counted in the 2.
        db = SequenceDatabase.from_raw(LETTER_ROWS + DIGIT_ROWS)
        ps = miner(db, MinerConfig(min_support=2))
        first_two = SequenceDatabase(db.sequences[:2], db.seq_ids[:2], db.dictionary)
        rows = build_report(ps, first_two, n_activities=None)
        assert len(db) == 8 and len(rows) >= 10
        for r in rows:
            assert r.support == ps.relative_support(r.pattern) <= 1
            assert r.frequency == pattern_frequency(first_two, r.pattern.sequence)

    @MINERS
    def test_copies_keep_the_patterns_and_drop_the_holders(self, miner, letters_db):
        ps = miner(letters_db, MinerConfig(min_support=2))
        plain = without_holders(ps)
        assert ps._holders_in(letters_db) is not None
        for other in (pickle.loads(pickle.dumps(ps)), copy.deepcopy(ps), copy.copy(ps)):
            assert other == ps == plain
            assert repr(other) == repr(ps) == repr(plain)
            assert other.as_dict() == ps.as_dict()
            assert other._holders_in(letters_db) is None
        assert pickle.dumps(ps) == pickle.dumps(plain)
        for write in (PatternSet.to_csv, PatternSet.to_jsonl):
            a, b = io.StringIO(), io.StringIO()
            write(ps, a)
            write(plain, b)
            assert a.getvalue() == b.getvalue()


# Labels json.dumps escapes (a quote, a backslash, control characters, a
# line separator, non-ASCII text) or the CSV writer quotes (a comma).
ESCAPED_LABELS = ('say "hi"', "back\\slash", "tab\tesc\x1b\x01", "line\u2028sep",
                  "café", "東京", "a,b")
# (support count, sequence count): relative supports 1.0, 0.0, 1e-07 and 1/3
SUPPORTS = [(3, 3), (0, 3), (1, 10**7), (1, 3)]


def csv_module_text(rows):
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


class TestReportSerialization:
    @pytest.mark.parametrize("count, n", SUPPORTS)
    def test_pattern_writers_match_json_dumps_and_the_csv_module(self, count, n):
        d = ItemDictionary.from_labels(ESCAPED_LABELS)
        raws = [[["café"]], [['say "hi"', "a,b"], ["東京"]],
                [["line\u2028sep"], ["back\\slash", "tab\tesc\x1b\x01"], ["line\u2028sep"]]]
        ps = PatternSet(tuple(Pattern(canonicalize(r, d), count) for r in raws), n, d)
        jl, cs = io.StringIO(), io.StringIO()
        ps.to_jsonl(jl)
        ps.to_csv(cs)
        assert jl.getvalue() == "".join(json.dumps({
            "pattern": [[d.decode(i) for i in e] for e in p.sequence.elements],
            "support_count": p.support_count,
            "relative_support": ps.relative_support(p),
        }) + "\n" for p in ps)
        assert cs.getvalue() == csv_module_text(
            [["pattern", "support_count", "relative_support"]]
            + [[p.render(d), p.support_count, f"{ps.relative_support(p):.6f}"] for p in ps])

    @pytest.mark.parametrize("count, n", SUPPORTS)
    def test_report_writers_match_json_dumps_and_the_csv_module(self, count, n):
        d = ItemDictionary.from_labels(ESCAPED_LABELS)
        p = Pattern(canonicalize([["café"]], d), count)
        rows = [RuleRow(p, " > ".join(labels), freq, count / n, conf)
                for labels, freq, conf in [(ESCAPED_LABELS[:3], 7, count / n),
                                           (ESCAPED_LABELS[3:], 0, 1 / 3),
                                           (ESCAPED_LABELS[::2], 10**12, 1.0),
                                           (ESCAPED_LABELS[1::2], 2, float("nan")),
                                           (ESCAPED_LABELS[:1], 1, float("-inf"))]]
        jl, cs = io.StringIO(), io.StringIO()
        write_report_jsonl(rows, jl)
        write_report_csv(rows, cs)
        assert jl.getvalue() == "".join(json.dumps({
            "activity_sequence": r.activity_sequence,
            "frequency": r.frequency,
            "support": r.support,
            "confidence": r.confidence,
        }) + "\n" for r in rows)
        assert cs.getvalue() == csv_module_text(
            [["activity_sequence", "frequency", "support", "confidence"]]
            + [[r.activity_sequence, r.frequency, f"{r.support:.6f}", f"{r.confidence:.6f}"]
               for r in rows])

    def test_csv_layout(self, digits_db):
        ps = mine(digits_db, MinerConfig(min_support=3, max_length=3))
        buf = io.StringIO()
        write_report_csv(build_report(ps, digits_db), buf)
        assert buf.getvalue().splitlines() == [
            "activity_sequence,frequency,support,confidence",
            "4 > 2 > 1,3,0.750000,1.000000",
            "4 > 3 > 1,3,0.750000,1.000000",
        ]

    def test_jsonl_round_trip(self, digits_db):
        ps = mine(digits_db, MinerConfig(min_support=2))
        rows = build_report(ps, digits_db, n_activities=None)
        buf = io.StringIO()
        write_report_jsonl(rows, buf)
        records = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert [r["activity_sequence"] for r in records] == [
            r.activity_sequence for r in rows
        ]
        assert all(
            rec["frequency"] == row.frequency and rec["support"] == row.support
            for rec, row in zip(records, rows)
        )
