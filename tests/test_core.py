import csv
import io
import json
import random
import sys
from datetime import datetime, timedelta, timezone
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqmine import (
    EMPTY_SUFFIX,
    CheckIn,
    EmptyElementError,
    ItemDictionary,
    Sequence,
    SequenceDatabase,
    Suffix,
    UnknownLabelError,
    canonicalize,
    concat,
    contains_subsequence,
    is_prefix,
    render_elements,
    serialize_checkins,
    suffix,
)
from seqmine.checkins import CSV_HEADER
from seqmine.core import _csv_line, _json_value
from conftest import long_sequences, short_patterns
from oracle import contains as oracle_contains
from oracle import random_db

ids_sequences = st.lists(
    st.sets(st.integers(0, 5), min_size=1, max_size=3).map(
        lambda s: tuple(sorted(s))
    ),
    max_size=5,
).map(lambda elems: Sequence(tuple(elems)))


class TestItemDictionary:
    def test_ids_follow_sorted_label_order(self):
        d = ItemDictionary.from_labels(["Dining", "Arcade", "Walking"])
        assert d.labels == ("Arcade", "Dining", "Walking")
        assert [d.encode(lb) for lb in d.labels] == [0, 1, 2]
        assert [d.decode(i) for i in range(3)] == list(d.labels)

    def test_duplicate_labels_collapse(self):
        d = ItemDictionary.from_labels(["b", "a", "b"])
        assert d.labels == ("a", "b")

    def test_unknown_label(self):
        d = ItemDictionary.from_labels(["a"])
        with pytest.raises(UnknownLabelError):
            d.encode("z")

    def test_compact_flag(self):
        assert ItemDictionary.from_labels(["a", "b"]).compact
        assert not ItemDictionary.from_labels(["ab", "c"]).compact

    def test_unsorted_labels_refused(self):
        with pytest.raises(ValueError, match="unique and sorted"):
            ItemDictionary(("b", "a"))

    def test_items_and_membership(self):
        d = ItemDictionary(("a", "b"))
        assert d.items() == ((0, "a"), (1, "b"))
        assert "b" in d and "z" not in d


class TestCanonicalize:
    def test_sorts_items_within_element(self):
        d = ItemDictionary.from_labels(["a", "b", "c"])
        s = canonicalize([["b", "a"], ["c"]], d)
        assert s.elements == ((0, 1), (2,))

    def test_empty_input_is_empty_sequence(self):
        d = ItemDictionary.from_labels(["a"])
        assert canonicalize([], d) == Sequence()

    def test_duplicates_collapse(self):
        d = ItemDictionary.from_labels(["a", "b"])
        assert canonicalize([["a", "a", "b"]], d).elements == ((0, 1),)

    def test_empty_element_rejected(self):
        d = ItemDictionary.from_labels(["a"])
        with pytest.raises(EmptyElementError):
            canonicalize([["a"], []], d)

    def test_idempotent_through_labels(self, letters_db):
        d = letters_db.dictionary
        for s in letters_db:
            labels = [[d.decode(i) for i in e] for e in s.elements]
            assert canonicalize(labels, d) == s


class TestRendering:
    def test_compact_alphabet(self, letters_db):
        d = letters_db.dictionary
        assert letters_db.sequences[0].render(d) == "a(abc)(ac)d(cf)"
        assert letters_db.sequences[1].render(d) == "(ad)c(bc)(ae)"

    def test_partial_marker(self, letters_db):
        d = letters_db.dictionary
        out = render_elements(
            [(2,), (1, 2), (0, 4)], d, partial=(d.encode("d"),)
        )
        assert out == "(_d)c(bc)(ae)"

    def test_multichar_labels_use_commas(self):
        d = ItemDictionary.from_labels(["1", "2", "3"])
        s = canonicalize([["1"], ["2", "3"]], d)
        assert s.render(d) == "(1),(2 3)"


class TestContainsSubsequence:
    def test_itemset_match(self, digits_db):
        d = digits_db.dictionary
        p = canonicalize([["1", "2"], ["4", "5"]], d)
        assert contains_subsequence(digits_db.sequences[0], p)

    def test_empty_pattern_in_anything(self, digits_db):
        for s in digits_db:
            assert contains_subsequence(s, Sequence())

    def test_order_matters(self):
        db = SequenceDatabase.from_raw([[["1"], ["2"]]])
        p = canonicalize([["2"], ["1"]], db.dictionary)
        assert not contains_subsequence(db.sequences[0], p)

    @given(s=ids_sequences, p=ids_sequences)
    @settings(max_examples=300, deadline=None)
    def test_greedy_matches_backtracking(self, s, p):
        assert contains_subsequence(s, p) == oracle_contains(s.elements, p.elements)

    @given(s=long_sequences, p=short_patterns)
    @settings(max_examples=40, deadline=None)
    def test_long_sequences_match_backtracking(self, s, p):
        assert contains_subsequence(s, p) == oracle_contains(s.elements, p.elements)


class TestIsPrefix:
    def test_final_element_subset_with_later_leftovers(self):
        db = SequenceDatabase.from_raw([[["a", "b", "c"], ["d"]]])
        d = db.dictionary
        assert is_prefix(canonicalize([["a", "b"]], d), db.sequences[0])

    def test_leftover_before_subset_items_fails(self):
        db = SequenceDatabase.from_raw([[["a", "b", "c"]]])
        d = db.dictionary
        assert not is_prefix(canonicalize([["a", "c"]], d), db.sequences[0])

    def test_single_item_prefix(self, letters_db):
        d = letters_db.dictionary
        assert is_prefix(canonicalize([["a"]], d), letters_db.sequences[0])

    def test_refusals(self):
        a = Sequence(((0,), (1, 2)))
        assert not is_prefix(Sequence(), a)  # empty prefix
        assert not is_prefix(Sequence(((0,), (1,), (2,))), a)  # longer than a
        assert not is_prefix(Sequence(((1,), (1,))), a)  # leading elements differ
        assert not is_prefix(Sequence(((0,), (3,))), a)  # last element no subset

    def test_prefix_implies_containment(self):
        rng = random.Random(4)
        for _ in range(300):
            (a,) = random_db(rng, max_seqs=1, max_elems=4, alphabet=5)
            seq = Sequence(a)
            for m in range(1, len(a) + 1):
                for j in range(1, len(a[m - 1]) + 1):
                    b = Sequence(a[: m - 1] + (a[m - 1][:j],))
                    assert is_prefix(b, seq)
                    assert contains_subsequence(seq, b)


class TestSuffix:
    def test_full_element_consumed(self, letters_db):
        d = letters_db.dictionary
        suf = suffix(letters_db.sequences[0], canonicalize([["a"]], d))
        assert suf.leading_partial is None
        assert suf.render(d) == "(abc)(ac)d(cf)"

    def test_partially_consumed_element(self, letters_db):
        d = letters_db.dictionary
        suf = suffix(letters_db.sequences[1], canonicalize([["a"]], d))
        assert suf.leading_partial == (d.encode("d"),)
        assert suf.render(d) == "(_d)c(bc)(ae)"

    def test_absent_prefix_gives_empty(self, digits_db):
        d = digits_db.dictionary
        db0 = SequenceDatabase.from_raw([[["1"], ["2"]]], dictionary=d)
        suf = suffix(db0.sequences[0], canonicalize([["7"]], d))
        assert suf.is_empty
        assert suf == EMPTY_SUFFIX

    def test_empty_leading_partial_refused(self):
        with pytest.raises(EmptyElementError):
            Suffix((), ())

    def test_empty_prefix_refused(self):
        with pytest.raises(ValueError, match="non-empty"):
            suffix(Sequence(((0,),)), Sequence())

    def test_concat_refusals(self):
        with pytest.raises(ValueError, match="empty prefix"):
            concat(Sequence(), Suffix((1,), ()))
        with pytest.raises(ValueError, match="ordered after"):
            concat(Sequence(((2,),)), Suffix((1,), ()))

    def test_reconstruction_is_contained(self):
        rng = random.Random(11)
        checked = 0
        for _ in range(400):
            (a_raw,) = random_db(rng, max_seqs=1, max_elems=5, alphabet=6)
            (b_raw,) = random_db(rng, max_seqs=1, max_elems=2, alphabet=6)
            a, b = Sequence(a_raw), Sequence(b_raw)
            suf = suffix(a, b)
            if suf.is_empty:
                continue
            checked += 1
            assert contains_subsequence(a, concat(b, suf))
        assert checked > 50

    def test_round_trip_recovers_suffix(self):
        # concat puts b at the very front, so the earliest occurrence of b
        # ends exactly where the glued-on suffix begins; recovery is exact
        rng = random.Random(23)
        for _ in range(400):
            (b_raw,) = random_db(rng, max_seqs=1, max_elems=3, alphabet=4)
            (rest,) = random_db(rng, max_seqs=1, max_elems=3, alphabet=6)
            last = b_raw[-1]
            # partial items must sort after the prefix's final element
            extra = tuple(i for i in (4, 5) if rng.random() < 0.4 and i > last[-1])
            suf = Suffix(extra or None, rest)
            b = Sequence(b_raw)
            assert suffix(concat(b, suf), b) == suf


class TestSequenceDatabase:
    def test_parallel_ids_enforced(self, letters_db):
        with pytest.raises(ValueError):
            SequenceDatabase(letters_db.sequences, ("only-one",), letters_db.dictionary)

    def test_default_ids(self, letters_db):
        assert letters_db.seq_ids == ("S1", "S2", "S3", "S4")

    def test_item_count(self, letters_db):
        assert letters_db.sequences[0].item_count == 9


# Text over every character the CSV quoting rule looks at, and a few
# line-breaking or unusual ones it must leave alone.
csv_text = st.text(alphabet=[",", '"', "\r", "\n", "\x00", "\x0b", "\x1c", "\u2028",
                             " ", "\t", "é", "a"])
OFFSETS = st.sampled_from([timezone.utc, timezone(timedelta(hours=8)),
                           timezone(timedelta(hours=-5, minutes=-30))])
csv_fields = st.one_of(csv_text, st.none(), st.integers(), st.floats(), st.booleans())


def csv_writer_line(fields):
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue()


def checkins_csv_reference(checkins):
    """serialize_checkins' CSV body as it was when csv.writer wrote it."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for c in checkins:
        coords = (f"{c.lat:.6f}", f"{c.lon:.6f}")
        ts = c.timestamp.astimezone(timezone.utc).isoformat()
        writer.writerow([c.checkin_id, c.user_id, ts, *coords,
                         c.category, c.subcategory, c.gender, c.origin])
    return buf.getvalue()


class TestCsvLine:
    def test_nul_is_written_as_is(self):
        # Python 3.10's csv.writer raises here; 3.11-3.13 write these bytes
        assert _csv_line(["a\x00b", "c"]) == "a\x00b,c\r\n"

    @settings(max_examples=400, deadline=None)
    @given(st.lists(csv_fields, min_size=2, max_size=9))
    def test_matches_csv_writer(self, fields):
        try:
            expected = csv_writer_line(fields)
        except csv.Error:  # only 3.10's writer, on a field holding NUL
            assert sys.version_info < (3, 11)
            return
        assert _csv_line(fields) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.builds(
        CheckIn,
        checkin_id=csv_text, user_id=csv_text,
        timestamp=st.datetimes(datetime(1970, 1, 1), datetime(2100, 1, 1), timezones=OFFSETS),
        lat=st.floats(-90, 90), lon=st.floats(-180, 180),
        category=csv_text, subcategory=csv_text,
        gender=st.none() | csv_text, origin=st.none() | csv_text,
    ), max_size=5))
    def test_checkins_match_csv_writer(self, checkins):
        try:
            expected = checkins_csv_reference(checkins)
        except csv.Error:
            assert sys.version_info < (3, 11)
            return
        buf = io.StringIO()
        assert serialize_checkins(checkins, buf, "csv") == len(checkins)
        assert buf.getvalue() == expected


class _Label(str):
    pass


class _Level(IntEnum):
    LOW = 1
    HIGH = 10 ** 20


class _Ratio(float):
    pass


# Escapes, control characters, DEL, a lone surrogate, and non-ASCII up to a
# character past U+FFFF, which json.dumps writes as a surrogate pair
JSON_SPECIAL = "\\/\"\x00\x1f\x7f\t\n \ud800é中😀"
json_text = st.text(st.sampled_from(JSON_SPECIAL) | st.characters()
                    | st.integers(0xD800, 0xDFFF).map(chr))
json_values = st.one_of(
    json_text, st.just(JSON_SPECIAL),
    st.integers(-10 ** 30, 10 ** 30), st.booleans(),
    st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324]),
    st.none(),
    json_text.map(_Label), st.sampled_from(_Level), st.floats().map(_Ratio),
)


class TestJsonValue:
    @settings(max_examples=500, deadline=None)
    @given(json_values)
    def test_matches_json_dumps(self, value):
        assert _json_value(value) == json.dumps(value)

    def test_int_past_the_digit_limit_raises_as_json_dumps_does(self):
        big = 10 ** 4999  # 5000 digits, past the default int-to-str limit
        with pytest.raises(ValueError) as dumped:
            json.dumps(big)
        with pytest.raises(ValueError) as written:
            _json_value(big)
        assert str(written.value) == str(dumped.value)
