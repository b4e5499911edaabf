import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqmine import (
    CapacityExceededError,
    ItemDictionary,
    MinerConfig,
    Sequence,
    SequenceDatabase,
    build_bitmaps,
    mine,
    mine_spam,
)
from seqmine.spam import i_step, s_step

import oracle
from conftest import as_database, lane_databases


def item_id(db, label):
    return db.dictionary.item(label).id


class TestIndexConstruction:
    def test_item_bitmap_positions(self, digits_db):
        # item 1 occurs at elements 0/2/4 of S1, 3 of S2, 4 of S3, 2/6 of S4
        idx = build_bitmaps(digits_db)
        bm = idx.item_bitmap(item_id(digits_db, "1"))
        assert idx.decode(bm) == {0: (0, 2, 4), 1: (3,), 2: (4,), 3: (2, 6)}
        assert idx.support(bm) == 4

    def test_every_incidence_is_one_bit(self, digits_db):
        idx = build_bitmaps(digits_db)
        incidences = sum(
            len(e) for s in digits_db.sequences for e in s.elements
        )
        popcount = sum(
            bin(int(word)).count("1")
            for lane in idx.lanes
            for row in lane.item_bits
            for word in row
        )
        assert popcount == incidences == 33

    def test_lane_tiering_by_element_count(self):
        rows = [[["x"]] * n for n in (5, 12, 20, 40)]
        idx = build_bitmaps(SequenceDatabase.from_raw(rows))
        assert [(l.width, l.seq_indices) for l in idx.lanes] == [
            (8, (0,)), (16, (1,)), (32, (2,)), (64, (3,)),
        ]
        assert [l.item_bits.dtype for l in idx.lanes] == [
            np.uint8, np.uint16, np.uint32, np.uint64,
        ]

    def test_widest_lane_is_exercised(self):
        rows = [[["x"], ["y"]] * 32]  # 64 elements exactly
        idx = build_bitmaps(SequenceDatabase.from_raw(rows))
        assert idx.lanes[0].width == 64
        bm = idx.item_bitmap(item_id(idx.db, "y"))
        assert idx.decode(bm) == {0: tuple(range(1, 64, 2))}

    def test_sequence_too_long_raises(self):
        rows = [[["x"]] * 65]
        with pytest.raises(CapacityExceededError) as exc:
            build_bitmaps(SequenceDatabase.from_raw(rows, seq_ids=["big"]))
        assert "big" in str(exc.value)
        assert "64" in str(exc.value)

    def test_restricted_lane_widths(self):
        # Lanes come only in the fixed widths: each sequence lands in the
        # narrowest of 8/16/32/64 elements that holds it.
        sizes = (8, 9, 16, 17, 32, 33, 64)
        rows = [[["x"]] * n for n in sizes]
        idx = build_bitmaps(SequenceDatabase.from_raw(rows))
        assert [(l.width, l.seq_indices) for l in idx.lanes] == [
            (8, (0,)), (16, (1, 2)), (32, (3, 4)), (64, (5, 6)),
        ]

    def test_invalid_lane_widths(self, digits_db):
        # The lane widths are not a setting; a caller passing one fails
        # loudly rather than having it ignored.
        with pytest.raises(TypeError):
            build_bitmaps(digits_db, lane_widths=(8,))
        with pytest.raises(TypeError):
            mine_spam(digits_db, MinerConfig(min_support=2), lane_widths=(8,))

    def test_item_id_out_of_range(self, digits_db):
        idx = build_bitmaps(digits_db)
        with pytest.raises(IndexError):
            idx.item_bitmap(99)

    def test_index_with_no_lanes(self):
        # Items exist but every sequence is empty, so no lane is built and
        # every bitmap is the empty tuple.
        db = SequenceDatabase((Sequence(),), ("s",), ItemDictionary(("a",)))
        idx = build_bitmaps(db)
        bm = idx.item_bitmap(0)
        assert idx.lanes == ()
        assert idx.containing_sequences(bm) == []
        assert idx.decode(bm) == {}
        assert idx.support(bm) == 0
        assert len(mine_spam(db, MinerConfig(min_support=1))) == 0

    @given(db=lane_databases)
    @settings(max_examples=40, deadline=None)
    def test_set_columns_agree_across_lanes(self, db):
        # Holders, containing_sequences and decode share one reader of the
        # non-zero columns; check it where the columns interleave across lanes.
        idx = build_bitmaps(db)
        items = [idx.item_bitmap(i) for i in range(idx.n_items)]
        bitmaps = [*items, *map(idx.s_transform, items), idx.and_bitmaps(items[0], items[1])]
        for bm in bitmaps:
            found = idx.containing_sequences(bm)
            assert found == sorted(idx.decode(bm))
            assert len(found) == idx.support(bm)
            assert all(type(i) is int for i in found)


class TestSteps:
    """Growth steps on the digit fixture, checked against hand-computed
    positions (reference: tests/oracle.py containment)."""

    def test_item_step_intersects_same_element(self, digits_db):
        idx = build_bitmaps(digits_db)
        bm4 = idx.item_bitmap(item_id(digits_db, "4"))
        assert idx.decode(bm4) == {0: (5,), 1: (0, 3), 2: (0, 2), 3: (0,)}
        bm45, sup = i_step(idx, bm4, item_id(digits_db, "5"))
        # 4 and 5 share an element only in S1 (element 5) and S3 (element 0)
        assert idx.decode(bm45) == {0: (5,), 2: (0,)}
        assert sup == 2

    def test_sequence_step_requires_strictly_later_element(self, digits_db):
        idx = build_bitmaps(digits_db)
        bm4 = idx.item_bitmap(item_id(digits_db, "4"))
        bm45, _ = i_step(idx, bm4, item_id(digits_db, "5"))
        grown, sup = s_step(idx, bm45, item_id(digits_db, "2"))
        # only S3 has a 2 after its earliest (4 5); S1's (4 5) is past its 2s
        assert sup == 1
        assert idx.containing_sequences(grown) == [2]

    def test_sequence_step_from_single_item(self, digits_db):
        idx = build_bitmaps(digits_db)
        bm5 = idx.item_bitmap(item_id(digits_db, "5"))
        grown, sup = s_step(idx, bm5, item_id(digits_db, "2"))
        assert sup == 2
        assert idx.containing_sequences(grown) == [2, 3]

    def test_transform_of_empty_column_stays_empty(self):
        rows = [[["x"], ["y"]], [["y"]]]
        db = SequenceDatabase.from_raw(rows)
        idx = build_bitmaps(db)
        bm_x = idx.item_bitmap(item_id(db, "x"))
        transformed = idx.s_transform(bm_x)
        # second sequence has no x: its column must stay zero
        assert idx.support(idx.and_bitmaps(transformed, idx.item_bitmap(item_id(db, "y")))) == 1

    def test_transform_handles_high_bit(self):
        # occurrence in the last word position must not wrap into garbage
        rows = [[["x"]] * 8]
        db = SequenceDatabase.from_raw(rows)
        idx = build_bitmaps(db)
        bm = idx.item_bitmap(item_id(db, "x"))
        stepped, sup = s_step(idx, bm, item_id(db, "x"))
        assert sup == 1
        assert idx.decode(stepped) == {0: tuple(range(1, 8))}


class TestMineSpam:
    def test_matches_pattern_growth_on_letters(self, letters_db):
        for min_support in (1, 2, 3):
            a = mine(letters_db, MinerConfig(min_support=min_support))
            b = mine_spam(letters_db, MinerConfig(min_support=min_support))
            assert list(a) == list(b)

    def test_matches_pattern_growth_on_digits(self, digits_db):
        cfg = MinerConfig(min_support=3, max_length=3)
        assert list(mine(digits_db, cfg)) == list(mine_spam(digits_db, cfg))

    def test_reporting_floor(self, letters_db):
        # Neither miner has a reporting floor; the setting is refused by name.
        cfg = MinerConfig(min_support=2, max_length=3)
        assert list(mine(letters_db, cfg)) == list(mine_spam(letters_db, cfg))
        with pytest.raises(TypeError):
            MinerConfig(min_support=2, min_pattern_length=3)

    def test_empty_database(self):
        db = SequenceDatabase.from_raw([])
        assert len(mine_spam(db, MinerConfig(min_support=1))) == 0

    def test_threshold_above_database_size(self, digits_db):
        assert len(mine_spam(digits_db, MinerConfig(min_support=9))) == 0

    def test_narrow_lanes_do_not_change_result(self):
        # One sequence per lane, so every bitmap holds all four word widths;
        # the oracle's random databases never leave the 8-bit lane.
        cfg = MinerConfig(min_support=2, max_length=3)
        for seed in range(3):
            rng = random.Random(seed)
            raw = [
                tuple(tuple(sorted(rng.sample(range(6), rng.choice((1, 1, 2)))))
                      for _ in range(n))
                for n in (5, 12, 30, 64)
            ]
            db = as_database(raw)
            assert [l.width for l in build_bitmaps(db).lanes] == [8, 16, 32, 64]
            got = mine_spam(db, cfg)
            assert list(got) == list(mine(db, cfg))
            assert got.as_dict() == oracle.mine_exhaustive(raw, 2, max_items=3)

    @given(seed=st.integers(0, 10_000), min_count=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_reference(self, seed, min_count):
        raw = oracle.random_db(random.Random(seed))
        db = as_database(raw)
        expected = oracle.mine_exhaustive(raw, min_count)
        got = mine_spam(db, MinerConfig(min_support=min_count)).as_dict()
        assert got == expected

    @given(seed=st.integers(0, 10_000), min_count=st.integers(1, 3),
           max_length=st.sampled_from((None, 1, 2, 3)))
    @settings(max_examples=80, deadline=None)
    def test_length_cut_matches_pattern_growth_and_reference(self, seed, min_count,
                                                              max_length):
        # The same patterns in the same order, not only the same set.
        raw = oracle.random_db(random.Random(seed))
        db = as_database(raw)
        cfg = MinerConfig(min_support=min_count, max_length=max_length)
        by_bitmap, by_growth = mine_spam(db, cfg), mine(db, cfg)
        assert list(by_bitmap) == list(by_growth)
        expected = oracle.mine_exhaustive(raw, min_count, max_items=max_length)
        assert by_bitmap.as_dict() == by_growth.as_dict() == expected

    @pytest.mark.parametrize("miner", [mine, mine_spam])
    def test_empty_database_at_fractional_support(self, miner):
        got = miner(SequenceDatabase.from_raw([]), MinerConfig(min_support=0.5))
        assert (len(got), got.n_sequences) == (0, 0)

    @given(
        raw=st.lists(
            st.lists(
                st.sets(st.integers(0, 3), min_size=1, max_size=2).map(
                    lambda e: tuple(sorted(e))
                ),
                min_size=40,
                max_size=64,
            ).map(tuple),
            min_size=2,
            max_size=4,
        ),
        min_count=st.integers(1, 3),
    )
    @settings(max_examples=5, deadline=None)
    def test_long_sequences_match_pattern_growth_and_reference(self, raw, min_count):
        db = as_database(raw, alphabet=4)
        cfg = MinerConfig(min_support=min_count, max_length=3)
        expected = oracle.mine_exhaustive(raw, min_count, max_items=3)
        assert mine_spam(db, cfg).as_dict() == expected
        assert mine(db, cfg).as_dict() == expected
