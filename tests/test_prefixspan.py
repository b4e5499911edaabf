import io
import json
import random
from array import array

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from seqmine import (
    InvalidConfigError,
    MinerConfig,
    ProjectedDatabase,
    SequenceDatabase,
    Suffix,
    contains_subsequence,
    frequent_extensions,
    frequent_items,
    mine,
    project,
    projection_table,
    suffix,
)
from seqmine import prefixspan, spam
from seqmine.bench import MINERS
from seqmine.prefixspan import Extension, I_EXTENSION, S_EXTENSION, _grow, _scan

import oracle
from conftest import LETTER_ROWS, as_database

# Expected values below were frozen from exhaustive reference runs
# (tests/oracle.py) before the miner existed; see the class docstrings.


class TestMinerConfig:
    def test_int_support_is_absolute(self):
        assert MinerConfig(min_support=3).resolve_min_count(100) == 3

    def test_float_support_is_fraction_ceil(self):
        assert MinerConfig(min_support=0.5).resolve_min_count(4) == 2
        assert MinerConfig(min_support=0.5).resolve_min_count(5) == 3
        assert MinerConfig(min_support=1.0).resolve_min_count(7) == 7

    def test_tiny_fraction_floors_at_one(self):
        assert MinerConfig(min_support=0.001).resolve_min_count(10) == 1

    @pytest.mark.parametrize("bad", [0, -1, 0.0, -0.5, 1.5, "2", None, True])
    def test_invalid_support_rejected(self, bad):
        with pytest.raises(InvalidConfigError):
            MinerConfig(min_support=bad).resolve_min_count(10)

    @pytest.mark.parametrize("kwargs, field", [
        ({"min_support": 0}, "min_support"),
        ({"min_support": 1.5}, "min_support"),
        ({"min_support": "2"}, "min_support"),
        ({"min_support": True}, "min_support"),
        ({"max_length": 2.5}, "max_length"),
        ({"max_length": True}, "max_length"),
        ({"max_length": "3"}, "max_length"),
        ({"max_length": np.int64(3)}, "max_length"),
    ])
    def test_refused_when_built(self, kwargs, field):
        # no resolve_min_count call: the config itself refuses the value
        with pytest.raises(InvalidConfigError, match=field):
            MinerConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"min_support": 0}, "min_support count must be >= 1, got 0"),
        ({"min_support": True}, "min_support count must be >= 1, got True"),
        ({"max_length": 0}, "max_length must be an int >= 1, got 0"),
        ({"max_length": 2.5}, "max_length must be an int >= 1, got 2.5"),
    ])
    def test_count_messages(self, kwargs, message):
        with pytest.raises(InvalidConfigError) as exc:
            MinerConfig(**kwargs)
        assert str(exc.value) == message

    def test_invalid_lengths_rejected(self):
        with pytest.raises(InvalidConfigError):
            MinerConfig(max_length=0)
        # The reporting floor is not a setting: every pattern is reported.
        with pytest.raises(TypeError):
            MinerConfig(min_pattern_length=0)


class TestFrequentItems:
    """Item supports in the digit fixture: 1-4 occur in all four sequences,
    5 in three, 6 in two, 7 in one."""

    def test_threshold_two(self, digits_db):
        got = {item.label: c for item, c in frequent_items(digits_db, 2)}
        assert got == {"1": 4, "2": 4, "3": 4, "4": 4, "5": 3, "6": 2}

    def test_threshold_one_includes_singleton(self, digits_db):
        got = {item.label: c for item, c in frequent_items(digits_db, 1)}
        assert got["7"] == 1
        assert len(got) == 7

    def test_ids_ascending(self, digits_db):
        ids = [item.id for item, _ in frequent_items(digits_db, 1)]
        assert ids == sorted(ids)


class TestFrequentExtensions:
    def test_extensions_of_single_item_prefix(self, letters_db):
        # reference counts: sequences containing <(a),(x)> resp. <(a x)>
        root = ProjectedDatabase.root(letters_db)
        a = letters_db.dictionary.item("a")
        pdb = project(root, Extension(a, S_EXTENSION, 4))
        got = [(e.item.label, e.kind, e.count) for e in frequent_extensions(pdb, 2)]
        assert got == [
            ("a", S_EXTENSION, 2),
            ("b", S_EXTENSION, 4),
            ("c", S_EXTENSION, 4),
            ("d", S_EXTENSION, 2),
            ("f", S_EXTENSION, 2),
            ("b", I_EXTENSION, 2),
        ]

    def test_root_has_no_item_extensions(self, letters_db):
        root = ProjectedDatabase.root(letters_db)
        kinds = {e.kind for e in frequent_extensions(root, 1)}
        assert kinds == {S_EXTENSION}

    def test_item_extension_must_be_ordered(self, letters_db):
        root = ProjectedDatabase.root(letters_db)
        b = letters_db.dictionary.item("b")
        a = letters_db.dictionary.item("a")
        pdb = project(root, Extension(b, S_EXTENSION, 4))
        with pytest.raises(ValueError):
            project(pdb, Extension(a, I_EXTENSION, 2))

    def test_cannot_item_extend_empty_prefix(self, letters_db):
        root = ProjectedDatabase.root(letters_db)
        a = letters_db.dictionary.item("a")
        with pytest.raises(ValueError):
            project(root, Extension(a, I_EXTENSION, 4))

    def test_unknown_kind_refused(self, letters_db):
        root = ProjectedDatabase.root(letters_db)
        a = letters_db.dictionary.item("a")
        with pytest.raises(ValueError, match="unknown extension kind"):
            project(root, Extension(a, "x", 4))


class TestProjectionTable:
    """Single-item projections of the letter fixture, with items below the
    support threshold elided from the rendered suffixes."""

    GOLDEN = {
        "a": "((abc)(ac)d(cf)), ((_d)c(bc)(ae)), ((_b)(df)cb), ((_f)cbc)",
        "b": "((_c)(ac)d(cf)), ((_c)(ae)), ((df)cb), (c)",
        "c": "((ac)d(cf)), ((bc)(ae)), (b), (bc)",
        "d": "((cf)), (c(bc)(ae)), ((_f)cb)",
        "e": "((_f)(ab)(df)cb), ((af)cbc)",
        "f": "((ab)(df)cb), (cbc)",
    }

    def test_rendered_tables(self, letters_db):
        assert projection_table(letters_db, 2) == self.GOLDEN

    def test_keys_follow_frequent_items(self, letters_db):
        # g occurs once, so it gets no projection at min_count=2
        assert "g" not in projection_table(letters_db, 2)
        assert "g" in projection_table(letters_db, 1)

    def test_empty_suffixes_dropped(self, letters_db):
        # e is the last item of sequence 2; that projection entry is empty
        root = ProjectedDatabase.root(letters_db)
        e = letters_db.dictionary.item("e")
        pdb = project(root, Extension(e, S_EXTENSION, 2))
        assert len(pdb.suffixes()) == 2

    def test_suffix_filtered_to_nothing_dropped(self):
        # Both sequences hold a suffix after <a>, but the first holds only g.
        db = SequenceDatabase.from_raw([[["a"], ["g"]], [["a"], ["b"]]])
        a, b = db.dictionary.item("a"), db.dictionary.item("b")
        pdb = project(ProjectedDatabase.root(db), Extension(a, S_EXTENSION, 2))
        assert len(pdb) == len(pdb.suffixes()) == 2
        assert pdb.suffixes(include=[b.id]) == [Suffix(None, ((b.id,),))]

    def test_every_entry_has_a_suffix(self, letters_db):
        root = ProjectedDatabase.root(letters_db)
        for item, count in frequent_items(letters_db, 1):
            pdb = project(root, Extension(item, S_EXTENSION, count))
            assert len(pdb) == len(pdb.suffixes())


class TestProjectionEntries:
    """An entry marks where the earliest occurrence of the prefix ends."""

    def test_root_entries_start_before_each_first_element(self, letters_db):
        root = ProjectedDatabase.root(letters_db)
        assert root.entries == tuple((i, 0, -1) for i in range(len(LETTER_ROWS)))

    def test_occurrence_ending_inside_an_element_names_its_item(self, letters_db):
        # b first occurs in (a b c) of sequence 0, (b c) of sequence 1 and
        # (a b) of sequence 2: items 1, 0 and 1 of those elements
        root = ProjectedDatabase.root(letters_db)
        b = letters_db.dictionary.item("b")
        pdb = project(root, Extension(b, S_EXTENSION, 4))
        assert pdb.entries == ((0, 1, 1), (1, 2, 0), (2, 1, 1), (3, 4, 0))
        assert pdb.suffixes()[0].leading_partial == (letters_db.dictionary.encode("c"),)


# Complete mining result on the letter fixture at min_count=2, grouped by
# first item.  53 patterns; single-letter elements render bare, multi-item
# elements parenthesized, a leading "_" marks an open element.
LETTER_GROUPS = {
    "a": ["a", "aa", "ab", "aba", "abc", "a(bc)", "a(bc)a", "ac", "aca",
          "acb", "acc", "ad", "adc", "af", "(ab)", "(ab)c", "(ab)d",
          "(ab)dc", "(ab)f"],
    "b": ["b", "ba", "bc", "bd", "bdc", "bf", "(bc)", "(bc)a"],
    "c": ["c", "ca", "cb", "cc"],
    "d": ["d", "db", "dc", "dcb"],
    "e": ["e", "ea", "eab", "eac", "eacb", "eb", "ebc", "ec", "ecb", "ef",
          "efb", "efc", "efcb"],
    "f": ["f", "fb", "fbc", "fc", "fcb"],
}


class TestMineLetters:
    def test_full_pattern_set(self, letters_db):
        ps = mine(letters_db, MinerConfig(min_support=2))
        groups: dict[str, list[str]] = {}
        for p in ps:
            first = letters_db.dictionary.decode(p.sequence.elements[0][0])
            groups.setdefault(first, []).append(p.render(letters_db.dictionary))
        assert groups == LETTER_GROUPS
        assert len(ps) == 53

    def test_matches_exhaustive_reference(self, letters_db):
        raw = [
            [tuple(sorted(letters_db.dictionary.encode(lb) for lb in e)) for e in s]
            for s in LETTER_ROWS
        ]
        expected = oracle.mine_exhaustive(raw, min_count=2)
        assert mine(letters_db, MinerConfig(min_support=2)).as_dict() == expected

    def test_output_is_lexicographic(self, letters_db):
        ps = mine(letters_db, MinerConfig(min_support=2))
        elems = [p.sequence.elements for p in ps]
        assert elems == sorted(elems)

    def test_no_duplicates(self, letters_db):
        ps = mine(letters_db, MinerConfig(min_support=1))
        elems = [p.sequence.elements for p in ps]
        assert len(elems) == len(set(elems))


class TestMineDigits:
    """Digit fixture at min_count=3 capped at three items per pattern."""

    GOLDEN = {
        "(1)": 4,
        "(2)": 4,
        "(2),(1)": 4,
        "(2),(4)": 3,
        "(3)": 4,
        "(3),(1)": 4,
        "(3),(3)": 3,
        "(4)": 4,
        "(4),(1)": 3,
        "(4),(2)": 3,
        "(4),(2),(1)": 3,
        "(4),(3)": 3,
        "(4),(3),(1)": 3,
        "(5)": 3,
    }

    def test_pattern_set(self, digits_db):
        ps = mine(digits_db, MinerConfig(min_support=3, max_length=3))
        got = {p.render(digits_db.dictionary): p.support_count for p in ps}
        assert got == self.GOLDEN

    def test_fraction_threshold_equivalent(self, digits_db):
        # 0.75 of 4 sequences == count of 3
        a = mine(digits_db, MinerConfig(min_support=3, max_length=3))
        b = mine(digits_db, MinerConfig(min_support=0.75, max_length=3))
        assert a.as_dict() == b.as_dict()


class TestConfigEffects:
    def test_max_length_counts_items_not_elements(self, letters_db):
        ps = mine(letters_db, MinerConfig(min_support=2, max_length=2))
        sizes = {sum(len(e) for e in p.sequence.elements) for p in ps}
        assert max(sizes) == 2
        rendered = {p.render(letters_db.dictionary) for p in ps}
        assert "(ab)" in rendered  # two items in one element count as two
        assert "(ab)c" not in rendered

    def test_max_length_one_yields_items_only(self, letters_db):
        ps = mine(letters_db, MinerConfig(min_support=2, max_length=1))
        assert {p.render(letters_db.dictionary) for p in ps} == set("abcdef")

    def test_min_pattern_length_is_reporting_floor(self, letters_db):
        # No floor: the single items are patterns too.
        full = mine(letters_db, MinerConfig(min_support=2))
        singles = {k for k in full.as_dict() if sum(len(e) for e in k) == 1}
        assert len(singles) == 6
        with pytest.raises(TypeError):
            MinerConfig(min_support=2, min_pattern_length=2)

    def test_threshold_above_database_size(self, letters_db):
        assert len(mine(letters_db, MinerConfig(min_support=5))) == 0

    def test_empty_database(self):
        db = SequenceDatabase.from_raw([])
        assert len(mine(db, MinerConfig(min_support=1))) == 0


class TestPatternSet:
    def test_relative_support(self, letters_db):
        ps = mine(letters_db, MinerConfig(min_support=2))
        for p in ps:
            assert ps.relative_support(p) == p.support_count / 4

    def test_csv_output(self, letters_db):
        ps = mine(letters_db, MinerConfig(min_support=2))
        buf = io.StringIO()
        ps.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "pattern,support_count,relative_support"
        assert lines[1] == "a,4,1.000000"
        assert len(lines) == 54

    def test_jsonl_round_trip(self, digits_db):
        ps = mine(digits_db, MinerConfig(min_support=3, max_length=3))
        buf = io.StringIO()
        ps.to_jsonl(buf)
        records = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert len(records) == len(ps)
        rebuilt = {
            tuple(tuple(digits_db.dictionary.encode(lb) for lb in e)
                  for e in r["pattern"]): r["support_count"]
            for r in records
        }
        assert rebuilt == ps.as_dict()


class TestAgainstExhaustiveReference:
    """Randomized equivalence against the brute-force reference miner."""

    @given(seed=st.integers(0, 10_000), min_count=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_full_mining(self, seed, min_count):
        raw = oracle.random_db(random.Random(seed))
        db = as_database(raw)
        expected = oracle.mine_exhaustive(raw, min_count)
        got = mine(db, MinerConfig(min_support=min_count)).as_dict()
        assert got == expected

    @given(seed=st.integers(0, 10_000), max_length=st.sampled_from([1, 2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_length_capped_mining(self, seed, max_length):
        raw = oracle.random_db(random.Random(seed))
        db = as_database(raw)
        expected = oracle.mine_exhaustive(raw, 2, max_items=max_length)
        got = mine(db, MinerConfig(min_support=2, max_length=max_length)).as_dict()
        assert got == expected

    @given(
        raw=st.lists(
            st.lists(
                st.sets(st.integers(0, 3), min_size=1, max_size=2).map(
                    lambda e: tuple(sorted(e))
                ),
                min_size=65,
                max_size=72,
            ).map(tuple),
            min_size=2,
            max_size=2,
        ),
        min_count=st.integers(1, 2),
    )
    # no shrink phase: a counterexample keeps its 130-plus elements however
    # far it shrinks, and shrinking one took Hypothesis about two minutes
    @settings(max_examples=3, deadline=None,
              phases=[p for p in Phase if p is not Phase.shrink])
    def test_sequences_past_64_elements(self, raw, min_count):
        # past SPAM's 64-element bitmap lanes only pattern growth can answer
        db = as_database(raw, alphabet=4)
        cfg = MinerConfig(min_support=min_count, max_length=3)
        expected = oracle.mine_exhaustive(raw, min_count, max_items=3)
        assert mine(db, cfg).as_dict() == expected


class TestSharedScan:
    """Counting and projecting share one scan per node; the public steps
    still agree with the suffix algebra, containment and the miner."""

    @given(
        raw=st.lists(
            st.lists(
                st.sets(st.integers(0, 3), min_size=1, max_size=3).map(
                    lambda e: tuple(sorted(e))
                ),
                max_size=6,
            ).map(tuple),
            max_size=6,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_walk_agrees_with_suffix_algebra_and_mine(self, raw):
        db = as_database(raw, alphabet=4)
        walked = []

        def walk(pdb):
            for ext in frequent_extensions(pdb, 1):
                child = project(pdb, ext)
                prefix = child.prefix
                assert ext.count == sum(
                    contains_subsequence(s, prefix) for s in db.sequences
                )
                suffixes = [suffix(s, prefix) for s in db.sequences]
                assert child.suffixes() == [x for x in suffixes if not x.is_empty]
                walked.append((prefix.elements, ext.count))
                if prefix.item_count < 3:
                    walk(child)

        walk(ProjectedDatabase.root(db))
        got = [(p.sequence.elements, p.support_count)
               for p in mine(db, MinerConfig(1, 3))]
        assert got == walked


class TestScanFromHits:
    """Nodes grow from their parent's hits, including hits inside multi-item
    elements whose rest is an open partial that may only I-extend."""

    @given(
        raw=st.lists(
            st.lists(
                st.sets(st.integers(0, 3), min_size=1, max_size=3).map(
                    lambda e: tuple(sorted(e))
                ),
                min_size=1,
                max_size=4,
            ).map(tuple),
            min_size=1,
            max_size=4,
        ),
        min_count=st.integers(1, 3),
        max_length=st.sampled_from((None, 1, 3)),
    )
    @settings(max_examples=150, deadline=None)
    def test_mine_matches_exhaustive_reference(self, raw, min_count, max_length):
        db = as_database(raw, alphabet=4)
        got = mine(db, MinerConfig(min_count, max_length))
        assert got.as_dict() == oracle.mine_exhaustive(raw, min_count, max_length)
        elements = [p.sequence.elements for p in got]
        assert elements == sorted(elements)
        # the hits that found each pattern also name the sequences holding it
        for p, held in zip(got, got._holders_in(db)):
            if len(p.sequence.elements) > 1:
                assert list(held) == [
                    i for i, s in enumerate(db.sequences)
                    if contains_subsequence(s, p.sequence)
                ]

    # One sequence, one start, every hit: (kind, item, hits) for a scan of
    # the prefix whose last element is `last`, from `start`.
    @staticmethod
    def hits(seq, last, start):
        return [(kind, i, hits) for kind, i, _, hits in _scan([seq], last, [start], 1)]

    def test_empty_suffix_after_an_open_partial(self):
        # the partial only I-extends, and nothing follows it
        assert self.hits(((0, 1, 2),), (0,), (0, 0, 0)) == [
            ("I", 1, [(0, 0, 1)]), ("I", 2, [(0, 0, 2)])]
        assert self.hits(((0, 1, 2),), (0, 2), (0, 0, 2)) == []

    def test_one_one_item_element_left(self):
        assert self.hits(((0, 1), (2,)), (0,), (0, 0, 0)) == [
            ("S", 2, [(0, 1, 0)]), ("I", 1, [(0, 0, 1)])]
        assert self.hits(((3,),), (), (0, 0, -1)) == [("S", 3, [(0, 0, 0)])]
        # one element left, but of two items: each is an S-hit, and one I-hits
        assert self.hits(((0,), (0, 2)), (0,), (0, 0, 0)) == [
            ("S", 0, [(0, 1, 0)]), ("S", 2, [(0, 1, 1)]), ("I", 2, [(0, 1, 1)])]

    def test_later_element_holds_the_last_after_an_open_partial(self):
        # item 1 I-hits in the partial first, so (0, 1, 3) adds only item 3
        assert self.hits(((0, 1), (2,), (0, 1, 3)), (0,), (0, 0, 0)) == [
            ("S", 0, [(0, 2, 0)]), ("S", 1, [(0, 2, 1)]), ("S", 2, [(0, 1, 0)]),
            ("S", 3, [(0, 2, 2)]), ("I", 1, [(0, 0, 1)]), ("I", 3, [(0, 2, 2)])]

    def test_item_repeated_later_in_the_suffix(self):
        # each item's first occurrence is its one hit in the sequence
        assert self.hits(((0,), (1,), (1, 2), (1,)), (0,), (0, 0, 0)) == [
            ("S", 1, [(0, 1, 0)]), ("S", 2, [(0, 2, 1)])]
        assert self.hits(((1,), (1, 2), (1, 2)), (1,), (0, 0, 0)) == [
            ("S", 1, [(0, 1, 0)]), ("S", 2, [(0, 1, 1)]), ("I", 2, [(0, 1, 1)])]

class TestLongPatterns:
    def test_pattern_longer_than_the_recursion_limit(self):
        # one pattern item per search level; 1100 levels exceed Python's
        # default recursion limit of 1000
        db = SequenceDatabase.from_raw([[("a",)] * 1100])
        ps = mine(db, MinerConfig(1))
        assert len(ps) == 1100
        assert [len(p.sequence) for p in ps] == list(range(1, 1101))
        assert {p.support_count for p in ps} == {1}

    @pytest.mark.parametrize("kind", [S_EXTENSION, I_EXTENSION])
    def test_broken_expand_raises(self, kind):
        # an expand that always offers item 0 again is a broken miner: one
        # more S-extension outgrows the one-element database, and an
        # I-extension by an item already in the element is not canonical.
        # Below max_length the search would emit a 5-item pattern, and
        # without one it would never stop; it raises a plain RuntimeError,
        # a bug check and not an input error.
        db = SequenceDatabase.from_raw([[("a",)]])
        roots, more = [(S_EXTENSION, 0, 1, None)], [(kind, 0, 1, None)]
        with pytest.raises(RuntimeError, match="no sequence can hold") as excinfo:
            _grow(db, MinerConfig(min_support=1, max_length=5), roots,
                  lambda elements, state: more, lambda state: array("i", [0]))
        assert excinfo.type is RuntimeError


class TestSearchInvariant:
    """Every node either miner hands the search is consistent with itself."""

    @pytest.mark.parametrize("miner", ["prefixspan", "spam"])
    @given(seed=st.integers(0, 10_000), min_count=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_holders_and_supports_agree(self, miner, seed, min_count):
        db = as_database(oracle.random_db(random.Random(seed)))
        checked = []

        def check(exts, holders, parent_holders):
            # strictly increasing holders, as many as the support, and no
            # more than the parent's (a root's parent, the empty pattern, is
            # held by every sequence)
            for _, _, support, state in exts:
                held = list(holders(state))
                assert all(a < b for a, b in zip(held, held[1:])), held
                assert len(held) == support <= parent_holders
                checked.append(held)
            return exts

        def checked_grow(db, cfg, roots, expand, holders):
            return _grow(db, cfg, check(roots, holders, len(db)),
                         lambda elements, state: check(expand(elements, state), holders,
                                                       len(holders(state))),
                         holders)

        with pytest.MonkeyPatch.context() as mp:
            # spam imports _grow by name, so each module's binding is swapped
            mp.setattr(prefixspan, "_grow", checked_grow)
            mp.setattr(spam, "_grow", checked_grow)
            got = MINERS[miner](db, MinerConfig(min_support=min_count, max_length=5))
        assert len(checked) == len(got)
