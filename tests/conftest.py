import pytest
from hypothesis import strategies as st

from seqmine import ItemDictionary, Sequence, SequenceDatabase

# Two standing fixtures: a single-character alphabet database whose one-item
# projections exercise open elements and interleaved itemsets, and a digit
# database with wider elements.  Expected values asserted against them were
# frozen from exhaustive reference runs (tests/oracle.py).

LETTER_ROWS = [
    [["a"], ["a", "b", "c"], ["a", "c"], ["d"], ["c", "f"]],
    [["a", "d"], ["c"], ["b", "c"], ["a", "e"]],
    [["e", "f"], ["a", "b"], ["d", "f"], ["c"], ["b"]],
    [["e"], ["g"], ["a", "f"], ["c"], ["b"], ["c"]],
]

DIGIT_ROWS = [
    [["1"], ["2"], ["1", "2"], ["3"], ["1", "3"], ["4", "5"], ["6"]],
    [["3", "4"], ["3"], ["2", "3"], ["1", "4"]],
    [["4", "5"], ["2"], ["2", "3", "4"], ["3"], ["1"]],
    [["4"], ["5"], ["1", "6"], ["3"], ["2"], ["7"], ["1"]],
]


@pytest.fixture(scope="session")
def letters_db() -> SequenceDatabase:
    return SequenceDatabase.from_raw(LETTER_ROWS)


@pytest.fixture(scope="session")
def digits_db() -> SequenceDatabase:
    return SequenceDatabase.from_raw(DIGIT_ROWS)


def as_database(raw_db, alphabet: int = 8) -> SequenceDatabase:
    """Lift an oracle-style tuple database into a SequenceDatabase.

    Single-digit labels sort like their values, so dictionary ids equal the
    raw ints and patterns compare directly against oracle tuples.
    """
    assert alphabet <= 10
    dictionary = ItemDictionary.from_labels([str(i) for i in range(alphabet)])
    rows = [[[str(i) for i in elem] for elem in seq] for seq in raw_db]
    return SequenceDatabase.from_raw(rows, dictionary=dictionary)


# Long sequences over a three-item alphabet: every first element of a pattern
# recurs many times, so a matcher has to restart and skip far more often than
# in the short random databases.
_small_elements = st.sets(st.integers(0, 2), min_size=1).map(lambda s: tuple(sorted(s)))
long_sequences = st.lists(_small_elements, min_size=20, max_size=40).map(
    lambda elems: Sequence(tuple(elems))
)
short_patterns = st.lists(_small_elements, min_size=1, max_size=4).map(
    lambda elems: Sequence(tuple(elems))
)


_element = st.sets(st.integers(0, 3), min_size=1, max_size=2).map(lambda e: tuple(sorted(e)))


def _run(lo, hi):
    return st.lists(_element, min_size=lo, max_size=hi)


# One sequence for each SPAM lane (up to 8, 16, 32 and 64 elements), so every
# lane holds columns, and up to six more of any length, empty ones included,
# in any order: a pattern's holders then interleave across the lanes.
lane_databases = st.tuples(
    _run(1, 8), _run(9, 16), _run(17, 32), _run(33, 64), st.lists(_run(0, 64), max_size=6),
).flatmap(lambda t: st.permutations([*t[:4], *t[4]])).map(
    lambda raw: as_database(raw, alphabet=4))
