"""Vertical bitmap mining: pattern extensions found from per-item position bitmaps.

Each database sequence occupies one lane column; bit j of an item's column is
set when the item occurs in element j.  A pattern's bitmap marks every element
position at which an occurrence of the pattern can end, so support is just the
number of non-zero columns, and the pattern's holders (the sequences the
report counts in) are those columns' database indices.  Growing the pattern
is pure word arithmetic: an I-step ANDs the item bitmap at the same
positions, an S-step first transforms the pattern bitmap so that only
positions strictly after the earliest end survive.  The search itself is
``prefixspan._grow``, the driver that the pattern-growth miner runs too.

Sequences are bucketed into fixed lanes of 8/16/32/64-bit words by element
count, so short sequences (the common case in click-stream shaped data) do not
pay for a uniform maximum width.  A sequence of more than 64 elements has no
lane and raises ``CapacityExceededError``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .core import SequenceDatabase
from .errors import CapacityExceededError
from .prefixspan import I_EXTENSION, S_EXTENSION, MinerConfig, PatternSet, _grow

#: Lane widths, narrowest first, and their word types.
_LANE_DTYPES = {8: np.uint8, 16: np.uint16, 32: np.uint32, 64: np.uint64}

#: One numpy vector per lane, aligned with VerticalBitmapIndex.lanes.
Bitmap = tuple[np.ndarray, ...]


@dataclass(frozen=True)
class _Lane:
    width: int
    seq_indices: tuple[int, ...]  # database positions of the member sequences
    item_bits: np.ndarray  # shape (n_items, len(seq_indices))


class VerticalBitmapIndex:
    """Per-item occurrence bitmaps for one database, immutable after build."""

    def __init__(self, db: SequenceDatabase):
        self.db = db
        self.n_items = len(db.dictionary)
        buckets: dict[int, list[int]] = {w: [] for w in _LANE_DTYPES}
        for si, s in enumerate(db.sequences):
            n_elems = len(s.elements)
            if n_elems == 0:
                continue
            for w in _LANE_DTYPES:
                if n_elems <= w:
                    buckets[w].append(si)
                    break
            else:
                raise CapacityExceededError(
                    f"sequence {db.seq_ids[si]!r} has {n_elems} elements; "
                    f"largest lane holds {max(_LANE_DTYPES)}"
                )
        lanes = []
        for w, dtype in _LANE_DTYPES.items():
            members = buckets[w]
            if not members:
                continue
            bits = np.zeros((self.n_items, len(members)), dtype=dtype)
            for col, si in enumerate(members):
                masks: dict[int, int] = {}
                for pos, elem in enumerate(db.sequences[si].elements):
                    for item in elem:
                        masks[item] = masks.get(item, 0) | (1 << pos)
                for item, mask in masks.items():
                    bits[item, col] = mask
            lanes.append(_Lane(w, tuple(members), bits))
        self.lanes = tuple(lanes)
        self._lane_seqs = tuple(np.array(lane.seq_indices, dtype=np.intc) for lane in lanes)

    def item_bitmap(self, item_id: int) -> Bitmap:
        if not 0 <= item_id < self.n_items:
            raise IndexError(f"item id {item_id} out of range")
        return tuple(lane.item_bits[item_id] for lane in self.lanes)

    def support(self, bitmap: Bitmap) -> int:
        """Number of sequences with at least one surviving position."""
        return sum(int(np.count_nonzero(vec)) for vec in bitmap)

    def s_transform(self, bitmap: Bitmap) -> Bitmap:
        """Set exactly the bits strictly above each column's lowest set bit.

        Per column: isolate the lowest set bit, double it, subtract one to
        get the mask of positions at or below it, invert.  All-zero columns
        stay all-zero through the unsigned wraparound.
        """
        out = []
        for vec in bitmap:
            one = vec.dtype.type(1)
            low = vec & (~vec + one)
            out.append(~((low + low) - one))
        return tuple(out)

    def and_bitmaps(self, a: Bitmap, b: Bitmap) -> Bitmap:
        return tuple(x & y for x, y in zip(a, b))

    def _set_columns(self, bitmap: Bitmap) -> np.ndarray:
        """Database indices of the bitmap's non-zero columns, sorted, as C ints."""
        parts = [seqs[vec != 0] for seqs, vec in zip(self._lane_seqs, bitmap)]
        found = np.concatenate(parts or [np.empty(0, dtype=np.intc)])  # no lanes, no columns
        found.sort(kind="stable")  # merges the lanes' runs, each sorted already
        return found

    def containing_sequences(self, bitmap: Bitmap) -> list[int]:
        """Database indices of sequences with a surviving position, sorted."""
        return self._set_columns(bitmap).tolist()

    def decode(self, bitmap: Bitmap) -> dict[int, tuple[int, ...]]:
        """{database sequence index: set positions}, omitting empty columns."""
        words = np.zeros(len(self.db), dtype=np.uint64)
        for seqs, vec in zip(self._lane_seqs, bitmap):
            words[seqs] = vec
        cols = self._set_columns(bitmap)
        return {si: tuple(p for p in range(w.bit_length()) if w >> p & 1)
                for si, w in zip(cols.tolist(), words[cols].tolist())}


def build_bitmaps(db: SequenceDatabase) -> VerticalBitmapIndex:
    """Index a database for bitmap mining."""
    return VerticalBitmapIndex(db)


def s_step(
    index: VerticalBitmapIndex, pattern_bitmap: Bitmap, item: int
) -> tuple[Bitmap, int]:
    """Grow by a new element holding `item`; returns (bitmap, support)."""
    grown = index.and_bitmaps(index.s_transform(pattern_bitmap), index.item_bitmap(item))
    return grown, index.support(grown)


def i_step(
    index: VerticalBitmapIndex, pattern_bitmap: Bitmap, item: int
) -> tuple[Bitmap, int]:
    """Add `item` into the pattern's last element; returns (bitmap, support)."""
    grown = index.and_bitmaps(pattern_bitmap, index.item_bitmap(item))
    return grown, index.support(grown)


def mine_spam(db: SequenceDatabase, cfg: MinerConfig) -> PatternSet:
    """Complete pattern set, identical to the pattern-growth miner's output.

    A node's state is its bitmap and its candidate lists, which shrink down
    the search tree: an item that fails as an extension of a pattern cannot
    succeed for any descendant, because the descendant's bitmap is a subset
    and the S-transform is monotone under bit removal.  A node's holders are
    its bitmap's non-zero columns, read through the index.
    """
    min_count = cfg.resolve_min_count(len(db))
    index = VerticalBitmapIndex(db)
    item_bms = [index.item_bitmap(i) for i in range(index.n_items)]
    supports = [index.support(bm) for bm in item_bms]
    top = [i for i in range(index.n_items) if supports[i] >= min_count]

    and_bitmaps, support, set_columns = index.and_bitmaps, index.support, index._set_columns

    def survivors(bm: Bitmap, cands) -> list[tuple[int, Bitmap, int]]:
        out = []
        for x in cands:
            nb = and_bitmaps(bm, item_bms[x])
            if (c := support(nb)) >= min_count:
                out.append((x, nb, c))
        return out

    def expand(elements, state):
        # of the parent's survivors, only items above the last one I-extend
        bm, s_cands, i_cands = state
        s_next = survivors(index.s_transform(bm), s_cands)
        i_next = survivors(bm, [y for y in i_cands if y > elements[-1][-1]])
        s_keep = [x for x, _, _ in s_next]
        i_keep = [y for y, _, _ in i_next]
        return ([(S_EXTENSION, x, c, (nb, s_keep, s_keep)) for x, nb, c in s_next]
                + [(I_EXTENSION, y, c, (nb, s_keep, i_keep)) for y, nb, c in i_next])

    def holders(state):
        return array("i", set_columns(state[0]).tobytes())

    roots = [(S_EXTENSION, x, supports[x], (item_bms[x], top, top)) for x in top]
    return _grow(db, cfg, roots, expand, holders)
