"""Pattern-growth mining: recursive prefix extension over pseudo-projected databases.

The projected database of a prefix is represented by positions into the
original sequences (pseudo-projection) instead of copied suffixes, since
building physical projections is the dominant cost of pattern growth.  Each
entry records where the earliest occurrence of the prefix ends; growing the
prefix by one item (an S-extension opening a new element, or an I-extension
enlarging the last one) only ever advances these positions.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import IO, Collection, Iterator, NamedTuple

from .core import (
    Element,
    Item,
    ItemDictionary,
    Sequence,
    SequenceDatabase,
    Suffix,
    _is_subset,
)
from .errors import InvalidConfigError

#: Extension kinds: new element vs. item added to the prefix's last element.
S_EXTENSION = "S"
I_EXTENSION = "I"


class ProjectionEntry(NamedTuple):
    """Where the suffix of one database sequence begins.

    A nonzero ``item_offset`` is the first unconsumed item position within a
    partially consumed element (the "_" case); zero means the suffix starts
    at a whole element.
    """

    seq_index: int
    elem_offset: int
    item_offset: int


class Extension(NamedTuple):
    """A frequent one-item growth of a prefix inside its projected database."""

    item: Item
    kind: str  # S_EXTENSION or I_EXTENSION
    count: int


@dataclass(frozen=True)
class MinerConfig:
    """Mining parameters.

    ``min_support`` is an absolute sequence count when given as an int and a
    relative fraction in (0, 1] when given as a float (converted once via
    ceil(fraction * database size)).  ``max_length`` caps the total item
    count of a pattern.
    """

    min_support: int | float = 2
    max_length: int | None = None

    def __post_init__(self) -> None:
        if self.max_length is not None and self.max_length < 1:
            raise InvalidConfigError("max_length must be >= 1 when set")

    def resolve_min_count(self, n_sequences: int) -> int:
        """Convert min_support to an absolute count for a given database size."""
        if isinstance(self.min_support, bool) or not isinstance(
            self.min_support, (int, float)
        ):
            raise InvalidConfigError("min_support must be an int count or a fraction")
        if isinstance(self.min_support, int):
            if self.min_support < 1:
                raise InvalidConfigError("min_support count must be >= 1")
            return self.min_support
        if not 0.0 < self.min_support <= 1.0:
            raise InvalidConfigError("min_support fraction must be in (0,1]")
        return max(1, math.ceil(self.min_support * n_sequences))


@dataclass(frozen=True)
class Pattern:
    """A frequent sequence with the number of distinct sequences containing it."""

    sequence: Sequence
    support_count: int

    def render(self, dictionary: ItemDictionary) -> str:
        return self.sequence.render(dictionary)


@dataclass(frozen=True)
class PatternSet:
    """Complete mining result in canonical (lexicographic) order."""

    patterns: tuple[Pattern, ...]
    n_sequences: int
    dictionary: ItemDictionary

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self) -> Iterator[Pattern]:
        return iter(self.patterns)

    def relative_support(self, pattern: Pattern) -> float:
        return pattern.support_count / self.n_sequences if self.n_sequences else 0.0

    def as_dict(self) -> dict[tuple[Element, ...], int]:
        """{canonical elements: support count} view for set comparisons."""
        return {p.sequence.elements: p.support_count for p in self.patterns}

    def to_csv(self, fp: IO[str]) -> None:
        writer = csv.writer(fp)
        writer.writerow(["pattern", "support_count", "relative_support"])
        for p in self.patterns:
            writer.writerow(
                [p.render(self.dictionary), p.support_count,
                 f"{self.relative_support(p):.6f}"]
            )

    def to_jsonl(self, fp: IO[str]) -> None:
        for p in self.patterns:
            record = {
                "pattern": [
                    [self.dictionary.decode(i) for i in elem]
                    for elem in p.sequence.elements
                ],
                "support_count": p.support_count,
                "relative_support": self.relative_support(p),
            }
            fp.write(json.dumps(record) + "\n")


@dataclass(frozen=True)
class ProjectedDatabase:
    """Pseudo-projection of a database with respect to a prefix.

    Entries are positions into ``base``'s own element tuples; no suffix or
    element is copied.
    """

    prefix: Sequence
    entries: tuple[ProjectionEntry, ...]
    base: SequenceDatabase = field(repr=False)

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def root(cls, db: SequenceDatabase) -> "ProjectedDatabase":
        entries = tuple(
            ProjectionEntry(i, 0, 0)
            for i, s in enumerate(db.sequences)
            if s.elements
        )
        return cls(Sequence(), entries, db)

    def suffixes(self, include: Collection[int] | None = None) -> list[Suffix]:
        """Materialize entry suffixes, optionally restricted to `include` items.

        Restricting to the run's frequent items reproduces the projected
        databases as conventionally tabulated: infrequent items can never
        join a pattern, so they are elided.  Elements emptied by the filter
        vanish; entries whose whole suffix vanishes are dropped.
        """
        keep = None if include is None else set(include)
        out = []
        for si, eo, io in self.entries:
            elements = self.base.sequences[si].elements
            partial: Element | None = elements[eo][io:] if io else None
            rest = elements[eo + 1 :] if io else elements[eo:]
            if keep is not None:
                if partial is not None:
                    partial = tuple(i for i in partial if i in keep) or None
                rest = tuple(
                    filtered
                    for e in rest
                    if (filtered := tuple(i for i in e if i in keep))
                )
            if partial is None and not rest:
                continue
            out.append(Suffix(partial, tuple(rest)))
        return out

    def render(self, include: Collection[int] | None = None) -> str:
        """Comma-joined suffixes, each wrapped in parentheses (table notation)."""
        dictionary = self.base.dictionary
        return ", ".join(
            "(" + s.render(dictionary) + ")" for s in self.suffixes(include)
        )


# ---------------------------------------------------------------------------
# public operations


def frequent_items(
    db: SequenceDatabase, min_count: int
) -> list[tuple[Item, int]]:
    """Items contained in at least min_count distinct sequences, by id."""
    root = ProjectedDatabase.root(db)
    return [(ext.item, ext.count) for ext in frequent_extensions(root, min_count)]


def frequent_extensions(
    pdb: ProjectedDatabase, min_count: int
) -> list[Extension]:
    """Frequent S- and I-extensions of pdb's prefix (S first, ids ascending).

    Counts are of distinct sequences.  An S-candidate is any item in a full
    element of a suffix.  An I-candidate must be ordered after the prefix's
    last element and occur either in the open partial or in a later element
    that also contains the whole last element (the pattern's enlarged
    element has to sit in a single database element).
    """
    decode = pdb.base.dictionary.decode
    return [
        Extension(Item(i, decode(i)), kind, len(hits))
        for kind, i, hits in _extensions(pdb, min_count)
    ]


def project(pdb: ProjectedDatabase, ext: Extension) -> ProjectedDatabase:
    """Projected database of pdb's prefix grown by one extension.

    Each entry advances past the earliest occurrence of the extension item;
    entries whose suffix has no occurrence (or nothing left after it) are
    dropped.
    """
    last = pdb.prefix.elements[-1] if pdb.prefix else ()
    item = ext.item.id
    if ext.kind == I_EXTENSION:
        if not last:
            raise ValueError("cannot I-extend an empty prefix")
        if item <= last[-1]:
            raise ValueError("I-extension item must be ordered after the last element")
    elif ext.kind != S_EXTENSION:
        raise ValueError(f"unknown extension kind: {ext.kind!r}")
    hits = [h for kind, i, h in _extensions(pdb, 1) if (kind, i) == (ext.kind, item)]
    return _projected(_grown(pdb.prefix, ext.kind, item), hits[0] if hits else [], pdb.base)


def projection_table(
    db: SequenceDatabase, min_count: int
) -> dict[str, str]:
    """Rendered single-item projected databases, keyed by item label.

    Suffixes are restricted to the frequent items of the run, matching the
    conventional tabulation where infrequent items are elided.
    """
    exts = _extensions(ProjectedDatabase.root(db), min_count)
    include = [i for _, i, _ in exts]
    return {
        db.dictionary.decode(i): _projected(Sequence(((i,),)), hits, db).render(include)
        for _, i, hits in exts
    }


def mine(db: SequenceDatabase, cfg: MinerConfig) -> PatternSet:
    """Complete set of sequential patterns above the support threshold.

    Output is canonical, duplicate-free and lexicographically ordered.
    """
    min_count = cfg.resolve_min_count(len(db))
    patterns: list[Pattern] = []

    # Depth-first over S-extensions then I-extensions, each by ascending
    # item id, which emits the patterns already in canonical order.  Pushing
    # them in reverse keeps that order without recursion; a pattern is
    # projected only if it grows further.
    pdb = ProjectedDatabase.root(db)
    stack = [(pdb.prefix, ext) for ext in reversed(_extensions(pdb, min_count))]
    while stack:
        parent, (kind, item, hits) = stack.pop()
        prefix = _grown(parent, kind, item)
        patterns.append(Pattern(prefix, len(hits)))
        if cfg.max_length is None or prefix.item_count < cfg.max_length:
            pdb = _projected(prefix, hits, db)
            stack.extend((prefix, ext) for ext in reversed(_extensions(pdb, min_count)))
    return PatternSet(tuple(patterns), len(db), db.dictionary)


def _extensions(pdb: ProjectedDatabase, min_count: int) -> list[tuple[str, int, list]]:
    """(kind, item id, hits) of each frequent extension, found in one pass.

    ``hits`` holds the earliest occurrence (sequence, element, item index)
    in each sequence that has one, so its length is the support.
    """
    last = pdb.prefix.elements[-1] if pdb.prefix else ()
    lmax = last[-1] if last else -1
    sequences = pdb.base.sequences
    s_hits, i_hits = defaultdict(list), defaultdict(list)
    for si, eo, io in pdb.entries:
        seq = sequences[si].elements
        s_seen, i_seen = set(), set()
        for j in range(eo, len(seq)):
            elem = seq[j]
            if io and j == eo:
                i_from = io  # the open partial only I-extends
            else:
                for k, x in enumerate(elem):
                    if x not in s_seen:
                        s_seen.add(x)
                        s_hits[x].append((si, j, k))
                # cheap membership test first: most elements lack lmax, and
                # for a one-item last element it is the whole subset test
                if lmax not in elem or len(last) > 1 and not _is_subset(last, elem):
                    continue
                i_from = elem.index(lmax) + 1
            for k in range(i_from, len(elem)):
                if elem[k] not in i_seen:
                    i_seen.add(elem[k])
                    i_hits[elem[k]].append((si, j, k))
    return [
        (kind, i, hits[i]) for kind, hits in ((S_EXTENSION, s_hits), (I_EXTENSION, i_hits))
        for i in sorted(hits) if len(hits[i]) >= min_count
    ]


def _grown(prefix: Sequence, kind: str, item: int) -> Sequence:
    elems = prefix.elements
    grown = elems[:-1] + (elems[-1] + (item,),) if kind == I_EXTENSION else elems + ((item,),)
    return Sequence(grown)


def _projected(prefix: Sequence, hits: list, db: SequenceDatabase) -> ProjectedDatabase:
    """Entries just past each hit; a hit that ends its sequence leaves none."""
    entries = []
    for si, j, k in hits:
        seq = db.sequences[si].elements
        if k + 1 < len(seq[j]):
            entries.append(ProjectionEntry(si, j, k + 1))
        elif j + 1 < len(seq):
            entries.append(ProjectionEntry(si, j + 1, 0))
    return ProjectedDatabase(prefix, tuple(entries), db)
