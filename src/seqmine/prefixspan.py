"""Pattern-growth mining: prefix extension over pseudo-projected databases.

The projected database of a prefix is represented by positions into the
original sequences (pseudo-projection) instead of copied suffixes, since
building physical projections is the dominant cost of pattern growth.  Each
entry records where the earliest occurrence of the prefix ends; growing the
prefix by one item (an S-extension opening a new element, or an I-extension
enlarging the last one) only ever advances these positions.  ``mine`` goes one
step further: a node's scan starts straight from its parent's hit list, just
past each hit, so no projected copy of the positions is ever built.

``_grow`` is the depth-first search that both ``mine`` and ``spam.mine_spam``
run: the output order, the ``max_length`` cut and the ``PatternSet`` are its
alone, and a miner supplies only how a node's extensions are found and which
sequences hold a node's pattern.  Those holders go into the ``PatternSet``, so
the report counts occurrences only where the search already found them.
"""

from __future__ import annotations

import math
import weakref
from array import array
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
    _csv_line,
    _is_count,
    _is_subset,
    _json_value,
    render_elements,
)
from .errors import InvalidConfigError

#: Extension kinds: new element vs. item added to the prefix's last element.
S_EXTENSION = "S"
I_EXTENSION = "I"


class ProjectionEntry(NamedTuple):
    """Where the earliest occurrence of the prefix ends in one sequence.

    The suffix begins just past item ``item_offset`` of element
    ``elem_offset``: the rest of that element is the open partial (the "_"
    case), if any.  An ``item_offset`` of -1 (the root) starts the suffix at
    the whole element.
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
    """Mining parameters; building one with a value outside these raises.

    ``min_support`` is an absolute sequence count when given as an int (>= 1,
    not a bool) and a relative fraction in (0, 1] when given as a float.
    ``max_length``, when set, is an int >= 1 capping a pattern's item count.
    """

    min_support: int | float = 2
    max_length: int | None = None

    def __post_init__(self) -> None:
        support, length = self.min_support, self.max_length
        if isinstance(support, float):
            if not 0.0 < support <= 1.0:
                raise InvalidConfigError("min_support fraction must be in (0,1]")
        elif not _is_count(support, 1):
            raise InvalidConfigError(f"min_support count must be >= 1, got {support!r}")
        if length is not None and not _is_count(length, 1):
            raise InvalidConfigError(f"max_length must be an int >= 1, got {length!r}")

    def resolve_min_count(self, n_sequences: int) -> int:
        """min_support as a count for this database size (checked when built)."""
        if isinstance(self.min_support, int):
            return self.min_support
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
    """Complete mining result in canonical (lexicographic) order.

    A mined set also keeps, for each pattern of two or more elements, the
    sorted indices of the sequences holding it, valid only for the database
    it was mined from (see ``_holders_in``).  They take no part in equality,
    ``repr``, pickling or copying: a copy, a ``replace``d or a hand-built set
    has none.
    """

    patterns: tuple[Pattern, ...]
    n_sequences: int
    dictionary: ItemDictionary
    # (weak reference to the mined database, one array("i") or None per pattern)
    _holders: tuple = field(default=(), init=False, compare=False, repr=False)

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_holders"}

    def _holders_in(self, db: SequenceDatabase) -> tuple | None:
        """Holders per pattern, aligned with ``patterns``, if db is the mined one."""
        if self._holders and self._holders[0]() is db:
            return self._holders[1]
        return None

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
        """One ``core._csv_line`` per pattern: the csv module's bytes, NUL included."""
        fp.write(_csv_line(("pattern", "support_count", "relative_support")))
        texts: dict[Element, str] = {}  # patterns share most of their elements
        for p in self.patterns:
            fp.write(_csv_line((render_elements(p.sequence.elements, self.dictionary, texts=texts),
                                str(p.support_count), f"{self.relative_support(p):.6f}")))

    def to_jsonl(self, fp: IO[str]) -> None:
        """Per pattern, json.dumps' line for its record: ``core._json_value``s in a template."""
        line = '{"pattern": [%s], "support_count": %s, "relative_support": %s}\n'
        texts: dict[Element, str] = {}  # each distinct element's label list, written once
        for p in self.patterns:
            for elem in p.sequence.elements:
                if elem not in texts:
                    texts[elem] = "[" + ", ".join([_json_value(self.dictionary.decode(i))
                                                   for i in elem]) + "]"
            fp.write(line % (", ".join([texts[e] for e in p.sequence.elements]),
                             _json_value(p.support_count),
                             _json_value(self.relative_support(p))))


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
            ProjectionEntry(i, 0, -1)
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
            partial: Element | None = (elements[eo][io + 1 :] or None) if io >= 0 else None
            rest = elements[eo + 1 :] if io >= 0 else elements[eo:]
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
        Extension(Item(i, decode(i)), kind, count)
        for kind, i, count, _ in _extensions(pdb, min_count)
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
    hits = [h for kind, i, _, h in _extensions(pdb, 1) if (kind, i) == (ext.kind, item)]
    grown = Sequence(_grown(pdb.prefix.elements, ext.kind, item))
    return _projected(grown, hits[0] if hits else [], pdb.base)


def projection_table(
    db: SequenceDatabase, min_count: int
) -> dict[str, str]:
    """Rendered single-item projected databases, keyed by item label.

    Suffixes are restricted to the frequent items of the run, matching the
    conventional tabulation where infrequent items are elided.
    """
    exts = _extensions(ProjectedDatabase.root(db), min_count)
    include = [i for _, i, _, _ in exts]
    return {
        db.dictionary.decode(i): _projected(Sequence(((i,),)), hits, db).render(include)
        for _, i, _, hits in exts
    }


def mine(db: SequenceDatabase, cfg: MinerConfig) -> PatternSet:
    """Complete set of sequential patterns above the support threshold.

    Output is canonical, duplicate-free and lexicographically ordered.
    """
    min_count = cfg.resolve_min_count(len(db))
    seqs = [s.elements for s in db.sequences]
    roots = _scan(seqs, (), [(si, 0, -1) for si, s in enumerate(seqs) if s], min_count)
    # a node's hits hold one entry per holding sequence, in sequence order
    return _grow(db, cfg, roots,
                 lambda elements, hits: _scan(seqs, elements[-1], hits, min_count),
                 lambda hits: array("i", [si for si, _, _ in hits]))


def _grow(db: SequenceDatabase, cfg: MinerConfig, roots: list, expand, holders) -> PatternSet:
    """Depth-first pattern search shared by both miners.

    Each extension is ``(kind, item id, support, state)``; ``expand(elements,
    state)`` lists a pattern's frequent extensions, S-extensions then
    I-extensions, each by ascending item id.  Emitting a pattern before its
    extensions then gives canonical order, and pushing them in reverse keeps
    it without recursion.  A pattern is expanded only below ``max_length``
    items; each stack entry carries its parent's elements and item count.

    A node's state also knows which sequences hold its pattern:
    ``holders(state)`` gives their sorted indices as an ``array("i")``, kept
    in the ``PatternSet`` for every pattern of two or more elements (the
    ones a report can count).  ``RuntimeError`` stops a broken ``expand``
    that offers a pattern no sequence can hold: too long, or not canonical.
    """
    max_length = cfg.max_length
    longest = max(map(len, db.sequences), default=0)
    patterns: list[Pattern] = []
    held: list[array | None] = []
    stack = [((), 0, ext) for ext in reversed(roots)]
    while stack:
        parent, n_items, (kind, item, support, state) = stack.pop()
        elements = _grown(parent, kind, item)
        if len(elements) > longest or kind == I_EXTENSION and item <= parent[-1][-1]:
            raise RuntimeError(f"broken expand: no sequence can hold {elements}")
        n_items += 1
        patterns.append(Pattern(Sequence(elements), support))
        held.append(holders(state) if len(elements) > 1 else None)
        if max_length is None or n_items < max_length:
            stack.extend((elements, n_items, ext) for ext in reversed(expand(elements, state)))
    out = PatternSet(tuple(patterns), len(db), db.dictionary)
    object.__setattr__(out, "_holders", (weakref.ref(db), tuple(held)))
    return out


def _extensions(pdb: ProjectedDatabase, min_count: int) -> list[tuple[str, int, int, list]]:
    """_scan over pdb's entries."""
    last = pdb.prefix.elements[-1] if pdb.prefix else ()
    return _scan([s.elements for s in pdb.base.sequences], last, pdb.entries, min_count)


def _scan(
    seqs: list[tuple[Element, ...]], last: Element, starts: list, min_count: int
) -> list[tuple[str, int, int, list]]:
    """(kind, item id, support, hits) of each frequent extension, in one pass.

    ``last`` is the prefix's last element, and each start (sequence, element,
    item index) is where one earliest occurrence of the prefix ends: the
    suffix begins just past it, and item index -1 starts at a whole element.
    ``hits`` holds the earliest occurrence of the extension in each sequence
    that has one, in the same form, so its length is the support.  The
    extensions come S first, then I, each by ascending item id.

    One start costs a walk over its open partial, if any, and one set of the
    items already S-hit, made only when two or more elements follow it or the
    one that does holds several items.  A start with nothing after it, or
    with one one-item element after it, makes no set at all.  The items
    already I-hit are the partial's until a later element holds the whole of
    ``last``; only then is a set made of them.
    """
    lmax = last[-1] if last else -1
    multi = len(last) > 1
    s_hits, i_hits = defaultdict(list), defaultdict(list)
    for si, eo, io in starts:
        seq = seqs[si]
        partial = ()
        if io >= 0:
            # the open partial, the rest of the start's element, only
            # I-extends; an element's items are distinct, so none repeats
            elem = seq[eo]
            if io + 1 < len(elem):
                partial = elem[io + 1:]
                for k in range(io + 1, len(elem)):
                    i_hits[elem[k]].append((si, eo, k))
            eo += 1
        left = len(seq) - eo
        if not left:
            continue
        if left == 1 and len(seq[eo]) == 1:  # one S-hit, too small to I-extend
            s_hits[seq[eo][0]].append((si, eo, 0))
            continue
        s_seen = set()
        i_seen = None
        for j in range(eo, len(seq)):
            elem = seq[j]
            if len(elem) == 1:  # most elements; too small to I-extend
                x = elem[0]
                if x not in s_seen:
                    s_seen.add(x)
                    s_hits[x].append((si, j, 0))
                continue
            for k, x in enumerate(elem):
                if x not in s_seen:
                    s_seen.add(x)
                    s_hits[x].append((si, j, k))
            # cheap membership test first: most elements lack lmax, and
            # for a one-item last element it is the whole subset test
            if lmax not in elem or multi and not _is_subset(last, elem):
                continue
            if i_seen is None:
                i_seen = set(partial)
            for k in range(elem.index(lmax) + 1, len(elem)):
                if elem[k] not in i_seen:
                    i_seen.add(elem[k])
                    i_hits[elem[k]].append((si, j, k))
    return [
        (kind, i, len(hits[i]), hits[i])
        for kind, hits in ((S_EXTENSION, s_hits), (I_EXTENSION, i_hits))
        for i in sorted([i for i, h in hits.items() if len(h) >= min_count])
    ]


def _grown(elements: tuple[Element, ...], kind: str, item: int) -> tuple[Element, ...]:
    if kind == I_EXTENSION:
        return elements[:-1] + (elements[-1] + (item,),)
    return elements + ((item,),)


def _projected(prefix: Sequence, hits: list, db: SequenceDatabase) -> ProjectedDatabase:
    """The hits as entries, less those that end their sequence."""
    entries = []
    for si, j, k in hits:
        seq = db.sequences[si].elements
        if j + 1 < len(seq) or k + 1 < len(seq[j]):
            entries.append(ProjectionEntry(si, j, k))
    return ProjectedDatabase(prefix, tuple(entries), db)
