"""Canonical sequences of itemsets and the prefix/suffix/containment algebra.

A sequence is an ordered list of elements; an element is a non-empty set of
items occurring together.  Items are dictionary-encoded integers whose order
mirrors the alphabetical order of their labels, so "listed alphabetically"
is an integer comparison.  All types are immutable and operations are pure.
``canonicalize`` is the one canonicalizer of raw label lists; every other
sequence is canonical by construction, so nothing canonicalizes it again.

Text rendering follows the conventional notation: elements in parentheses,
singleton elements bare when the alphabet is single-character, and a leading
"_" marking a partially consumed element, e.g. ``(_d)c(bc)(ae)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, NamedTuple, Sequence as SequenceABC

from .errors import EmptyElementError, UnknownLabelError

#: An element (itemset): strictly increasing item ids, never empty.
Element = tuple[int, ...]


def _is_count(value, least: int) -> bool:  # the one check of every count setting
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _csv_line(fields: SequenceABC) -> str:
    """The csv module writer's line for a row of two or more fields, NUL as is
    (as on Python 3.11-3.13), None as "" and other non-str values as str().
    It joins once and tests the line once; a quote, a line break or an extra
    comma makes it quote the fields that need it."""
    try:
        line = ",".join(fields)
    except TypeError:
        fields = ["" if f is None else f if isinstance(f, str) else str(f) for f in fields]
        line = ",".join(fields)
    if '"' in line or "\r" in line or "\n" in line or line.count(",") != len(fields) - 1:
        line = ",".join(['"' + f.replace('"', '""') + '"'
                         if '"' in f or "," in f or "\r" in f or "\n" in f else f for f in fields])
    return line + "\r\n"


def _json_value(x) -> str:
    """``json.dumps(x)``: every JSON value ``seqmine`` writes comes from here,
    as every CSV line comes from ``_csv_line``.  An exact str goes through the encoder
    ``json.dumps`` itself calls, an exact int or finite float is its repr,
    and anything else is ``json.dumps(x)``, which raises what it raises."""
    if x.__class__ is str:
        return encode_basestring_ascii(x)
    if x.__class__ is int or x.__class__ is float and x - x == 0.0:
        return repr(x)
    return json.dumps(x)


class Item(NamedTuple):
    """A dictionary entry: encoded id plus its symbolic label."""

    id: int
    label: str


@dataclass(frozen=True)
class ItemDictionary:
    """Bijective label <-> id encoding, id order == alphabetical label order."""

    labels: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if list(self.labels) != sorted(set(self.labels)):
            raise ValueError("dictionary labels must be unique and sorted")
        object.__setattr__(self, "_index", {lb: i for i, lb in enumerate(self.labels)})

    @classmethod
    def from_labels(cls, labels: Iterable[str]) -> "ItemDictionary":
        return cls(tuple(sorted(set(labels))))

    def encode(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabelError(label) from None

    def decode(self, item_id: int) -> str:
        return self.labels[item_id]

    def item(self, label: str) -> Item:
        return Item(self.encode(label), label)

    def items(self) -> tuple[Item, ...]:
        return tuple(Item(i, lb) for i, lb in enumerate(self.labels))

    def __contains__(self, label: object) -> bool:
        return label in self._index

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def compact(self) -> bool:
        """True when every label is a single letter (concatenated rendering)."""
        return bool(self.labels) and all(
            len(lb) == 1 and lb.isalpha() for lb in self.labels
        )


@dataclass(frozen=True, order=True)
class Sequence:
    """An ordered list of elements in canonical form.

    Equal sequences compare equal structurally; ordering is lexicographic on
    the element tuples, which is the global output order of the miners.
    """

    elements: tuple[Element, ...] = ()

    def __len__(self) -> int:
        return len(self.elements)

    def __bool__(self) -> bool:
        return bool(self.elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    @property
    def item_count(self) -> int:
        return sum(len(e) for e in self.elements)

    def render(self, dictionary: ItemDictionary) -> str:
        return render_elements(self.elements, dictionary)


@dataclass(frozen=True)
class Suffix:
    """Remainder of a sequence after the earliest prefix-style match.

    ``leading_partial`` holds the unconsumed tail of the element the match
    ended in (the "_" part of the textual form); it is represented
    structurally, never by a sentinel item.  The empty suffix doubles as the
    "prefix does not occur" result.
    """

    leading_partial: Element | None
    rest: tuple[Element, ...]

    def __post_init__(self) -> None:
        if self.leading_partial is not None and not self.leading_partial:
            raise EmptyElementError("leading partial may not be an empty element")

    @property
    def is_empty(self) -> bool:
        return self.leading_partial is None and not self.rest

    def render(self, dictionary: ItemDictionary) -> str:
        return render_elements(self.rest, dictionary, partial=self.leading_partial)


EMPTY_SUFFIX = Suffix(None, ())


@dataclass(frozen=True)
class SequenceDatabase:
    """Immutable collection of sequences sharing one dictionary."""

    sequences: tuple[Sequence, ...]
    seq_ids: tuple[str, ...]
    dictionary: ItemDictionary

    def __post_init__(self) -> None:
        if len(self.sequences) != len(self.seq_ids):
            raise ValueError("sequences and seq_ids must be parallel")

    def __len__(self) -> int:
        return len(self.sequences)

    def __iter__(self) -> Iterator[Sequence]:
        return iter(self.sequences)

    @classmethod
    def from_raw(
        cls,
        raw: SequenceABC[SequenceABC[SequenceABC[str]]],
        seq_ids: Iterable[str] | None = None,
        dictionary: ItemDictionary | None = None,
    ) -> "SequenceDatabase":
        """Build a database from label lists, deriving the dictionary if needed."""
        if dictionary is None:
            labels = {lb for seq in raw for elem in seq for lb in elem}
            dictionary = ItemDictionary.from_labels(labels)
        seqs = tuple(canonicalize(seq, dictionary) for seq in raw)
        ids = tuple(seq_ids) if seq_ids is not None else tuple(
            f"S{i + 1}" for i in range(len(seqs))
        )
        return cls(seqs, ids, dictionary)


# ---------------------------------------------------------------------------
# construction / rendering


def canonicalize(
    raw: SequenceABC[SequenceABC[str]], dictionary: ItemDictionary
) -> Sequence:
    """Encode label lists into a canonical Sequence: the one canonicalizer.

    Items within an element are sorted by id and duplicates collapse; the
    resulting expression of a sequence is unique.  An empty element raises.
    """
    encode = dictionary.encode
    elements = []
    for elem in raw:
        if not (ids := {encode(lb) for lb in elem}):
            raise EmptyElementError("empty element in sequence")
        elements.append(tuple(sorted(ids)))
    return Sequence(tuple(elements))


def render_elements(
    elements: SequenceABC[Element],
    dictionary: ItemDictionary,
    partial: Element | None = None,
    texts: dict[Element, str] | None = None,
) -> str:
    """Render elements in the standard notation.

    Single-character alphabets render compactly (``a(bc)c``); otherwise every
    element is parenthesized with space-separated items and elements are
    comma-joined (``(1),(2 3)``).  A leading partial renders as ``(_...)``.
    ``texts``, a dict kept across calls with one dictionary, renders each
    distinct element once.
    """
    compact = dictionary.compact
    sep = "" if compact else " "
    texts = {} if texts is None else texts
    parts = []
    if partial is not None:
        parts.append("(_" + sep.join(dictionary.decode(i) for i in partial) + ")")
    for elem in elements:
        if elem not in texts:
            txt = sep.join(dictionary.decode(i) for i in elem)
            texts[elem] = txt if compact and len(elem) == 1 else "(" + txt + ")"
        parts.append(texts[elem])
    return "".join(parts) if compact else ",".join(parts)


# ---------------------------------------------------------------------------
# containment / prefix / suffix


def _is_subset(small: Element, big: Element) -> bool:
    # elements are tiny sorted tuples; a two-pointer walk beats set building
    i = 0
    for x in big:
        if i == len(small):
            return True
        if x == small[i]:
            i += 1
        elif x > small[i]:
            return False
    return i == len(small)


def _match(a: Sequence, b: Sequence, start: int = 0) -> tuple[int, int] | None:
    """Greedy earliest occurrence of non-empty b in a, from element ``start`` on.

    Returns the indices (first, last) of the elements of a that b's first
    and last elements match, or None.  Each element of b takes the earliest
    element of a that holds it as a subset.  Greedy matching is complete
    because subset admissibility is monotone in the match position, so None
    means that no occurrence starts at or after ``start``: a caller trying
    anchors left to right can stop at the first None, as none starts later.
    """
    elements = a.elements
    n = len(elements)
    j = start
    first = -1
    for elem in b.elements:
        if len(elem) == 1:  # most elements; membership is the whole subset test
            x = elem[0]
            while j < n and x not in elements[j]:
                j += 1
        else:
            while j < n and not _is_subset(elem, elements[j]):
                j += 1
        if j == n:
            return None
        if first < 0:
            first = j
        j += 1
    return first, j - 1


def contains_subsequence(s: Sequence, p: Sequence) -> bool:
    """True iff p's elements match subsets of s's elements, in order.

    The empty pattern is contained in everything (recursion base case for
    mining).
    """
    return not p or _match(s, p) is not None


def is_prefix(b: Sequence, a: Sequence) -> bool:
    """Prefix test: exact leading elements, final element a subset whose
    leftover items are all ordered after the subset's items."""
    m = len(b.elements)
    if m == 0 or m > len(a.elements):
        return False
    if b.elements[: m - 1] != a.elements[: m - 1]:
        return False
    last_b, last_a = b.elements[m - 1], a.elements[m - 1]
    if not _is_subset(last_b, last_a):
        return False
    hi = last_b[-1]
    return all(x in last_b for x in last_a if x < hi)


def suffix(a: Sequence, b: Sequence) -> Suffix:
    """Suffix of a with regard to prefix b (earliest occurrence).

    The earliest occurrence is required for projection completeness: every
    later occurrence of any extension lies inside the returned suffix.
    Returns the empty suffix when b does not occur.
    """
    if not b:
        raise ValueError("suffix prefix must be non-empty")
    match = _match(a, b)
    if match is None:
        return EMPTY_SUFFIX
    last = match[1]
    # b's final element is a subset of a.elements[last]; its largest item is
    # the last one consumed, so the unconsumed remainder is what follows it
    elem = a.elements[last]
    partial = elem[elem.index(b.elements[-1][-1]) + 1 :]
    rest = a.elements[last + 1 :]
    if not partial and not rest:
        return EMPTY_SUFFIX
    return Suffix(partial or None, rest)


def concat(b: Sequence, suf: Suffix) -> Sequence:
    """Reattach a suffix to the prefix it was cut from.

    The leading partial merges into b's final element; its items must all be
    ordered after that element's items.
    """
    elements = list(b.elements)
    if suf.leading_partial is not None:
        if not elements:
            raise ValueError("cannot merge a partial into an empty prefix")
        last = elements[-1]
        if suf.leading_partial[0] <= last[-1]:
            raise ValueError("partial items must be ordered after the prefix element")
        elements[-1] = last + suf.leading_partial
    elements.extend(suf.rest)
    return Sequence(tuple(elements))
