"""Rule statistics over mined patterns: support, confidence, occurrence counts.

Three numbers describe a pattern here:

* support: fraction of sequences containing it (the miner's count, relative);
* confidence: support of the full pattern over support of the pattern minus
  its last element, reading "A > B > C" as the rule (A > B) implies C;
* frequency: total occurrences, counted as distinct minimal windows so a
  sequence that performs the pattern several times contributes several times,
  while overlapping restatements of the same occurrence do not inflate it.

``build_report`` counts each row's frequency in one loop, over the
sequences the miner found holding the pattern (PrefixSpan's projection
entries, SPAM's non-zero bitmap columns, kept in the ``PatternSet``).
Holders index the database the set was mined from, so for any other
database object, and for a hand-built set, the loop runs over every
sequence, as ``pattern_frequency`` does for one pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable

from .core import (Sequence, SequenceDatabase, _csv_line, _is_count, _json_value, _match,
                   contains_subsequence)
from .errors import InvalidConfigError, UndefinedConfidenceError
from .prefixspan import Pattern, PatternSet

VALID_SORT_KEYS = ("frequency", "support", "confidence")


@dataclass(frozen=True)
class RuleRow:
    """One report line for a mined activity pattern."""

    pattern: Pattern
    activity_sequence: str
    frequency: int
    support: float
    confidence: float


def pattern_support(db: SequenceDatabase, p: Sequence) -> tuple[int, float]:
    """(containing-sequence count, relative support) of p in db."""
    if not p.elements:
        raise ValueError("pattern must be non-empty")
    count = sum(1 for s in db.sequences if contains_subsequence(s, p))
    return count, (count / len(db) if len(db) else 0.0)


def rule_confidence(db: SequenceDatabase, p: Sequence) -> float:
    """support(p) / support(p without its last element)."""
    if len(p.elements) < 2:
        raise ValueError("confidence needs a pattern of at least two elements")
    numer, _ = pattern_support(db, p)
    denom, _ = pattern_support(db, Sequence(p.elements[:-1]))
    if denom == 0:
        raise UndefinedConfidenceError(
            f"antecedent {Sequence(p.elements[:-1]).elements!r} never occurs"
        )
    return numer / denom


def count_minimal_occurrences(s: Sequence, p: Sequence) -> int:
    """Number of windows of s that contain p but no proper subwindow does.

    Anchoring p's first element at each possible position and completing
    greedily yields the earliest end for that anchor; distinct ends are in
    one-to-one correspondence with minimal windows (the latest anchor
    reaching a given end is the window start).
    """
    if not p.elements:
        raise ValueError("pattern must be non-empty")
    ends: set[int] = set()
    match = _match(s, p)
    while match is not None:
        first, last = match
        ends.add(last)
        match = _match(s, p, first + 1)
    return len(ends)


def pattern_frequency(db: SequenceDatabase, p: Sequence) -> int:
    """Total minimal occurrences of p across all sequences."""
    return sum(count_minimal_occurrences(s, p) for s in db.sequences)


def _render_activities(p: Pattern, patterns: PatternSet) -> str:
    return " > ".join(
        "+".join(patterns.dictionary.decode(i) for i in elem)
        for elem in p.sequence.elements
    )


def _check_report_settings(top_k: int | None, sort_key: str, n_activities: int | None) -> None:
    """build_report's settings rules; ``seqmine mine`` runs them before any input."""
    if sort_key not in VALID_SORT_KEYS:
        raise InvalidConfigError(f"sort_key must be one of {VALID_SORT_KEYS}")
    for name, value, least in (("top_k", top_k, 0), ("n_activities", n_activities, 2)):
        if value is not None and not _is_count(value, least):
            raise InvalidConfigError(f"{name} must be an int >= {least}, got {value!r}")


def build_report(
    patterns: PatternSet,
    db: SequenceDatabase,
    top_k: int | None = None,
    sort_key: str = "frequency",
    n_activities: int | None = 3,
) -> list[RuleRow]:
    """Report rows for patterns shaped like activity chains.

    With ``n_activities`` set (default 3) only patterns of exactly that many
    single-item elements qualify; with None, any pattern of at least two
    elements does.  Rows sort by ``sort_key`` descending, ties broken by the
    rendered activity string, truncated to ``top_k``; an unknown
    ``sort_key``, a ``top_k`` that is not an int >= 0 or an ``n_activities``
    that is not an int >= 2 raises InvalidConfigError.

    Support is the mined set's fraction, ``support_count / n_sequences``
    (``PatternSet.relative_support``); frequency is counted in ``db``, as
    one sum over the sequences the miner found holding the pattern when
    ``db`` is the database object ``patterns`` was mined from, otherwise,
    or for a hand-built ``PatternSet``, over all of ``db``.

    Confidence takes both of its counts from one database.  When
    ``patterns`` holds the row's antecedent, as a mined set always does,
    both come from the set: ``support_count`` over the antecedent's.  When
    it does not (a filtered or hand-built set), both are counted in ``db``,
    as ``rule_confidence`` does.  So no confidence exceeds 1, and an
    antecedent that no sequence holds raises UndefinedConfidenceError.
    """
    _check_report_settings(top_k, sort_key, n_activities)
    supports = patterns.as_dict()
    held = patterns._holders_in(db)
    seqs = db.sequences

    def confidence(p: Pattern) -> float:
        denom = supports.get(p.sequence.elements[:-1])
        if denom is None:  # the set lacks the antecedent: both counts from db
            return rule_confidence(db, p.sequence)
        if denom == 0:
            raise UndefinedConfidenceError(
                f"antecedent of {p.sequence.elements!r} never occurs"
            )
        return p.support_count / denom

    rows = []
    for k, p in enumerate(patterns):
        elems = p.sequence.elements
        if n_activities is not None:
            if len(elems) != n_activities or any(len(e) != 1 for e in elems):
                continue
        elif len(elems) < 2:
            continue
        rows.append(
            RuleRow(
                pattern=p,
                activity_sequence=_render_activities(p, patterns),
                frequency=sum(
                    count_minimal_occurrences(seqs[i], p.sequence)
                    for i in (range(len(seqs)) if held is None else held[k])
                ),
                support=patterns.relative_support(p),
                confidence=confidence(p),
            )
        )
    rows.sort(key=lambda r: (-getattr(r, sort_key), r.activity_sequence))
    return rows if top_k is None else rows[:top_k]


def write_report_csv(rows: Iterable[RuleRow], fp: IO[str]) -> None:
    """One ``core._csv_line`` per row: the csv module's bytes, NUL included."""
    fp.write(_csv_line(("activity_sequence", "frequency", "support", "confidence")))
    for r in rows:
        fp.write(_csv_line((r.activity_sequence, str(r.frequency),
                            f"{r.support:.6f}", f"{r.confidence:.6f}")))


def write_report_jsonl(rows: Iterable[RuleRow], fp: IO[str]) -> None:
    """Per row, json.dumps' line for its four fields: ``core._json_value``s in a template."""
    line = '{"activity_sequence": %s, "frequency": %s, "support": %s, "confidence": %s}\n'
    for r in rows:
        fp.write(line % (_json_value(r.activity_sequence), _json_value(r.frequency),
                         _json_value(r.support), _json_value(r.confidence)))
