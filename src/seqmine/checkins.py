"""Check-in ingestion: parse, tag with activities, segment by time window,
and assemble per-tourist sequence databases.

The stages are deliberately separable: parsing reads each line to a record
or a reject in one loop, activity tagging applies an ordered first-match-wins
rule list compiled once per map (a drop marker excludes a category), window
segmentation buckets records by local time of day, and sequence building
turns each (user, window) group into one time-ordered sequence whose
check-ins at the same instant form a single element.  serialize_checkins
writes records in the file format parse_checkins reads.
"""

from __future__ import annotations

import csv
import gc
import json
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, make_dataclass
from datetime import datetime, timedelta, timezone
from fnmatch import translate
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Iterable, Iterator

from .core import ItemDictionary, Sequence, SequenceDatabase, _csv_line
from .errors import FormatError, InvalidConfigError

#: Label applied to categories no rule matches.
DEFAULT_ACTIVITY = "Other"

#: Rule target that drops a category instead of labelling it.
DROP_MARKER = "-"


@dataclass(frozen=True, slots=True)
class CheckIn:
    """One check-in record.  parse_checkins gives stripped text, non-empty
    required fields and a ``timezone.utc`` timestamp at least a day inside
    datetime's range; one built by hand may hold any aware timestamp.

    Slotted, so a record has no ``__dict__`` and takes no weak references.
    The records of one parse_checkins call share one string object per
    distinct user_id, category, subcategory, gender and origin.
    parse_checkins and generate_synthetic fill each record's slots by plain
    stores into a private class with the same ``__slots__`` and then set its
    ``__class__`` to CheckIn, which skips the nine ``object.__setattr__``
    calls of the frozen ``__init__``; the result is an ordinary CheckIn in
    every respect."""

    checkin_id: str
    user_id: str
    timestamp: datetime
    lat: float
    lon: float
    category: str
    subcategory: str = ""
    gender: str | None = None
    origin: str | None = None


CSV_HEADER = tuple(f.name for f in fields(CheckIn))

# Fills a CheckIn's slots by plain stores, without the frozen __init__'s
# object.__setattr__ calls; callers then set ``__class__`` to CheckIn.
_Draft = make_dataclass("_Draft", CSV_HEADER, slots=True, eq=False, repr=False,
                        match_args=False)


@dataclass(frozen=True)
class RejectedRow:
    line_no: int
    reason: str


@dataclass(frozen=True)
class ParseResult:
    """Valid records in file order plus per-line rejects."""

    checkins: tuple[CheckIn, ...]
    rejects: tuple[RejectedRow, ...]

    def __iter__(self) -> Iterator[CheckIn]:
        return iter(self.checkins)

    def __len__(self) -> int:
        return len(self.checkins)


# Every supported zone is less than a day from UTC, so an instant at least a
# day inside datetime's range has a local time in each of them.
_FIRST_INSTANT = datetime.min.replace(tzinfo=timezone.utc) + timedelta(days=1)
_LAST_INSTANT = datetime.max.replace(tzinfo=timezone.utc) - timedelta(days=1)


def _validate_row(row: list, seen_ids: set[str], texts: dict[str, str]) -> CheckIn | str:
    """The row's fields, in CSV_HEADER order, as a CheckIn, or why it is rejected.

    texts maps each kept text value to its kept string, so equal values
    share one object.  A reader gives str, int, float or bool, never a subclass."""
    raw_id, user_id, raw_ts, lat, lon, category, subcategory, gender, origin = row
    cid = str(raw_id).strip()
    user_id = str(user_id).strip()
    ts_text = str(raw_ts).strip()
    category = str(category).strip()
    # only text can be blank, and coordinates convert from their raw values
    if not (cid and user_id and ts_text and (lat.__class__ is not str or lat.strip())
            and (lon.__class__ is not str or lon.strip()) and category):
        required = (cid, user_id, ts_text, str(lat).strip(), str(lon).strip(), category)
        return f"missing {CSV_HEADER[required.index('')]}"
    if cid in seen_ids:
        return f"duplicate checkin_id {cid!r}"
    try:  # ISO 8601, where a "Z" or no zone means UTC
        ts = datetime.fromisoformat(ts_text[:-1] + "+00:00" if ts_text[-1] in "Zz" else ts_text)
        if ts.tzinfo is not timezone.utc:
            ts = (ts.replace(tzinfo=timezone.utc) if ts.tzinfo is None
                  else ts.astimezone(timezone.utc))
    except (ValueError, OverflowError):
        return f"bad timestamp {raw_ts!r}"
    if not _FIRST_INSTANT <= ts <= _LAST_INSTANT:  # no local time in every supported zone
        return f"bad timestamp {raw_ts!r}"
    # float() reads True as 1.0 and "1_3" as 13.0; neither is a coordinate
    if (lat.__class__ is bool or lon.__class__ is bool
            or lat.__class__ is str and "_" in lat or lon.__class__ is str and "_" in lon):
        return "non-numeric coordinates"
    try:
        lat = float(lat)
        lon = float(lon)
    except (TypeError, ValueError, OverflowError):
        return "non-numeric coordinates"
    if not -90.0 <= lat <= 90.0:  # NaN fails every comparison: not a coordinate
        return "non-numeric coordinates" if lat != lat or lon != lon else "lat out of range"
    if not -180.0 <= lon <= 180.0:
        return "non-numeric coordinates" if lon != lon else "lon out of range"
    share = texts.setdefault
    subcategory = str(subcategory or "").strip()
    gender = str(gender or "").strip() or None
    origin = str(origin or "").strip() or None
    checkin = _Draft(  # positional, in field order: keywords cost more per row
        cid, share(user_id, user_id), ts, lat, lon, share(category, category),
        share(subcategory, subcategory),
        gender and share(gender, gender),
        origin and share(origin, origin),
    )
    checkin.__class__ = CheckIn
    seen_ids.add(cid)
    return checkin


def _read_csv(fp: IO[str], checkins: list, rejects: list) -> None:
    """Append each row's record to checkins, or its last line's number and why
    it is rejected to rejects.  A row of only blank cells is skipped; the
    validator rejects any such row of full width, so only a reject is checked."""
    reader = csv.reader(fp)
    width, seen, texts = len(CSV_HEADER), set(), {}
    accept, reject = checkins.append, rejects.append
    try:
        if tuple(h.strip() for h in next(reader)) != CSV_HEADER:
            raise FormatError(f"bad CSV header: expected {','.join(CSV_HEADER)}")
        for row in reader:
            if len(row) == width:
                record = _validate_row(row, seen, texts)
                if record.__class__ is not str:
                    accept(record)
                    continue
            else:
                record = f"expected {width} fields, got {len(row)}"
            if any(c.strip() for c in row):
                reject(RejectedRow(reader.line_num, record))
    except StopIteration:
        raise FormatError("empty input: missing CSV header")
    except csv.Error as exc:
        raise FormatError(f"line {reader.line_num}: {exc}")


# The scanner json.loads runs between its skips of JSON whitespace: one value
# from an index, raising StopIteration where none starts.
_scan_json = json.JSONDecoder().scan_once
_JSON_SPACE = " \t\n\r"


def _read_jsonl(fp: IO[str], checkins: list, rejects: list) -> None:
    """Append each non-blank line's record to checkins, or its line number and
    why it is rejected to rejects; a missing or null field reads as empty.

    A line is one JSON value with JSON whitespace around it, as json.loads
    reads it; a line of only whitespace of any kind is blank."""
    seen, texts = set(), {}
    accept, reject = checkins.append, rejects.append
    for line_no, line in enumerate(fp, start=1):
        text = line.strip(_JSON_SPACE)
        if not text:
            continue
        try:
            obj, end = _scan_json(text, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(text):
            if text.isspace():
                continue
            record = "invalid JSON"
        elif not isinstance(obj, dict):
            record = "expected a JSON object"
        else:
            row = list(map(obj.get, CSV_HEADER))
            if None in row:
                row = ["" if v is None else v for v in row]
            # only a line with a "[" or a second "{" can hold a list or an object
            nested = ("[" in line or line.count("{") > 1) and [
                k for k, v in zip(CSV_HEADER, row) if isinstance(v, (list, dict))]
            record = (f"{nested[0]} is a JSON list or object" if nested
                      else _validate_row(row, seen, texts))
            if record.__class__ is not str:
                accept(record)
                continue
        reject(RejectedRow(line_no, record))


_READERS = {"csv": _read_csv, "jsonl": _read_jsonl}


@contextmanager
def _collector_paused():
    """Disable the cyclic garbage collector for the body, then restore it.

    The collector is process-wide, so the pause holds for every thread of the
    process until the body exits.  A collector that was already disabled stays
    disabled; an enabled one is enabled again also when the body raises.  The
    pause only skips work: ingest's records form no reference cycles, which
    tests/test_collector.py checks.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def parse_checkins(
    source: str | Path | IO[str], format: str = "csv"
) -> ParseResult:
    """Read check-ins from a CSV or JSONL file path or text stream.

    Each row is validated as it is read.  Valid rows come back in file order;
    rows failing validation (bad timestamp, out-of-range coordinates, missing
    fields, duplicate ids) are collected with their line numbers instead of
    being silently dropped.  A file path may start with a UTF-8 byte-order
    mark.  An unusable CSV header or a file that is not UTF-8 raises FormatError.
    """
    if format not in _READERS:
        raise InvalidConfigError("format must be 'csv' or 'jsonl'")
    close = isinstance(source, (str, Path))
    fp = open(source, "r", encoding="utf-8", newline="") if close else source
    try:
        if close and fp.read(1) != "\ufeff":  # skip a leading byte-order mark
            fp.seek(0)
        checkins: list[CheckIn] = []
        rejects: list[RejectedRow] = []
        with _collector_paused():
            _READERS[format](fp, checkins, rejects)
        return ParseResult(tuple(checkins), tuple(rejects))
    except UnicodeDecodeError:
        raise FormatError("input is not UTF-8 text")
    finally:
        if close:
            fp.close()


# One JSONL line: json.dumps(dict(zip(CSV_HEADER, row))) with each value's
# JSON text filled in.
_JSONL_LINE = "{" + ", ".join(f"{json.dumps(key)}: %s" for key in CSV_HEADER) + "}\n"


def serialize_checkins(
    checkins: Iterable[CheckIn], fp: IO[str], format: str = "csv"
) -> int:
    """Write check-ins in the exact on-disk format parse_checkins reads, and
    return how many were written.  checkins may be any iterable, read once.

    A JSONL line is the bytes ``json.dumps`` gives for the row as a dict in
    CSV_HEADER order, filled into one template without building the dict: a
    str value goes through ``encode_basestring_ascii``, the encoder
    ``json.dumps`` itself calls for it, and a rounded coordinate that is a
    finite float is its ``repr``, which is what ``json.dumps`` writes for
    it.  Any other value (None, a number of another type, NaN) goes through
    ``json.dumps``.  A CSV line is ``core._csv_line``'s: the bytes of the csv
    module's writer on Python 3.11-3.13, NUL included.
    """
    if format not in _READERS:
        raise InvalidConfigError("format must be 'csv' or 'jsonl'")
    count, utc, write = 0, timezone.utc, fp.write
    if format == "csv":
        write(_csv_line(CSV_HEADER))
        for count, c in enumerate(checkins, 1):
            write(_csv_line((c.checkin_id, c.user_id, c.timestamp.astimezone(utc).isoformat(),
                             f"{c.lat:.6f}", f"{c.lon:.6f}", c.category, c.subcategory,
                             c.gender, c.origin)))
        return count
    dumps, encode, line = json.dumps, encode_basestring_ascii, _JSONL_LINE
    for count, c in enumerate(checkins, 1):
        cid, user, category, sub, gender, origin = (
            c.checkin_id, c.user_id, c.category, c.subcategory, c.gender, c.origin)
        # coordinates as numbers rounded to 6 places, None as null
        lat, lon = round(c.lat, 6), round(c.lon, 6)
        write(line % (
            encode(cid) if cid.__class__ is str else dumps(cid),
            encode(user) if user.__class__ is str else dumps(user),
            encode(c.timestamp.astimezone(utc).isoformat()),
            repr(lat) if lat.__class__ is float and lat - lat == 0.0 else dumps(lat),
            repr(lon) if lon.__class__ is float and lon - lon == 0.0 else dumps(lon),
            encode(category) if category.__class__ is str else dumps(category),
            encode(sub) if sub.__class__ is str else dumps(sub),
            encode(gender) if gender.__class__ is str else dumps(gender),
            encode(origin) if origin.__class__ is str else dumps(origin),
        ))
    return count


# ---------------------------------------------------------------------------
# activity mapping


@dataclass(frozen=True)
class ActivityRule:
    """One 'category glob -> activity' line; activity None means drop."""

    pattern: str
    activity: str | None


@dataclass(frozen=True)
class ActivityMap:
    """Ordered first-match-wins category classifier: fnmatchcase on casefolded
    text, with the rules compiled once, when the map is built."""

    rules: tuple[ActivityRule, ...]
    # casefolded literal -> index of its first rule; (index, compiled match) per glob
    _compiled: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        literals, globs = {}, []
        for i, rule in enumerate(self.rules):
            pattern = rule.pattern.casefold()
            if "*" in pattern or "?" in pattern or "[" in pattern:
                globs.append((i, re.compile(translate(pattern)).match))
            else:
                literals.setdefault(pattern, i)
        object.__setattr__(self, "_compiled", (literals, tuple(globs)))

    def first_match(self, category: str) -> ActivityRule | None:
        folded = category.casefold()
        literals, globs = self._compiled
        first = literals.get(folded, len(self.rules))
        for i, match in globs:
            if i > first:
                break
            if match(folded):
                return self.rules[i]
        return self.rules[first] if first < len(self.rules) else None

    def match(self, category: str) -> str | None:
        """First matching rule's activity; None when dropped; default when unmatched."""
        rule = self.first_match(category)
        return DEFAULT_ACTIVITY if rule is None else rule.activity


@dataclass(frozen=True)
class TagResult:
    """Tagged (check-in, activity) pairs plus drop/unmatched accounting."""

    tagged: tuple[tuple[CheckIn, str], ...]
    dropped: int
    unmatched: Counter

    def __iter__(self) -> Iterator[tuple[CheckIn, str]]:
        return iter(self.tagged)

    def __len__(self) -> int:
        return len(self.tagged)


def apply_activity_map(
    checkins: Iterable[CheckIn], activity_map: ActivityMap
) -> TagResult:
    """Drop the categories a drop rule matches, tag the rest with their activity.

    Each distinct category is matched against the rules once per call;
    ``dropped`` and ``unmatched`` still count check-ins.
    """
    tagged: list[tuple[CheckIn, str]] = []
    dropped = 0
    unmatched: Counter = Counter()
    rule_of: dict[str, ActivityRule | None] = {}
    for c in checkins:
        if c.category not in rule_of:
            rule_of[c.category] = activity_map.first_match(c.category)
        rule = rule_of[c.category]
        if rule is None:
            unmatched[c.category] += 1
            tagged.append((c, DEFAULT_ACTIVITY))
        elif rule.activity is None:
            dropped += 1
        else:
            tagged.append((c, rule.activity))
    return TagResult(tuple(tagged), dropped, unmatched)


# ---------------------------------------------------------------------------
# time windows


_TIME_RE = re.compile(r"^(\d{1,2}):(\d{2})$")


def _parse_minute(text: str) -> int:
    m = _TIME_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad time of day {text!r}, expected HH:MM")
    hour, minute = int(m.group(1)), int(m.group(2))
    if minute > 59 or hour > 24 or (hour == 24 and minute != 0):
        raise ValueError(f"bad time of day {text!r}")
    return hour * 60 + minute


@dataclass(frozen=True)
class WindowSpec:
    """Half-open local-time window [start, end); end may be 24:00."""

    name: str
    start_minute: int
    end_minute: int

    def __post_init__(self) -> None:
        if not (0 <= self.start_minute < self.end_minute <= 24 * 60):
            raise InvalidConfigError(
                f"window {self.name!r}: need 0 <= start < end <= 24:00"
            )

    @classmethod
    def parse(cls, name: str, start: str, end: str) -> "WindowSpec":
        return cls(name, _parse_minute(start), _parse_minute(end))

    def contains(self, minute_of_day: int) -> bool:
        return self.start_minute <= minute_of_day < self.end_minute


DEFAULT_WINDOWS = (
    WindowSpec("morning", 7 * 60, 14 * 60),
    WindowSpec("afternoon", 14 * 60, 24 * 60),
)

GroupKey = tuple[str, str | None]
Groups = dict[GroupKey, list[tuple[CheckIn, str]]]


def resolve_timezone(name: str) -> timezone:
    """'UTC', a fixed offset like '+08:00', or an IANA zone name."""
    text = name.strip()
    if text.upper() in ("UTC", "Z"):
        return timezone.utc
    m = re.match(r"^([+-])([01]\d|2[0-3]):([0-5]\d)$", text)
    if m:
        sign = 1 if m.group(1) == "+" else -1
        return timezone(sign * timedelta(hours=int(m.group(2)), minutes=int(m.group(3))))
    try:
        from zoneinfo import ZoneInfo

        return ZoneInfo(text)  # type: ignore[return-value]
    except Exception:
        raise InvalidConfigError(f"unknown timezone {name!r}")


def segment_windows(
    tagged: Iterable[tuple[CheckIn, str]],
    windows: Iterable[WindowSpec] = DEFAULT_WINDOWS,
    tz: timezone = timezone.utc,
) -> Groups:
    """Bucket tagged check-ins into (user, window-name) groups by local time.

    A check-in's local time is its instant at tz's UTC offset at that
    instant.  A check-in joins every window containing its local time
    (windows may overlap; their bounds are read once per call); one outside
    all windows joins no group.  Groups hold the input pairs, not copies.
    """
    bounds = [(w.start_minute, w.end_minute, w.name) for w in windows]
    groups: Groups = {}
    for pair in tagged:
        c = pair[0]
        local = c.timestamp.astimezone(tz)
        minute = local.hour * 60 + local.minute
        for start, end, name in bounds:
            if start <= minute < end:
                groups.setdefault((c.user_id, name), []).append(pair)
    return groups


def group_by_user(tagged: Iterable[tuple[CheckIn, str]]) -> Groups:
    """Whole-trip grouping: one (user, None) group per user.
    Groups hold the input pairs themselves, not copies."""
    groups: Groups = {}
    for pair in tagged:
        groups.setdefault((pair[0].user_id, None), []).append(pair)
    return groups


# ---------------------------------------------------------------------------
# sequence building


def build_sequences(groups: Groups) -> SequenceDatabase:
    """Assemble the groups into a SequenceDatabase, groups ordered by (user, window).

    Within a group, check-ins sort by timestamp, and the activities of the
    check-ins at one instant form one element, so the order of check-ins
    at the same instant does not matter.  Activities are encoded once per
    database, from one dictionary of all the groups' activities.  Only an
    element that another activity joins at its instant is sorted and
    deduplicated, so an activity's one-item elements are one shared tuple.
    A sequence is named ``user``, or ``user|window`` for a windowed group.
    The groups' pairs are read in place; none is copied.
    """
    dictionary = ItemDictionary.from_labels(
        activity for records in groups.values() for _, activity in records
    )
    single = {label: (i,) for i, label in enumerate(dictionary.labels)}
    sequences = []
    seq_ids = []
    for user_id, window in sorted(groups, key=lambda k: (k[0], k[1] or "")):
        elements: list[tuple[int, ...]] = []
        instant = None
        for c, activity in sorted(groups[(user_id, window)], key=lambda p: p[0].timestamp):
            if c.timestamp != instant:
                elements.append(single[activity])
                instant = c.timestamp
            elif single[activity][0] not in elements[-1]:
                elements[-1] = tuple(sorted(elements[-1] + single[activity]))
        sequences.append(Sequence(tuple(elements)))
        seq_ids.append(user_id if window is None else f"{user_id}|{window}")
    return SequenceDatabase(tuple(sequences), tuple(seq_ids), dictionary)


# ---------------------------------------------------------------------------
# config files


def parse_config(text: str) -> tuple[ActivityMap, tuple[WindowSpec, ...]]:
    """Read 'pattern = activity' rules and 'window NAME HH:MM HH:MM' lines.

    Rule order is match order; an activity of '-' drops the category.  Blank
    lines and '#' comments are skipped.  Raises FormatError with the line
    number for anything else.
    """
    rules: list[ActivityRule] = []
    windows: list[WindowSpec] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("window "):
            parts = line.split()
            if len(parts) != 4:
                raise FormatError(
                    f"line {line_no}: expected 'window NAME HH:MM HH:MM'"
                )
            try:
                windows.append(WindowSpec.parse(parts[1], parts[2], parts[3]))
            except (ValueError, InvalidConfigError) as exc:
                raise FormatError(f"line {line_no}: {exc}")
            continue
        if "=" in line:
            pattern, _, activity = line.partition("=")
            pattern = pattern.strip()
            activity = activity.strip()
            if not pattern or not activity:
                raise FormatError(
                    f"line {line_no}: expected 'pattern = activity'"
                )
            rules.append(
                ActivityRule(pattern, None if activity == DROP_MARKER else activity)
            )
            continue
        raise FormatError(f"line {line_no}: unrecognized directive {line!r}")
    return ActivityMap(tuple(rules)), tuple(windows)


def load_config(path: str | Path) -> tuple[ActivityMap, tuple[WindowSpec, ...]]:
    """parse_config over a UTF-8 file, which may start with a byte-order mark."""
    try:
        text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 text")
    return parse_config(text)


def default_config() -> tuple[ActivityMap, tuple[WindowSpec, ...]]:
    """The packaged category map and analysis windows."""
    from importlib.resources import files

    text = files("seqmine.data").joinpath("default.cfg").read_text(encoding="utf-8")
    return parse_config(text)


# ---------------------------------------------------------------------------
# end-to-end convenience


@dataclass(frozen=True)
class PipelineResult:
    database: SequenceDatabase
    tag_result: TagResult = field(repr=False)

    @property
    def n_groups(self) -> int:
        """Groups formed; each builds exactly one sequence."""
        return len(self.database)


def run_pipeline(
    checkins: Iterable[CheckIn],
    activity_map: ActivityMap,
    windows: Iterable[WindowSpec] = DEFAULT_WINDOWS,
    tz: timezone = timezone.utc,
    grouping: str = "window",
) -> PipelineResult:
    """Tag, group and assemble check-ins into a sequence database.

    grouping 'window' produces one sequence per (user, window), leaving out
    the check-ins outside every window; 'trip' one per user across the whole
    stay.
    """
    if grouping not in ("window", "trip"):
        raise InvalidConfigError("grouping must be 'window' or 'trip'")
    with _collector_paused():
        tag_result = apply_activity_map(checkins, activity_map)
        if grouping == "trip":
            groups = group_by_user(tag_result.tagged)
        else:
            groups = segment_windows(tag_result.tagged, windows, tz)
        return PipelineResult(build_sequences(groups), tag_result)
