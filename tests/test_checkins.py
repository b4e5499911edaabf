import copy
import csv
import dataclasses
import io
import json
import pickle
import sys
import tracemalloc
import weakref
from collections import Counter
from datetime import datetime, timedelta, timezone
from fnmatch import fnmatchcase
from itertools import combinations
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

import pytest
from hypothesis import example, given, settings, strategies as st

from seqmine import (
    ActivityMap,
    ActivityRule,
    CheckIn,
    FormatError,
    InvalidConfigError,
    MinerConfig,
    SequenceDatabase,
    WindowSpec,
    apply_activity_map,
    build_report,
    build_sequences,
    default_config,
    load_config,
    mine,
    parse_checkins,
    parse_config,
    run_pipeline,
    segment_windows,
    write_report_csv,
    write_report_jsonl,
)
from seqmine.checkins import (
    _FIRST_INSTANT,
    _LAST_INSTANT,
    CSV_HEADER,
    DEFAULT_WINDOWS,
    _Draft,
    group_by_user,
    resolve_timezone,
)
from seqmine.synth import GeneratorConfig, generate_synthetic, serialize_checkins

HEADER = "checkin_id,user_id,timestamp,lat,lon,category,subcategory,gender,origin"


def csv_source(*rows: str) -> io.StringIO:
    return io.StringIO("\n".join([HEADER, *rows]) + "\n")


def ci(user="u1", ts="2023-05-01T08:00:00+00:00", cat="Park", cid=None):
    return CheckIn(
        checkin_id=cid or f"{user}-{ts}",
        user_id=user,
        timestamp=datetime.fromisoformat(ts),
        lat=1.3,
        lon=103.8,
        category=cat,
    )


class TestParseCsv:
    def test_valid_rows_in_order(self):
        result = parse_checkins(csv_source(
            "c1,u1,2023-05-01T08:00:00Z,1.35,103.99,Park,City Park,female,Malaysia",
            "c2,u2,2023-05-01T09:30:00+08:00,1.29,103.85,Mall,,male,Thailand",
        ))
        assert len(result) == 2 and not result.rejects
        first, second = result.checkins
        assert first.checkin_id == "c1"
        assert first.timestamp == datetime(2023, 5, 1, 8, 0, tzinfo=timezone.utc)
        # offsets normalize to UTC
        assert second.timestamp == datetime(2023, 5, 1, 1, 30, tzinfo=timezone.utc)
        assert second.gender == "male" and second.origin == "Thailand"

    def test_naive_timestamp_is_utc(self):
        result = parse_checkins(csv_source(
            "c1,u1,2023-05-01T08:00:00,1.35,103.99,Park,,,"
        ))
        assert result.checkins[0].timestamp.tzinfo == timezone.utc

    def test_rejects_carry_line_numbers(self):
        result = parse_checkins(csv_source(
            "c1,u1,2023-05-01T08:00:00Z,95.0,103.99,Park,,,",      # line 2
            "c2,u1,not-a-time,1.35,103.99,Park,,,",                # line 3
            "c3,,2023-05-01T08:00:00Z,1.35,103.99,Park,,,",        # line 4
            "c4,u1,2023-05-01T08:00:00Z,1.35,189.0,Park,,,",       # line 5
            "c5,u1,2023-05-01T08:00:00Z,1.35,103.99,Park,,,",
            "c5,u1,2023-05-01T09:00:00Z,1.35,103.99,Park,,,",      # line 7
            "c6,u1,2023-05-01T08:00:00Z,x,103.99,Park,,,",         # line 8
            "c7,u1,0001-01-01T00:00:00+01:00,1.35,103.99,Park,,,", # line 9
        ))
        assert [(r.line_no, r.reason) for r in result.rejects] == [
            (2, "lat out of range"),
            (3, "bad timestamp 'not-a-time'"),
            (4, "missing user_id"),
            (5, "lon out of range"),
            (7, "duplicate checkin_id 'c5'"),
            (8, "non-numeric coordinates"),
            (9, "bad timestamp '0001-01-01T00:00:00+01:00'"),  # before year 1 in UTC
        ]
        assert [c.checkin_id for c in result] == ["c5"]

    @pytest.mark.parametrize("raw, accepted", [
        ("0001-01-01T23:59:59.999999Z", False),
        ("0001-01-02T00:00:00Z", True),
        ("9999-12-30T23:59:59.999999Z", True),
        ("9999-12-31T00:00:00Z", False),
    ])
    def test_instants_a_day_from_the_datetime_range_ends(self, raw, accepted):
        # The bound is on the UTC instant, whatever zone or grouping follows.
        result = parse_checkins(csv_source(f"c1,u1,{raw},1.35,103.99,Park,,,"))
        assert len(result) == int(accepted)
        assert [r.reason for r in result.rejects] == (
            [] if accepted else [f"bad timestamp '{raw}'"]
        )

    def test_wrong_field_count_rejected(self):
        result = parse_checkins(csv_source("c1,u1,2023-05-01T08:00:00Z,1.0,2.0"))
        assert result.rejects[0].reason.startswith("expected 9 fields")

    def test_blank_lines_skipped(self):
        result = parse_checkins(io.StringIO(
            HEADER + "\n\nc1,u1,2023-05-01T08:00:00Z,1.0,2.0,Park,,,\n\n"
        ))
        assert len(result) == 1 and not result.rejects

    def test_first_blank_field_in_header_order_is_named(self):
        result = parse_checkins(csv_source(
            "c1,,,1.3,,Park,,,",                                   # line 2
            "c2,u1,2023-05-01T08:00:00Z,,,,,,",                    # line 3
            "c3,u1,2023-05-01T08:00:00Z,1.3,103.8,,,,",            # line 4
        ))
        assert [(r.line_no, r.reason) for r in result.rejects] == [
            (2, "missing user_id"),
            (3, "missing lat"),
            (4, "missing category"),
        ]

    def test_whitespace_only_fields_are_blank(self):
        result = parse_checkins(csv_source(
            "c1,  ,2023-05-01T08:00:00Z,1.3,103.8,Park,,,",
            "c2,u1, \t ,1.3,103.8,Park,,,",
            "c3,u1,2023-05-01T08:00:00Z,1.3, ,Park,,,",
            "c4,u1,2023-05-01T08:00:00Z,1.3,103.8,Park, , , ",
        ))
        assert [(r.line_no, r.reason) for r in result.rejects] == [
            (2, "missing user_id"),
            (3, "missing timestamp"),
            (4, "missing lon"),
        ]
        (c4,) = result.checkins
        assert (c4.subcategory, c4.gender, c4.origin) == ("", None, None)

    def test_coordinates_convert_from_the_raw_text(self):
        # str.strip() removes the separator controls \x1c-\x1f, float() does not.
        result = parse_checkins(csv_source(
            "c1,u1,2023-05-01T08:00:00Z,\x1c1.3,103.8,Park,,,",
            "c2,u1,2023-05-01T08:00:00Z, 1.3 ,103.8,Park,,,",
        ))
        assert [(r.line_no, r.reason) for r in result.rejects] == [
            (2, "non-numeric coordinates"),
        ]
        assert [c.lat for c in result] == [1.3]

    def test_underscored_coordinates_rejected(self):
        # float() reads "1_3" as 13.0 and "10_3.8" as 103.8.
        result = parse_checkins(csv_source(
            "c1,u1,2023-05-01T08:00:00Z,1_3,103.8,Park,,,",
            "c2,u1,2023-05-01T08:00:00Z,1.3,10_3.8,Park,,,",
            "c3,u1,2023-05-01T08:00:00Z,1.3,103.8,Park,,,",
        ))
        assert [(r.line_no, r.reason) for r in result.rejects] == [
            (2, "non-numeric coordinates"),
            (3, "non-numeric coordinates"),
        ]
        assert [c.checkin_id for c in result] == ["c3"]

    def test_nan_coordinates_are_non_numeric(self):
        # float() reads "nan", which fails every range test; infinity does
        # not, so it stays out of range.
        result = parse_checkins(csv_source(
            "c1,u1,2023-05-01T08:00:00Z,nan,103.8,Park,,,",
            "c2,u1,2023-05-01T08:00:00Z,1.3,NaN,Park,,,",
            "c3,u1,2023-05-01T08:00:00Z,95,-nan,Park,,,",
            "c4,u1,2023-05-01T08:00:00Z,inf,103.8,Park,,,",
            "c5,u1,2023-05-01T08:00:00Z,1.3,-inf,Park,,,",
            "c6,u1,2023-05-01T08:00:00Z,1.3,103.8,Park,,,",
        ))
        assert [(r.line_no, r.reason) for r in result.rejects] == [
            (2, "non-numeric coordinates"),
            (3, "non-numeric coordinates"),
            (4, "non-numeric coordinates"),
            (5, "lat out of range"),
            (6, "lon out of range"),
        ]
        assert [c.checkin_id for c in result] == ["c6"]

    def test_rows_of_only_separators_are_skipped(self):
        result = parse_checkins(csv_source(
            ",,,,,,,,",
            " , ,\t, ,,,,,",
            ",,",
            "c1,u1,2023-05-01T08:00:00Z,1.3,103.8,Park,,,",
        ))
        assert [c.checkin_id for c in result] == ["c1"] and not result.rejects

    def test_blank_first_field_with_others_present(self):
        result = parse_checkins(csv_source(
            ",u1,2023-05-01T08:00:00Z,1.3,103.8,Park,,,",
            " ,u1,2023-05-01T08:00:00Z,1.3,103.8,Park,,,",
            ",,,,,,,,x",
        ))
        assert [(r.line_no, r.reason) for r in result.rejects] == [
            (2, "missing checkin_id"),
            (3, "missing checkin_id"),
            (4, "missing checkin_id"),
        ]

    def test_bad_header_raises(self):
        with pytest.raises(FormatError):
            parse_checkins(io.StringIO("id,user,time\nc1,u1,now\n"))

    def test_empty_input_raises(self):
        with pytest.raises(FormatError):
            parse_checkins(io.StringIO(""))

    def test_byte_order_mark_accepted(self, tmp_path):
        # Spreadsheet exports often start with a UTF-8 byte-order mark.
        path = tmp_path / "bom.csv"
        path.write_text(HEADER + "\nc1,u1,2023-05-01T08:00:00Z,1.0,2.0,Park,,,\n",
                        encoding="utf-8-sig")
        result = parse_checkins(path)
        assert [c.checkin_id for c in result] == ["c1"] and not result.rejects


class TestParseJsonl:
    def test_objects_and_rejects(self):
        src = io.StringIO(
            '{"checkin_id":"c1","user_id":"u1","timestamp":"2023-05-01T08:00:00Z",'
            '"lat":1.3,"lon":103.8,"category":"Park"}\n'
            "not json\n"
            "[1,2]\n"
        )
        result = parse_checkins(src, format="jsonl")
        assert [c.checkin_id for c in result] == ["c1"]
        assert [(r.line_no, r.reason) for r in result.rejects] == [
            (2, "invalid JSON"),
            (3, "expected a JSON object"),
        ]

    def test_boolean_coordinates_rejected(self):
        # float(True) is 1.0, but a JSON boolean is no more a coordinate
        # than the text True in a CSV.
        row = ('{"checkin_id":"c%d","user_id":"u1","timestamp":"2023-05-01T08:00:00Z",'
               '"lat":%s,"lon":%s,"category":"Park"}\n')
        src = io.StringIO(row % (1, "true", "103.8") + row % (2, "1.3", "false"))
        result = parse_checkins(src, format="jsonl")
        assert not result.checkins
        assert [(r.line_no, r.reason) for r in result.rejects] == [
            (1, "non-numeric coordinates"),
            (2, "non-numeric coordinates"),
        ]

    def test_coordinates_beyond_float_range(self):
        # A JSON integer too large for a float is no number; the text 1e400
        # is infinity, which no latitude reaches.
        row = ('{"checkin_id":"c%d","user_id":"u1","timestamp":"2023-05-01T08:00:00Z",'
               '"lat":%s,"lon":103.8,"category":"Park"}\n')
        src = io.StringIO(row % (1, "1" + "0" * 400) + row % (2, '"1e400"')
                          + row % (3, '" 1.3 "'))
        result = parse_checkins(src, format="jsonl")
        assert [(r.line_no, r.reason) for r in result.rejects] == [
            (1, "non-numeric coordinates"),
            (2, "lat out of range"),
        ]
        assert [c.lat for c in result] == [1.3]

    def test_nan_coordinates_are_non_numeric(self):
        row = ('{"checkin_id":"c%d","user_id":"u1","timestamp":"2023-05-01T08:00:00Z",'
               '"lat":%s,"lon":%s,"category":"Park"}\n')
        src = io.StringIO(row % (1, "NaN", "103.8") + row % (2, "1.3", '"nan"')
                          + row % (3, '"nan"', "NaN") + row % (4, "1.3", "-Infinity")
                          + row % (5, "1.3", "103.8"))
        result = parse_checkins(src, format="jsonl")
        assert [(r.line_no, r.reason) for r in result.rejects] == [
            (1, "non-numeric coordinates"),
            (2, "non-numeric coordinates"),
            (3, "non-numeric coordinates"),
            (4, "lon out of range"),
        ]
        assert [c.checkin_id for c in result] == ["c5"]

    def test_underscored_coordinate_strings_rejected(self):
        row = ('{"checkin_id":"c%d","user_id":"u1","timestamp":"2023-05-01T08:00:00Z",'
               '"lat":%s,"lon":%s,"category":"Park"}\n')
        src = io.StringIO(row % (1, '"1_3"', "103.8") + row % (2, "1.3", '"10_3.8"')
                          + row % (3, '"1.3"', '"103.8"'))
        result = parse_checkins(src, format="jsonl")
        assert [(r.line_no, r.reason) for r in result.rejects] == [
            (1, "non-numeric coordinates"),
            (2, "non-numeric coordinates"),
        ]
        assert [(c.lat, c.lon) for c in result] == [(1.3, 103.8)]

    def test_several_missing_fields_name_the_first(self):
        src = io.StringIO(
            '{"checkin_id":"c1","timestamp":"","lat":1.3,"category":"Park"}\n'
            '{"checkin_id":"c2","user_id":"u1","timestamp":"2023-05-01T08:00:00Z",'
            '"lat":" ","lon":null,"category":"Park"}\n'
            '{"checkin_id":"c3","user_id":"u1","timestamp":"2023-05-01T08:00:00Z",'
            '"lat":0,"lon":0,"category":"Park"}\n'
        )
        result = parse_checkins(src, format="jsonl")
        assert [(r.line_no, r.reason) for r in result.rejects] == [
            (1, "missing user_id"),
            (2, "missing lat"),
        ]
        assert [(c.lat, c.lon) for c in result] == [(0.0, 0.0)]

    def test_trailing_garbage_and_inner_byte_order_mark(self):
        row = ('{"checkin_id":"c%d","user_id":"u1","timestamp":"2023-05-01T08:00:00Z",'
               '"lat":1.3,"lon":103.8,"category":"Park"}')
        src = io.StringIO(
            row % 1 + "\n"
            + row % 2 + " x\n"
            + row % 3 + "}\n"
            + "\ufeff" + row % 4 + "\n"
            + "  " + row % 5 + " \n"
        )
        result = parse_checkins(src, format="jsonl")
        assert [c.checkin_id for c in result] == ["c1", "c5"]
        assert [(r.line_no, r.reason) for r in result.rejects] == [
            (2, "invalid JSON"),
            (3, "invalid JSON"),
            (4, "invalid JSON"),
        ]

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_checkins(io.StringIO(""), format="parquet")

    def test_list_or_object_fields_rejected(self):
        # str() would turn ["Park"] into the category "['Park']"; brackets
        # and braces inside a string are text like any other.
        row = ('{"checkin_id":%s,"user_id":"u1","timestamp":"2023-05-01T08:00:00Z",'
               '"lat":1.3,"lon":103.8,"category":%s}\n')
        src = io.StringIO(
            row % ('"c1"', '["Park"]')
            + row % ('{"a": 1}', '"Park"')
            + row % ('"c3"', '{"name": "Park"}')
            + row % ('"c4"', '"Park [north] {gate}"')
            + row % ('"c5"', '[]')
        )
        result = parse_checkins(src, format="jsonl")
        assert [(c.checkin_id, c.category) for c in result] == [("c4", "Park [north] {gate}")]
        assert [(r.line_no, r.reason) for r in result.rejects] == [
            (1, "category is a JSON list or object"),
            (2, "checkin_id is a JSON list or object"),
            (3, "category is a JSON list or object"),
            (5, "category is a JSON list or object"),
        ]

    def test_byte_order_mark_accepted(self, tmp_path):
        path = tmp_path / "bom.jsonl"
        path.write_text(
            '{"checkin_id":"c1","user_id":"u1","timestamp":"2023-05-01T08:00:00Z",'
            '"lat":1.3,"lon":103.8,"category":"Park"}\n',
            encoding="utf-8-sig",
        )
        result = parse_checkins(path, format="jsonl")
        assert [c.checkin_id for c in result] == ["c1"] and not result.rejects


class TestCheckInRecord:
    RECORD = CheckIn("c1", "u1", datetime(2023, 5, 1, 8, tzinfo=timezone.utc),
                     1.3, 103.8, "Park", "Garden", "female", None)

    def test_fields_in_header_order_with_defaults(self):
        fields = dataclasses.fields(CheckIn)
        assert tuple(f.name for f in fields) == CSV_HEADER
        assert [f.default for f in fields[6:]] == ["", None, None]
        short = CheckIn("c1", "u1", self.RECORD.timestamp, 1.3, 103.8, "Park")
        assert (short.subcategory, short.gender, short.origin) == ("", None, None)

    def test_replace(self):
        moved = dataclasses.replace(self.RECORD, category="Zoo", origin="Japan")
        assert (moved.category, moved.origin) == ("Zoo", "Japan")
        assert dataclasses.replace(moved, category="Park", origin=None) == self.RECORD
        assert self.RECORD.category == "Park"

    @pytest.mark.parametrize("name", ["category", "gender"])
    def test_frozen(self, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(self.RECORD, name, "x")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(self.RECORD, name)

    def test_no_attribute_beyond_the_fields(self):
        # Slotted, CPython 3.10-3.12 raise TypeError here rather than
        # FrozenInstanceError: the generated __setattr__ names the class
        # that slots=True replaces.
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            self.RECORD.extra = "x"
        assert not hasattr(self.RECORD, "extra")

    def test_eq_hash_and_repr(self):
        values = tuple(getattr(self.RECORD, name) for name in CSV_HEADER)
        twin = CheckIn(*values)
        assert twin == self.RECORD and twin is not self.RECORD
        assert hash(twin) == hash(self.RECORD) == hash(values)
        assert dataclasses.replace(self.RECORD, lat=1.4) != self.RECORD
        assert self.RECORD != values
        assert repr(self.RECORD) == (
            "CheckIn(checkin_id='c1', user_id='u1', timestamp=datetime.datetime("
            "2023, 5, 1, 8, 0, tzinfo=datetime.timezone.utc), lat=1.3, lon=103.8, "
            "category='Park', subcategory='Garden', gender='female', origin=None)"
        )

    def test_slotted(self):
        assert not hasattr(self.RECORD, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(self.RECORD)

    def test_pickle_and_deepcopy_round_trip(self):
        parsed = parse_checkins(csv_source(
            "c2,u2,2023-05-01T08:00:00Z,1.3,103.8,Park,,male,Japan"
        )).checkins[0]
        for record in (self.RECORD, parsed):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(record, protocol)) == record
            clone = copy.deepcopy(record)
            assert clone == record and type(clone) is CheckIn

    def test_parsed_record_is_a_plain_checkin(self):
        # parse_checkins fills a private class with CheckIn's slots and then
        # makes it a CheckIn; nothing may tell the two kinds of record apart.
        assert _Draft.__slots__ == CheckIn.__slots__
        parsed = parse_checkins(csv_source(
            "c1,u1,2023-05-01T08:00:00Z,1.3,103.8,Park,Garden,female,"
        )).checkins[0]
        built = CheckIn(*(getattr(self.RECORD, name) for name in CSV_HEADER))
        assert type(parsed) is CheckIn and isinstance(parsed, CheckIn)
        assert parsed == built == self.RECORD and hash(parsed) == hash(built)
        assert repr(parsed) == repr(built)
        assert sys.getsizeof(parsed) == sys.getsizeof(built)
        moved = dataclasses.replace(parsed, category="Zoo")
        assert type(moved) is CheckIn and moved.category == "Zoo"
        assert parsed.category == "Park"
        for name in CSV_HEADER:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(parsed, name, "x")
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(parsed, name)
        assert parsed == built


class TestTextSharing:
    SHARED = ("user_id", "category", "subcategory", "gender", "origin")

    @staticmethod
    def write(tmp_path, fmt):
        # equal text in both rows, padded in the second so that stripping
        # makes a string of its own
        ts = datetime(2023, 5, 1, 8, tzinfo=timezone.utc)
        rows = [
            CheckIn("c1", "tourist-1", ts, 1.3, 103.8, "Nature Park", "Garden",
                    "female", "Malaysia"),
            CheckIn("c2", " tourist-1 ", ts, 1.3, 103.8, " Nature Park ", " Garden ",
                    " female ", " Malaysia "),
        ]
        path = tmp_path / f"shared.{fmt}"
        with open(path, "w", encoding="utf-8", newline="") as fp:
            serialize_checkins(rows, fp, fmt)
        return path

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_equal_values_share_one_string_per_call(self, tmp_path, fmt):
        path = self.write(tmp_path, fmt)
        first, second = parse_checkins(path, fmt).checkins
        assert first.user_id == "tourist-1" and first.origin == "Malaysia"
        for name in self.SHARED:
            assert getattr(first, name) is getattr(second, name), name
        again = parse_checkins(path, fmt).checkins[0]
        assert again == first
        for name in self.SHARED:
            assert getattr(again, name) is not getattr(first, name), name

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_parsed_rows_stay_small(self, tmp_path, fmt):
        # About 600 bytes a row when every record holds its own text and
        # __dict__; about 270 when records are slotted and share their text.
        path = tmp_path / f"sample.{fmt}"
        with open(path, "w", encoding="utf-8", newline="") as fp:
            serialize_checkins(generate_synthetic(GeneratorConfig(n_users=222), seed=5),
                               fp, fmt)
        parse_checkins(path, fmt)  # load whatever parsing imports lazily
        tracemalloc.start()
        try:
            result = parse_checkins(path, fmt)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(result) > 1900 and not result.rejects
        assert held / len(result) <= 400


def _first_match_reference(amap, category):
    """ActivityMap.first_match as it was before its rules were compiled: each
    rule in turn through fnmatchcase."""
    folded = category.casefold()
    for rule in amap.rules:
        if fnmatchcase(folded, rule.pattern.casefold()):
            return rule
    return None


# Words whose case variants casefold alike or not: "ß" folds to "ss", "İ" to
# "i" and a combining dot, and the Kelvin sign to "k".
_RULE_WORDS = ("park", "Straße", "STRASSE", "İstanbul", "istanbul", "\u212aelvin", "kelvin",
               "Asian Restaurant")
_CASES = (str, str.upper, str.lower, str.casefold, str.swapcase)


@st.composite
def _rule_pattern(draw):
    """A case variant of a word, as a literal or as a glob: "*" or "?" in
    place of some letters, a "[...]" or "[!...]" class, or an unclosed "["."""
    word = draw(st.sampled_from(_CASES))(draw(st.sampled_from(_RULE_WORDS)))
    i = draw(st.integers(0, len(word) - 1))
    j = draw(st.integers(i, len(word)))
    return draw(st.sampled_from((
        word,
        word[:i] + "*" + word[j:],
        "*" + word[i:j] + "*",
        word[:i] + "?" + word[i + 1:],
        word[:i] + "[" + word[i] + word[i].swapcase() + "]" + word[i + 1:],
        word[:i] + "[!" + word[i] + "]" + word[i + 1:],
        word[:i] + "[" + word[i:],
        word + "[",
    )))


@st.composite
def _activity_maps(draw):
    """Up to 8 rules, literal and glob, then up to 3 repeating an earlier
    rule's pattern with another target, all in any order; None drops."""
    rules = draw(st.lists(st.builds(ActivityRule, _rule_pattern(),
                                    st.sampled_from(("A", "B", None))), max_size=8))
    if rules:
        rules += draw(st.lists(st.builds(ActivityRule, st.sampled_from([r.pattern for r in rules]),
                                         st.sampled_from(("C", None))), max_size=3))
    return ActivityMap(tuple(draw(st.permutations(rules))))


class TestActivityMap:
    MAP = ActivityMap((
        ActivityRule("*airport*", None),
        ActivityRule("asian restaurant", "Dining"),
        ActivityRule("*restaurant*", "Refreshments"),
        ActivityRule("park", "Nature"),
    ))

    def test_first_match_wins(self):
        assert self.MAP.match("Asian Restaurant") == "Dining"
        assert self.MAP.match("French Restaurant") == "Refreshments"

    def test_matching_is_case_insensitive(self):
        assert self.MAP.match("PARK") == "Nature"

    def test_drop_marker(self):
        assert self.MAP.match("Changi Airport-Gate") is None

    def test_unmatched_falls_back_to_default(self):
        assert self.MAP.match("Bowling Alley") == "Other"

    def test_apply_counts_drops_and_unmatched(self):
        checkins = [
            ci(cat="Changi Airport"),
            ci(cat="Park", ts="2023-05-01T09:00:00+00:00"),
            ci(cat="Bowling Alley", ts="2023-05-01T10:00:00+00:00"),
        ]
        tagged = apply_activity_map(checkins, self.MAP)
        assert [a for _, a in tagged] == ["Nature", "Other"]
        assert len(tagged) == 2
        assert tagged.dropped == 1
        assert tagged.unmatched == {"Bowling Alley": 1}

    @settings(max_examples=300, deadline=None)
    @given(amap=_activity_maps(), data=st.data())
    @example(  # a glob ahead of a literal that both match
        amap=ActivityMap((ActivityRule("*ark", "A"), ActivityRule("park", "B"))),
        data=None,
    )
    def test_first_match_matches_fnmatchcase(self, amap, data):
        # The same rule object as fnmatchcase over each rule in turn, for the
        # patterns' own text and the words', in every case variant.
        texts = [r.pattern for r in amap.rules] + list(_RULE_WORDS)
        categories = [case(text) for text in texts for case in _CASES]
        if data is not None:
            categories += data.draw(st.lists(st.sampled_from(texts).flatmap(
                lambda t: st.sampled_from(_CASES).map(lambda case: case(t)))))
        for category in categories:
            assert amap.first_match(category) is _first_match_reference(amap, category)
        # the compiled rules are not part of the map's value
        rebuilt = ActivityMap(amap.rules)
        copies = (pickle.loads(pickle.dumps(amap)), copy.deepcopy(amap),
                  dataclasses.replace(amap), rebuilt)
        for other in copies:
            assert other == amap and hash(other) == hash(amap)
            assert repr(other) == repr(amap) == f"ActivityMap(rules={amap.rules!r})"
            for category in categories:
                assert other.first_match(category) == _first_match_reference(amap, category)
        reversed_map = dataclasses.replace(amap, rules=amap.rules[::-1])
        for category in categories:
            assert (reversed_map.first_match(category)
                    is _first_match_reference(reversed_map, category))

    @settings(max_examples=80, deadline=None)
    @given(st.lists(
        st.sampled_from((
            "Museum", "Changi Airport", "Asian Restaurant", "French Restaurant",
            "Park", "Bowling Alley", "Zoo",
        )).flatmap(lambda c: st.sampled_from((c, c.lower(), c.upper()))),
        max_size=40,
    ))
    def test_apply_matches_per_checkin_tagging(self, categories):
        # Museum varies in case against a lower-case rule; Bowling Alley and
        # Zoo match no rule, Changi Airport a drop rule.
        amap = ActivityMap((*self.MAP.rules, ActivityRule("museum", "Culture")))
        checkins = [ci(cat=cat, cid=f"c{i}") for i, cat in enumerate(categories)]
        activities = [amap.match(c.category) for c in checkins]
        result = apply_activity_map(checkins, amap)
        assert result.tagged == tuple(
            (c, a) for c, a in zip(checkins, activities) if a is not None
        )
        assert result.dropped == activities.count(None)
        assert result.unmatched == Counter(
            c.category for c in checkins if amap.first_match(c.category) is None
        )


class TestWindows:
    def test_half_open_boundaries(self):
        morning = DEFAULT_WINDOWS[0]
        assert morning.contains(7 * 60)
        assert morning.contains(13 * 60 + 59)
        assert not morning.contains(14 * 60)
        assert not morning.contains(6 * 60 + 59)

    def test_end_of_day_window(self):
        w = WindowSpec.parse("late", "14:00", "24:00")
        assert w.contains(23 * 60 + 59)

    def test_invalid_window_rejected(self):
        with pytest.raises(InvalidConfigError):
            WindowSpec("bad", 600, 600)
        with pytest.raises(ValueError):
            WindowSpec.parse("bad", "7:00", "24:01")

    def test_segmentation_by_local_time(self):
        tz = resolve_timezone("+08:00")
        tagged = [
            (ci(ts="2023-05-01T05:59:00+08:00"), "Nature"),   # before all windows
            (ci(ts="2023-05-01T13:59:00+08:00"), "Dining"),
            (ci(ts="2023-05-01T14:00:00+08:00"), "Shopping"),
        ]
        groups = segment_windows(tagged, DEFAULT_WINDOWS, tz)
        # the 05:59 check-in is in no group
        assert {k: [a for _, a in v] for k, v in groups.items()} == {
            ("u1", "morning"): ["Dining"],
            ("u1", "afternoon"): ["Shopping"],
        }

    def test_overlapping_windows_duplicate_membership(self):
        windows = (
            WindowSpec("all", 0, 24 * 60),
            WindowSpec("morning", 7 * 60, 14 * 60),
        )
        groups = segment_windows([(ci(ts="2023-05-01T08:00:00+00:00"), "Nature")], windows)
        assert set(groups) == {("u1", "all"), ("u1", "morning")}

    def test_timezone_resolution(self):
        assert resolve_timezone("UTC") == timezone.utc
        assert resolve_timezone("+08:00") == timezone(timedelta(hours=8))
        assert resolve_timezone("-05:30") == timezone(-timedelta(hours=5, minutes=30))
        assert resolve_timezone("+23:59") == timezone(timedelta(hours=23, minutes=59))
        for bad in ("Mars/Olympus", "+24:00", "+99:00", "+08:75"):
            with pytest.raises(InvalidConfigError):
                resolve_timezone(bad)


def decoded(db):
    """Each sequence of db as a tuple of label tuples."""
    return [
        tuple(tuple(db.dictionary.decode(i) for i in elem) for elem in seq)
        for seq in db.sequences
    ]


_group_records = st.lists(
    st.tuples(st.integers(0, 5), st.sampled_from(("Dining", "Nature", "Shopping"))),
    min_size=1,
    max_size=12,
)


class TestSequenceAssembly:
    def test_same_instant_checkins_merge(self):
        groups = {("u1", "morning"): [
            (ci(ts="2023-05-01T08:00:00+00:00", cid="a"), "Nature"),
            (ci(ts="2023-05-01T08:00:00+00:00", cid="b"), "Shopping"),
            (ci(ts="2023-05-01T09:00:00+00:00", cid="c"), "Dining"),
        ]}
        db = build_sequences(groups)
        assert decoded(db) == [(("Nature", "Shopping"), ("Dining",))]
        assert db.seq_ids == ("u1|morning",)

    def test_merge_resolution_window_anchors_at_first(self):
        # Only check-ins at the same instant share an element, however
        # close together the others are.
        groups = {("u1", None): [
            (ci(ts="2023-05-01T08:00:00+00:00", cid="a"), "A"),
            (ci(ts="2023-05-01T08:00:50+00:00", cid="b"), "B"),
            (ci(ts="2023-05-01T08:01:50+00:00", cid="c"), "C"),
        ]}
        db = build_sequences(groups)
        assert decoded(db) == [(("A",), ("B",), ("C",))]
        assert db.seq_ids == ("u1",)

    def test_duplicate_activity_in_element_collapses(self):
        groups = {("u1", None): [
            (ci(ts="2023-05-01T08:00:00+00:00", cid="a"), "Nature"),
            (ci(ts="2023-05-01T08:00:00+00:00", cid="b"), "Nature"),
        ]}
        assert decoded(build_sequences(groups)) == [(("Nature",),)]

    def test_one_item_elements_are_shared(self):
        groups = {
            ("u1", None): [
                (ci(ts="2023-05-01T08:00:00+00:00", cid="a"), "Nature"),
                (ci(ts="2023-05-01T09:00:00+00:00", cid="b"), "Shopping"),
                (ci(ts="2023-05-01T09:00:00+00:00", cid="c"), "Nature"),
                (ci(ts="2023-05-01T09:00:00+00:00", cid="d"), "Shopping"),
                (ci(ts="2023-05-01T10:00:00+00:00", cid="e"), "Nature"),
            ],
            ("u2", None): [
                (ci(user="u2", ts="2023-05-01T08:00:00+00:00", cid="f"), "Shopping"),
                (ci(user="u2", ts="2023-05-01T11:00:00+00:00", cid="g"), "Nature"),
            ],
        }
        db = build_sequences(groups)
        nature, shopping = db.dictionary.encode("Nature"), db.dictionary.encode("Shopping")
        (n1, pair, n2), (s1, n3) = db.sequences
        assert n1 == n2 == n3 == (nature,) and s1 == (shopping,)
        assert n1 is n2 is n3
        assert pair == tuple(sorted((nature, shopping)))
        by_value = {}
        for seq in db.sequences:
            for elem in seq:
                if len(elem) == 1:
                    assert by_value.setdefault(elem, elem) is elem

    def test_negative_resolution_rejected(self):
        # No entry point takes a merge window.
        with pytest.raises(TypeError):
            build_sequences({}, merge_resolution=-1)
        with pytest.raises(TypeError):
            run_pipeline([], ActivityMap(()), merge_resolution=-1)

    def test_database_assembly(self):
        groups = {
            ("u2", "morning"): [(ci(user="u2", cid="x"), "Shopping")],
            ("u1", "morning"): [(ci(cid="y"), "Nature")],
        }
        db = build_sequences(groups)
        assert db.seq_ids == ("u1|morning", "u2|morning")
        assert sorted(db.dictionary.labels) == ["Nature", "Shopping"]

    @settings(max_examples=60, deadline=None)
    @given(
        records=st.dictionaries(
            st.tuples(st.sampled_from(("u1", "u2")), st.sampled_from((None, "am", "pm"))),
            _group_records,
            max_size=5,
        ),
        data=st.data(),
    )
    def test_elements_are_the_activities_of_each_instant(self, records, data):
        # Instants repeat and activities repeat within an instant.  Element k
        # holds exactly the activities at the group's k-th distinct instant,
        # whatever the order of the group's records, and every one-item
        # element of an activity is one shared tuple, a repeated one's too.
        base = datetime(2023, 5, 1, 8, tzinfo=timezone.utc)
        groups = {
            key: [
                (CheckIn(f"c{i}", key[0], base + timedelta(minutes=m), 1.3, 103.8, "Park"),
                 activity)
                for i, (m, activity) in enumerate(recs)
            ]
            for key, recs in records.items()
        }
        db = build_sequences(groups)
        shuffled = {key: data.draw(st.permutations(recs)) for key, recs in groups.items()}
        assert build_sequences(shuffled) == db
        keys = sorted(groups, key=lambda k: (k[0], k[1] or ""))
        assert db.seq_ids == tuple(u if w is None else f"{u}|{w}" for u, w in keys)
        for key, seq in zip(keys, decoded(db), strict=True):
            instants = sorted({c.timestamp for c, _ in groups[key]})
            assert seq == tuple(
                tuple(sorted({a for c, a in groups[key] if c.timestamp == t}))
                for t in instants
            )
        shared = {}
        for elem in (e for seq in db.sequences for e in seq if len(e) == 1):
            assert shared.setdefault(elem, elem) is elem

    def test_out_of_order_groups_build_as_sorted(self):
        # A group is built in the order given until a record steps back in
        # time; such a group is sorted and built again.  Each builds the
        # elements of its sorted records.
        base = datetime(2023, 5, 1, 8, tzinfo=timezone.utc)
        cases = {
            "last pair": [(0, "Dining"), (1, "Nature"), (3, "Shopping"), (2, "Zoo")],
            "newest first": [(3, "Dining"), (2, "Nature"), (1, "Shopping"), (0, "Zoo")],
            "equal runs": [(1, "Dining"), (1, "Zoo"), (2, "Nature"), (2, "Shopping"),
                           (1, "Nature"), (1, "Dining"), (2, "Zoo"), (3, "Dining")],
            "one pair": [(5, "Nature")],
            "two pairs": [(5, "Nature"), (4, "Dining")],
        }
        groups = {
            (user, None): [
                (CheckIn(f"{user}{i}", user, base + timedelta(minutes=m), 1.3, 103.8, "Park"),
                 activity)
                for i, (m, activity) in enumerate(recs)
            ]
            for user, recs in cases.items()
        }
        in_order = {key: sorted(recs, key=lambda p: p[0].timestamp)
                    for key, recs in groups.items()}
        db = build_sequences(groups)
        assert db == build_sequences(in_order)
        assert dict(zip(db.seq_ids, decoded(db))) == {
            "last pair": (("Dining",), ("Nature",), ("Zoo",), ("Shopping",)),
            "newest first": (("Zoo",), ("Shopping",), ("Nature",), ("Dining",)),
            "equal runs": (("Dining", "Nature", "Zoo"), ("Nature", "Shopping", "Zoo"),
                           ("Dining",)),
            "one pair": (("Nature",),),
            "two pairs": (("Dining",), ("Nature",)),
        }


    @settings(max_examples=80, deadline=None)
    @given(
        records=st.dictionaries(
            st.tuples(st.sampled_from(("u1", "u2", "u3")),
                      st.sampled_from((None, "am", "pm"))),
            st.lists(
                st.tuples(st.integers(0, 4), st.sampled_from((0, 8, -5)),
                          st.sampled_from(("Dining", "Nature", "Shopping", "Zoo"))),
                min_size=1,
                max_size=10,
            ),
            max_size=6,
        )
    )
    def test_encodes_like_from_raw(self, records):
        # Instants repeat, in zones of different offsets, and activities
        # repeat within an instant; each group's records come unsorted.
        # Encoding once per database gives what encoding the label lists of
        # each instant through from_raw gives.
        base = datetime(2023, 5, 1, 8, tzinfo=timezone.utc)
        groups = {
            key: [
                (CheckIn(f"c{i}", key[0],
                         (base + timedelta(minutes=m)).astimezone(timezone(timedelta(hours=h))),
                         1.3, 103.8, "Park"),
                 activity)
                for i, (m, h, activity) in enumerate(recs)
            ]
            for key, recs in records.items()
        }
        keys = sorted(groups, key=lambda k: (k[0], k[1] or ""))
        raw = []
        for key in keys:
            instants = sorted({c.timestamp for c, _ in groups[key]})
            raw.append([[a for c, a in groups[key] if c.timestamp == t] for t in instants])
        seq_ids = [u if w is None else f"{u}|{w}" for u, w in keys]
        assert build_sequences(groups) == SequenceDatabase.from_raw(raw, seq_ids)

class TestConfigParsing:
    def test_rules_and_windows(self):
        amap, windows = parse_config(
            "# comment\n"
            "\n"
            "window morning 07:00 14:00\n"
            "*airport* = -\n"
            "park = Nature\n"
        )
        assert [(w.name, w.start_minute, w.end_minute) for w in windows] == [
            ("morning", 420, 840)
        ]
        assert [r.pattern for r in amap.rules if r.activity is None] == ["*airport*"]
        assert amap.match("Park") == "Nature"

    @pytest.mark.parametrize("line,fragment", [
        ("window morning 07:00", "line 1"),
        ("window w 25:00 26:00", "line 1"),
        ("= Nature", "line 1"),
        ("park =", "line 1"),
        ("just some words", "line 1"),
    ])
    def test_errors_carry_line_numbers(self, line, fragment):
        with pytest.raises(FormatError, match=fragment):
            parse_config(line)

    def test_packaged_default(self):
        amap, windows = default_config()
        assert [(w.name, w.start_minute, w.end_minute) for w in windows] == [
            ("morning", 420, 840),
            ("afternoon", 840, 1440),
        ]
        assert [r.pattern for r in amap.rules if r.activity is None] == ["*airport*"]
        assert amap.match("Changi Airport") is None
        assert amap.match("Asian Restaurant") == "Dining"
        assert amap.match("Bowling Alley") == "Other"

    def test_packaged_windows_are_the_default_constant(self):
        # run_pipeline and the CLI fall back to DEFAULT_WINDOWS
        assert default_config()[1] == DEFAULT_WINDOWS

    def test_byte_order_mark_before_first_rule(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_text("*airport* = -\npark = Nature\n", encoding="utf-8-sig")
        amap, _ = load_config(path)
        assert amap.rules[0].pattern == "*airport*"
        tagged = apply_activity_map([ci(cat="Changi Airport")], amap)
        assert tagged.dropped == 1 and not tagged.tagged


class TestSettingValues:
    def test_bad_values_raise_invalid_config(self, letters_db):
        patterns = mine(letters_db, MinerConfig(min_support=2))
        with pytest.raises(InvalidConfigError, match="sort_key"):
            build_report(patterns, letters_db, sort_key="lift")
        with pytest.raises(InvalidConfigError, match="format"):
            parse_checkins(io.StringIO(""), format="parquet")
        with pytest.raises(InvalidConfigError, match="format"):
            serialize_checkins([], io.StringIO(), format="xml")


class TestRunPipeline:
    CHECKINS = [
        ci(ts="2023-05-01T08:00:00+00:00", cid="a", cat="Park"),
        ci(ts="2023-05-01T15:00:00+00:00", cid="b", cat="Mall"),
        ci(ts="2023-05-01T03:00:00+00:00", cid="c", cat="Pier"),
        ci(user="u2", ts="2023-05-01T09:00:00+00:00", cid="d", cat="Changi Airport"),
    ]
    MAP = ActivityMap((
        ActivityRule("*airport*", None),
        ActivityRule("park", "Nature"),
        ActivityRule("mall", "Shopping"),
        ActivityRule("pier", "Scenery"),
    ))

    def test_window_grouping_drops_unwindowed(self):
        result = run_pipeline(self.CHECKINS, self.MAP)
        assert result.database.seq_ids == ("u1|afternoon", "u1|morning")
        assert result.tag_result.dropped == 1

    def test_trip_grouping(self):
        result = run_pipeline(self.CHECKINS, self.MAP, grouping="trip")
        assert result.database.seq_ids == ("u1",)
        (seq,) = result.database.sequences
        # whole stay in time order: Pier 03:00, Park 08:00, Mall 15:00
        assert seq.render(result.database.dictionary) == "(Scenery),(Nature),(Shopping)"

    def test_invalid_grouping(self):
        with pytest.raises(InvalidConfigError):
            run_pipeline([], self.MAP, grouping="session")

    def test_group_by_user_covers_all(self):
        tagged = apply_activity_map(self.CHECKINS, self.MAP)
        groups = group_by_user(tagged.tagged)
        assert set(groups) == {("u1", None)}

    @pytest.mark.parametrize("group", [group_by_user, segment_windows])
    def test_groups_hold_the_tagged_pairs_themselves(self, group):
        tagged = apply_activity_map(self.CHECKINS, self.MAP).tagged
        members = [pair for pairs in group(tagged).values() for pair in pairs]
        assert members
        assert all(any(pair is t for t in tagged) for pair in members)


# ---------------------------------------------------------------------------
# ingest properties

_window_lists = st.lists(
    st.integers(0, 24 * 60 - 1).flatmap(
        lambda start: st.tuples(st.just(start), st.integers(start + 1, 24 * 60))
    ),
    min_size=1,
    max_size=4,
).map(lambda spans: tuple(WindowSpec(f"w{i}", a, b) for i, (a, b) in enumerate(spans)))

# Labels without ASCII, control or separator characters: no whitespace for
# the parser to strip and no glob, CSV or rendering punctuation.
_non_ascii_labels = st.text(
    st.characters(min_codepoint=0x80, exclude_categories=("C", "Z")), min_size=2, max_size=6
)


# One window per minute of the day, so a check-in's window names its local minute.
_MINUTE_WINDOWS = tuple(WindowSpec(f"{m:04d}", m, m + 1) for m in range(24 * 60))


def _iana_zones(*names):
    try:
        return tuple(ZoneInfo(name) for name in names)
    except ZoneInfoNotFoundError:  # no tz database on this system
        return ()


# Fixed offsets, odd ones included, and zones whose offset changes: New York
# by an hour, Lord Howe by 30 minutes, Kathmandu to +05:45 in 1986 and
# Amsterdam from +00:19:32 to +00:20 in 1937.
_ZONES = (
    timezone.utc,
    timezone(timedelta(hours=8)),
    timezone(-timedelta(hours=5, minutes=30)),
    timezone(timedelta(hours=23, minutes=59)),
    timezone(-timedelta(hours=23, minutes=59)),
    timezone(timedelta(minutes=19, seconds=32)),
    timezone(timedelta(seconds=30, microseconds=500000)),
) + _iana_zones(
    "America/New_York", "Australia/Lord_Howe", "Asia/Kathmandu", "Europe/Amsterdam"
)

# UTC instants at which one of those zones changes its offset, and the ends
# of the range parse_checkins accepts.
_ANCHORS = (
    datetime(2023, 3, 12, 7, tzinfo=timezone.utc),
    datetime(2023, 11, 5, 6, tzinfo=timezone.utc),
    datetime(2023, 4, 1, 15, tzinfo=timezone.utc),
    datetime(2023, 9, 30, 15, 30, tzinfo=timezone.utc),
    datetime(1985, 12, 31, 18, 30, tzinfo=timezone.utc),
    datetime(1937, 6, 30, 23, 40, 28, tzinfo=timezone.utc),
    datetime(1930, 1, 1, tzinfo=timezone.utc),
    _FIRST_INSTANT,
    _LAST_INSTANT,
)


def _csv_rows_reference(fp):
    """The CSV reader as it was before it called the validator itself: each
    non-blank row's line number and its fields, or why it is rejected."""
    reader = csv.reader(fp)
    try:
        header = next(reader)
        if tuple(h.strip() for h in header) != CSV_HEADER:
            raise FormatError(f"bad CSV header: expected {','.join(CSV_HEADER)}")
        for row in reader:
            if not row or not row[0].strip() and all(not c.strip() for c in row):
                continue
            if len(row) != len(CSV_HEADER):
                yield reader.line_num, f"expected {len(CSV_HEADER)} fields, got {len(row)}"
            else:
                yield reader.line_num, row
    except StopIteration:
        raise FormatError("empty input: missing CSV header")
    except csv.Error as exc:
        raise FormatError(f"line {reader.line_num}: {exc}")


def _jsonl_rows_reference(fp):
    """The JSONL reader as it was before it called the JSON scanner itself:
    json.loads on the whole line."""
    for line_no, line in enumerate(fp, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError):
            yield line_no, "invalid JSON"
            continue
        if not isinstance(obj, dict):
            yield line_no, "expected a JSON object"
            continue
        row = ["" if (v := obj.get(k)) is None else v for k in CSV_HEADER]
        if "[" in line or line.count("{") > 1:
            nested = [k for k, v in zip(CSV_HEADER, row) if isinstance(v, (list, dict))]
            if nested:
                yield line_no, f"{nested[0]} is a JSON list or object"
                continue
        yield line_no, row


def _parse_timestamp_reference(text: str) -> datetime:
    """A stripped ISO 8601 timestamp as a UTC instant; naive means UTC."""
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    ts = ts.astimezone(timezone.utc)
    if not _FIRST_INSTANT <= ts <= _LAST_INSTANT:
        raise ValueError("no local time in every supported zone")
    return ts


def _validate_row_reference(row: list, seen_ids: set[str], texts: dict[str, str]) -> CheckIn | str:
    """The row validator as it was before it parsed the timestamp itself and
    tested classes in place of isinstance: one check at a time.

    The row's fields, in CSV_HEADER order, as a CheckIn, or why it is rejected.

    texts maps each text value already kept to its kept string, so equal
    values share one object."""
    raw_id, user_id, raw_ts, lat, lon, category, subcategory, gender, origin = row
    # only text can be blank, and coordinates convert from their raw values
    required = (str(raw_id).strip(), str(user_id).strip(), str(raw_ts).strip(),
                lat.strip() if isinstance(lat, str) else lat,
                lon.strip() if isinstance(lon, str) else lon, str(category).strip())
    if "" in required:
        return f"missing {CSV_HEADER[required.index('')]}"
    cid, user_id, ts_text, _, _, category = required
    if cid in seen_ids:
        return f"duplicate checkin_id {cid!r}"
    try:
        ts = _parse_timestamp_reference(ts_text)
    except (ValueError, OverflowError):
        return f"bad timestamp {raw_ts!r}"
    # float() reads True as 1.0 and "1_3" as 13.0; neither is a coordinate
    if (isinstance(lat, bool) or isinstance(lon, bool)
            or isinstance(lat, str) and "_" in lat or isinstance(lon, str) and "_" in lon):
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


def _parse_checkins_reference(text, format):
    """parse_checkins on text through the reference reader and validator:
    the records and the (line_no, reason) list."""
    reader = _csv_rows_reference if format == "csv" else _jsonl_rows_reference
    seen, texts, checkins, rejects = set(), {}, [], []
    for line_no, raw in reader(io.StringIO(text, newline="")):
        row = raw if isinstance(raw, str) else _validate_row_reference(raw, seen, texts)
        if isinstance(row, str):
            rejects.append((line_no, row))
        else:
            checkins.append(row)
    return checkins, rejects


# A row for the validator: each field a value it accepts, then up to three
# fields a value that may make it reject the row.  Accepted values include
# padded text, the JSON types and timestamps with "Z", "z", no zone or an
# offset; the others include text that starts with a separator control
# str.strip() removes and float() does not, text holding "_", NaN,
# infinity, numbers beyond float range and instants outside the day-wide
# margins of datetime's range.  None is written as "" in a CSV and as null
# or nothing in JSONL.  The few ids repeat, also after a rejected row.
_GOOD_FIELDS = {
    "checkin_id": ("c1", " c1 ", "c2", 7, 7.0, True),
    "user_id": ("u1", " u1", "ü2", 0, False),
    "timestamp": (
        "2023-05-01T08:00:00Z", "2023-05-01T08:00:00z", " 2023-05-01T08:00:00 ",
        "2023-05-01T16:00:00+08:00", "2023-05-01T08:00:00+00:00",
        "2023-05-01T08:00:00.500000-03:30", "0001-01-02T00:00:00Z", "9999-12-30T23:59:59.999999",
    ),
    "lat": ("1.3", " 1.3 ", "-90", 1.3, 0, -90, 10**-300),
    "lon": ("103.8", " 103.8", "-180", 103.8, 180, -180.0),
    "category": ("Park", " Café ", 5, True, 0.0),
    "subcategory": ("", "City Park", " x ", 0, False, 1.5, None),
    "gender": ("", "female", " ", 0, True, None),
    "origin": ("SG", " MY ", "", 3, None),
}
_BAD_FIELDS = {
    "checkin_id": ("", " ", None),
    "user_id": ("", None),
    "timestamp": (
        "0001-01-01T23:59:59.999999Z", "0001-01-02T00:00:00+08:00", "0001-01-01T00:00:00+01:00",
        "9999-12-31T00:00:00Z", "9999-12-31T23:59:00-01:00", "not-a-time",
        "2023-13-01T00:00:00", "Z", "", 20230501, 1.5, True, None,
    ),
    "lat": ("\x1c1.3", "1_3", "nan", "inf", "1e400", "95", "", " ", "x", 95, True, False,
            10**30, -(10**400), float("nan"), float("inf"), 1e300, None),
    "lon": ("\x1c103.8", "10_3.8", "-nan", "-inf", "181", "y", "", 181, True, float("nan"),
            10**400, None),
    "category": ("", " ", None),
}


@st.composite
def _validator_row(draw):
    row = {k: draw(st.sampled_from(v)) for k, v in _GOOD_FIELDS.items()}
    for k in draw(st.lists(st.sampled_from(tuple(_BAD_FIELDS)), max_size=3, unique=True)):
        row[k] = draw(st.sampled_from(_BAD_FIELDS[k]))
    return row


# A nine-field JSONL row, every field filled.
_COMPLETE_ROW = ("c1", "u1", "2023-05-01T08:00:00Z", 1.3, 103.8, "Park", "City Park", "female",
                 "SG")

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)

# Text json.dumps never writes: NaN and Infinity, an integer too long for
# int(), nesting past the recursion limit, and broken values.
_odd_json = st.sampled_from((
    "NaN", "-Infinity", "Infinity", "1" * 5000, "-" + "9" * 5000, "[" * 100_000,
    "[" * 50 + "]" * 50, '{"a": ' * 100_000, "nan", "tru", r'"\x"', '"a\tb"', "",
))

# JSON whitespace, whitespace that str.strip() removes but JSON does not, and
# a byte-order mark
_padding = st.text(st.sampled_from(" \t\x0c\x1c\xa0\u2028\ufeff"), max_size=3)


@st.composite
def _jsonl_line(draw):
    kind = draw(st.sampled_from(("object", "object", "value", "odd")))
    if kind == "object":
        # each field missing, null or a JSON value, and now and then one odd
        fields = draw(st.lists(
            st.tuples(
                st.sampled_from(CSV_HEADER + ("extra",)),
                st.one_of(st.none(), _json_values,
                          st.sampled_from(("c1", "2023-05-01T08:00:00Z", 1.3, " 1.3 "))
                          ).map(json.dumps),
            ),
            max_size=len(CSV_HEADER) + 1,
        ))
        if draw(st.integers(0, 3)) == 0:
            fields.insert(draw(st.integers(0, len(fields))), ("lat", draw(_odd_json)))
        body = "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in fields) + "}"
    elif kind == "value":
        body = json.dumps(draw(_json_values), ensure_ascii=draw(st.booleans()))
    else:
        body = draw(_odd_json)
    tail = draw(st.sampled_from(("", "", "x", "}", "]", "{}", ' {"a": 1}', "\x00", "\ufeff")))
    return draw(_padding) + body + draw(_padding) + tail


_CSV_ROW = "{id},u1,2023-05-01T08:00:00Z,1.3,103.8,Park,,,"

# One CSV row, or a line or two, with no line end after it: a valid row,
# blank rows of any width, a blank first cell with other cells set, short
# and long rows, and quoted fields holding line ends.  The ids repeat.
_csv_piece = st.one_of(
    st.sampled_from(("c1", "c2", "c3")).map(lambda cid: _CSV_ROW.format(id=cid)),
    st.sampled_from((
        "", " ", "\t", ",", " , ", ",,,,,,,,", " ,\t,,,,,,, ", ",,,,,,,,,,",
        ",u1,2023-05-01T08:00:00Z,1.3,103.8,Park,,,", " ,,,,,,,,x", ",,x",
        "c1", "c1,u1,2023-05-01T08:00:00Z", _CSV_ROW.format(id="c4") + ",extra",
        'c5,u1,2023-05-01T08:00:00Z,1.3,103.8,"Park\nside",,,',
        'c6,u1,2023-05-01T08:00:00Z,1.3,103.8,Park,"a\r\nb\rc",,',
        '"\n",,,,,,,,', '" \r\n "', '"c7\n",u1',
    )),
)

# Text as parse_checkins gives it: stripped and printable, so with no
# surrogates and no whitespace but the space.
_text = st.text(
    st.characters(exclude_categories=("Cc", "Cf", "Cs", "Co", "Cn", "Zl", "Zp", "Zs"),
                  include_characters=" "),
    max_size=8,
).map(str.strip)

# An aware timestamp at any fixed offset whose UTC instant parse_checkins
# accepts.
_timestamps = st.builds(
    lambda instant, offset: instant.replace(tzinfo=timezone.utc).astimezone(timezone(offset)),
    st.datetimes(_FIRST_INSTANT.replace(tzinfo=None), _LAST_INSTANT.replace(tzinfo=None)),
    st.timedeltas(timedelta(hours=-24) + timedelta.resolution,
                  timedelta(hours=24) - timedelta.resolution),
)

_written_checkins = st.lists(
    st.builds(CheckIn, _text.filter(bool), _text.filter(bool), _timestamps,
              st.floats(-90, 90), st.floats(-180, 180), _text.filter(bool), _text,
              st.none() | _text, st.none() | _text),
    max_size=8,
    unique_by=lambda c: c.checkin_id,
)


class TestIngestProperties:
    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(_jsonl_line(), max_size=6),
        ends=st.lists(st.sampled_from(("\n", "\r\n", "\r")), min_size=6, max_size=6),
        last_end=st.booleans(),
    )
    @example(lines=["\x0c", " \x1c\xa0 ", "\x0c{}", '{"lat": 1} \xa0', "\t{}\t"],
             ends=["\n", "\r", "\r\n", "\n", "\r", "\n"], last_end=False)
    @example(  # complete objects: in header order, reversed with an extra key, and
        # with a key given twice, where JSON's last value wins, and a null
        lines=[
            json.dumps(dict(zip(CSV_HEADER, _COMPLETE_ROW))),
            json.dumps(dict([*reversed(list(zip(CSV_HEADER, _COMPLETE_ROW))), ("extra", 1)])),
            "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}"
                            for k, v in [*zip(CSV_HEADER, _COMPLETE_ROW),
                                         ("lat", -1.3), ("gender", None)]) + "}",
        ],
        ends=["\n"] * 6, last_end=True,
    )
    def test_jsonl_reader_matches_json_loads(self, lines, ends, last_end):
        # Same records and (line_no, reason) list as json.loads line by line
        # through the reference validator; records compare by repr, so NaN
        # equals NaN and 1 differs from 1.0.
        text = "".join(line + end for line, end in zip(lines, ends))
        if lines and not last_end:
            text = text.rstrip("\r\n")
        result = parse_checkins(io.StringIO(text, newline=""), "jsonl")
        checkins, rejects = _parse_checkins_reference(text, "jsonl")
        assert list(map(repr, result.checkins)) == list(map(repr, checkins))
        assert [(r.line_no, r.reason) for r in result.rejects] == rejects

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(_csv_piece, max_size=8),
        ends=st.lists(st.sampled_from(("\n", "\r\n", "\r")), min_size=9, max_size=9),
        last_end=st.booleans(),
    )
    @example(  # a blank first cell, blank rows of every width, and a quoted
        # line end inside a kept row and inside a blank one
        rows=[",u1,2023-05-01T08:00:00Z,1.3,103.8,Park,,,", " ,,,,,,,,", " ", "",
              'c1,u1,2023-05-01T08:00:00Z,1.3,103.8,"Park\r\nside",,,', '" \n",,,,,,,,',
              "c2,u1", _CSV_ROW.format(id="c3") + ",x"],
        ends=["\r", "\n", "\r\n", "\r", "\n", "\r\n", "\n", "\n", "\n"], last_end=True,
    )
    def test_csv_reader_matches_reference(self, rows, ends, last_end):
        # Same records and (line_no, reason) list as the reference reader,
        # which skips a blank row before it counts the row's fields and gives
        # the line number of a row's last line.
        text = HEADER + ends[-1] + "".join(row + end for row, end in zip(rows, ends))
        if rows and not last_end:
            text = text.rstrip("\r\n")
        result = parse_checkins(io.StringIO(text, newline=""), "csv")
        checkins, rejects = _parse_checkins_reference(text, "csv")
        assert list(map(repr, result.checkins)) == list(map(repr, checkins))
        assert [(r.line_no, r.reason) for r in result.rejects] == rejects

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(_validator_row(), max_size=10),
        absent_nulls=st.booleans(),
    )
    @example(  # a rejected row leaves its id free for a later row
        rows=[
            {**dict.fromkeys(CSV_HEADER, ""), "checkin_id": "c1", "user_id": "u1",
             "timestamp": ts, "lat": "1.3", "lon": "103.8", "category": "Park"}
            for ts in ("not-a-time", "2023-05-01T08:00:00Z", "2023-05-01T09:00:00Z")
        ],
        absent_nulls=False,
    )
    def test_validator_matches_reference(self, rows, absent_nulls):
        # parse_checkins gives the records, each in UTC, and the
        # (line_no, reason) list of the reference validator, as CSV and as
        # JSONL with nulls written out or left absent.
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(
            [CSV_HEADER] + [[row[k] for k in CSV_HEADER] for row in rows])
        jsonl = "".join(
            json.dumps({k: v for k, v in row.items() if v is not None or not absent_nulls}) + "\n"
            for row in rows
        )
        for fmt, text in (("csv", out.getvalue()), ("jsonl", jsonl)):
            result = parse_checkins(io.StringIO(text, newline=""), fmt)
            checkins, rejects = _parse_checkins_reference(text, fmt)
            assert list(result.checkins) == checkins
            assert all(c.timestamp.tzinfo is timezone.utc for c in result)
            assert [(r.line_no, r.reason) for r in result.rejects] == rejects

    @settings(max_examples=200, deadline=None)
    @given(checkins=_written_checkins)
    def test_written_checkins_read_back(self, checkins):
        # What serialize_checkins writes, parse_checkins reads back in both
        # formats: the instant in UTC, coordinates rounded to 6 places and an
        # empty gender or origin as None.
        expected = [
            dataclasses.replace(c, timestamp=c.timestamp.astimezone(timezone.utc),
                                lat=round(c.lat, 6), lon=round(c.lon, 6),
                                gender=c.gender or None, origin=c.origin or None)
            for c in checkins
        ]
        parsed = {}
        for fmt in ("csv", "jsonl"):
            out = io.StringIO()
            assert serialize_checkins(checkins, out, fmt) == len(checkins)
            result = parse_checkins(io.StringIO(out.getvalue(), newline=""), fmt)
            assert not result.rejects
            assert all(c.timestamp.tzinfo is timezone.utc for c in result)
            parsed[fmt] = list(result.checkins)
        assert parsed["csv"] == parsed["jsonl"] == expected

    @settings(max_examples=150, deadline=None)
    @given(
        tz=st.sampled_from(_ZONES),
        instants=st.lists(
            st.tuples(
                st.sampled_from(_ANCHORS),
                st.integers(-2 * 86400 * 10**6, 2 * 86400 * 10**6),
                st.sampled_from((None, timezone(timedelta(hours=-3)), "zone")),
            ),
            max_size=30,
        ),
    )
    @example(  # a sub-second offset carries 07:00:29.6 into the next minute
        tz=timezone(timedelta(seconds=30, microseconds=500000)),
        instants=[(_ANCHORS[0], 29_600_000, None)],
    )
    def test_local_minute_matches_astimezone(self, tz, instants):
        # Each check-in lands in the window of its local minute, as
        # astimezone gives it at that instant, whether its timestamp is in
        # UTC, as parse_checkins gives it, or in another zone.
        checkins = []
        for i, (anchor, shift, view) in enumerate(instants):
            lo, hi = _FIRST_INSTANT - anchor, _LAST_INSTANT - anchor
            ts = anchor + min(max(timedelta(microseconds=shift), lo), hi)
            if view is not None:
                ts = ts.astimezone(tz if view == "zone" else view)
            checkins.append(CheckIn(f"c{i}", "u1", ts, 1.3, 103.8, "Park"))
        groups = segment_windows([(c, "Nature") for c in checkins], _MINUTE_WINDOWS, tz)
        landed = {
            c.checkin_id: int(window)
            for (_, window), members in groups.items()
            for c, _ in members
        }
        assert sum(map(len, groups.values())) == len(checkins)
        expected = {}
        for c in checkins:
            local = c.timestamp.astimezone(tz)
            expected[c.checkin_id] = local.hour * 60 + local.minute
        assert landed == expected

    @settings(max_examples=60, deadline=None)
    @given(
        windows=_window_lists,
        visits=st.lists(
            st.tuples(st.sampled_from(("u1", "u2", "u3")), st.integers(0, 2 * 24 * 60 - 1)),
            max_size=30,
        ),
        offset=st.sampled_from((0, 8 * 60, -(5 * 60 + 30))),
    )
    def test_overlapping_windows(self, windows, visits, offset):
        # Each check-in lands once in every window holding its local minute
        # and in no other; one sequence per (user, window) hit.
        tz = timezone(timedelta(minutes=offset))
        base = datetime(2023, 5, 1, tzinfo=timezone.utc)
        checkins = [
            CheckIn(f"c{i}", user, base + timedelta(minutes=m), 1.3, 103.8, "Park")
            for i, (user, m) in enumerate(visits)
        ]
        groups = segment_windows([(c, "Nature") for c in checkins], windows, tz)
        landed = Counter(
            (c.checkin_id, window)
            for (_, window), members in groups.items()
            for c, _ in members
        )
        expected = Counter()
        hits = set()
        for c, (user, m) in zip(checkins, visits):
            local = (m + offset) % (24 * 60)
            for w in windows:
                if w.start_minute <= local < w.end_minute:
                    expected[(c.checkin_id, w.name)] += 1
                    hits.add((user, w.name))
        assert landed == expected
        assert set(groups) == hits
        result = run_pipeline(checkins, ActivityMap(()), windows=windows, tz=tz)
        assert len(result.database) == result.n_groups == len(hits)

    @settings(max_examples=25, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(_non_ascii_labels, _non_ascii_labels),
            min_size=2,
            max_size=4,
            unique_by=(lambda p: p[0].casefold(), lambda p: p[1]),
        )
    )
    def test_non_ascii_labels_round_trip(self, pairs):
        # Three tourists visit the categories in order on one morning, so
        # every ordered subsequence of the activities is a pattern.
        categories = [cat for cat, _ in pairs]
        activities = [act for _, act in pairs]
        lines = [HEADER] + [
            f"{user}-{i},{user},2023-05-01T{8 + i:02d}:00:00Z,1.3,103.8,{cat},,,"
            for user in ("u1", "u2", "u3")
            for i, cat in enumerate(categories)
        ]
        source = io.TextIOWrapper(
            io.BytesIO(("\n".join(lines) + "\n").encode("utf-8")), encoding="utf-8", newline=""
        )
        parsed = parse_checkins(source)
        assert [c.category for c in parsed] == categories * 3
        amap = ActivityMap(tuple(ActivityRule(cat, act) for cat, act in pairs))
        db = run_pipeline(parsed.checkins, amap, tz=timezone.utc).database
        patterns = mine(db, MinerConfig(min_support=2))
        report = build_report(patterns, db, n_activities=None)

        chains = [
            sub for n in range(1, len(activities) + 1)
            for sub in combinations(activities, n)
        ]
        out = io.StringIO()
        patterns.to_csv(out)
        assert {row[0] for row in list(csv.reader(io.StringIO(out.getvalue())))[1:]} == {
            ",".join(f"({a})" for a in chain) for chain in chains
        }
        out = io.StringIO()
        patterns.to_jsonl(out)
        assert {
            tuple(map(tuple, json.loads(line)["pattern"]))
            for line in out.getvalue().splitlines()
        } == {tuple((a,) for a in chain) for chain in chains}

        rendered = {" > ".join(chain) for chain in chains if len(chain) >= 2}
        out = io.StringIO()
        write_report_csv(report, out)
        assert {row[0] for row in list(csv.reader(io.StringIO(out.getvalue())))[1:]} == rendered
        out = io.StringIO()
        write_report_jsonl(report, out)
        assert {
            json.loads(line)["activity_sequence"] for line in out.getvalue().splitlines()
        } == rendered

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.fixed_dictionaries({
                "checkin_id": st.sampled_from(("c1", "c2", "c3", "", " ")),
                "user_id": st.sampled_from(("u1", "ü2", "")),
                "timestamp": st.sampled_from((
                    "2023-05-01T08:00:00Z", "2023-05-01T09:30:00+08:00",
                    " 2023-05-01T08:00:00 ", "not-a-time", "2023-13-01T00:00:00", "",
                )),
                "lat": st.sampled_from(("1.3", "-90", "95", "nan", "1e400", "x", "")),
                "lon": st.sampled_from(("103.8", "181", "y", "")),
                "category": st.sampled_from(("Park", "Café", "")),
                "subcategory": st.sampled_from(("", "City Park")),
                "gender": st.sampled_from(("", "female")),
                "origin": st.sampled_from(("SG", "MY")),
            }),
            max_size=12,
        ),
        empty_as=st.sampled_from(("empty", "null", "absent")),
    )
    def test_csv_and_jsonl_reject_alike(self, rows, empty_as):
        # The same rows give the same records and (line_no, reason) lists in
        # both formats.  The JSONL opens with a blank line, so its records
        # sit on the same line numbers as the CSV rows below their header.
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows([[row[k] for k in CSV_HEADER] for row in rows])
        from_csv = parse_checkins(io.StringIO(out.getvalue()))

        def as_json(row):
            if empty_as == "absent":
                return json.dumps({k: v for k, v in row.items() if v})
            return json.dumps({k: v or (None if empty_as == "null" else v)
                               for k, v in row.items()})

        jsonl = "\n" + "".join(as_json(row) + "\n" for row in rows)
        from_jsonl = parse_checkins(io.StringIO(jsonl), format="jsonl")
        assert from_csv.checkins == from_jsonl.checkins
        assert [(r.line_no, r.reason) for r in from_csv.rejects] == [
            (r.line_no, r.reason) for r in from_jsonl.rejects
        ]
