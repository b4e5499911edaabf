import io
from datetime import datetime, timedelta, timezone

import pytest

from seqmine import (
    ActivityMap,
    ActivityRule,
    CheckIn,
    FormatError,
    InvalidConfigError,
    WindowSpec,
    apply_activity_map,
    build_sequences,
    build_tourist_sequences,
    default_config,
    parse_checkins,
    parse_config,
    run_pipeline,
    segment_windows,
)
from seqmine.checkins import DEFAULT_WINDOWS, group_by_user, resolve_timezone

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
        ))
        assert [(r.line_no, r.reason) for r in result.rejects] == [
            (2, "lat out of range"),
            (3, "bad timestamp 'not-a-time'"),
            (4, "missing user_id"),
            (5, "lon out of range"),
            (7, "duplicate checkin_id 'c5'"),
            (8, "non-numeric coordinates"),
        ]
        assert [c.checkin_id for c in result] == ["c5"]

    def test_wrong_field_count_rejected(self):
        result = parse_checkins(csv_source("c1,u1,2023-05-01T08:00:00Z,1.0,2.0"))
        assert result.rejects[0].reason.startswith("expected 9 fields")

    def test_blank_lines_skipped(self):
        result = parse_checkins(io.StringIO(
            HEADER + "\n\nc1,u1,2023-05-01T08:00:00Z,1.0,2.0,Park,,,\n\n"
        ))
        assert len(result) == 1 and not result.rejects

    def test_bad_header_raises(self):
        with pytest.raises(FormatError):
            parse_checkins(io.StringIO("id,user,time\nc1,u1,now\n"))

    def test_empty_input_raises(self):
        with pytest.raises(FormatError):
            parse_checkins(io.StringIO(""))


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

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_checkins(io.StringIO(""), format="parquet")


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
        assert tagged.dropped == 1
        assert tagged.unmatched == {"Bowling Alley": 1}


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
        assert {k: [a for _, a in v] for k, v in groups.items()} == {
            ("u1", None): ["Nature"],
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


class TestSequenceAssembly:
    def test_same_instant_checkins_merge(self):
        groups = {("u1", "morning"): [
            (ci(ts="2023-05-01T08:00:00+00:00", cid="a"), "Nature"),
            (ci(ts="2023-05-01T08:00:00+00:00", cid="b"), "Shopping"),
            (ci(ts="2023-05-01T09:00:00+00:00", cid="c"), "Dining"),
        ]}
        (seq,) = build_tourist_sequences(groups)
        assert seq.activities == (("Nature", "Shopping"), ("Dining",))
        assert seq.seq_id == "u1|morning"

    def test_merge_resolution_window_anchors_at_first(self):
        groups = {("u1", None): [
            (ci(ts="2023-05-01T08:00:00+00:00", cid="a"), "A"),
            (ci(ts="2023-05-01T08:00:50+00:00", cid="b"), "B"),
            (ci(ts="2023-05-01T08:01:50+00:00", cid="c"), "C"),
        ]}
        (seq,) = build_tourist_sequences(groups, merge_resolution=60)
        # c is 110s past the anchor a, so it opens a new element
        assert seq.activities == (("A", "B"), ("C",))

    def test_duplicate_activity_in_element_collapses(self):
        groups = {("u1", None): [
            (ci(ts="2023-05-01T08:00:00+00:00", cid="a"), "Nature"),
            (ci(ts="2023-05-01T08:00:00+00:00", cid="b"), "Nature"),
        ]}
        (seq,) = build_tourist_sequences(groups)
        assert seq.activities == (("Nature",),)

    def test_negative_resolution_rejected(self):
        with pytest.raises(InvalidConfigError):
            build_tourist_sequences({}, merge_resolution=-1)

    def test_database_assembly(self):
        groups = {
            ("u2", "morning"): [(ci(user="u2", cid="x"), "Shopping")],
            ("u1", "morning"): [(ci(cid="y"), "Nature")],
        }
        db = build_sequences(groups)
        assert db.seq_ids == ("u1|morning", "u2|morning")
        assert sorted(db.dictionary.labels) == ["Nature", "Shopping"]


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
