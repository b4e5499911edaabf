"""Metamorphic relations of the whole ``seqmine mine`` run.

Each test mines a small generated corpus and a transformed copy of it through
``cli.main`` and compares the four output files byte for byte; no oracle is
needed, only a relation the outputs must keep.
"""

import contextlib
import csv
import io
import json
import tempfile
from datetime import date, timedelta
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st

from seqmine.checkins import CSV_HEADER
from seqmine.cli import main

OUTPUTS = ("patterns.csv", "patterns.jsonl", "report.csv", "report.jsonl")

# Each example mines twice, so a failure is reported once it is shrunk: the
# explain phase would re-run the shrunk case many more times, which made a
# failing case take minutes to report.
relation = settings(max_examples=50, deadline=None,
                    phases=[p for p in Phase if p is not Phase.explain])

# Mapped, dropped (*airport*) and unmatched categories of the default config.
CATEGORIES = ("Hawker Centre", "Shopping Mall", "Botanical Garden", "Night Market",
              "Changi Airport", "Laundromat")

# Four users, two days and half-hour instants, so groups share activity chains
# and several check-ins fall on one instant; a last field of 0 makes the row's
# timestamp bad, so about one row in ten is rejected.
_instant = (st.integers(0, 3), st.sampled_from(["2023-05-01", "2023-05-02"]),
            st.integers(7, 22), st.sampled_from([0, 30]))
_rows = st.lists(
    st.tuples(*_instant, st.sampled_from(CATEGORIES), st.integers(0, 9)),
    min_size=20,
    max_size=60,
)
# Rows no output may see: a valid check-in at the dropped category, or a
# mapped one with a bad timestamp.
_ignored_rows = st.lists(
    st.tuples(*_instant, st.booleans()).map(
        lambda t: (*t[:4], "Changi Airport", 1) if t[4] else (*t[:4], "Hawker Centre", 0)
    ),
    min_size=1,
    max_size=10,
)
USERS = [f"u{i}" for i in range(4)]
_user_names = st.lists(st.text("abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=4),
                       min_size=len(USERS), max_size=len(USERS), unique=True)


def _mine(rows, fmt="csv", *args):
    """The output files of ``seqmine mine`` on a CSV or JSONL file of rows, by name.

    JSONL writes the coordinates as numbers and an empty field as null; any
    further args are passed on after the default flags, so they override them."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"checkins.{fmt}"
        with open(path, "w", encoding="utf-8", newline="") as fp:
            if fmt == "csv":
                writer = csv.writer(fp)
                writer.writerow(CSV_HEADER)
                writer.writerows(rows)
            else:
                for cid, user, ts, lat, lon, *rest in rows:
                    fields = [cid, user, ts, float(lat), float(lon), *(v or None for v in rest)]
                    fp.write(json.dumps(dict(zip(CSV_HEADER, fields))) + "\n")
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["mine", "--input", str(path), "--min-support", "2", "--out", str(out),
                         *args])
        assert code == 0
        return {f: (out / f).read_bytes() for f in OUTPUTS}


def _csv_rows(drawn, users, prefix="c"):
    """One CSV row per drawn tuple, with a unique checkin_id each."""
    return [
        [f"{prefix}{i}", users[u], f"{day}T{h:02d}:{m:02d}:00{'Z' if ok else 'x'}",
         "1.3", "103.8", cat, "", "", ""]
        for i, (u, day, h, m, cat, ok) in enumerate(drawn)
    ]


class TestMetamorphic:
    @relation
    @given(_rows, st.randoms(use_true_random=False))
    def test_row_order_does_not_matter(self, drawn, rnd):
        rows = _csv_rows(drawn, USERS)
        shuffled = list(rows)
        rnd.shuffle(shuffled)
        assert _mine(shuffled) == _mine(rows)

    @relation
    @given(_rows, _user_names)
    def test_renaming_users_does_not_matter(self, drawn, names):
        assert _mine(_csv_rows(drawn, names)) == _mine(_csv_rows(drawn, USERS))

    @relation
    @given(_rows)
    def test_csv_and_jsonl_give_the_same_output(self, drawn):
        rows = _csv_rows(drawn, USERS)
        assert _mine(rows, "jsonl") == _mine(rows)

    @relation
    @given(_rows, _ignored_rows)
    def test_dropped_and_rejected_rows_do_not_matter(self, drawn, ignored):
        rows = _csv_rows(drawn, USERS)
        assert _mine(rows + _csv_rows(ignored, USERS, prefix="d")) == _mine(rows)


def _shift_days(rows, days):
    """The rows with every timestamp's date moved by a whole number of days."""
    return [[cid, user, (date.fromisoformat(ts[:10]) + timedelta(days)).isoformat() + ts[10:],
             *rest] for cid, user, ts, *rest in rows]


def _counted(name, output, factor=1):
    """An output file's records with support_count and frequency times factor:
    the rows of a CSV (header kept; the count is the second column) or the
    objects of a JSONL file."""
    if name.endswith(".jsonl"):
        records = [json.loads(line) for line in output.splitlines()]
        for r in records:
            for key in ("support_count", "frequency"):
                if key in r:
                    r[key] *= factor
        return records
    header, *rows = csv.reader(io.StringIO(output.decode("utf-8")))
    return [header, *([r[0], str(int(r[1]) * factor), *r[2:]] for r in rows)]


GROUPINGS = pytest.mark.parametrize("grouping", ["window", "trip"])


class TestMetamorphicSettings:
    @GROUPINGS
    @relation
    @given(_rows)
    def test_both_miners_give_the_same_output(self, grouping, drawn):
        # at most 60 rows, so every trip stays under the bitmap miner's 64 elements
        rows = _csv_rows(drawn, USERS)
        assert (_mine(rows, "csv", "--grouping", grouping, "--miner", "spam")
                == _mine(rows, "csv", "--grouping", grouping, "--miner", "prefixspan"))

    @GROUPINGS
    @relation
    @given(_rows, st.integers(-730_000, 2_000_000))
    def test_shifting_by_whole_days_does_not_matter(self, grouping, drawn, days):
        rows = _csv_rows(drawn, USERS)
        flags = ("--grouping", grouping, "--tz", "+08:00")
        assert _mine(_shift_days(rows, days), "csv", *flags) == _mine(rows, "csv", *flags)

    @GROUPINGS
    @relation
    @given(_rows)
    def test_copying_every_user_doubles_the_counts(self, grouping, drawn):
        # twice the users at twice the count keeps every pattern, and each
        # ratio is the same division of numbers twice as large: exactly equal
        rows = _csv_rows(drawn, USERS)
        copies = _csv_rows(drawn, [f"copy-{u}" for u in USERS], prefix="d")
        base = _mine(rows, "csv", "--grouping", grouping)
        both = _mine(rows + copies, "csv", "--grouping", grouping, "--min-support", "4")
        assert ({f: _counted(f, both[f]) for f in OUTPUTS}
                == {f: _counted(f, base[f], 2) for f in OUTPUTS})
