import csv
import hashlib
import io
import sys
import tracemalloc
import weakref
from dataclasses import replace

import pytest

from seqmine import MinerMismatchError, cli, mine
from seqmine.bench import MINERS
from seqmine.cli import main
from seqmine.prefixspan import PatternSet
from seqmine.synth import SINGAPORE_SHAPE, bms_shape, generate_synthetic, serialize_checkins


@pytest.fixture()
def corpus_csv(tmp_path):
    path = tmp_path / "checkins.csv"
    assert main(["generate", "--users", "80", "--seed", "11",
                 "--out", str(path)]) == 0
    return path


OUTPUTS = ("patterns.csv", "patterns.jsonl", "report.csv", "report.jsonl")


def read_csv(path):
    with open(path, newline="") as fp:
        return list(csv.reader(fp))


class TestGenerate:
    def test_writes_deterministic_csv(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["generate", "--users", "40", "--seed", "3", "--out", str(a)]) == 0
        assert main(["generate", "--users", "40", "--seed", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        out = capsys.readouterr().out
        assert "40 users" in out

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", "--users", "40", "--seed", "3", "--out", str(a)])
        main(["generate", "--users", "40", "--seed", "4", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_jsonl_by_extension(self, tmp_path):
        path = tmp_path / "c.jsonl"
        assert main(["generate", "--users", "5", "--out", str(path)]) == 0
        assert path.read_text().lstrip().startswith("{")

    def test_bad_range_is_config_error(self, tmp_path, capsys):
        code = main(["generate", "--users", "5", "--checkins-min", "9",
                     "--checkins-max", "8", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "checkins-min" in capsys.readouterr().err

    def test_length_flags_rejected_for_bms(self, tmp_path, capsys):
        code = main(["generate", "--shape", "bms", "--checkins-min", "5",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "--checkins-min" in err and "--checkins-max" in err
        assert not (tmp_path / "x.csv").exists()

    def test_length_flag_checked_against_shape_default(self, tmp_path, capsys):
        # --checkins-max stays at the shape's default of 10
        code = main(["generate", "--checkins-min", "12",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--checkins-min" in err

    def test_shapes_come_from_synth(self, tmp_path):
        for flags, cfg in [
            (["--users", "30"], replace(SINGAPORE_SHAPE, n_users=30)),
            (["--users", "30", "--checkins-min", "2", "--checkins-max", "3"],
             replace(SINGAPORE_SHAPE, n_users=30, checkins_min=2, checkins_max=3)),
            (["--shape", "bms", "--users", "90"], bms_shape(90)),
        ]:
            path = tmp_path / "g.csv"
            assert main(["generate", *flags, "--seed", "5", "--out", str(path)]) == 0
            buf = io.StringIO()
            serialize_checkins(generate_synthetic(cfg, 5), buf)
            assert path.read_bytes() == buf.getvalue().encode("utf-8")

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_writes_each_record_as_it_is_drawn(self, tmp_path, capsys, fmt):
        # 20 000 users make about 46 000 records: about 13 MB when all are
        # held before the first is written.
        path = tmp_path / f"bms.{fmt}"
        argv = ["generate", "--shape", "bms", "--seed", "7", "--out", str(path)]
        assert main([*argv, "--users", "20"]) == 0  # load what runs lazily
        tracemalloc.start()
        try:
            assert main([*argv, "--users", "20000"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        buf = io.StringIO()
        written = serialize_checkins(generate_synthetic(bms_shape(20000), 7), buf, fmt)
        assert path.read_bytes() == buf.getvalue().encode("utf-8")
        assert capsys.readouterr().out.splitlines()[-1].startswith(f"wrote {written} check-ins")

    def test_bms_shape(self, tmp_path):
        path = tmp_path / "bms.csv"
        assert main(["generate", "--shape", "bms", "--users", "200",
                     "--out", str(path)]) == 0
        rows = read_csv(path)
        users = {r[1] for r in rows[1:]}
        assert len(users) == 200


class TestMine:
    def test_end_to_end_outputs(self, corpus_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["mine", "--input", str(corpus_csv), "--min-support", "2",
                     "--out", str(out)])
        assert code == 0
        for name in ("patterns.csv", "patterns.jsonl", "report.csv", "report.jsonl"):
            assert (out / name).exists()
        report = read_csv(out / "report.csv")
        assert report[0] == ["activity_sequence", "frequency", "support", "confidence"]
        assert len(report) > 1
        stdout = capsys.readouterr().out
        assert "patterns=" in stdout and "sequences=" in stdout

    def test_output_bytes_are_pinned(self, tmp_path):
        # The same run as the CI console-script step's `out`; any change to
        # what the four files hold changes these.
        source, out = tmp_path / "c.csv", tmp_path / "out"
        assert main(["generate", "--users", "200", "--seed", "7", "--out", str(source)]) == 0
        assert main(["mine", "--input", str(source), "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in OUTPUTS}
        assert digests == {
            "patterns.csv": "d636a20d25e2661e5e3f46c4c24e3ebd35f65f97765f7df6fde420bf982f0a00",
            "patterns.jsonl": "b935ab5512e0c99448ea1ad24b41946c8a7fc606f83d7f1c1947bca073097397",
            "report.csv": "6ac5073f65d2558c04d73b0daf57ea6883f1cebe901dba284c440f086c68fd90",
            "report.jsonl": "d00689c14e9768b42d527935eaffb5aad61af46383b17b7d5589d35ba1c9e7a9",
        }

    def test_click_stream_trip_bytes_are_pinned(self, tmp_path):
        # The CI console-script step's `bps` run, and the same with SPAM:
        # the all-patterns report over each miner's holders (116 rows)
        source = tmp_path / "b.csv"
        assert main(["generate", "--shape", "bms", "--users", "2000", "--seed", "7",
                     "--out", str(source)]) == 0
        for miner in ("prefixspan", "spam"):
            out = tmp_path / miner
            assert main(["mine", "--input", str(source), "--grouping", "trip",
                         "--min-support", "0.002", "--miner", miner, "--out", str(out)]) == 0
            digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                       for name in OUTPUTS}
            assert digests == {
                "patterns.csv": "b21be6f9006a0fe346f59ba6cbfc7506e7f63bb4c5250396c0a32c5dcf681086",
                "patterns.jsonl": "c9da010ae70791e5c8bb37b1f621bf94a2619671744e8778656b8028023d6b74",
                "report.csv": "3e3de84a1fca0d4f9ee78ecb24bf344a3391ee70adabc5c88c5e8d7e67d998b1",
                "report.jsonl": "fa3d52d5130e71b36566ce1ff3400374d4eadd70b75c4a0d3c68344b2a46cebd",
            }, miner

    @pytest.mark.parametrize("zones", [
        ("+08:00", "Asia/Singapore"),
        ("UTC", "+00:00", "Etc/UTC"),
    ], ids=["singapore", "utc"])
    def test_fixed_offset_and_named_zone_write_the_same_bytes(self, tmp_path, zones):
        # A fixed offset gives a UTC record's local minute by arithmetic and
        # an IANA zone through astimezone; both must window alike.  This is
        # the CI console-script step's `same p8 sg`.
        source = tmp_path / "c.csv"
        assert main(["generate", "--users", "200", "--seed", "7", "--out", str(source)]) == 0
        written = []
        for i, zone in enumerate(zones):
            out = tmp_path / f"out{i}"
            assert main(["mine", "--input", str(source), f"--tz={zone}", "--out", str(out)]) == 0
            written.append([(out / name).read_bytes() for name in OUTPUTS])
        assert written[0][0].count(b"\n") > 1
        assert all(files == written[0] for files in written), zones

    def test_nul_in_an_activity_label(self, corpus_csv, tmp_path, capsys):
        # parse_config accepts the label; every writer must take it, on
        # every Python (3.10's csv.writer refused a field holding NUL)
        amap, out = tmp_path / "map.cfg", tmp_path / "out"
        amap.write_text("* = Do\x00it\n", encoding="utf-8")
        assert main(["mine", "--input", str(corpus_csv), "--activity-map", str(amap),
                     "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        text = {name: (out / name).read_text(encoding="utf-8") for name in OUTPUTS}
        assert text["patterns.csv"].splitlines()[1].startswith("(Do\x00it),")
        assert text["report.csv"].splitlines()[1].startswith("Do\x00it > Do\x00it > Do\x00it,")
        assert text["patterns.jsonl"].startswith('{"pattern": [["Do\\u0000it"]], ')
        assert text["report.jsonl"].startswith('{"activity_sequence": "Do\\u0000it > ')

    def test_miners_agree_via_cli(self, corpus_csv, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["mine", "--input", str(corpus_csv), "--min-support", "2",
                     "--miner", "prefixspan", "--out", str(out_a)]) == 0
        assert main(["mine", "--input", str(corpus_csv), "--min-support", "2",
                     "--miner", "spam", "--out", str(out_b)]) == 0
        assert (out_a / "patterns.csv").read_text() == (out_b / "patterns.csv").read_text()

    def test_blocklisted_activities_never_reported(self, corpus_csv, tmp_path):
        out = tmp_path / "out"
        main(["mine", "--input", str(corpus_csv), "--min-support", "2",
              "--out", str(out)])
        text = (out / "report.csv").read_text().lower()
        assert "airport" not in text

    def test_sort_by_support(self, corpus_csv, tmp_path):
        out = tmp_path / "out"
        main(["mine", "--input", str(corpus_csv), "--min-support", "2",
              "--sort", "support", "--out", str(out)])
        rows = read_csv(out / "report.csv")[1:]
        supports = [float(r[2]) for r in rows]
        assert supports == sorted(supports, reverse=True)

    def test_top_k_truncates(self, corpus_csv, tmp_path):
        out = tmp_path / "out"
        main(["mine", "--input", str(corpus_csv), "--min-support", "2",
              "--top-k", "3", "--out", str(out)])
        assert len(read_csv(out / "report.csv")) <= 4

    def test_negative_top_k_is_config_error(self, corpus_csv, tmp_path, capsys):
        code = main(["mine", "--input", str(corpus_csv), "--min-support", "2",
                     "--top-k", "-1", "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "top_k" in err[0]

    @pytest.mark.parametrize("flag, value, name", [
        ("--max-length", "0", "max_length"),
        ("--top-k", "-1", "top_k"),
    ])
    def test_settings_checked_before_input_is_read(self, tmp_path, capsys,
                                                   flag, value, name):
        code = main(["mine", "--input", str(tmp_path / "nope.csv"), flag, value,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and name in err[0]
        assert not (tmp_path / "out").exists()

    def test_missing_input_is_input_error(self, tmp_path, capsys):
        code = main(["mine", "--input", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert "no such file" in capsys.readouterr().err

    def test_non_utf8_input_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "latin.csv"
        path.write_bytes(
            b"checkin_id,user_id,timestamp,lat,lon,category,subcategory,gender,origin\n"
            b"c1,u1,2023-05-01T08:00:00Z,1.3,103.8,Caf\xff,,,\n"
        )
        code = main(["mine", "--input", str(path), "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "UTF-8" in err[0]
        assert not any("Traceback" in line for line in err)

    def test_bad_header_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n1,2\n")
        assert main(["mine", "--input", str(bad),
                     "--out", str(tmp_path / "out")]) == 3

    def test_fraction_above_one_is_usage_error(self, corpus_csv, tmp_path, capsys):
        code = main(["mine", "--input", str(corpus_csv), "--min-support", "1.5",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "min_support fraction must be in (0,1]" in capsys.readouterr().err

    def test_zero_count_is_usage_error(self, corpus_csv, tmp_path, capsys):
        code = main(["mine", "--input", str(corpus_csv), "--min-support", "0",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "min_support count must be >= 1" in capsys.readouterr().err

    def test_explicit_format_overrides_extension(self, tmp_path):
        jsonl = tmp_path / "c.jsonl"
        assert main(["generate", "--users", "20", "--out", str(jsonl)]) == 0
        path = jsonl.rename(tmp_path / "checkins.txt")
        assert main(["mine", "--input", str(path), "--format", "jsonl",
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["mine", "--input", str(path), "--out", str(tmp_path / "b")]) == 3

    def test_unparsable_support_is_usage_error(self, corpus_csv, tmp_path, capsys):
        code = main(["mine", "--input", str(corpus_csv), "--min-support", "abc",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_window_file_without_windows_is_config_error(self, corpus_csv, tmp_path,
                                                         capsys):
        rules = tmp_path / "rules.cfg"
        rules.write_text("Park = Nature\n")
        code = main(["mine", "--input", str(corpus_csv),
                     "--windows", str(rules), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "defines no windows" in capsys.readouterr().err

    def test_window_time_not_hh_mm_is_config_error(self, corpus_csv, tmp_path, capsys):
        winfile = tmp_path / "win.cfg"
        winfile.write_text("window morning 7am 14:00\n")
        code = main(["mine", "--input", str(corpus_csv),
                     "--windows", str(winfile), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_bad_window_file_is_config_error(self, corpus_csv, tmp_path, capsys):
        winfile = tmp_path / "win.cfg"
        winfile.write_text("window broken\n")
        code = main(["mine", "--input", str(corpus_csv),
                     "--windows", str(winfile), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_non_utf8_activity_map_is_config_error(self, corpus_csv, tmp_path, capsys):
        amap = tmp_path / "map.cfg"
        amap.write_bytes(b"caf\xff = Dining\n")
        code = main(["mine", "--input", str(corpus_csv), "--activity-map", str(amap),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "UTF-8" in err[0]
        assert not any("Traceback" in line for line in err)

    @pytest.mark.parametrize("flag", ["--activity-map", "--windows"])
    def test_directory_config_is_config_error(self, corpus_csv, tmp_path, capsys, flag):
        code = main(["mine", "--input", str(corpus_csv), flag, str(tmp_path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --activity-map/--windows:")
        assert not any("Traceback" in line for line in err)

    def test_overlong_csv_field_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text(
            "checkin_id,user_id,timestamp,lat,lon,category,subcategory,gender,origin\n"
            "c1,u1,2023-05-01T08:00:00Z,1.3,103.8,Park,,,\n"
            f"c2,u1,2023-05-01T09:00:00Z,1.3,103.8,{'x' * 131073},,,\n"
        )
        code = main(["mine", "--input", str(path), "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --input: line 3: field larger")
        assert not any("Traceback" in line for line in err)

    @pytest.mark.parametrize("lat,reason", [
        ("1" * 4301, "invalid JSON"),             # past int's digit limit
        ("1" * 400, "non-numeric coordinates"),   # too large for a float
        ("[" * 100000 + "]" * 100000, "invalid JSON"),  # past the nesting limit
    ], ids=["digits", "overflow", "nesting"])
    def test_unreadable_json_number_is_rejected(self, tmp_path, capsys, lat, reason):
        row = ('{{"checkin_id":"{}","user_id":"u1","timestamp":"2023-05-01T08:00:00Z",'
               '"lat":{},"lon":103.8,"category":"Park"}}\n')
        path = tmp_path / "c.jsonl"
        path.write_text(row.format("c1", "1.3") + row.format("c2", lat))
        code = main(["mine", "--input", str(path), "--min-support", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert err == [f"rejected line 2: {reason}"]

    @pytest.mark.parametrize("timestamp,tz", [
        ("9999-12-31T23:59:00Z", None),       # local time past datetime.max at +08:00
        ("0001-01-01T00:00:00Z", "-05:00"),   # local time before datetime.min
    ], ids=["max", "min"])
    def test_instant_without_local_time_is_rejected(self, tmp_path, capsys, timestamp, tz):
        path = tmp_path / "edge.csv"
        path.write_text(
            "checkin_id,user_id,timestamp,lat,lon,category,subcategory,gender,origin\n"
            f"c1,u1,{timestamp},1.3,103.8,Park,,,\n"
        )
        argv = ["mine", "--input", str(path), "--out", str(tmp_path / "out")]
        if tz is not None:
            argv.append(f"--tz={tz}")
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err.splitlines() == [f"rejected line 2: bad timestamp {timestamp!r}"]
        assert "Traceback" not in err
        assert "sequences=0" in out

    def test_long_window_mines_without_traceback(self, tmp_path, capsys):
        # 1100 check-ins at distinct instants in one window: the pattern
        # growth search goes 1100 items deep
        path = tmp_path / "long.csv"
        path.write_text(
            "checkin_id,user_id,timestamp,lat,lon,category,subcategory,gender,origin\n"
            + "".join(
                f"c{i},u1,2023-05-01T01:{i // 60:02d}:{i % 60:02d}Z,1.3,103.8,Park,,,\n"
                for i in range(1100)
            )
        )
        code = main(["mine", "--input", str(path), "--min-support", "1",
                     "--max-length", "5000", "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert code == 0
        assert "sequences=1 " in out and "patterns=1100 " in out
        assert "Traceback" not in err

    def test_rejects_reported_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "mixed.csv"
        path.write_text(
            "checkin_id,user_id,timestamp,lat,lon,category,subcategory,gender,origin\n"
            "c1,u1,2023-05-01T08:00:00Z,1.3,103.8,Park,,,\n"
            "c2,u1,bad-time,1.3,103.8,Park,,,\n"
        )
        assert main(["mine", "--input", str(path), "--min-support", "1",
                     "--out", str(tmp_path / "out")]) == 0
        assert "rejected line 3" in capsys.readouterr().err

    def test_summary_counts_drops_and_rejects(self, tmp_path, capsys):
        path = tmp_path / "mixed.csv"
        path.write_text(
            "checkin_id,user_id,timestamp,lat,lon,category,subcategory,gender,origin\n"
            "c1,u1,2023-05-01T08:00:00Z,1.3,103.8,Park,,,\n"
            "c2,u1,2023-05-01T09:00:00Z,1.3,103.8,Changi Airport,,,\n"
            "c3,u1,bad-time,1.3,103.8,Park,,,\n"
        )
        assert main(["mine", "--input", str(path), "--min-support", "1",
                     "--out", str(tmp_path / "out")]) == 0
        assert "dropped=1 rejected=1 " in capsys.readouterr().out

    def test_library_error_exits_with_one_line(self, tmp_path, capsys):
        # Trips of 70-80 check-ins exceed the bitmap miner's 64-element lanes.
        path = tmp_path / "long.csv"
        assert main(["generate", "--users", "50", "--checkins-min", "70",
                     "--checkins-max", "80", "--out", str(path)]) == 0
        capsys.readouterr()
        code = main(["mine", "--input", str(path), "--grouping", "trip",
                     "--miner", "spam", "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: sequence ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestOutOfMemory:
    def test_one_line_after_the_work_is_freed(self, corpus_csv, tmp_path, monkeypatch):
        # The traceback holds the miner's frames, and with them its memory:
        # a message printed while it lives may itself run out of memory.
        log = []

        class Held:
            pass

        def exhausted(db, cfg):
            held = Held()
            weakref.finalize(held, log.append, "freed")
            raise MemoryError

        class Log(io.TextIOBase):
            def write(self, text):
                log.append(text)
                return len(text)

        monkeypatch.setitem(MINERS, "prefixspan", exhausted)
        monkeypatch.setattr(sys, "stderr", Log())
        code = main(["mine", "--input", str(corpus_csv), "--out", str(tmp_path / "out")])
        assert code == 3
        assert log[0] == "freed"
        assert "".join(log[1:]).splitlines() == ["error: out of memory"]


class TestBench:
    def test_table_and_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--shape", "singapore", "--users", "50",
                     "--supports", "2,3", "--repeats", "1", "--seed", "5",
                     "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "miner" in stdout and "patterns" in stdout
        rows = read_csv(out)
        assert rows[0][0] == "miner"
        assert len(rows) == 5  # header + 2 miners x 2 supports

    def test_users_on_default_shape(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--users", "30", "--repeats", "1",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 7  # header + 2 miners x 3 default supports
        # bms_shape(30) at the default seed: every user keeps a trip
        assert {r[1] for r in rows[1:]} == {"30"}

    def test_mismatch_exit_code(self, tmp_path, capsys, monkeypatch):
        def broken(db, cfg):
            full = mine(db, cfg)
            return PatternSet(full.patterns[:-1], full.n_sequences, full.dictionary)

        monkeypatch.setitem(MINERS, "spam", broken)
        code = main(["bench", "--shape", "singapore", "--users", "30",
                     "--supports", "2", "--repeats", "1"])
        assert code == 4
        assert "disagree" in capsys.readouterr().err

    def test_empty_supports_is_usage_error(self, capsys, monkeypatch):
        def refused(cfg, seed):
            raise AssertionError("bench generated data for a refused setting")

        monkeypatch.setattr(cli, "generate_synthetic", refused)
        assert main(["bench", "--supports", ","]) == 2
        assert capsys.readouterr().err == "error: need at least one support level\n"

    def test_settings_checked_before_data_is_generated(self, capsys, monkeypatch):
        def refused(cfg, seed):
            raise AssertionError("bench generated data for a refused setting")

        monkeypatch.setattr(cli, "generate_synthetic", refused)
        assert main(["bench", "--repeats", "0"]) == 2
        assert capsys.readouterr().err == "error: repeats must be an int >= 1, got 0\n"


class TestParser:
    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_command_is_usage_error(self):
        assert main(["excavate"]) == 2

    @pytest.mark.parametrize("argv", [
        ["mine", "--input", "checkins.csv", "--min-support", "1e400"],
        [],
        ["excavate"],
    ])
    def test_usage_error_is_one_error_line(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_help_prints_usage_and_exits_zero(self, capsys):
        assert main(["mine", "--help"]) == 0
        out = capsys.readouterr()
        assert out.out.startswith("usage: seqmine mine") and not out.err
