"""The cyclic garbage collector is paused while seqmine ingests and while a
``seqmine`` command runs.  That is safe only while no stage leaves reference
cycles behind, which these tests check, and while the previous collector
state always comes back.
"""

import contextlib
import gc
from dataclasses import replace

import pytest

from seqmine import mine
from seqmine.checkins import _collector_paused, default_config, parse_checkins, run_pipeline
from seqmine.cli import main
from seqmine.prefixspan import MinerConfig
from seqmine.rules import build_report
from seqmine.spam import mine_spam
from seqmine.synth import SINGAPORE_SHAPE, generate_synthetic, serialize_checkins


def garbage_left(run) -> int:
    """Unreachable objects ``gc.collect()`` finds after a second ``run()`` made
    with the collector disabled; the first call makes the one-off lazy imports
    and caches."""
    run()
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The same generated check-ins as CSV and as JSONL."""
    rows = generate_synthetic(replace(SINGAPORE_SHAPE, n_users=60), 5)
    paths = {}
    for fmt in ("csv", "jsonl"):
        paths[fmt] = tmp_path_factory.mktemp("corpus") / f"checkins.{fmt}"
        with open(paths[fmt], "w", encoding="utf-8", newline="") as fp:
            serialize_checkins(rows, fp, fmt)
    return paths


class TestNoCycles:
    def test_library_run_leaves_no_garbage(self, corpus):
        amap, windows = default_config()
        cfg = MinerConfig(min_support=2)

        def run():
            for fmt, path in corpus.items():
                parsed = parse_checkins(path, fmt)
                for grouping in ("window", "trip"):
                    db = run_pipeline(parsed.checkins, amap, windows, grouping=grouping).database
                    for miner in (mine, mine_spam):
                        patterns = miner(db, cfg)
                        build_report(patterns, db)
                        build_report(patterns, db, n_activities=None)

        assert garbage_left(run) == 0

    def test_repeated_command_leaves_no_garbage(self, corpus, tmp_path, capsys):
        argv = ["mine", "--input", str(corpus["csv"]), "--min-support", "2",
                "--out", str(tmp_path / "out")]
        assert garbage_left(lambda: main(argv)) == 0

    @pytest.mark.parametrize("shape", ["singapore", "bms"])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_generate_leaves_no_garbage(self, tmp_path, capsys, shape, fmt):
        argv = ["generate", "--shape", shape, "--users", "60", "--seed", "5",
                "--out", str(tmp_path / f"checkins.{fmt}")]
        assert garbage_left(lambda: main(argv)) == 0

    def test_bench_leaves_no_garbage(self, capsys):
        argv = ["bench", "--shape", "singapore", "--users", "50", "--supports", "2",
                "--repeats", "1"]
        assert garbage_left(lambda: main(argv)) == 0


class TestCollectorPaused:
    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("raises", [False, True])
    def test_restores_previous_state(self, enabled, raises):
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(KeyError) if raises else contextlib.nullcontext():
                with _collector_paused():
                    assert not gc.isenabled()
                    if raises:
                        raise KeyError("body")
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    @pytest.mark.parametrize("extra, code", [
        ([], 0),
        (["--tz", "+24:00"], 2),
        (["--input", "missing.csv"], 3),
    ])
    def test_command_leaves_collector_enabled(self, corpus, tmp_path, monkeypatch, capsys,
                                              extra, code):
        monkeypatch.chdir(tmp_path)
        argv = ["mine", "--input", str(corpus["csv"]), *extra]
        assert main(argv) == code
        assert gc.isenabled()
