"""The benchmark's workloads: inputs made by seqmine.synth, one op each, output digests.

Each workload's parameters, the reason it was chosen, the per-layer metrics
that should move its end-to-end metrics, its layer shares and the recorded
output digests live in ``workloads.json`` beside this file.

An op goes from input to written outputs.  Library calls go through the
``seqmine`` modules' attributes, not names imported here, so that an
installed ``spans.Tracer`` sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import replace
from pathlib import Path

import seqmine.checkins as checkins
import seqmine.cli as cli
import seqmine.prefixspan as prefixspan
import seqmine.rules as rules
import seqmine.spam as spam
import seqmine.synth as synth

SPECS = json.loads(Path(__file__).with_name("workloads.json").read_text(encoding="utf-8"))


class OpFailed(Exception):
    """An op raised, exited non-zero, or wrote output that fails a check."""


def _sha256(rows: list) -> str:
    rows.sort()
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def patterns_digest(ps) -> str:
    """SHA-256 of a PatternSet's sorted as_dict(), items decoded to their labels."""
    decode = ps.dictionary.decode
    return _sha256([[[[decode(i) for i in e] for e in elems], support]
                    for elems, support in ps.as_dict().items()])


def report_digest(rows) -> str:
    return _sha256([[r.activity_sequence, r.frequency, r.support, r.confidence]
                    for r in rows])


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fp:
        return [json.loads(line) for line in fp]


def generator_config(params: dict, scale: float):
    base = synth.bms_shape(1) if params["shape"] == "bms" else synth.SINGAPORE_SHAPE
    fields = {k: params[k] for k in ("checkins_min", "checkins_max") if k in params}
    return replace(base, n_users=max(1, round(params["n_users"] * scale)), **fields)


def trip_database(params: dict, seed: int, scale: float = 1.0):
    """Generated check-ins, tagged and grouped by trip into a SequenceDatabase."""
    rows = synth.generate_synthetic(generator_config(params, scale), seed)
    amap, _ = checkins.default_config()
    return checkins.run_pipeline(rows, amap, grouping="trip").database


class Workload:
    """One workload at one seed; inputs and outputs live under ``work_dir``.

    The input comes in ``parts`` of the same shape, each generated from its own
    seed derived from ``seed``; one op handles one part.
    """

    def __init__(self, name: str, seed: int, scale: float, work_dir: Path):
        self.name = name
        self.spec = SPECS[name]
        self.seed = seed
        self.scale = scale
        self.work_dir = work_dir
        self.out_dir = work_dir / "out"
        self.parts = self.spec.get("parts", 1)
        self.records = [0] * self.parts

    def part_seed(self, part: int) -> int:
        return self.seed if self.parts == 1 else self.seed * self.parts + part

    @property
    def recorded_digests(self) -> list | None:
        """Digests recorded for this seed, one per part; they hold only at full size."""
        return self.spec["digests"].get(str(self.seed)) if self.scale == 1.0 else None

    def make_inputs(self) -> None:
        """Set-up from scratch: generate, then serialize or build."""
        raise NotImplementedError

    def load(self) -> None:
        """Finish set-up in this process once make_inputs has run, here or in another."""

    def op(self, part: int = 0):
        raise NotImplementedError

    def digests(self, result) -> dict:
        """Check one op's result and return its output digests; raises OpFailed."""
        raise NotImplementedError

    def miner_config(self, m: dict | None = None):
        m = m or self.spec["miner"]
        return prefixspan.MinerConfig(min_support=m["min_support"],
                                      max_length=m.get("max_length"))

    def capacity_probe(self) -> str | None:
        """Untimed mine_spam on trips over 64 elements; the error raised, or None."""
        probe = self.spec["capacity_probe"]
        db = trip_database({"shape": "singapore", **probe}, self.seed)
        try:
            spam.mine_spam(db, self.miner_config(probe))
        except Exception as exc:  # the probe reports whatever the miner raises
            return f"{type(exc).__name__}: {exc}"
        return None


class _FileWorkload(Workload):
    def input_path(self, part: int) -> Path:
        return self.work_dir / f"input-{part}.{self.spec['input']['format']}"

    def make_inputs(self) -> None:
        config = generator_config(self.spec["input"], self.scale)
        for part in range(self.parts):
            rows = synth.generate_synthetic(config, self.part_seed(part))
            with open(self.input_path(part), "w", encoding="utf-8", newline="") as fp:
                synth.serialize_checkins(rows, fp, self.spec["input"]["format"])

    def load(self) -> None:
        for part in range(self.parts):
            with open(self.input_path(part), encoding="utf-8") as fp:
                lines = sum(1 for line in fp if line.strip())
            self.records[part] = lines - (self.spec["input"]["format"] == "csv")


class TouristCsv(_FileWorkload):
    """The ``seqmine mine`` CLI, run in-process with every flag at its default."""

    def op(self, part: int = 0):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["mine", "--input", str(self.input_path(part)),
                             "--out", str(self.out_dir)])
        return code, out.getvalue()

    def digests(self, result) -> dict:
        code, stdout = result
        if code != 0:
            raise OpFailed(f"seqmine mine exited {code}")
        patterns = _jsonl(self.out_dir / "patterns.jsonl")
        report = _jsonl(self.out_dir / "report.jsonl")
        if f"patterns={len(patterns)} report_rows={len(report)}" not in stdout:
            raise OpFailed(f"summary line disagrees with the files: {stdout!r}")
        return {
            "patterns": _sha256([[p["pattern"], p["support_count"]] for p in patterns]),
            "report": _sha256([[r["activity_sequence"], r["frequency"], r["support"],
                                r["confidence"]] for r in report]),
        }


class ClickstreamJsonl(_FileWorkload):
    """Library calls: parse JSONL, trip grouping, SPAM, all-patterns report."""

    def load(self) -> None:
        super().load()
        self.activity_map, _ = checkins.default_config()

    def op(self, part: int = 0):
        m = self.spec["miner"]
        parsed = checkins.parse_checkins(self.input_path(part), "jsonl")
        db = checkins.run_pipeline(parsed.checkins, self.activity_map,
                                   grouping=m["grouping"]).database
        patterns = spam.mine_spam(db, self.miner_config())
        report = rules.build_report(patterns, db, n_activities=m["n_activities"])
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with open(self.out_dir / "patterns.jsonl", "w", encoding="utf-8") as fp:
            patterns.to_jsonl(fp)
        with open(self.out_dir / "report.jsonl", "w", encoding="utf-8") as fp:
            rules.write_report_jsonl(report, fp)
        return patterns, report

    def digests(self, result) -> dict:
        patterns, report = result
        return {"patterns": patterns_digest(patterns), "report": report_digest(report)}


class LongTrips(Workload):
    """Library quick start: SPAM over an in-memory database, then PatternSet.to_csv."""

    db = None

    def make_inputs(self) -> None:
        self.db = trip_database(self.spec["input"], self.seed, self.scale)
        self.records = [len(self.db)]

    def load(self) -> None:
        if self.db is None:
            self.make_inputs()

    def op(self, part: int = 0):
        patterns = spam.mine_spam(self.db, self.miner_config())
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with open(self.out_dir / "patterns.csv", "w", encoding="utf-8", newline="") as fp:
            patterns.to_csv(fp)
        return patterns

    def digests(self, result) -> dict:
        with open(self.out_dir / "patterns.csv", encoding="utf-8") as fp:
            rows = sum(1 for _ in fp) - 1
        if rows != len(result):
            raise OpFailed(f"patterns.csv has {rows} rows for {len(result)} patterns")
        return {"patterns": patterns_digest(result), "report": None}


WORKLOADS = {"tourist_csv": TouristCsv, "clickstream_jsonl": ClickstreamJsonl,
             "long_trips": LongTrips}
