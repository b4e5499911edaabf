#!/usr/bin/env python3
"""Record the output digests of workloads.json, each cross-checked by both miners.

    python3 perfbench/record_digests.py tourist_csv clickstream_jsonl

For every workload named and each seed of 0-10 plus its default seed, one op
per input part runs at full size, PrefixSpan and SPAM must agree on the full
pattern set of each op's database, and the ops' digests replace those
recorded for the seed.
Nothing is written unless every seed passes.  Run it after a change to a
workload's input or op, or to what the package writes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPECS_PATH = HERE / "workloads.json"


def record(name: str) -> dict:
    spec = workloads.SPECS[name]
    digests = {}
    for seed in sorted({*range(11), spec["default_seed"]}):
        run.WORK.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            w = workloads.WORKLOADS[name](name, seed, 1.0, Path(tmp))
            w.make_inputs()
            w.load()
            r = run.Run(w)
            r.expected, r.cross_checked = [None] * w.parts, False
            for part in range(w.parts):
                tracer = Tracer()
                r.op(tracer, part=part)
                r.cross_check(tracer, part)
            if not (r.correct and r.cross_checked and r.failed == 0):
                raise SystemExit(f"{name} seed {seed}: not recorded")
            digests[str(seed)] = r.expected
            print(f"{name} seed {seed}: {r.expected}", flush=True)
    return digests


def main(argv: list[str]) -> int:
    names = argv or [n for n in workloads.SPECS]
    recorded = {name: record(name) for name in names}
    specs = json.loads(SPECS_PATH.read_text(encoding="utf-8"))
    for name, digests in recorded.items():
        specs[name]["digests"] = digests
    SPECS_PATH.write_text(json.dumps(specs, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
