#!/usr/bin/env python3
"""seqmine's benchmark: one op per workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload tourist_csv --seed 42 --seconds 40 --trace 0
    python3 perfbench/run.py --all

Run from anywhere; it imports seqmine from ``src/`` beside this directory and
works in ``.perfbench_work/`` there.  One process, one thread; no miner gets
``workers=``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Times are
given at the speed of a fixed reference machine: each measured time is
divided by the time of ``reference()``, a fixed piece of pure-Python work
timed right beside it, and multiplied by ``REF_S``.  On a shared host the
speed of the CPU swings by up to 1.7x for minutes at a time; the ratio
cancels that, and the wall times are printed as well.

* ``setup_s``: median over nine fresh processes of the time from starting
  the process, including ``import seqmine``, until the inputs are ready,
  each over the reference timed in that process just after; the first
  makes the inputs, the other eight are spread over the timed ops;
* ``peak_mem_mb``: tracemalloc peak of one op, reset before it, in an untimed
  first pass over the input parts; the largest of the parts;
* ``op_s``: ops run back to back for ``--seconds``, cycling over the input
  parts, each followed by a reference call; the median of op over
  reference for each part, averaged over the parts.  The parts average out
  how much work a seed's input makes;
* ``records_per_s``: input records (check-in rows, or sequences) of one
  part, on average, over ``op_s``.

``--trace 1`` reports the per-layer metrics: it alternates untraced and
traced ops over the parts for ``--seconds``, takes the layer times and counts
from the traced op of median time, and writes every span to
``.perfbench_work/traces/``.

Every op's outputs are hashed and checked against the digests recorded in
workloads.json for the seed and input part, or else against the part's first
op of the run.  For a seed without recorded digests, PrefixSpan and SPAM must
also agree on each part's full pattern set, once per workload, seed and
source tree; recorded digests were cross-checked that way when they were
recorded.  The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 120
#: Seconds one ``reference()`` call takes on the machine the benchmark was
#: calibrated on: 2 vCPUs at 2.1 GHz, Python 3.11.  Times are reported at
#: that speed, as measured seconds x REF_S / seconds of a reference call
#: timed beside them.
REF_S = 0.02
#: Reference calls timed after each set-up; their median is the set-up's.
REF_SAMPLES = 5


def reference(n: int = 6000) -> int:
    """Fixed pure-Python work that uses no seqmine code: format, parse, group, sort.

    Timed beside every op and set-up, it tells how fast the machine runs
    Python at that moment, which on a shared host swings by up to 1.7x.
    """
    lines = [f"u{i % 97:05d},{i * 7919 % 100003},cat{i % 41},{i % 13}.{i % 7}"
             for i in range(n)]
    groups: dict[str, list] = {}
    for line in lines:
        user, ts, cat, score = line.split(",")
        groups.setdefault(user, []).append((int(ts), cat, float(score)))
    out = []
    for user in sorted(groups):
        counts: dict[str, int] = {}
        for _, cat, _ in sorted(groups[user]):
            counts[cat] = counts.get(cat, 0) + 1
        out.append(user + ":" + "|".join(f"{c}={k}" for c, k in sorted(counts.items())))
    return len("\n".join(out))


def time_reference() -> float:
    gc.collect()
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit of the end_to_end or per_layer metrics."""
    return {m["name"]: m["unit"] for m in _benchmark()[kind]}


def _tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest of a fixed ladder of percentiles with at least 10 samples beyond it."""
    n = len(samples)
    ladder = [p for p in (75, 90, 95, 99, 99.9) if n * (1 - p / 100) >= 10]
    if not ladder:
        return None
    p = ladder[-1]
    return p, sorted(samples)[math.ceil(p / 100 * n) - 1]


def _source_key(workload) -> str:
    """Hash of the package sources, the benchmark files and the workload inputs."""
    h = hashlib.sha256(f"{workload.name}|{workload.seed}|{workload.scale}".encode())
    for base in (SRC / "seqmine", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:32]


class Run:
    """One benchmark run: ops, their verification and the counters for the result."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.correct = True
        # One entry per input part.  Recorded digests were cross-checked when
        # they were recorded, so a seed that has them needs no cross-check of
        # its own; nor does one whose cross-checked digests are cached.
        self.expected = workload.recorded_digests
        self.cache_path = WORK / "crosscheck" / f"{_source_key(workload)}.json"
        if self.expected is None and self.cache_path.is_file():
            self.expected = json.loads(self.cache_path.read_text(encoding="utf-8"))
        self.cross_checked = self.expected is not None
        self.expected = self.expected or [None] * workload.parts
        self.parts_checked = set()

    def fail(self, message: str) -> None:
        self.correct = False
        print(f"FAIL {self.w.name} seed {self.w.seed}: {message}", file=sys.stderr)

    def _match(self, digests: dict, part: int, source: str) -> bool:
        if self.expected[part] is None:
            self.expected[part] = digests
            return True
        if digests != self.expected[part]:
            self.fail(f"part {part}: digests {digests} differ from "
                      f"{self.expected[part]} ({source})")
            return False
        return True

    def op(self, tracer=None, memory: bool = False, part: int = 0) -> float | None:
        """Run and verify one op; returns its seconds, or None when it failed.

        With ``memory`` the op runs under tracemalloc, reset before it, and its
        peak lands in ``peak_bytes``; verification runs after the trace stops.
        """
        gc.collect()
        self.attempted += 1
        try:
            if tracer is not None:
                with tracer.installed(), tracer.span("op") as root:
                    result = self.w.op(part)
                elapsed = root.duration
            else:
                if memory:
                    tracemalloc.start()
                try:
                    t0 = time.perf_counter()
                    result = self.w.op(part)
                    elapsed = time.perf_counter() - t0
                finally:
                    if memory:
                        self.peak_bytes = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
            ok = self._match(self.w.digests(result), part, f"op {self.attempted}")
        except Exception as exc:  # any failure of an op counts against failed
            self.fail(f"op {self.attempted}: {type(exc).__name__}: {exc}")
            ok = False
        if not ok:
            self.failed += 1
            return None
        return elapsed

    def cross_check(self, tracer, part: int = 0) -> None:
        """PrefixSpan and SPAM agree on the traced op's database and config.

        Once every part has passed, the digests are cached for later runs.
        """
        if self.cross_checked:
            return
        from workloads import patterns_digest
        import seqmine.prefixspan as prefixspan
        import seqmine.spam as spam

        calls = tracer.find("prefixspan.mine") + tracer.find("spam.mine_spam")
        if self.expected[part] is None:
            self.fail(f"part {part}: no verified op to cross-check")
            return
        if len(calls) != 1:
            self.fail(f"expected one miner call in the op, saw {len(calls)}")
            return
        db, cfg = calls[0].args[:2]
        by_growth = prefixspan.mine(db, cfg)
        by_bitmap = spam.mine_spam(db, cfg)
        if by_growth.as_dict() != by_bitmap.as_dict():
            self.fail("PrefixSpan and SPAM disagree on the pattern set")
            return
        if not self._match({**self.expected[part], "patterns": patterns_digest(by_growth)},
                           part, "PrefixSpan/SPAM cross-check"):
            return
        self.parts_checked.add(part)
        self.cross_checked = len(self.parts_checked) == self.w.parts
        if self.cross_checked and self.correct:
            self.cache_path.parent.mkdir(parents=True, exist_ok=True)
            self.cache_path.write_text(json.dumps(self.expected), encoding="utf-8")

    def capacity_probe(self) -> int:
        """Failures of the untimed capacity probe, where the workload has one."""
        if "capacity_probe" not in self.w.spec:
            return 0
        error = self.w.capacity_probe()
        print(f"capacity probe ({self.w.spec['capacity_probe']}): "
              f"{error or 'mined without error'}")
        return int(error is not None)

    def result(self, metrics: dict) -> dict:
        return {"correct": self.correct and self.failed == 0 and self.cross_checked,
                "attempted": self.attempted, "failed": self.failed, "metrics": metrics}


def _setup_in_child(args, work_dir: Path) -> tuple[float, float]:
    """Wall seconds from starting a fresh process to its inputs ready in
    ``work_dir``, and the seconds of a reference call the process then times."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", str(args.scale),
           "--setup-only", str(work_dir)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter() - t0
        rest = child.stdout.read().split()
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    if code != 0 or line.strip() != "ready" or rest[:1] != ["reference"]:
        raise RuntimeError(f"set-up process exited {code} before its inputs were ready")
    return ready, float(rest[1])


def measure(args, workload) -> dict:
    run = Run(workload)
    metrics = {}
    units = _units("end_to_end")
    # The first set-up makes the inputs the ops read; the others are spread
    # over the timed ops and write to a directory of their own.
    setups = [_setup_in_child(args, workload.work_dir)]
    workload.load()
    print(f"records: {workload.records}")

    # Untimed first pass: memory, which also warms lazy imports for the timed ops.
    peaks = []
    for part in range(workload.parts):
        run.op(memory=True, part=part)
        peaks.append(run.peak_bytes)
    metrics["peak_mem_mb"] = max(peaks) / 1e6
    if not run.cross_checked:
        from spans import Tracer

        for part in range(workload.parts):
            tracer = Tracer()
            run.op(tracer, part=part)
            run.cross_check(tracer, part)
            del tracer

    # Whole rounds over the parts, so that every part gets its ops.  A
    # reference call follows each op; the op's time over the reference's is
    # its cost at the speed the machine had just then.
    time_reference()
    setup_due = [args.seconds * k / SETUP_SAMPLES for k in range(1, SETUP_SAMPLES)]
    times = [[] for _ in range(workload.parts)]
    ratios = [[] for _ in range(workload.parts)]
    refs = []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        for part in range(workload.parts):
            if setup_due and time.perf_counter() - start >= setup_due[0]:
                setup_due.pop(0)
                setups.append(_setup_in_child(args, workload.work_dir / "setup"))
            elapsed = run.op(part=part)
            refs.append(time_reference())
            if elapsed is not None:
                times[part].append(elapsed)
                ratios[part].append(elapsed / refs[-1])
    for _ in setup_due:
        setups.append(_setup_in_child(args, workload.work_dir / "setup"))
    probe_failures = run.capacity_probe()
    metrics["setup_s"] = REF_S * statistics.median(wall / ref for wall, ref in setups)
    print("set-ups, wall s (reference s): "
          + " ".join(f"{wall:.4f} ({ref:.4f})" for wall, ref in setups))
    print(f"reference call: median {statistics.median(refs):.4f} s over {len(refs)} calls")
    if all(times):
        metrics["op_s"] = REF_S * statistics.fmean(statistics.median(r) for r in ratios)
        metrics["records_per_s"] = sum(workload.records) / (metrics["op_s"] * workload.parts)
        for part, t in enumerate(times):
            print(f"part {part}: {len(t)} ops, wall s fastest {min(t):.4f} median "
                  f"{statistics.median(t):.4f}; op / reference median "
                  f"{statistics.median(ratios[part]):.3f}")
    every = [t for part_times in times for t in part_times]
    scaled = [REF_S * r for part_ratios in ratios for r in part_ratios]
    print(f"op: {len(every)} ops, median wall {statistics.median(every) if every else 0:.4f} s, "
          f"median at reference speed {statistics.median(scaled) if scaled else 0:.4f} s")
    tail = _tail_percentile(scaled)
    if tail:
        print(f"op: p{tail[0]:g} at reference speed {tail[1]:.4f} s")
    print(f"digests: {json.dumps(run.expected)}")
    print(f"failed_frac: {run.failed}/{run.attempted} = {run.failed / run.attempted:g} frac")
    print(f"capacity probe failures: {probe_failures} (not counted in failed)")
    for name, unit in units.items():
        if name in metrics:
            print(f"{name}: {metrics[name]:.6g} {unit}")
    return run.result({k: {"value": metrics[k], "unit": u}
                       for k, u in units.items() if k in metrics})


def trace(args, workload) -> dict:
    from spans import Tracer, index_metrics, layer_counts

    run = Run(workload)
    units = _units("per_layer")
    setup = Tracer()
    with setup.installed():
        workload.make_inputs()
    workload.load()
    # Warm-up ops, one per part, traced so that their databases feed the
    # cross-check and part 0's the index metrics; their tracers are dropped
    # before the measured ops.
    for part in range(workload.parts):
        capture = Tracer()
        run.op(capture, part=part)
        run.cross_check(capture, part)
        if part == 0:
            index = index_metrics(capture)
        del capture

    # Each traced op is reduced to numbers at once, so no op runs while an
    # earlier op's objects are kept alive.
    untraced, traced = [[] for _ in range(workload.parts)], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        for part in range(workload.parts):
            elapsed = run.op(part=part)
            if elapsed is not None:
                untraced[part].append(elapsed)
            tracer = Tracer()
            elapsed = run.op(tracer, part=part)
            if elapsed is not None:
                traced.append({"part": part, "op_s": elapsed, "layers": tracer.layer_times(),
                               "counts": layer_counts(tracer), "spans": tracer.dump()})
            del tracer
    if not traced or not all(untraced):
        return run.result({})
    traced.sort(key=lambda t: t["op_s"])
    chosen = traced[(len(traced) - 1) // 2]

    metrics = dict.fromkeys(units, 0.0)
    metrics.update(chosen["layers"])
    metrics.update(chosen["counts"])
    metrics.update(index)
    metrics.update({k: v for k, v in setup.layer_times().items() if k.startswith("synth.")})
    metrics["trace.op_s"] = chosen["op_s"]
    metrics["trace.overhead_s"] = chosen["op_s"] - statistics.median(untraced[chosen["part"]])
    metrics["spam.capacity_probe_failures"] = run.capacity_probe()

    out = WORK / "traces" / f"{workload.name}-seed{workload.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"setup": setup.dump(), "ops": traced,
                               "median_op": traced.index(chosen)}, indent=1))
    print(f"digests: {json.dumps(run.expected)}")
    print(f"traced ops: {len(traced)}, untraced ops: {sum(map(len, untraced))}; "
          f"spans written to {out}")
    print(f"layer times + cli.untraced_s = {sum(chosen['layers'].values()):.6f} s; "
          f"traced op = {chosen['op_s']:.6f} s")
    for name, unit in units.items():
        print(f"{name}: {metrics[name]:.6g} {unit}")
    return run.result({k: {"value": metrics[k], "unit": u} for k, u in units.items()})


def run_all(args) -> int:
    """Every workload at its default seed, untraced then traced, in child processes."""
    import workloads

    results = {}
    for name, spec in workloads.SPECS.items():
        for flag in ("0", "1"):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(spec["default_seed"]), "--seconds", str(args.seconds),
                   "--trace", flag]
            print(f"== {name} --trace {flag}", flush=True)
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if done.returncode != 0 or not lines:
                print(f"{name} --trace {flag} exited {done.returncode}", file=sys.stderr)
                return 1
            results.setdefault(name, {})[f"trace{flag}"] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="every workload at its default seed, untraced and traced")
    parser.add_argument("--seed", type=int, default=None,
                        help="generator seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="fraction of the workload's users, for smoke tests")
    parser.add_argument("--setup-only", metavar="DIR", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "seqmine" / "__init__.py").is_file():
        print(f"error: no seqmine sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.seconds is None:
        args.seconds = _benchmark()["run_seconds"]

    if args.all:
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.seed is None:
        args.seed = workloads.SPECS[args.workload]["default_seed"]

    if args.setup_only:
        Path(args.setup_only).mkdir(parents=True, exist_ok=True)
        w = workloads.WORKLOADS[args.workload](args.workload, args.seed, args.scale,
                                               Path(args.setup_only))
        w.make_inputs()
        print("ready", flush=True)
        ref = statistics.median(time_reference() for _ in range(REF_SAMPLES))
        print(f"reference {ref!r}", flush=True)
        return 0

    work_dir = WORK / f"run-{args.workload}-{args.seed}-{time.time_ns()}"
    work_dir.mkdir(parents=True)
    try:
        w = workloads.WORKLOADS[args.workload](args.workload, args.seed, args.scale, work_dir)
        print(f"workload {w.name} seed {w.seed} scale {w.scale} seconds {args.seconds}")
        result = (trace if args.trace else measure)(args, w)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
