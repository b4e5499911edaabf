"""Spans around the calls into seqmine's layers, recorded from outside the package.

While a ``Tracer`` is installed, every reference that a ``seqmine`` module
holds to a traced public function (module globals and registry dicts such as
the CLI's miner table) points at a wrapper that records a span: name, start,
end and the index of the enclosing span.  The wrapper also keeps the call's
positional arguments and result, so counts are derived after the op, at the same
boundaries, without adding work inside the timed spans.  Nothing in the
package is edited; ``uninstall`` puts every reference back.
"""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: (module, attribute, span name) of each traced public call.  Functions are
#: rebound wherever the package refers to them; ``Class.method`` entries are
#: rebound on the class.
TRACED_CALLS = (
    ("seqmine.checkins", "default_config", "checkins.default_config"),
    ("seqmine.checkins", "parse_checkins", "checkins.parse_checkins"),
    ("seqmine.checkins", "run_pipeline", "checkins.run_pipeline"),
    ("seqmine.checkins", "apply_activity_map", "checkins.apply_activity_map"),
    ("seqmine.checkins", "segment_windows", "checkins.segment_windows"),
    ("seqmine.checkins", "group_by_user", "checkins.group_by_user"),
    ("seqmine.checkins", "build_sequences", "checkins.build_sequences"),
    ("seqmine.prefixspan", "mine", "prefixspan.mine"),
    ("seqmine.prefixspan", "PatternSet.to_csv", "prefixspan.to_csv"),
    ("seqmine.prefixspan", "PatternSet.to_jsonl", "prefixspan.to_jsonl"),
    ("seqmine.spam", "mine_spam", "spam.mine_spam"),
    ("seqmine.rules", "build_report", "rules.build_report"),
    ("seqmine.rules", "write_report_csv", "rules.write_report_csv"),
    ("seqmine.rules", "write_report_jsonl", "rules.write_report_jsonl"),
    ("seqmine.synth", "generate_synthetic", "synth.generate_synthetic"),
    ("seqmine.synth", "serialize_checkins", "synth.serialize_checkins"),
)

#: Per-layer time metric that each span's self time counts towards.  The
#: self time of ``run_pipeline`` is its filter that drops the unwindowed
#: groups, so it counts as grouping.  The root span's self time is the op's
#: time outside every traced call.
SELF_TIME_METRIC = {
    "op": "cli.untraced_s",
    "checkins.default_config": "checkins.config_s",
    "checkins.parse_checkins": "checkins.parse_s",
    "checkins.run_pipeline": "checkins.group_s",
    "checkins.apply_activity_map": "checkins.tag_s",
    "checkins.segment_windows": "checkins.group_s",
    "checkins.group_by_user": "checkins.group_s",
    "checkins.build_sequences": "checkins.build_s",
    "prefixspan.mine": "prefixspan.mine_s",
    "prefixspan.to_csv": "prefixspan.write_s",
    "prefixspan.to_jsonl": "prefixspan.write_s",
    "spam.mine_spam": "spam.mine_s",
    "rules.build_report": "rules.report_s",
    "rules.write_report_csv": "rules.write_s",
    "rules.write_report_jsonl": "rules.write_s",
    "synth.generate_synthetic": "synth.generate_s",
    "synth.serialize_checkins": "synth.serialize_s",
}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    args: tuple = ()
    result: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Holds the spans of one traced region in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _open(self, name: str, args: tuple = ()) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, args=args))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self._open(name, args)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            self.spans[index].result = result
            return result

        return traced

    def install(self) -> None:
        """Rebind every package reference to a traced call to its wrapper."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "seqmine" or n.startswith("seqmine."))]
        for module_name, attr, name in TRACED_CALLS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original))
                self._restore.append((setattr, cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((setattr, module, key, original))
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper
                                self._restore.append((dict.__setitem__, value, k, original))

    def uninstall(self) -> None:
        while self._restore:
            setter, target, key, original = self._restore.pop()
            setter(target, key, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def find(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def layer_times(self) -> dict[str, float]:
        """Self time summed per layer metric; the values add up to the root spans."""
        out: dict[str, float] = {}
        for s, own in zip(self.spans, self.self_times()):
            metric = SELF_TIME_METRIC[s.name]
            out[metric] = out.get(metric, 0.0) + own
        return out

    def dump(self) -> list[dict]:
        """JSON-ready spans, times relative to the first span's start."""
        base = self.spans[0].start if self.spans else 0.0
        return [
            {"id": i, "name": s.name, "parent": s.parent,
             "start_s": s.start - base, "end_s": s.end - base, "self_s": own}
            for i, (s, own) in enumerate(zip(self.spans, self.self_times()))
        ]


def layer_counts(tracer: Tracer) -> dict[str, float]:
    """Counts taken at the span boundaries from each call's arguments and result."""
    out: dict[str, float] = {}
    for s in tracer.spans:
        r = s.result
        if s.name == "checkins.parse_checkins":
            out["checkins.rows"] = len(r.checkins)
            out["checkins.rejects"] = len(r.rejects)
        elif s.name == "checkins.apply_activity_map":
            categories = {c.category for c in s.args[0]}
            out["checkins.tag_calls_per_category"] = (len(r) + r.dropped) / max(1, len(categories))
            out["checkins.dropped"] = r.dropped
            out["checkins.unmatched"] = sum(r.unmatched.values())
        elif s.name == "checkins.run_pipeline":
            out["checkins.groups"] = r.n_groups
        elif s.name == "checkins.build_sequences":
            out["checkins.sequences"] = len(r)
            out["checkins.elements"] = sum(len(q.elements) for q in r.sequences)
        elif s.name in ("prefixspan.mine", "spam.mine_spam"):
            out[s.name.split(".")[0] + ".patterns"] = len(r)
        elif s.name == "rules.build_report":
            patterns, db = s.args[:2]
            mined = patterns.as_dict()
            out["rules.candidates"] = len(patterns)
            out["rules.rows"] = len(r)
            out["rules.antecedent_fallbacks"] = sum(
                row.pattern.sequence.elements[:-1] not in mined for row in r)
            # Base: one full pattern_frequency scan of the database per row.
            scanned = len(r) * len(db)
            out["rules.scan_hit_ratio"] = (
                sum(row.pattern.support_count for row in r) / scanned if scanned else 0.0)
    return out


def index_metrics(tracer: Tracer, repeats: int = 3) -> dict[str, float]:
    """A separate build_bitmaps on the database the op gave mine_spam, and its lanes."""
    import seqmine.spam as spam

    calls = tracer.find("spam.mine_spam")
    if not calls:
        return {}
    db = calls[0].args[0]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        index = spam.build_bitmaps(db)
        times.append(time.perf_counter() - t0)
    out = {"spam.index_s": statistics.median(times),
           "spam.index_bytes": sum(lane.item_bits.nbytes for lane in index.lanes)}
    for lane in index.lanes:
        out[f"spam.lane{lane.width}_seqs"] = len(lane.seq_indices)
    return out
