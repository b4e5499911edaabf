"""Smoke test of the benchmark: each workload at a tiny size, untraced and traced.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
# The workloads of BENCHMARK.json plus those kept for runs by hand.
WORKLOADS = list(json.loads((HERE / "workloads.json").read_text(encoding="utf-8")))

#: Per-layer time metrics that, with cli.untraced_s, partition the traced op.
OP_LAYER_TIMES = (
    "checkins.config_s", "checkins.parse_s", "checkins.tag_s", "checkins.group_s",
    "checkins.build_s", "prefixspan.mine_s", "prefixspan.write_s", "spam.mine_s",
    "rules.report_s", "rules.write_s", "cli.untraced_s",
)


def _run(*args, cwd=None):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric_and_verifies(workload, trace, kind):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--scale", "0.08")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 2
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in BENCH[kind]}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        spans = sum(values[name] for name in OP_LAYER_TIMES)
        assert spans == pytest.approx(values["trace.op_s"], rel=1e-9, abs=1e-9)
        assert values["spam.capacity_probe_failures"] == (workload == "clickstream_jsonl")
    else:
        assert all(v > 0 for v in values.values())


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, str(tmp_path / HERE.name / "run.py"),
                           "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
