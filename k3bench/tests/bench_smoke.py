"""Short runs of the benchmark: one round of each workload, with its checks.

    python -m pytest k3bench/tests/bench_smoke.py

The `bench_` prefix keeps the repository's default test collection away from
this file; it takes about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from run import WORKLOADS  # noqa: E402
from tracer import METRICS  # noqa: E402


def _round(workload, *extra):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
                           "--seed", "7", *extra], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_round_passes_its_checks(workload):
    out = _round(workload)
    assert out["tasks"] > 0
    assert (out["failed"], out["wrong"]) == (0, 0)
    assert out["timed_s"] > 0 and out["setup_s"] > 0 and out["peak_rss_mb"] > 0


def test_traced_rounds_report_every_layer_metric_with_repeating_counts():
    first, second = _round("mindeg-scan", "--trace"), _round("mindeg-scan", "--trace")
    assert set(first["layers"]) == {name for name, *_ in METRICS}
    counts = [name for name, unit, *_ in METRICS if unit == "count"]
    assert [first["layers"][c] for c in counts] == [second["layers"][c] for c in counts]
    assert first["layers"]["roots.in_cn.calls"] > 100
    assert first["layers"]["cli.main.calls"] == 2 * (first["tasks"] - 1)


def test_benchmark_json_lists_the_tracer_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, unit, better) for name, unit, better, *_ in METRICS]


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "k3bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "k3bench/run.py", "--workload", "k3-orbit", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
