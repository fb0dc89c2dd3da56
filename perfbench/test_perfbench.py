"""Self-test of the benchmark at toy sizes: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import tracing
from workloads import TOY, WORKLOADS, result_drift

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def ob():
    return run.import_package()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    proc = bench("--workload", name, "--toy", "--seconds", "0.5", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    for metric in declared:
        assert f"  {metric['name']} " in proc.stdout  # the human-readable report names it too


@pytest.mark.parametrize("name", ["em_volume", "em_polar"])
def test_spans_nest_and_cover_the_call(ob, name, tmp_path):
    workload = WORKLOADS[name]
    before = (ob.forward.rotate_volume, dict(ob.reconstruct._STEPS), ob.bench.parallel_map)
    tracer = tracing.Tracer()
    uninstall = tracing.instrument(ob, tracer)
    try:
        cfg = workload.config(3, TOY)
        client = run.Client(ob, workload, cfg, tmp_path)
        client.call(tracer)
    finally:
        uninstall()
    assert (ob.forward.rotate_volume, dict(ob.reconstruct._STEPS), ob.bench.parallel_map) == before
    assert client.checks[0].failed == 0

    by_id = {s.id: s for s in tracer.spans}
    assert [s.name for s in tracer.spans if s.parent is None] == ["cli.main"]
    for s in tracer.spans:
        assert s.start <= s.end
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end, (parent.name, s.name)
    assert min(tracing.self_times(tracer.spans).values()) >= -1e-9
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["trace.coverage_frac"][0] == pytest.approx(1.0, abs=0.1)
    assert metrics["reconstruct.iters"][0] == 3 * cfg["max_iters"] * cfg.get("noise_seeds", 1)
    if name == "em_polar":
        assert metrics["forward.rotate_volume.calls"][0] == 0
        assert any(s.name == "bench.task" and s.thread != by_id[s.parent].thread for s in tracer.spans)
    else:
        for mode in tracing.MODES:
            assert metrics[f"reconstruct.{mode}.rotations_per_iter"][0] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_a_rejected_config_fails_every_operation(ob, name, tmp_path):
    workload = WORKLOADS[name]
    cfg = {**workload.config(0, TOY), "L": 0}
    client = run.Client(ob, workload, cfg, tmp_path)
    client.call()
    check = client.checks[0]
    assert check.ops > 0 and check.failed == check.ops


def test_result_drift_against_a_reference():
    rows = [{"estimator": "map", "sigma": 0.5, "metric_mean": 2.0},
            {"estimator": "mmse", "sigma": 0.5, "metric_mean": 1.0}]
    ref = {"keys": [["map", 0.5], ["mmse", 0.5]], "metric_mean": [2.0, 1.0]}
    assert result_drift(rows, ref) == 0.0
    rows[1]["metric_mean"] = 1.001
    assert result_drift(rows, ref) == pytest.approx(1e-3)
    assert result_drift(rows[:1], ref) == math.inf


def test_reference_covers_the_default_seed():
    ref = run.load_reference()
    for name in WORKLOADS:
        assert "0" in ref[name]


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "em_polar", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json", "perfbench"]
