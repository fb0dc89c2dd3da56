"""The benchmark's tracer (perfbench/tracing.py) still finds the functions it
instruments, so a rename in the package fails here and not only under
``perfbench/run.py --trace 1``."""

import importlib.util
import json
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from small_configs import SMALL

import orient_bayes
import orient_bayes.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    # dataclasses look their module up in sys.modules while it executes
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_the_scoring_function(monkeypatch):
    tracing = load_tracing(monkeypatch)
    original = orient_bayes.estimators.normalized_log_weights
    tracer = tracing.Tracer()
    uninstall = tracing.instrument(orient_bayes, tracer)
    try:
        rng = np.random.default_rng(0)
        ys, x = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
        traced = orient_bayes.estimators.normalized_log_weights
        log_w = tracer.call("cli.main", traced, (ys, x, 1.0))
    finally:
        uninstall()
    assert traced is not original
    assert orient_bayes.estimators.normalized_log_weights is original
    assert np.array_equal(log_w, original(ys, x, 1.0))
    # the scoring hook bound ys and x by name and counted one 3 x 5 scoring
    assert tracer.counts["ess.rows"] == 3
    assert tracer.counts["support.n"] == 1
    assert tracer.counts["log_weights.flop"] == 2.0 * 3 * 5 * 4 + 2.0 * (3 + 5) * 4
    assert [s.name for s in tracer.spans].count("estimators.log_weights") == 1


# What each task of an observation fill calls, of the traced functions: a
# sweep adds noise to its clean stack, recover3d rotates the truth and adds
# noise in one task.
ROW_CALLS = {"snr_sweep": [], "recover3d": ["forward.rotate_volume"]}


@pytest.mark.parametrize("name", sorted(ROW_CALLS))
def test_tracer_sees_every_pooled_fill(monkeypatch, tmp_path, name):
    # bench must look parallel_map up when it runs: bound as a default
    # argument, the tracer's patched bench.parallel_map would miss the fills
    tracing = load_tracing(monkeypatch)
    monkeypatch.setenv("OB_THREADS", "2")
    raw = SMALL[name]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    argv = [raw["experiment"], "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    tracer = tracing.Tracer()
    uninstall = tracing.instrument(orient_bayes, tracer)
    try:
        assert tracer.call("cli.main", orient_bayes.cli.main, (argv,)) == 0
    finally:
        uninstall()
    by_id = {s.id: s for s in tracer.spans}
    children = defaultdict(list)
    for s in tracer.spans:
        children[s.parent].append(s)

    def ancestors(span):
        while span.parent is not None:
            span = by_id[span.parent]
            yield span.name

    rotations = [s for s in tracer.spans if s.name == "forward.rotate_volume"]
    assert rotations and all("bench.task" in ancestors(s) for s in rotations)
    # an observation fill: a pooled map the run opens itself, one per sigma, one task per row
    fills = [s for s in tracer.spans if s.name == "bench.parallel_map" and by_id[s.parent].name == "bench.run"]
    rows = raw.get("trials", raw.get("M"))
    tasks = [[c for c in children[s.id] if c.name == "bench.task"] for s in fills]
    assert [len(t) for t in tasks] == [rows] * len(raw["sigmas"])
    assert all([c.name for c in children[task.id]] == ROW_CALLS[name] for t in tasks for task in t)
