"""The benchmark's tracer (perfbench/tracing.py) still finds the functions it
instruments, so a rename in the package fails here and not only under
``perfbench/run.py --trace 1``."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import orient_bayes

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
