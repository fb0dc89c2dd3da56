"""Spans around the public functions of ``orient_bayes``, recorded from outside.

:func:`instrument` replaces the public functions of ``so3``, ``forward``,
``estimators``, ``reconstruct`` and ``bench`` with wrappers that record one
span per call (name, start, end, parent span, thread) and a few counters
computed from argument shapes.  The package modules call each other through
module attributes, so patching those attributes catches every cross-module
call.  Two references are held directly and are patched where they live:
the step functions in ``reconstruct._STEPS``, and the task function that
``bench.parallel_map`` hands to its worker threads, which is wrapped so that
work done in a worker is parented to the ``bench.parallel_map`` span.

A span's self time is its duration minus the union of its children's
intervals.  Spans are kept in memory and written out by the caller.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

MODULES = ("so3", "forward", "estimators", "reconstruct", "bench")
MODES = ("soft_em", "mmse_align", "hard_map")
STEP_SPANS = tuple(f"reconstruct.{mode}" for mode in MODES)

# Functions grouped under one span name; every other public function is
# recorded as "<module>.<function>".
SPAN_NAMES = {
    "so3.sample_uniform": "so3.sample",
    "so3.ig_sample": "so3.sample",
    "so3.build_inverse_cdf": "so3.sample",
    "so3.RotationPrior.sample": "so3.sample",
    "so3.procrustes_project": "so3.procrustes",
    "so3.procrustes_project_batch": "so3.procrustes",
    "so3.geodesic_distance": "so3.geodesic",
    "so3.geodesic_distances": "so3.geodesic",
    "forward.make_polar_phantom": "forward.make_phantom",
    "forward.write_obv": "bench.emit",
    "estimators.CandidateSet.build": "estimators.build",
    "estimators.normalized_log_weights": "estimators.log_weights",
    "estimators.log_weights_batch": "estimators.log_weights",
    "estimators.posterior_weights": "estimators.log_weights",
    "estimators.map_indices_batch": "estimators.map",
    "estimators.map_estimate": "estimators.map",
    "estimators.mmse_rotations_batch": "estimators.mmse",
    "estimators.mmse_estimate": "estimators.mmse",
    "estimators.mmse_raw_average": "estimators.mmse",
    "reconstruct.run_reconstruction": "reconstruct.run",
    "reconstruct.write_trace": "bench.emit",
    "bench.emit_csv": "bench.emit",
    "bench.emit_json": "bench.emit",
}


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float
    thread: int


class Tracer:
    """In-memory span and counter store; safe to use from worker threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.workers: dict[int, int] = {}  # bench.parallel_map span id -> threads used
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, fn, args=(), kwargs=None, parent=None):
        """Run ``fn`` inside a span; ``parent`` defaults to this thread's open span."""
        stack = self._stack()
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, parent, start, end, threading.get_ident()))

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def maximum(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = max(self.counts[key], value)

    def wrap(self, fn, name: str, hook=None):
        """Span wrapper; ``hook(args, kwargs, result)`` runs in a ``trace.hook``
        span so counter work is not billed to the caller's self time.  Calls
        made outside any open span (the benchmark's own checks) are not
        recorded."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack():
                return fn(*args, **kwargs)
            result = self.call(name, fn, args, kwargs)
            if hook is not None:
                self.call("trace.hook", hook, (args, kwargs, result))
            return result

        return wrapper

    def write(self, path) -> None:
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "start": s.start - t0, "end": s.end - t0, "thread": s.thread,
                }) + "\n")


def _hooks(tracer: Tracer, ob) -> dict:
    """Counters recorded at layer boundaries, keyed by qualified function name."""

    scoring_sig = inspect.signature(ob.estimators.normalized_log_weights)

    def scoring(args, kwargs, log_w):
        bound = scoring_sig.bind(*args, **kwargs).arguments
        ys, x = np.atleast_2d(bound["ys"]), bound["x"]
        m, (l, d) = ys.shape[0], x.shape
        tracer.add("log_weights.flop", 2.0 * m * l * d + 2.0 * (m + l) * d)
        tracer.add("log_weights.bytes", 8.0 * (m * d + l * d + m * l))
        tracer.maximum("templates_mb", x.nbytes / 1e6)
        tracer.add("support.sum", np.count_nonzero(np.any(x != 0, axis=0)) / d)
        tracer.add("support.n", 1)
        w = np.exp(log_w)
        tracer.add("ess.sum", float(np.sum(1.0 / np.sum(w * w, axis=1))) / l)
        tracer.add("ess.rows", m)

    def emitted(fn):
        sig = inspect.signature(fn)

        def hook(args, kwargs, result):
            tracer.add("emit.bytes", os.path.getsize(sig.bind(*args, **kwargs).arguments["path"]))

        return hook

    return {
        "so3.procrustes_project": lambda a, k, r: tracer.add("procrustes.matrices", 1),
        "so3.procrustes_project_batch": lambda a, k, r: tracer.add("procrustes.matrices", len(r)),
        "estimators.normalized_log_weights": scoring,
        "estimators.CandidateSet.build": lambda a, k, r: tracer.maximum("templates_mb", r.templates.nbytes / 1e6),
        "forward.write_obv": emitted(ob.forward.write_obv),
        "reconstruct.write_trace": emitted(ob.reconstruct.write_trace),
        "bench.emit_csv": emitted(ob.bench.emit_csv),
        "bench.emit_json": emitted(ob.bench.emit_json),
    }


def instrument(ob, tracer: Tracer):
    """Wrap the package's public functions; returns a callable that undoes it."""
    hooks = _hooks(tracer, ob)
    steps = ob.reconstruct._STEPS
    originals = dict(steps)
    names = {**SPAN_NAMES, **{f"reconstruct.{fn.__name__}": f"reconstruct.{mode}" for mode, fn in steps.items()}}
    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def traced(qualname, fn):
        default = "bench.run" if qualname.startswith("bench.run_") else qualname
        return tracer.wrap(fn, names.get(qualname, default), hooks.get(qualname))

    for modname in MODULES:
        mod = getattr(ob, modname)
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            if (modname, attr) == ("bench", "parallel_map"):
                patch(mod, attr, _traced_parallel_map(tracer, ob.bench, fn))
            else:
                patch(mod, attr, traced(f"{modname}.{attr}", fn))

    build = ob.estimators.CandidateSet.__dict__["build"].__func__
    patch(ob.estimators.CandidateSet, "build", classmethod(traced("estimators.CandidateSet.build", build)))
    patch(ob.so3.RotationPrior, "sample", traced("so3.RotationPrior.sample", ob.so3.RotationPrior.sample))

    # run_reconstruction looks steps up in this dict, not on the module
    steps.update({mode: getattr(ob.reconstruct, fn.__name__) for mode, fn in originals.items()})

    def uninstall():
        steps.update(originals)
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return uninstall


def _traced_parallel_map(tracer: Tracer, bench, orig):
    def parallel_map(fn, items, threads=None):
        items = list(items)
        n = bench.worker_count(threads)
        pid = tracer.current()
        tracer.workers[pid] = 1 if n == 1 or len(items) <= 1 else min(n, len(items))

        def task(item):
            return tracer.call("bench.task", fn, (item,), parent=pid)

        return orig(task, items, threads)

    return tracer.wrap(functools.wraps(orig)(parallel_map), "bench.parallel_map")


def _union(intervals) -> float:
    covered, end = 0.0, -float("inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            covered += hi - max(lo, end)
            end = hi
    return covered


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    kids = defaultdict(list)
    for s in spans:
        kids[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _union(kids[s.id]) for s in spans}


def layer_metrics(tracer: Tracer, calls: int, root: str = "cli.main") -> dict:
    """Per-layer metrics per CLI call, as {name: (value, unit)}."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    selft = self_times(spans)
    self_s, dur_s, entries = defaultdict(float), defaultdict(float), defaultdict(int)
    for s in spans:
        self_s[s.name] += selft[s.id]
        dur_s[s.name] += s.end - s.start
        parent = by_id.get(s.parent)
        if parent is None or parent.name != s.name:
            entries[s.name] += 1

    rotations = defaultdict(int)  # per EM mode: rotate_volume calls inside its steps
    for s in spans:
        if s.name == "forward.rotate_volume":
            p = by_id.get(s.parent)
            while p is not None and p.name not in STEP_SPANS:
                p = by_id.get(p.parent)
            if p is not None:
                rotations[p.name] += 1

    roots = [s for s in spans if s.name == root]
    root_time = sum(s.end - s.start for s in roots)
    covered = root_time - sum(selft[s.id] for s in roots)

    c = tracer.counts
    pm = [s for s in spans if s.name == "bench.parallel_map"]
    capacity = sum((s.end - s.start) * tracer.workers.get(s.id, 1) for s in pm)
    steps = sum(entries[n] for n in STEP_SPANS)

    def per_call(v):
        return v / calls

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "so3.sample.calls": (per_call(entries["so3.sample"]), "count"),
        "so3.sample.self_s": (per_call(self_s["so3.sample"]), "s"),
        "so3.procrustes.matrices": (per_call(c["procrustes.matrices"]), "count"),
        "so3.procrustes.self_s": (per_call(self_s["so3.procrustes"]), "s"),
        "so3.geodesic.self_s": (per_call(self_s["so3.geodesic"]), "s"),
        "forward.rotate_volume.calls": (per_call(entries["forward.rotate_volume"]), "count"),
        "forward.rotate_volume.self_s": (per_call(self_s["forward.rotate_volume"]), "s"),
        "forward.rotate_volume.ms_per_call": (
            1e3 * ratio(self_s["forward.rotate_volume"], entries["forward.rotate_volume"]), "ms"),
        "forward.make_phantom.self_s": (per_call(self_s["forward.make_phantom"]), "s"),
        "estimators.build.self_s": (per_call(self_s["estimators.build"]), "s"),
        "estimators.templates_mb": (c["templates_mb"], "MB"),
        "estimators.support_frac": (ratio(c["support.sum"], c["support.n"]), "ratio"),
        "estimators.log_weights.calls": (per_call(entries["estimators.log_weights"]), "count"),
        "estimators.log_weights.self_s": (per_call(self_s["estimators.log_weights"]), "s"),
        "estimators.log_weights.gflop": (per_call(c["log_weights.flop"]) / 1e9, "GFLOP"),
        "estimators.log_weights.gflop_per_s": (
            ratio(c["log_weights.flop"] / 1e9, self_s["estimators.log_weights"]), "GFLOP/s"),
        "estimators.log_weights.flop_per_byte": (ratio(c["log_weights.flop"], c["log_weights.bytes"]), "flop/B"),
        "estimators.map.self_s": (per_call(self_s["estimators.map"]), "s"),
        "estimators.mmse.self_s": (per_call(self_s["estimators.mmse"]), "s"),
        "estimators.ess_frac": (ratio(c["ess.sum"], c["ess.rows"]), "ratio"),
        "reconstruct.iters": (per_call(steps), "count"),
        "reconstruct.run.self_s": (per_call(self_s["reconstruct.run"]), "s"),
        "reconstruct.rotations_per_iter": (ratio(sum(rotations.values()), steps), "count"),
        "reconstruct.pcc.calls": (per_call(entries["reconstruct.pcc"]), "count"),
        "reconstruct.pcc.self_s": (per_call(self_s["reconstruct.pcc"]), "s"),
        "bench.run.self_s": (per_call(self_s["bench.run"] + self_s["bench.task"]), "s"),
        "bench.parallel_map.wall_s": (per_call(dur_s["bench.parallel_map"]), "s"),
        "bench.parallel_map.busy_frac": (ratio(dur_s["bench.task"], capacity), "ratio"),
        "bench.emit.self_s": (per_call(self_s["bench.emit"]), "s"),
        "bench.emit.bytes": (per_call(c["emit.bytes"]), "B"),
        "trace.coverage_frac": (ratio(covered, root_time), "ratio"),
    }
    for mode in MODES:
        span = f"reconstruct.{mode}"
        m[f"reconstruct.{mode}.s_per_iter"] = (ratio(dur_s[span], entries[span]), "s")
        m[f"reconstruct.{mode}.rotations_per_iter"] = (ratio(rotations[span], entries[span]), "count")
    return m

