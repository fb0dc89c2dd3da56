#!/usr/bin/env python3
"""Benchmark of the orient-bayes CLI: one closed-loop client per workload.

Run from the repository root:

    python3 perfbench/run.py --workload {sweep_volume,em_volume,em_polar,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own fresh process and calls
``orient_bayes.cli.main`` in-process, one experiment at a time, on a config
generated from ``--seed``, until ``--seconds`` have passed.  Every call's
outputs are range-checked (see ``workloads.py``) and, for seeds stored in
``reference.json``, compared with the stored ``results.csv`` values.

``--trace 0`` prints the end-to-end metrics; set-up is timed in fresh
child processes that import the package and build the workload's inputs.
``--trace 1`` first runs untraced, then wraps the package's public
functions (``tracing.py``) and runs again, then runs one traced call in a
child with one worker thread and one BLAS thread; it prints the per-layer
metrics and writes the spans to ``.perfbench_out/<workload>/spans.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import FULL, TOY, WORKLOADS, check_call, result_drift

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
# A later change may alter outputs by rounding only; anything larger is a
# different result.
DRIFT_TOL = 1e-9
# One malloc arena for all threads.  With glibc's default of one arena per
# thread, whether a worker thread's freed arrays were returned to the system
# depended on thread timing, and peak RSS of identical runs differed by the
# size of one worker's share of the clean stack (62.5 MiB on em_volume).
M_ARENA_MAX = -8
ONE_THREAD = {"OB_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def configure_process() -> dict:
    """Cap worker and BLAS threads at nproc and use one malloc arena; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))

    def capped(var):
        raw = os.environ.get(var) or str(nproc)
        if not raw.isdigit() or int(raw) < 1:
            raise BenchError(f"{var}={raw!r} is not a positive integer")
        return min(int(raw), nproc)

    ob, blas = capped("OB_THREADS"), capped("OPENBLAS_NUM_THREADS")
    os.environ.update(OB_THREADS=str(ob), OPENBLAS_NUM_THREADS=str(blas),
                      OMP_NUM_THREADS=str(blas), MKL_NUM_THREADS=str(blas))
    return {"nproc": nproc, "ob_threads": ob, "blas_threads": blas, "single_malloc_arena": single_malloc_arena()}


def single_malloc_arena() -> bool:
    """Ask glibc for one shared arena; False where libc is not glibc."""
    libc = ctypes.util.find_library("c")
    try:
        return bool(libc) and ctypes.CDLL(libc).mallopt(M_ARENA_MAX, 1) == 1
    except (OSError, AttributeError):
        return False


def import_package():
    """Import orient_bayes from this checkout's src/, never from elsewhere."""
    if not (SRC / "orient_bayes" / "__init__.py").is_file():
        raise BenchError(f"no orient_bayes sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import orient_bayes
    import orient_bayes.cli  # noqa: F401  (not imported by the package itself)

    if SRC not in Path(orient_bayes.__file__).resolve().parents:
        raise BenchError(f"imported orient_bayes from {orient_bayes.__file__}, not from {SRC}")
    return orient_bayes


def machine_facts(threads: dict, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu, caches = "unknown", {}
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                caches[f"l{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return {
        **threads,
        "cpu_model": cpu,
        "l2": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "seed": seed,
    }


def child(args, role: str, env=None) -> dict:
    """Run this script in a fresh process and parse its last output line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--child", role] + (["--toy"] if args.toy else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          env=None if env is None else {**os.environ, **env})
    if proc.returncode != 0:
        raise BenchError(f"{role} child failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Client:
    """Closed loop: the next CLI call starts only after the previous one is checked."""

    def __init__(self, ob, workload, cfg: dict, out: Path):
        self.ob, self.out = ob, out
        self.expected = workload.expected(cfg)
        cfg_path = out / "config.json"
        cfg_path.write_text(json.dumps(cfg, indent=2) + "\n")
        self.argv = [cfg["experiment"], "--config", str(cfg_path), "--out", str(out / "call")]
        self.times, self.checks = [], []

    def call(self, tracer=None):
        shutil.rmtree(self.out / "call", ignore_errors=True)
        main = self.ob.cli.main
        start = time.perf_counter()
        try:
            code = tracer.call("cli.main", main, (self.argv,)) if tracer else main(self.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the run's operations are counted as failed below
            traceback.print_exc()
            code = None
        self.times.append(time.perf_counter() - start)
        self.checks.append(check_call(self.ob, self.expected, code == 0, self.out / "call"))

    def run_for(self, seconds: float, tracer=None):
        """Call until the next call would end past ``seconds``; at least once."""
        first = len(self.times)
        start = time.perf_counter()
        while True:
            self.call(tracer)
            typical = statistics.median(self.times[first:])
            if time.perf_counter() - start + typical > seconds:
                return self.times[first:]


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text())
    except FileNotFoundError:
        return {}


def verdict(args, client: Client) -> dict:
    """Operation counts, output drift and repeatability over every call made."""
    checks = client.checks
    attempted = sum(c.ops for c in checks)
    failed = sum(c.failed for c in checks)
    digests = {c.digest for c in checks}
    repeatable = len(digests) == 1 and None not in digests
    ref = None if args.toy else load_reference().get(args.workload, {}).get(str(args.seed))
    drift = None
    if ref is not None:
        drift = max(result_drift(c.rows, ref) for c in checks)
    return {
        "attempted": attempted,
        "failed": failed,
        "repeatable": repeatable,
        "result_drift": drift,
        "identical_to_reference": ref is not None and digests == {ref["outputs_sha256"]},
        "correct": failed == 0 and repeatable and (drift is None or drift <= DRIFT_TOL),
    }


def run_untraced(args, ob, workload, cfg, out) -> tuple[dict, dict, Client]:
    setup = [child(args, "setup")["setup_s"] for _ in range(2 if args.toy else SETUP_REPEATS)]
    client = Client(ob, workload, cfg, out)
    times = client.run_for(args.seconds)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (statistics.median(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    report = {
        **workload.quality(client.checks[0].rows),
        "calls": (len(times), "count"),
        "run_s_max": (max(times), "s"),
        "setup_s_max": (max(setup), "s"),
    }
    return metrics, report, client


def run_traced(args, ob, workload, cfg, out) -> tuple[dict, dict, Client]:
    import tracing

    client = Client(ob, workload, cfg, out)
    plain = client.run_for(args.seconds)
    tracer = tracing.Tracer()
    uninstall = tracing.instrument(ob, tracer)
    try:
        traced = client.run_for(args.seconds, tracer)
    finally:
        uninstall()
    tracer.write(out / "spans.jsonl")
    metrics = tracing.layer_metrics(tracer, len(traced))
    single = child(args, "single_thread", env=ONE_THREAD)
    for name, base in (("estimators.log_weights", "self_s"), ("bench.parallel_map", "wall_s")):
        multi = metrics[f"{name}.{base}"][0]
        metrics[f"{name}.speedup_1t"] = (single[f"{name}.{base}"] / multi if multi else 0.0, "x")
    untraced_s, traced_s = statistics.median(plain), statistics.median(traced)
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    report = {
        "untraced_run_s": (untraced_s, "s"),
        "traced_run_s": (traced_s, "s"),
        "spans": (len(tracer.spans), "count"),
    }
    return metrics, report, client


def run_child(args) -> dict:
    workload = WORKLOADS[args.workload]
    cfg = workload.config(args.seed, TOY if args.toy else FULL)
    if args.child == "setup":
        start = time.perf_counter()
        ob = import_package()
        workload.setup(ob, cfg)
        return {"setup_s": time.perf_counter() - start}
    import tracing

    ob = import_package()
    out = OUT / f"{args.workload}.single_thread"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    tracer = tracing.Tracer()
    tracing.instrument(ob, tracer)
    client = Client(ob, workload, cfg, out)
    client.call(tracer)
    if client.checks[0].failed:
        raise BenchError("single-thread call produced failed operations")
    return {name: value for name, (value, _) in tracing.layer_metrics(tracer, 1).items()}


def run_one(args, threads: dict) -> dict:
    workload = WORKLOADS[args.workload]
    cfg = workload.config(args.seed, TOY if args.toy else FULL)
    ob = import_package()
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    runner = run_traced if args.trace else run_untraced
    metrics, report, client = runner(args, ob, workload, cfg, out)
    v = verdict(args, client)
    report["fail_frac"] = (v["failed"] / v["attempted"], f"ratio of {v['attempted']} ops")
    report["result_drift"] = (v["result_drift"], "relative" if v["result_drift"] is not None else "(no reference)")
    facts = machine_facts(threads, args.seed)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + json.dumps(facts, sort_keys=True))
    for name, (value, unit) in {**metrics, **report}.items():
        shown = value if isinstance(value, (list, type(None))) else f"{value:.6g}"
        print(f"  {name:44s} {shown} {unit}")
    for key in ("repeatable", "identical_to_reference", "correct"):
        print(f"  {key:44s} {v[key]}")

    result = {
        "correct": v["correct"],
        "attempted": v["attempted"],
        "failed": v["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (out / "result.json").write_text(json.dumps({**result, "machine": facts, "checks": v, "call_s": client.times}, indent=2) + "\n")
    if args.record_reference:
        record_reference(args, v, client)
    return result


def record_reference(args, v: dict, client: Client) -> None:
    if args.toy or not v["correct"] or not v["repeatable"]:
        raise BenchError("refusing to record a reference from a toy, incorrect or unrepeatable run")
    rows = client.checks[0].rows
    ref = load_reference()
    ref.setdefault(args.workload, {})[str(args.seed)] = {
        "keys": [[r["estimator"], r["sigma"]] for r in rows],
        "metric_mean": [r["metric_mean"] for r in rows],
        "outputs_sha256": client.checks[0].digest,
    }
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def run_all(args) -> dict:
    """Each workload in its own fresh process; prints every report."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {name} failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": m for k, m in res["metrics"].items()})
    return combined


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny sizes, for the benchmark's own tests")
    p.add_argument("--record-reference", action="store_true",
                   help="store this run's results.csv values as the reference for --seed")
    p.add_argument("--child", choices=("setup", "single_thread"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        threads = configure_process()
        if args.child:
            result = run_child(args)
        elif args.workload == "all":
            result = run_all(args)
        else:
            result = run_one(args, threads)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
