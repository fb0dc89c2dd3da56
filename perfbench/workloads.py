"""The benchmark's workloads: generated configs, set-up inputs and output checks.

Every workload is one experiment of the ``orient-bayes`` CLI on a config
made from the benchmark seed.  The amount of work per experiment is fixed
by the config (trials, noise seeds, and an iteration count that EM always
reaches because ``rel_tol`` is the smallest positive double), so a change
that only touches numerics cannot change how much is computed.

Output checks are seed-independent range checks.  One *operation* is one
``results.csv`` row or one EM trace iteration; it fails when its value is
non-finite or out of range, or when its trace has the wrong length.  A run
that exits non-zero or raises fails every operation it should have made.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Any positive rel_tol is accepted by the CLI; this one never stops EM early
# unless an iteration leaves the estimate bit-identical, which the check
# then reports as a short trace.
NEVER_CONVERGED = 5e-324

MODES = ("soft_em", "mmse_align", "hard_map")

# The six noise levels of configs/snr_sweep.json, copied so the benchmark's
# inputs stay fixed when that file changes.
SWEEP_SIGMAS = [0.0704599254, 0.1434682457, 0.2921254515, 0.5948164977, 1.2111463213, 2.4660973884]


@dataclass(frozen=True)
class Sizes:
    n: int
    L: int
    trials: int
    sweep_sigmas: list
    em_M: int
    em_iters: int
    d_radial: int
    l_angular: int
    polar_M: int
    polar_iters: int
    noise_seeds: int


FULL = Sizes(
    n=32, L=300, trials=200, sweep_sigmas=SWEEP_SIGMAS, em_M=500, em_iters=2,
    d_radial=300, l_angular=30, polar_M=2000, polar_iters=4, noise_seeds=4,
)
TOY = Sizes(
    n=12, L=12, trials=8, sweep_sigmas=SWEEP_SIGMAS[::3], em_M=16, em_iters=2,
    d_radial=24, l_angular=8, polar_M=40, polar_iters=2, noise_seeds=2,
)


@dataclass(frozen=True)
class Expected:
    rows: list  # (estimator label, low, high) per results.csv row
    traces: list  # trace file stems, each with exactly `iters` records
    iters: int
    volumes: list  # volume file stems
    truth_pcc: bool  # trace records carry a pcc_truth value


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: Callable[[int, Sizes], dict]
    setup: Callable  # (orient_bayes module, config dict) -> None
    expected: Callable[[dict], Expected]
    quality: Callable[[list], dict]  # rows -> {metric: (value, unit)}


def _sweep_config(seed: int, s: Sizes) -> dict:
    return {
        "experiment": "snr_sweep",
        "seed": seed,
        "L": s.L,
        "trials": s.trials,
        "sigmas": list(s.sweep_sigmas),
        "phantom": {"kind": "asymmetric_L", "n": s.n, "seed": 0},
    }


def _sweep_setup(ob, cfg: dict) -> None:
    ph = cfg["phantom"]
    vbar = ob.forward.make_phantom(ph["kind"], ph["n"], seed=ph["seed"])
    ob.estimators.CandidateSet.build(vbar, ob.so3.RotationPrior.uniform(), cfg["L"], seed=cfg["seed"])


def _sweep_expected(cfg: dict) -> Expected:
    rows = [(label, 0.0, math.pi) for _ in cfg["sigmas"] for label in ("map", "mmse")]
    return Expected(rows=rows, traces=[], iters=0, volumes=[], truth_pcc=False)


def _sweep_quality(rows: list) -> dict:
    return {
        f"err_{label}_rad": (_mean(r["metric_mean"] for r in rows if r["estimator"] == label), "rad")
        for label in ("map", "mmse")
    }


def _em_volume_config(seed: int, s: Sizes) -> dict:
    return {
        "experiment": "recover3d",
        "seed": seed,
        "L": s.L,
        "M": s.em_M,
        "snrs": [0.01],
        "phantom": {"kind": "gaussian_blobs", "n": s.n, "seed": seed},
        "template_phantom": {"kind": "asymmetric_L", "n": s.n, "seed": 2},
        "assignment_modes": list(MODES),
        "max_iters": s.em_iters,
        "rel_tol": NEVER_CONVERGED,
    }


def _em_volume_setup(ob, cfg: dict) -> None:
    truth = ob.forward.make_phantom("gaussian_blobs", cfg["phantom"]["n"], seed=cfg["phantom"]["seed"])
    ob.forward.make_phantom("asymmetric_L", cfg["template_phantom"]["n"], seed=cfg["template_phantom"]["seed"])
    ob.estimators.CandidateSet.build(truth, ob.so3.RotationPrior.uniform(), cfg["L"], seed=cfg["seed"])


def _em_volume_expected(cfg: dict) -> Expected:
    names = [f"recover3d_s{si}_{mode}" for si in range(len(cfg["snrs"])) for mode in MODES]
    rows = [(label, -1.0, 1.0) for _ in cfg["snrs"] for mode in MODES for label in (mode, f"{mode}/template")]
    return Expected(rows=rows, traces=names, iters=cfg["max_iters"], volumes=names, truth_pcc=True)


def _em_volume_quality(rows: list) -> dict:
    return {"pcc_truth": (_mean(r["metric_mean"] for r in rows if r["estimator"] in MODES), "ratio")}


def _em_polar_config(seed: int, s: Sizes) -> dict:
    return {
        "experiment": "einstein_noise",
        "seed": seed,
        "geometry": "polar",
        "polar": {"d_radial": s.d_radial, "l_angular": s.l_angular},
        "template_phantom": {"seed": seed},
        "M": s.polar_M,
        "sigmas": [1.0],
        "noise_seeds": s.noise_seeds,
        "assignment_modes": list(MODES),
        "max_iters": s.polar_iters,
        "rel_tol": NEVER_CONVERGED,
    }


def _em_polar_setup(ob, cfg: dict) -> None:
    polar = cfg["polar"]
    ob.forward.make_polar_phantom(polar["d_radial"], polar["l_angular"], seed=cfg["template_phantom"]["seed"])


def _em_polar_expected(cfg: dict) -> Expected:
    names = [f"einstein_s{k}_{mode}" for k in range(cfg["noise_seeds"]) for mode in MODES]
    rows = [(f"{mode}/template", -1.0, 1.0) for mode in MODES]
    return Expected(rows=rows, traces=names, iters=cfg["max_iters"], volumes=[], truth_pcc=False)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep_volume",
            why="MAP+MMSE sweep over 6 sigmas on a 300-rotation SO(3) grid: scoring and noise synthesis dominate",
            config=_sweep_config,
            setup=_sweep_setup,
            expected=_sweep_expected,
            quality=_sweep_quality,
        ),
        Workload(
            name="em_volume",
            why="soft, MMSE and hard volume EM at SNR 0.01: 3D rotation by interpolation dominates",
            config=_em_volume_config,
            setup=_em_volume_setup,
            expected=_em_volume_expected,
            quality=_em_volume_quality,
        ),
        Workload(
            name="em_polar",
            why="template bias from pure noise on the polar grid: exact shifts, so no volume rotation; seeds run in threads",
            config=_em_polar_config,
            setup=_em_polar_setup,
            expected=_em_polar_expected,
            quality=lambda rows: {},
        ),
    )
}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else float("nan")


def _in_range(value, low: float, high: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and low <= value <= high


@dataclass
class CallCheck:
    ops: int
    failed: int
    rows: list  # parsed results.csv rows ({"estimator", "sigma", "metric_mean"})
    digest: str | None  # sha256 over every output file, None when outputs are missing


def read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return [
            {"estimator": r["estimator"], "sigma": float(r["sigma"]), "metric_mean": float(r["metric_mean"])}
            for r in csv.DictReader(fh)
        ]


def _trace_ok(path: Path, exp: Expected) -> int:
    """Number of valid iterations in one trace; 0 when its length is wrong."""
    try:
        records = [json.loads(line) for line in path.read_text().splitlines()]
    except (OSError, ValueError):
        return 0
    if len(records) != exp.iters:
        return 0
    good = 0
    for rec in records:
        pcc_truth = rec.get("pcc_truth")
        ok = _in_range(rec.get("rel_change"), 0.0, math.inf) and _in_range(rec.get("pcc_template"), -1.0, 1.0)
        ok = ok and (_in_range(pcc_truth, -1.0, 1.0) if exp.truth_pcc else pcc_truth is None)
        good += ok
    return good


def _volume_ok(ob, path: Path) -> bool:
    import numpy as np  # deferred: set-up timing starts before numpy is imported

    try:
        vol = ob.forward.read_obv(path)
    except (OSError, ValueError):
        return False
    return bool(np.all(np.isfinite(vol)))


def output_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def check_call(ob, exp: Expected, returned_ok: bool, out: Path) -> CallCheck:
    """Range-check one CLI call's outputs against what its config must produce."""
    ops = len(exp.rows) + len(exp.traces) * exp.iters
    if not returned_ok:
        return CallCheck(ops=ops, failed=ops, rows=[], digest=None)
    try:
        rows = read_rows(out / "results.csv")
    except (OSError, ValueError, KeyError):
        return CallCheck(ops=ops, failed=ops, rows=[], digest=None)
    bad_modes = {
        mode
        for name in exp.volumes
        for mode in MODES
        if name.endswith(f"_{mode}") and not _volume_ok(ob, out / "volumes" / f"{name}.obv")
    }
    good = 0
    if len(rows) == len(exp.rows):
        for row, (label, low, high) in zip(rows, exp.rows):
            good += (
                row["estimator"] == label
                and label.split("/")[0] not in bad_modes
                and _in_range(row["metric_mean"], low, high)
            )
    for name in exp.traces:
        good += _trace_ok(out / "traces" / f"{name}.jsonl", exp)
    return CallCheck(ops=ops, failed=ops - good, rows=rows, digest=output_digest(out))


def result_drift(rows: list, ref: dict) -> float:
    """Max relative deviation of any metric_mean from the stored reference."""
    if [(r["estimator"], r["sigma"]) for r in rows] != [tuple(k) for k in ref["keys"]]:
        return math.inf
    drift = 0.0
    for row, want in zip(rows, ref["metric_mean"]):
        got = row["metric_mean"]
        if got != want:
            drift = max(drift, abs(got - want) / abs(want) if want else math.inf)
    return drift
