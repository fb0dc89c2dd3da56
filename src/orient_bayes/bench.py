"""Experiment harness: sweeps, reconstruction runs, and CSV/JSON emission.

Every experiment is a pure function of its configuration (seed included):
rerunning an identical config reproduces the output files byte for byte.
Per-trial randomness is derived from the master seed and the trial index
through numpy seed sequences, so results do not depend on worker count.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import estimators, forward, reconstruct, so3

EXPERIMENTS = (
    "snr_sweep",
    "prior_mismatch",
    "grid_sweep",
    "recover2d",
    "recover3d",
    "einstein_noise",
)
# The experiments that estimate rotations from (optionally projected) images.
SWEEPS = ("snr_sweep", "prior_mismatch", "grid_sweep")

# Key-space tags so different random streams derived from one master seed
# never collide.
_K_TRUTH = 11
_K_NOISE = 12
_K_CANDS = 13
_K_SHIFT = 14


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ResultRecord:
    experiment: str
    seed: int
    sigma: float
    snr: float
    L: int
    estimator: str
    metric_mean: float
    metric_se: float
    trials: int


CSV_HEADER = ["experiment", "seed", "sigma", "snr", "L", "estimator", "metric_mean", "metric_se", "trials"]


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int = 0
    L: int = 300
    trials: int = 500
    sigmas: list | None = None
    snrs: list | None = None
    truth_prior: dict | None = None
    estimation_priors: list | None = None
    phantom: dict | None = None
    template_phantom: dict | None = None
    projected: bool = False
    L_values: list | None = None
    M: int = 1000
    polar: dict | None = None
    assignment_modes: list | None = None
    max_iters: int = 100
    rel_tol: float = 1e-4
    method: str = "trilinear"
    geometry: str = "polar"  # einstein_noise only
    noise_seeds: int = 10

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        return cls.from_dict(raw)

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment: {self.experiment!r}")
        for name in ("seed", "L", "trials", "M", "max_iters", "noise_seeds"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("L", "trials", "M", "max_iters", "noise_seeds"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.experiment in (*SWEEPS, "recover2d", "recover3d"):
            if not self.sigmas and not self.snrs:
                raise ConfigError(f"{self.experiment} requires a sigma or snr list")
        for name in ("sigmas", "snrs"):
            _check_levels(name, getattr(self, name))
        if self.method not in forward.INTERPOLATION_ORDERS:
            methods = list(forward.INTERPOLATION_ORDERS)
            raise ConfigError(f"method must be one of {methods}, got {self.method!r}")
        if not _is_number(self.rel_tol) or not math.isfinite(self.rel_tol) or self.rel_tol <= 0:
            raise ConfigError(f"rel_tol must be finite and positive, got {self.rel_tol!r}")
        for name in ("phantom", "template_phantom"):
            _check_phantom(name, getattr(self, name))
        if self.projected and self.experiment not in SWEEPS:
            raise ConfigError(f"projected applies only to {', '.join(SWEEPS)}, not {self.experiment}")
        if self.experiment == "prior_mismatch" and not self.estimation_priors:
            raise ConfigError("prior_mismatch requires estimation_priors")
        if self.experiment == "grid_sweep":
            if not self.L_values or len(self.L_values) < 2:
                raise ConfigError("grid_sweep requires >= 2 L values")
        if self.geometry not in ("polar", "volume"):
            raise ConfigError("geometry must be 'polar' or 'volume'")
        for mode in self.assignment_modes or []:
            if mode not in reconstruct.ASSIGNMENTS:
                raise ConfigError(f"unknown assignment mode: {mode!r}")

    def to_dict(self) -> dict:
        return asdict(self)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_levels(name: str, values) -> None:
    if values is None:
        return
    if not isinstance(values, list):
        raise ConfigError(f"{name} must be a list, got {values!r}")
    for v in values:
        if not _is_number(v) or not math.isfinite(v) or v <= 0:
            raise ConfigError(f"every entry of {name} must be finite and positive, got {v!r}")


def _check_phantom(name: str, spec) -> None:
    if spec is None:
        return
    if not isinstance(spec, dict):
        raise ConfigError(f"{name} must be an object, got {spec!r}")
    if "kind" in spec and spec["kind"] not in forward.PHANTOM_KINDS:
        raise ConfigError(f"{name} kind must be one of {forward.PHANTOM_KINDS}, got {spec['kind']!r}")
    if spec.get("kind") == "loaded" and not spec.get("path"):
        raise ConfigError(f"{name} of kind 'loaded' requires a path")
    if "n" in spec and not (_is_int(spec["n"]) and spec["n"] >= forward.MIN_PHANTOM_N):
        raise ConfigError(f"{name} n must be an integer >= {forward.MIN_PHANTOM_N}, got {spec['n']!r}")


def _prior_from_spec(spec: dict | None) -> so3.RotationPrior:
    if spec is None:
        return so3.RotationPrior.uniform()
    kind = spec.get("kind", "uniform")
    if kind == "uniform":
        return so3.RotationPrior.uniform()
    if kind == "isotropic_gaussian":
        return so3.RotationPrior.isotropic_gaussian(float(spec["eta"]))
    raise ConfigError(f"unknown prior kind: {kind!r}")


def _phantom_from_spec(spec: dict | None, default_kind="asymmetric_L") -> np.ndarray:
    spec = spec or {}
    return forward.make_phantom(
        spec.get("kind", default_kind),
        int(spec.get("n", 32)),
        seed=int(spec.get("seed", 0)),
        path=spec.get("path"),
    )


def worker_count(requested: int | None = None) -> int:
    """Worker threads: ``requested`` (default the CPU count), capped by OB_THREADS."""
    cap = os.environ.get("OB_THREADS")
    n = requested or (os.cpu_count() or 1)
    if cap:
        if not cap.strip().isdigit() or int(cap) < 1:
            raise ConfigError(f"OB_THREADS must be a positive integer, got {cap!r}")
        n = min(n, int(cap))
    return max(1, n)


def parallel_map(fn, items, threads: int | None = None):
    """Order-preserving map; results are identical to sequential execution."""
    n = worker_count(threads)
    items = list(items)
    if n == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))


def _sigma_list(cfg: ExperimentConfig, vbar: np.ndarray) -> list[float]:
    if cfg.sigmas:
        return [float(s) for s in cfg.sigmas]
    return [forward.sigma_for_snr(vbar, float(s), projected=cfg.projected) for s in cfg.snrs]


def _clean_stack(vbar, rotations, projected, method, threads=None) -> np.ndarray:
    def one(g):
        clean = forward.rotate_volume(vbar, g, method=method)
        if projected:
            clean = forward.project_z(clean)
        return clean.ravel()

    return np.stack(parallel_map(one, rotations, threads))


def _true_rotations(cfg: ExperimentConfig, prior: so3.RotationPrior, count: int) -> np.ndarray:
    # one generator per trial keeps results independent of batching
    return np.stack(
        [prior.sample(np.random.default_rng([cfg.seed, _K_TRUTH, t]), 1)[0] for t in range(count)]
    )


def _noisy(clean: np.ndarray, sigma: float, seed_key: list[int], threads: int | None = None) -> np.ndarray:
    out = np.empty_like(clean)

    def row(t):
        # one generator per row, so the rows can be drawn in any order
        rng = np.random.default_rng(seed_key + [t])
        out[t] = clean[t] + rng.normal(size=clean.shape[1]) * sigma

    parallel_map(row, range(clean.shape[0]), threads)
    return out


def _error_records(cfg, sigma, snr, L, label, errors) -> ResultRecord:
    errors = np.asarray(errors, dtype=float)
    se = float(errors.std(ddof=1) / np.sqrt(errors.size)) if errors.size > 1 else 0.0
    return ResultRecord(
        experiment=cfg.experiment,
        seed=cfg.seed,
        sigma=float(sigma),
        snr=float(snr),
        L=int(L),
        estimator=label,
        metric_mean=float(errors.mean()),
        metric_se=se,
        trials=int(errors.size),
    )


def _candidates(cfg: ExperimentConfig, vbar, prior, L: int, seed: int, threads: int | None):
    return estimators.CandidateSet.build(
        vbar, prior, L, seed=seed, projected=cfg.projected, method=cfg.method,
        map=partial(parallel_map, threads=threads),
    )


def _sweep_inputs(cfg: ExperimentConfig, threads: int | None):
    """The sweep phantom, the true rotations, and their clean observations."""
    vbar = _phantom_from_spec(cfg.phantom)
    rotations = _true_rotations(cfg, _prior_from_spec(cfg.truth_prior), cfg.trials)
    return vbar, rotations, _clean_stack(vbar, rotations, cfg.projected, cfg.method, threads)


def _sweep(cfg: ExperimentConfig, vbar, rotations, clean, L: int, estimates, threads) -> list[ResultRecord]:
    """Geodesic-error records at every sigma of each (cands, labels) entry; a
    label is "map" or "mmse", optionally followed by ":<detail>".  Each sigma
    scores its noisy batch once per candidate set, and MAP and MMSE both read
    those scores."""
    records = []
    for si, sigma in enumerate(_sigma_list(cfg, vbar)):
        ys = _noisy(clean, sigma, [cfg.seed, _K_NOISE, si], threads)
        noise = forward.NoiseModel(sigma=sigma)
        snr = forward.snr_of(vbar, noise, projected=cfg.projected)
        for cands, labels in estimates:
            scores = estimators.Scores.of(ys, cands.templates)
            for label in labels:
                if label.startswith("mmse"):
                    w = np.exp(scores.log_weights(noise.effective_variance()))
                    estimate, _, _ = estimators.mmse_rotations(w, cands.rotations)
                else:
                    estimate = cands.rotations[scores.map_indices()]
                errors = so3.geodesic_distances(rotations, estimate)
                records.append(_error_records(cfg, sigma, snr, L, label, errors))
    return records


def run_snr_sweep(cfg: ExperimentConfig, threads: int | None = None):
    """Mean geodesic error of MAP and MMSE across a noise sweep (shared grid)."""
    vbar, rotations, clean = _sweep_inputs(cfg, threads)
    est_prior = _prior_from_spec((cfg.estimation_priors or [None])[0])
    cands = _candidates(cfg, vbar, est_prior, cfg.L, cfg.seed, threads)
    return _sweep(cfg, vbar, rotations, clean, cfg.L, [(cands, ["map", "mmse"])], threads)


def run_prior_mismatch(cfg: ExperimentConfig, threads: int | None = None):
    """MAP on a uniform grid vs MMSE variants sampled from estimation priors."""
    vbar, rotations, clean = _sweep_inputs(cfg, threads)
    uniform = _candidates(cfg, vbar, so3.RotationPrior.uniform(), cfg.L, cfg.seed, threads)
    estimates = [(uniform, ["map"])]
    for k, spec in enumerate(cfg.estimation_priors):
        cset = _candidates(cfg, vbar, _prior_from_spec(spec), cfg.L, cfg.seed + 1 + k, threads)
        estimates.append((cset, [f"mmse:{cset.prior.label()}"]))
    return _sweep(cfg, vbar, rotations, clean, cfg.L, estimates, threads)


def run_grid_sweep(cfg: ExperimentConfig, threads: int | None = None):
    """Estimator error vs grid size; returns records plus fitted log-log slopes."""
    vbar, rotations, clean = _sweep_inputs(cfg, threads)
    ls = [int(v) for v in cfg.L_values]
    records, first = [], {}
    for L in ls:
        cands = _candidates(cfg, vbar, so3.RotationPrior.uniform(), L, cfg.seed, threads)
        records_L = _sweep(cfg, vbar, rotations, clean, L, [(cands, ["map", "mmse"])], threads)
        first[L] = {r.estimator: r.metric_mean for r in records_L[:2]}
        records += records_L
    # slope of log(mean error) vs log(L) at the first sigma (highest SNR)
    log_l = np.log(np.array(ls, dtype=float))
    slopes = {
        label: float(np.polyfit(log_l, np.log(np.array([first[L][label] for L in ls])), 1)[0])
        for label in ("map", "mmse")
    }
    return records, slopes


def _polar_observations(cfg: ExperimentConfig, truth: np.ndarray, sigma: float, seed_key):
    l_ang = truth.shape[1]
    ys = np.empty((cfg.M, truth.size))
    shifts = np.empty(cfg.M, dtype=int)
    for t in range(cfg.M):
        rng = np.random.default_rng(seed_key + [t])
        s = int(rng.integers(l_ang))
        obs = forward.synthesize_polar_observation(truth, s, forward.NoiseModel(sigma=sigma), rng)
        ys[t] = obs.data
        shifts[t] = s
    return ys, shifts


def _polar_phantom(cfg: ExperimentConfig, spec: dict | None, default_seed: int) -> np.ndarray:
    polar = cfg.polar or {}
    return forward.make_polar_phantom(
        int(polar.get("d_radial", 300)),
        int(polar.get("l_angular", 30)),
        seed=(spec or {}).get("seed", default_seed),
    )


def _reconstruct(cfg: ExperimentConfig, mode: str, ys, template, cands, noise, truth=None, map=map):
    rcfg = reconstruct.ReconstructionConfig(
        assignment=mode, max_iters=cfg.max_iters, rel_tol=cfg.rel_tol, method=cfg.method
    )
    return reconstruct.run_reconstruction(ys, template, cands, noise, rcfg, truth=truth, map=map)


def run_recover2d(cfg: ExperimentConfig, threads: int | None = None):
    """Iterative polar-image recovery from shifted noisy copies."""
    truth = _polar_phantom(cfg, cfg.phantom, 1)
    template = _polar_phantom(cfg, cfg.template_phantom, 2)
    l_ang = truth.shape[1]
    modes = cfg.assignment_modes or ["mmse_align", "hard_map"]
    records, traces = [], {}
    for si, sigma in enumerate(_sigma_list(cfg, truth)):
        ys, _ = _polar_observations(cfg, truth, sigma, [cfg.seed, _K_SHIFT, si])
        noise = forward.NoiseModel(sigma=sigma)
        snr = forward.snr_of(truth, noise)
        for mode in modes:
            final, trace = _reconstruct(cfg, mode, ys, template, None, noise, truth=truth)
            traces[f"recover2d_s{si}_{mode}"] = trace
            registered = reconstruct.registered_pcc(final, truth)
            records.append(_error_records(cfg, sigma, snr, l_ang, mode, [registered]))
            records.append(
                _error_records(cfg, sigma, snr, l_ang, f"{mode}/template", [reconstruct.pcc(final, template)])
            )
    return records, traces, {}


def run_recover3d(cfg: ExperimentConfig, threads: int | None = None):
    """Iterative 3D recovery from rotated noisy copies (no projection)."""
    truth = _phantom_from_spec(cfg.phantom, default_kind="gaussian_blobs")
    template = _phantom_from_spec(cfg.template_phantom, default_kind="asymmetric_L")
    # reconstruction and registration read only the candidate rotations
    cands = estimators.candidate_rotations(so3.RotationPrior.uniform(), cfg.L, cfg.seed + _K_CANDS)
    pool = partial(parallel_map, threads=threads)
    modes = cfg.assignment_modes or ["mmse_align", "hard_map"]
    sigmas = _sigma_list(cfg, truth)
    rotations = _true_rotations(cfg, so3.RotationPrior.uniform(), cfg.M)
    clean = _clean_stack(truth, rotations, False, cfg.method, threads)
    records, traces, volumes = [], {}, {}
    for si, sigma in enumerate(sigmas):
        ys = _noisy(clean, sigma, [cfg.seed, _K_NOISE, si], threads)
        noise = forward.NoiseModel(sigma=sigma)
        snr = forward.snr_of(truth, noise)
        for mode in modes:
            final, trace = _reconstruct(cfg, mode, ys, template, cands, noise, truth=truth, map=pool)
            key = f"recover3d_s{si}_{mode}"
            traces[key] = trace
            final = final.reshape(truth.shape)
            volumes[key] = final
            registered = reconstruct.registered_pcc(final, truth, cands, cfg.method, map=pool)
            records.append(_error_records(cfg, sigma, snr, cfg.L, mode, [registered]))
            records.append(
                _error_records(cfg, sigma, snr, cfg.L, f"{mode}/template", [reconstruct.pcc(final, template)])
            )
    return records, traces, volumes


def run_einstein_noise(cfg: ExperimentConfig, threads: int | None = None):
    """Template-bias measurement on pure-noise data, averaged over noise seeds."""
    modes = cfg.assignment_modes or ["mmse_align", "hard_map"]
    sigma = float((cfg.sigmas or [1.0])[0])
    noise = forward.NoiseModel(sigma=sigma)
    if cfg.geometry == "polar":
        template = _polar_phantom(cfg, cfg.template_phantom, 2)
        cands = None
        L = template.shape[1]
    else:
        template = _phantom_from_spec(cfg.template_phantom, default_kind="asymmetric_L")
        cands = estimators.candidate_rotations(so3.RotationPrior.uniform(), cfg.L, cfg.seed + _K_CANDS)
        L = cfg.L
    dim = template.size
    records, traces = [], {}

    def one_seed(k):
        out = {}
        ys = np.empty((cfg.M, dim))
        for t in range(cfg.M):
            rng = np.random.default_rng([cfg.seed, _K_NOISE, k, t])
            ys[t] = rng.normal(size=dim) * sigma
        for mode in modes:
            final, trace = _reconstruct(cfg, mode, ys, template, cands, noise)
            out[mode] = (reconstruct.pcc(final, template), trace)
        return out

    per_seed = parallel_map(one_seed, range(cfg.noise_seeds), threads)
    for mode in modes:
        pccs = [res[mode][0] for res in per_seed]
        for k, res in enumerate(per_seed):
            traces[f"einstein_s{k}_{mode}"] = res[mode][1]
        records.append(_error_records(cfg, sigma, 0.0, L, f"{mode}/template", pccs))
    return records, traces, {}


def emit_csv(records, path) -> None:
    """Doubles are printed with 17 significant digits so re-parsing is lossless."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow(
                [
                    r.experiment,
                    r.seed,
                    f"{r.sigma:.17g}",
                    f"{r.snr:.17g}",
                    r.L,
                    r.estimator,
                    f"{r.metric_mean:.17g}",
                    f"{r.metric_se:.17g}",
                    r.trials,
                ]
            )


def parse_csv(path) -> list[ResultRecord]:
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            out.append(
                ResultRecord(
                    experiment=row["experiment"],
                    seed=int(row["seed"]),
                    sigma=float(row["sigma"]),
                    snr=float(row["snr"]),
                    L=int(row["L"]),
                    estimator=row["estimator"],
                    metric_mean=float(row["metric_mean"]),
                    metric_se=float(row["metric_se"]),
                    trials=int(row["trials"]),
                )
            )
    return out


def emit_json(cfg: ExperimentConfig, records, path, extra: dict | None = None) -> None:
    doc = {"config": cfg.to_dict(), "records": [asdict(r) for r in records]}
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_experiment(cfg: ExperimentConfig, out_dir, threads: int | None = None):
    """Dispatch an experiment and write results.csv / results.json plus any
    traces/*.jsonl and volumes/*.obv under ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    traces, volumes, extra = {}, {}, None
    if cfg.experiment == "snr_sweep":
        records = run_snr_sweep(cfg, threads)
    elif cfg.experiment == "prior_mismatch":
        records = run_prior_mismatch(cfg, threads)
    elif cfg.experiment == "grid_sweep":
        records, slopes = run_grid_sweep(cfg, threads)
        extra = {"slopes": slopes}
    elif cfg.experiment == "recover2d":
        records, traces, volumes = run_recover2d(cfg, threads)
    elif cfg.experiment == "recover3d":
        records, traces, volumes = run_recover3d(cfg, threads)
    elif cfg.experiment == "einstein_noise":
        records, traces, volumes = run_einstein_noise(cfg, threads)
    else:  # pragma: no cover - guarded by config validation
        raise ConfigError(f"unknown experiment: {cfg.experiment!r}")
    emit_csv(records, out / "results.csv")
    emit_json(cfg, records, out / "results.json", extra=extra)
    if traces:
        (out / "traces").mkdir(exist_ok=True)
        for name, trace in sorted(traces.items()):
            reconstruct.write_trace(out / "traces" / f"{name}.jsonl", trace)
    if volumes:
        (out / "volumes").mkdir(exist_ok=True)
        for name, vol in sorted(volumes.items()):
            forward.write_obv(out / "volumes" / f"{name}.obv", vol)
    return records
