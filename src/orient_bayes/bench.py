"""Experiment harness: sweeps, reconstruction runs, and CSV/JSON emission.

``EXPERIMENTS`` declares each experiment once: its runner and the config
fields it reads.  Every experiment is a pure function of its configuration
(seed included): rerunning an identical config reproduces the output files
byte for byte.
Per-trial randomness is derived from the master seed and the trial index
through numpy seed sequences, so results do not depend on worker count.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import sys
import threading
import typing
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

import numpy as np

from . import blas, estimators, forward, reconstruct, so3

# The reconstruction modes run when a config lists no assignment_modes.
DEFAULT_MODES = ("mmse_align", "hard_map")
# The edge length of a generated phantom that gives no n.
DEFAULT_PHANTOM_N = 32
# The polar grid of a config that gives no polar size.
DEFAULT_POLAR = {"d_radial": 300, "l_angular": 30}
# The largest count a config gives (L, trials, M, noise_seeds, an L_values
# entry, d_radial, l_angular, d_radial * l_angular): every array then has
# fewer than 2**60 elements, so a run too large to allocate is a MemoryError.
MAX_COUNT = 2**30 - 1
# Rows of a sweep task, one scoring block: two workers hold two blocks of
# noisy rows, not a level's batch.
SWEEP_BLOCK = estimators.SCORE_BLOCK
# Rows of a task that draws observation rows: each row has its own
# generator, so the block sets the number of tasks, not the bytes.  On two
# workers (2-vCPU x86-64) blocks of 1, 16 and 96 rows drew em_polar's 2000
# noise rows of 9000 in 128, 110 and 112 ms, and em_volume's 500 rotated
# rows of 32^3 in 414, 407 and 463 ms: 96 rows leave one worker idle.
ROW_BLOCK = 16

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


# results.csv column -> type, in field order
_COLUMNS = typing.get_type_hints(ResultRecord)
CSV_HEADER = list(_COLUMNS)


# What every experiment runner returns: the results.csv records, the EM traces
# and final volumes by file stem, and extra keys for results.json.
Outputs = namedtuple("Outputs", "records traces volumes extra", defaults=({}, {}, None))


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int = 0
    L: int = 300
    trials: int = 500
    sigmas: tuple | None = None
    snrs: tuple | None = None
    truth_prior: dict | None = None
    estimation_priors: tuple | None = None
    phantom: dict | None = None
    template_phantom: dict | None = None
    projected: bool = False
    L_values: tuple | None = None
    M: int = 1000
    polar: dict | None = None
    assignment_modes: tuple | None = None
    max_iters: int = 100
    rel_tol: float = 1e-4
    geometry: str = "polar"  # einstein_noise only
    noise_seeds: int = 10

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _check_keys("config", raw, cls.__dataclass_fields__)
        if "experiment" not in raw:
            raise ConfigError("config requires an experiment")
        return cls(**raw)

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

    def __post_init__(self):
        """Check that each field the experiment does not read is absent or at
        its default, then every field's value."""
        _check_choice("experiment", self.experiment, EXPERIMENTS)
        _check_choice("geometry", self.geometry, _GEOMETRY_READS)
        reads = fields_read(self.experiment, self.geometry)
        unread = [
            f.name for f in fields(self)
            if f.name not in reads | {"experiment", "seed"} and getattr(self, f.name) != f.default
        ]
        if unread:
            raise ConfigError(f"{self.experiment} does not read {unread}: leave them out or at their defaults")
        # JSON integers: reconstruct also takes a numpy max_iters, which results.json could not hold
        _check_int("seed", self.seed, 0)
        _check_int("max_iters", self.max_iters, 1)
        for name in ("L", "trials", "M", "noise_seeds"):
            _check_int(name, getattr(self, name), 1, MAX_COUNT)
        for name in ("sigmas", "snrs"):
            _check_levels(name, getattr(self, name))
        for sigma in self.sigmas or []:
            _apply_rule("sigmas: ", forward.check_sigma, sigma)
        levels = [name for name in ("sigmas", "snrs") if getattr(self, name) is not None]
        if len(levels) > 1 or not (levels or self.experiment == "einstein_noise"):
            raise ConfigError(f"{self.experiment} takes the noise level once, in sigmas or snrs; got {levels}")
        if self.experiment == "einstein_noise" and len(self.sigmas or []) > 1:
            raise ConfigError("einstein_noise takes at most one entry in sigmas")
        if not isinstance(self.projected, bool):
            raise ConfigError(f"projected must be true or false, got {self.projected!r}")
        for name in ("phantom", "template_phantom"):
            _check_phantom(name, getattr(self, name), polar="polar" in reads)
        if self.experiment == "recover3d":
            specs = [spec or {} for spec in (self.phantom, self.template_phantom)]
            sizes = [spec.get("n", DEFAULT_PHANTOM_N) for spec in specs if spec.get("kind") != "loaded"]
            if len(set(sizes)) > 1:
                raise ConfigError(f"phantom and template_phantom must have the same n, got {sizes}")
        if self.polar is not None:
            _check_keys("polar", self.polar, DEFAULT_POLAR)
            polar = {**DEFAULT_POLAR, **self.polar}
            for name, value in polar.items():
                _check_int(f"polar {name}", value, 1, MAX_COUNT)
            if polar["d_radial"] * polar["l_angular"] > MAX_COUNT:
                raise ConfigError(f"polar d_radial * l_angular must be <= {MAX_COUNT}, got {polar}")
        if self.truth_prior is not None:
            _check_prior("truth_prior", self.truth_prior)
        if self.estimation_priors is not None:
            if not (isinstance(self.estimation_priors, (list, tuple)) and self.estimation_priors):
                raise ConfigError(f"estimation_priors must be a non-empty list, got {self.estimation_priors!r}")
            for spec in self.estimation_priors:
                _check_prior("estimation_priors entry", spec)
        if self.experiment == "prior_mismatch" and not self.estimation_priors:
            raise ConfigError("prior_mismatch requires estimation_priors")
        if self.experiment == "snr_sweep" and len(self.estimation_priors or []) > 1:
            raise ConfigError("snr_sweep takes at most one entry in estimation_priors")
        if self.experiment == "grid_sweep":
            ls = self.L_values
            ints = isinstance(ls, (list, tuple)) and all(_is_int(v) and 1 <= v <= MAX_COUNT for v in ls)
            if not (ints and len(set(ls)) == len(ls) > 1):
                raise ConfigError(
                    f"L_values must be a list of >= 2 distinct integers from 1 to {MAX_COUNT}, got {ls!r}"
                )
        modes = self.assignment_modes
        if modes is not None and not (isinstance(modes, (list, tuple)) and modes):
            raise ConfigError(f"assignment_modes must be a non-empty list, got {modes!r}")
        for mode in modes or DEFAULT_MODES:  # the EM settings of every mode the run reconstructs with
            _apply_rule("", reconstruct.ReconstructionConfig, mode, self.max_iters, self.rel_tol)
        if modes is not None and len(set(modes)) < len(modes):
            raise ConfigError(f"assignment_modes lists a mode twice: {modes!r}")
        # lists are stored as tuples, so a checked config cannot change; json writes them as arrays
        for name in ("sigmas", "snrs", "estimation_priors", "L_values", "assignment_modes"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(getattr(self, name)))


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_positive(v) -> bool:
    """A finite number > 0; an integer too large for a double is not finite."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and 0 < v <= sys.float_info.max


def _check_choice(name: str, value, choices) -> None:
    # strings only: a list or object in a dict raises TypeError
    if not (isinstance(value, str) and value in choices):
        raise ConfigError(f"{name} must be one of {list(choices)}, got {value!r}")


def _check_int(name: str, value, low: int, high: int | None = None) -> None:
    if not (_is_int(value) and value >= low and (high is None or value <= high)):
        bound = "" if high is None else f" and <= {high}"
        raise ConfigError(f"{name} must be an integer >= {low}{bound}, got {value!r}")


def _check_levels(name: str, values) -> None:
    if values is None:
        return
    if not (isinstance(values, (list, tuple)) and values):
        raise ConfigError(f"{name} must be a non-empty list, got {values!r}")
    for v in values:
        if not _is_positive(v):
            raise ConfigError(f"every entry of {name} must be finite and positive, got {v!r}")


def _apply_rule(prefix: str, rule, *args):
    """Apply a library rule to config values and return its result; its
    ValueError becomes a ConfigError."""
    try:
        return rule(*args)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _check_keys(name: str, spec, allowed) -> None:
    """``spec`` must be an object whose keys are all in ``allowed``."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{name} must be an object, got {spec!r}")
    unknown = set(spec) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {name} fields: {sorted(unknown)}")


def _check_prior(name: str, spec) -> None:
    kind = spec.get("kind", "uniform") if isinstance(spec, dict) else None
    _check_keys(name, spec, ("kind", "eta") if kind == "isotropic_gaussian" else ("kind",))
    _apply_rule(f"{name} ", so3.check_prior, kind, spec.get("eta"))


def _check_phantom(name: str, spec, polar: bool) -> None:
    """A polar phantom reads only its seed; a volume one its kind and its
    size n and seed or, for kind 'loaded' only, a file path."""
    if spec is None:
        return
    kind = spec.get("kind", "asymmetric_L") if isinstance(spec, dict) else None  # both default kinds are generated
    _check_keys(name, spec, ("seed",) if polar else ("kind", "path") if kind == "loaded" else ("kind", "n", "seed"))
    _apply_rule(f"{name} ", forward.check_phantom, kind, spec.get("n", DEFAULT_PHANTOM_N), spec.get("path"))
    if "seed" in spec:
        _check_int(f"{name} seed", spec["seed"], 0)


def _prior_from_spec(spec: dict | None) -> so3.RotationPrior:
    # the config has checked the spec
    if spec is not None and spec.get("kind") == "isotropic_gaussian":
        return so3.RotationPrior.isotropic_gaussian(float(spec["eta"]))
    return so3.RotationPrior.uniform()


def _phantom_from_spec(spec: dict | None, default_kind="asymmetric_L") -> np.ndarray:
    # the config has checked the spec, whose keys are make_phantom's parameters
    return forward.make_phantom(**{"kind": default_kind, "n": DEFAULT_PHANTOM_N, **(spec or {})})


def worker_count(requested: int | None = None) -> int:
    """Worker threads: ``requested`` (default the CPU count), capped by OB_THREADS."""
    cap = os.environ.get("OB_THREADS")
    n = requested or (os.cpu_count() or 1)
    if cap:
        if not (cap.isascii() and cap.strip().isdigit()) or int(cap) < 1:
            raise ConfigError(f"OB_THREADS must be a positive integer, got {cap!r}")
        n = min(n, int(cap))
    return max(1, n)


# parallel_map's pools by worker count, and the name of their threads.  A
# pool is reused, so a map pays no thread start-up; its workers start on
# first use and wait idle between maps.
_POOLS: dict[int, ThreadPoolExecutor] = {}
_POOL_THREAD = "orient_bayes.pool"


def parallel_map(fn, items, threads: int | None = None):
    """Order-preserving map; results are identical to sequential execution.

    The workers are the one level of parallelism: BLAS runs on one thread
    while the map runs, with one worker too, so a task's bytes depend neither
    on the worker count nor on the BLAS thread count.  A map called from a
    task runs in order on its worker, which could otherwise wait on tasks
    queued behind its own.  Every task has ended when the map returns or
    raises."""
    n = worker_count(threads)
    items = list(items)
    with blas.ONE_THREAD:
        if n == 1 or len(items) <= 1 or threading.current_thread().name.startswith(_POOL_THREAD):
            return [fn(x) for x in items]
        pool = _POOLS.get(n) or _POOLS.setdefault(n, ThreadPoolExecutor(n, thread_name_prefix=_POOL_THREAD))
        futures = [pool.submit(fn, x) for x in items]
        wait(futures)
        return [f.result() for f in futures]


def _sigma_list(cfg: ExperimentConfig, vbar: np.ndarray) -> list[float]:
    if cfg.sigmas:
        return [float(s) for s in cfg.sigmas]
    return [_sigma_for_snr(cfg, vbar, s) for s in cfg.snrs]


def _sigma_for_snr(cfg: ExperimentConfig, vbar: np.ndarray, snr) -> float:
    sigma = _apply_rule(f"snr {snr!r}: ", forward.sigma_for_snr, vbar, float(snr), cfg.projected)
    _apply_rule(f"snr {snr!r}: ", forward.check_sigma, sigma)
    return sigma


def _rows(key: list[int], shape: tuple, draw, map, first: int = 0) -> np.ndarray:
    """A new array of ``shape`` whose row t is filled in place by
    draw(t, rng, row) with its own generator, seeded by key + [first + t], so
    the rows can be drawn in any order and the result does not depend on
    batching or on the order-preserving ``map`` of the :func:`blas.fill
    <orient_bayes.blas.fill>` in blocks of ROW_BLOCK rows: the block of a
    batch that starts at row ``first`` gets the batch's rows."""
    out = np.empty(shape)

    def fill(rows):
        for t in range(rows.start, rows.stop):
            draw(t, np.random.default_rng(key + [first + t]), out[t])

    blas.fill(map, fill, shape[0], ROW_BLOCK)
    return out


def _true_rotations(cfg: ExperimentConfig, prior: so3.RotationPrior, count: int) -> np.ndarray:
    # the builtin map: a row draws one rotation, too little work for the pool
    return _rows([cfg.seed, _K_TRUTH], (count, 3, 3), lambda t, rng, row: np.copyto(row, prior.sample(rng, 1)[0]), map)


def _noisy(key: list[int], shape: tuple, sigma: float, map, clean=None, first: int = 0) -> np.ndarray:
    """The observation rows of a batch from row ``first`` on, an array of
    ``shape`` drawn by :func:`_rows` on ``map``: row t is clean(t, rng), drawn
    first from the row's generator, plus white Gaussian noise of level sigma
    drawn into the row in place (the bytes of rng.normal(size=d) * sigma), or
    the noise alone without ``clean``."""

    def draw(t, rng, row):
        clean_row = None if clean is None else clean(t, rng)
        rng.standard_normal(out=row)
        row *= sigma
        if clean_row is not None:
            row += clean_row

    return _rows(key, shape, draw, map, first)


def _error_records(cfg, sigma, snr, L, label, errors) -> ResultRecord:
    errors = np.asarray(errors, dtype=float)
    se = float(errors.std(ddof=1) / np.sqrt(errors.size)) if errors.size > 1 else 0.0
    mean = float(errors.mean())
    return ResultRecord(cfg.experiment, cfg.seed, float(sigma), float(snr), int(L), label, mean, se, errors.size)


def _candidates(cfg: ExperimentConfig, vbar, prior, L: int, seed: int):
    return estimators.CandidateSet.build(vbar, prior, L, seed=seed, projected=cfg.projected, map=parallel_map)


def _sweep_inputs(cfg: ExperimentConfig):
    """The sweep phantom, the true rotations, and their clean observations."""
    vbar = _phantom_from_spec(cfg.phantom)
    rotations = _true_rotations(cfg, _prior_from_spec(cfg.truth_prior), cfg.trials)
    return vbar, rotations, forward.rotated_stack(vbar, rotations, cfg.projected, parallel_map)


def _sweep(cfg: ExperimentConfig, vbar, rotations, clean, L: int, estimates) -> list[ResultRecord]:
    """Geodesic-error records at every sigma of each (cands, labels) entry; a
    label is "map" or "mmse", optionally followed by ":<detail>".

    One pooled map runs every (sigma, block of SWEEP_BLOCK rows) task: a task
    draws its block's noisy rows, scores them once per candidate set, and
    MAP and MMSE both read those scores.  The pool is the sweep's one level
    of parallelism, so scoring runs BLAS on one thread and the bytes depend
    on neither the worker count nor BLAS's thread count.  The calling thread
    joins the errors in row order; the templates' squared norms are taken
    once per set."""
    sigmas = _sigma_list(cfg, vbar)
    x_sqs = [estimators.squared_norms(cands.templates) for cands, _ in estimates]
    tasks = [(si, first) for si in range(len(sigmas)) for first in range(0, len(clean), SWEEP_BLOCK)]

    def block(task):
        si, first = task
        rows = slice(first, first + SWEEP_BLOCK)
        clean_rows = clean[rows]
        ys = _noisy([cfg.seed, _K_NOISE, si], clean_rows.shape, sigmas[si], map, lambda t, rng: clean_rows[t], first)
        errors = []
        for (cands, labels), x_sq in zip(estimates, x_sqs):
            scores = estimators.Scores.of(ys, cands.templates, x_sq=x_sq)
            for label in labels:
                if label.startswith("mmse"):
                    w = np.exp(scores.log_weights(sigmas[si] ** 2))
                    estimate = estimators.mmse_rotations(w, cands.rotations)
                else:
                    estimate = cands.rotations[scores.map_indices()]
                errors.append(so3.geodesic_distances(rotations[rows], estimate))
        return errors

    per_task = parallel_map(block, tasks)
    labels = [label for _, entry_labels in estimates for label in entry_labels]
    records = []
    for si, sigma in enumerate(sigmas):
        blocks = [errors for (sj, _), errors in zip(tasks, per_task) if sj == si]
        snr = forward.snr_of(vbar, sigma, projected=cfg.projected)
        for k, label in enumerate(labels):
            errors = np.concatenate([errors[k] for errors in blocks])
            records.append(_error_records(cfg, sigma, snr, L, label, errors))
    return records


def run_snr_sweep(cfg: ExperimentConfig):
    """Mean geodesic error of MAP and MMSE across a noise sweep (shared grid)."""
    vbar, rotations, clean = _sweep_inputs(cfg)
    est_prior = _prior_from_spec((cfg.estimation_priors or [None])[0])
    cands = _candidates(cfg, vbar, est_prior, cfg.L, cfg.seed)
    return Outputs(_sweep(cfg, vbar, rotations, clean, cfg.L, [(cands, ["map", "mmse"])]))


def run_prior_mismatch(cfg: ExperimentConfig):
    """MAP on a uniform grid vs MMSE variants sampled from estimation priors."""
    vbar, rotations, clean = _sweep_inputs(cfg)
    uniform = _candidates(cfg, vbar, so3.RotationPrior.uniform(), cfg.L, cfg.seed)
    estimates = [(uniform, ["map"])]
    for k, spec in enumerate(cfg.estimation_priors):
        cset = _candidates(cfg, vbar, _prior_from_spec(spec), cfg.L, cfg.seed + 1 + k)
        estimates.append((cset, [f"mmse:{cset.prior.label()}"]))
    return Outputs(_sweep(cfg, vbar, rotations, clean, cfg.L, estimates))


def run_grid_sweep(cfg: ExperimentConfig):
    """Estimator error vs grid size, with the fitted log-log slopes as extra."""
    vbar, rotations, clean = _sweep_inputs(cfg)
    ls = cfg.L_values
    records, first = [], {}
    for L in ls:
        cands = None  # release the last candidate set before building the next
        cands = _candidates(cfg, vbar, so3.RotationPrior.uniform(), L, cfg.seed)
        records_L = _sweep(cfg, vbar, rotations, clean, L, [(cands, ["map", "mmse"])])
        first[L] = {r.estimator: r.metric_mean for r in records_L[:2]}
        records += records_L
    # slope of log(mean error) vs log(L) at the first sigma (highest SNR)
    log_l = np.log(np.array(ls, dtype=float))
    slopes = {
        label: float(np.polyfit(log_l, np.log(np.array([first[L][label] for L in ls])), 1)[0])
        for label in ("map", "mmse")
    }
    return Outputs(records, extra={"slopes": slopes})


def _polar_phantom(cfg: ExperimentConfig, spec: dict | None, default_seed: int) -> np.ndarray:
    polar = {**DEFAULT_POLAR, **(cfg.polar or {})}
    seed = (spec or {}).get("seed", default_seed)
    return forward.make_polar_phantom(polar["d_radial"], polar["l_angular"], seed=seed)


def _check_not_constant(name: str, phantom: np.ndarray) -> None:
    """Checked before any EM work: a run scores its estimates against
    ``phantom`` by PCC, which a constant phantom leaves undefined."""
    _apply_rule(f"{name}: ", reconstruct.pcc, phantom, phantom)


def _template_and_group(cfg: ExperimentConfig, geometry: str):
    """The EM starting template and its group, which runs its work through
    ``parallel_map``: exact shifts of a polar image, or rotations of a volume
    by uniform candidates (only rotations: reconstruction and registration
    read no candidate templates)."""
    if geometry == "polar":
        template = _polar_phantom(cfg, cfg.template_phantom, 2)
        return template, reconstruct.Shifts(template.shape[1], parallel_map)
    cands = estimators.candidate_rotations(so3.RotationPrior.uniform(), cfg.L, cfg.seed + _K_CANDS)
    return _phantom_from_spec(cfg.template_phantom), reconstruct.Rotations(cands, parallel_map)


def _em(cfg: ExperimentConfig, name: str, template, group, tag: int, clean=None, truth=None, sigmas=None) -> Outputs:
    """Every mode's EM from ``template`` over ``group`` on batch k of M rows
    at the k-th noise level of ``sigmas`` (by default the config's levels of
    ``truth``), one batch after another.  Row t of batch k is clean(t, rng) plus noise,
    or noise alone without ``clean``, from a generator keyed [seed, tag, k, t]
    that the clean row draws from first; the group's map draws the rows.  The
    last batch is released before the next is drawn, and BLAS runs on one
    thread throughout, the calling thread's products included.

    Run (k, mode) gives the trace f"{name}_s{k}_{mode}" and a record of its
    final's PCC to the template.  With a truth, a record of the final's PCC
    to ``truth`` after registration comes first, and a 3-D final is kept
    under the trace's name."""
    for label, phantom in (("phantom", truth), ("template_phantom", template)):
        if phantom is not None:
            _check_not_constant(label, phantom)
    records, traces, volumes = [], {}, {}
    with blas.ONE_THREAD:
        for k, sigma in enumerate(sigmas or _sigma_list(cfg, truth)):
            batch = None  # release the last batch before drawing the next
            rows = _noisy([cfg.seed, tag, k], (cfg.M, template.size), sigma, group.map, clean)
            batch = reconstruct.Batch(rows, template.shape, sigma)
            del rows  # the batch holds the only reference
            snr = 0.0 if truth is None else forward.snr_of(truth, sigma)
            for mode in cfg.assignment_modes or DEFAULT_MODES:
                key = f"{name}_s{k}_{mode}"
                rcfg = reconstruct.ReconstructionConfig(assignment=mode, max_iters=cfg.max_iters, rel_tol=cfg.rel_tol)
                final, traces[key] = reconstruct.run_reconstruction(batch, template, group, rcfg, truth=truth)
                if truth is not None:
                    registered = reconstruct.registered_pcc(final, truth, group)
                    records.append(_error_records(cfg, sigma, snr, group.size, mode, [registered]))
                    if final.ndim == 3:
                        volumes[key] = final
                template_pcc = reconstruct.pcc(final, template)
                records.append(_error_records(cfg, sigma, snr, group.size, f"{mode}/template", [template_pcc]))
    return Outputs(records, traces, volumes)


def run_recover2d(cfg: ExperimentConfig):
    """Iterative polar-image recovery from shifted noisy copies; a row's
    generator draws its shift before its noise."""
    truth = _polar_phantom(cfg, cfg.phantom, 1)
    template, group = _template_and_group(cfg, "polar")

    def shifted(t, rng):
        return forward.rotate_polar(truth, -int(rng.integers(truth.shape[1]))).ravel()

    return _em(cfg, cfg.experiment, template, group, _K_SHIFT, shifted, truth)


def run_recover3d(cfg: ExperimentConfig):
    """Iterative 3D recovery from rotated noisy copies (no projection).  A
    row is rotated and drawn in one task, so no clean stack is held beside
    the batch."""
    truth = _phantom_from_spec(cfg.phantom, default_kind="gaussian_blobs")
    template, group = _template_and_group(cfg, "volume")
    if template.shape != truth.shape:  # the config has compared the sizes of generated phantoms only
        raise ConfigError(f"phantom is {truth.shape} but template_phantom is {template.shape}")
    rotations = _true_rotations(cfg, so3.RotationPrior.uniform(), cfg.M)

    def rotated(t, rng):
        return forward.rotate_volume(truth, rotations[t]).ravel()

    return _em(cfg, cfg.experiment, template, group, _K_NOISE, rotated, truth)


def run_einstein_noise(cfg: ExperimentConfig):
    """Template-bias measurement on pure-noise data, averaged over noise
    seeds: one batch per seed."""
    sigma = float((cfg.sigmas or [1.0])[0])
    template, group = _template_and_group(cfg, cfg.geometry)
    runs = _em(cfg, "einstein", template, group, _K_NOISE, sigmas=itertools.repeat(sigma, cfg.noise_seeds))
    labels = [f"{mode}/template" for mode in cfg.assignment_modes or DEFAULT_MODES]
    # each run's record holds its one PCC
    pccs = {label: [r.metric_mean for r in runs.records if r.estimator == label] for label in labels}
    return Outputs([_error_records(cfg, sigma, 0.0, group.size, label, pccs[label]) for label in labels], runs.traces)


def emit_csv(records, path) -> None:
    """Doubles are printed with 17 significant digits so re-parsing is lossless."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in records:
            typed = zip(astuple(r), _COLUMNS.values())
            writer.writerow([f"{v:.17g}" if kind is float else v for v, kind in typed])


def emit_json(cfg: ExperimentConfig, records, path, extra: dict | None = None) -> None:
    doc = {"config": asdict(cfg), "records": [asdict(r) for r in records]}
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# run(cfg) gives the Outputs; reads are the config fields read
# besides experiment and seed.
Experiment = namedtuple("Experiment", "run reads")
# The fields an EM geometry adds: the polar grid, or the rotation grid of a volume.
_GEOMETRY_READS = {"polar": ("polar",), "volume": ("L",)}
_SWEEP_READS = ("trials", "sigmas", "snrs", "truth_prior", "phantom", "projected")
_EM_READS = ("sigmas", "template_phantom", "M", "assignment_modes", "max_iters", "rel_tol")

EXPERIMENTS = {
    "snr_sweep": Experiment(run_snr_sweep, (*_SWEEP_READS, "L", "estimation_priors")),
    "prior_mismatch": Experiment(run_prior_mismatch, (*_SWEEP_READS, "L", "estimation_priors")),
    "grid_sweep": Experiment(run_grid_sweep, (*_SWEEP_READS, "L_values")),
    "recover2d": Experiment(run_recover2d, (*_EM_READS, "snrs", "phantom", *_GEOMETRY_READS["polar"])),
    "recover3d": Experiment(run_recover3d, (*_EM_READS, "snrs", "phantom", *_GEOMETRY_READS["volume"])),
    "einstein_noise": Experiment(run_einstein_noise, (*_EM_READS, "geometry", "noise_seeds")),
}


def fields_read(experiment: str, geometry: str) -> set:
    """The config fields ``experiment`` reads besides experiment and seed;
    one that reads ``geometry`` also reads that geometry's fields."""
    reads = EXPERIMENTS[experiment].reads
    return {*reads, *_GEOMETRY_READS[geometry]} if "geometry" in reads else set(reads)


def run_experiment(cfg: ExperimentConfig, out_dir):
    """Run cfg's experiment and write results.csv / results.json plus any
    traces/*.jsonl and volumes/*.obv under ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records, traces, volumes, extra = EXPERIMENTS[cfg.experiment].run(cfg)
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
