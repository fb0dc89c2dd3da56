"""Posterior weights over candidate rotations and the MAP / MMSE estimators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import forward, so3

# Below this norm a posterior-averaged matrix (or SO(2) resultant) has no
# usable direction and its rounding is essentially arbitrary.
DEGENERATE_NORM = 1e-9


class DimensionMismatchError(ValueError):
    pass


class ZeroVarianceError(ValueError):
    pass


@dataclass(frozen=True)
class CandidateSet:
    """L candidate rotations with precomputed templates x_l = Pi(g_l^-1 . vbar).

    Templates are computed once and shared read-only across observations;
    both estimators then cost O(L d) per observation.
    """

    rotations: np.ndarray  # (L, 3, 3)
    templates: np.ndarray  # (L, d)
    prior: so3.RotationPrior
    seed: int | None = None

    def __post_init__(self):
        if self.rotations.shape[0] != self.templates.shape[0]:
            raise ValueError("rotations and templates must have equal length")

    @property
    def size(self) -> int:
        return self.rotations.shape[0]

    @property
    def dim(self) -> int:
        return self.templates.shape[1]

    @classmethod
    def build(
        cls,
        vbar: np.ndarray,
        prior: so3.RotationPrior,
        count: int,
        seed: int,
        projected: bool = False,
        method: str = "trilinear",
        map=map,
    ) -> "CandidateSet":
        """``map`` is an order-preserving map over candidate indices; each
        call fills its own template row, so any map gives the same bytes."""
        rotations = candidate_rotations(prior, count, seed)
        templates = np.empty((count, vbar.size if not projected else vbar.shape[0] ** 2))

        def fill(i):
            clean = forward.rotate_volume(vbar, rotations[i], method=method)
            if projected:
                clean = forward.project_z(clean)
            templates[i] = clean.ravel()

        for _ in map(fill, range(count)):
            pass
        return cls(rotations=rotations, templates=templates, prior=prior, seed=seed)


def candidate_rotations(prior: so3.RotationPrior, count: int, seed: int) -> np.ndarray:
    """The rotations of ``CandidateSet.build(..., prior, count, seed)``, (count, 3, 3),
    without building templates."""
    return prior.sample(np.random.default_rng([seed, 0xCA4D]), count)


@dataclass(frozen=True)
class PosteriorWeights:
    log_w: np.ndarray  # normalized log-probabilities
    w: np.ndarray

    @property
    def effective_sample_size(self) -> float:
        return float(1.0 / np.sum(self.w**2))


@dataclass(frozen=True)
class EstimateReport:
    rotation: np.ndarray
    map_index: int | None = None
    effective_sample_size: float | None = None
    procrustes_nonunique: bool = False
    degenerate_average: bool = False


def _batch(ys, x: np.ndarray) -> np.ndarray:
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if ys.shape[1] != x.shape[1]:
        raise DimensionMismatchError(f"observation dim {ys.shape[1]} != template dim {x.shape[1]}")
    return ys


def _normalized(log_w: np.ndarray) -> np.ndarray:
    # max-subtracted before exponentiation so the weights stay finite for any sigma
    log_w -= log_w.max(axis=1, keepdims=True)
    log_w -= np.log(np.sum(np.exp(log_w), axis=1, keepdims=True))
    return log_w


@dataclass(frozen=True)
class Scores:
    """The terms of ||y_m - x_l||^2 for a batch against one template matrix.

    ``cross`` is the single (M x d)(d x L) product; MAP indices and the
    posterior log-weights both read it, so one scoring serves both.
    """

    ys: np.ndarray  # (M, d)
    x_sq: np.ndarray  # (L,)
    cross: np.ndarray  # (M, L), ys @ x.T

    @classmethod
    def of(cls, ys: np.ndarray, x: np.ndarray) -> "Scores":
        ys = _batch(ys, x)
        return cls(ys=ys, x_sq=np.einsum("ld,ld->l", x, x), cross=ys @ x.T)

    def map_indices(self) -> np.ndarray:
        """Argmin_l ||y - x_l||^2 per observation; ties resolve to the lowest index."""
        resid = self.x_sq[None, :] - 2.0 * self.cross  # ||y||^2 omitted: constant per row
        return np.argmin(resid, axis=1)

    def log_weights(self, var) -> np.ndarray:
        """Normalized log posterior weights under one scalar variance, (M, L)."""
        if var == 0:
            raise ZeroVarianceError("all effective variances are zero")
        y_sq = np.einsum("md,md->m", self.ys, self.ys)
        return _normalized(-(y_sq[:, None] - 2.0 * self.cross + self.x_sq[None, :]) / (2.0 * var))


def normalized_log_weights(ys: np.ndarray, x: np.ndarray, var) -> np.ndarray:
    """Normalized log posterior weights against a template matrix, (M, L).

    log w_l = -1/2 sum_i (y_i - x_li)^2 / var_i, normalized per row.
    """
    var = np.asarray(var, dtype=float)
    if var.ndim == 0:
        # scalar variance: expand the residual through a single matmul
        return Scores.of(ys, x).log_weights(var)
    ys = _batch(ys, x)
    if np.any(var == 0):
        raise ZeroVarianceError("an effective variance is zero")
    inv = 1.0 / var
    y_sq = (ys**2) @ inv
    x_sq = (x**2) @ inv
    cross = (ys * inv) @ x.T
    return _normalized(-0.5 * (y_sq[:, None] - 2.0 * cross + x_sq[None, :]))


def mmse_rotations(w: np.ndarray, rotations: np.ndarray):
    """Procrustes-rounded posterior mean of rotations (L, 3, 3) under each row of
    weights w (M, L): the (M, 3, 3) rotations, their ``nonunique`` flags, and
    flags for averages too close to zero to have a direction."""
    w = np.atleast_2d(w)
    if w.shape[1] != rotations.shape[0]:
        raise DimensionMismatchError("weight length does not match candidate count")
    avg = (w @ rotations.reshape(-1, 9)).reshape(-1, 3, 3)
    proj = so3.procrustes_project(avg)
    return proj.rotation, proj.nonunique, np.linalg.norm(avg, axis=(1, 2)) < DEGENERATE_NORM


def mmse_angles(w: np.ndarray, angles: np.ndarray):
    """Circular mean of angles (L,) under each row of weights w (M, L), the exact
    SO(2) Procrustes rounding, with flags for near-zero resultants."""
    w = np.atleast_2d(w)
    if w.shape[1] != angles.shape[0]:
        raise DimensionMismatchError("weights and angles must have equal length")
    s, c = w @ np.sin(angles), w @ np.cos(angles)
    return np.arctan2(s, c), np.hypot(s, c) < DEGENERATE_NORM


def posterior_weights(y, cands: CandidateSet, noise: forward.NoiseModel) -> PosteriorWeights:
    ys = np.ravel(y)[None, :]
    log_w = normalized_log_weights(ys, cands.templates, noise.effective_variance(cands.dim))[0]
    return PosteriorWeights(log_w=log_w, w=np.exp(log_w))


def map_estimate(y, cands: CandidateSet) -> EstimateReport:
    idx = int(Scores.of(np.ravel(y)[None, :], cands.templates).map_indices()[0])
    return EstimateReport(rotation=cands.rotations[idx].copy(), map_index=idx)


def mmse_estimate(y, cands: CandidateSet, noise: forward.NoiseModel) -> EstimateReport:
    """Procrustes-rounded posterior mean rotation, with degeneracy diagnostics."""
    weights = posterior_weights(y, cands, noise)
    rotations, nonunique, degenerate = mmse_rotations(weights.w, cands.rotations)
    return EstimateReport(
        rotation=rotations[0],
        effective_sample_size=weights.effective_sample_size,
        procrustes_nonunique=bool(nonunique[0]),
        degenerate_average=bool(degenerate[0]),
    )
