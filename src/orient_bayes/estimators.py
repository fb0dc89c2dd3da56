"""Posterior weights over candidate rotations and the MAP / MMSE estimators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import blas, forward, so3

# Rows of one scoring product.  A multiple of 24 rows scores each row
# bit-equal to one one-thread product of the whole batch on OpenBLAS 0.3.31.
SCORE_BLOCK = 96


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

    def __post_init__(self):
        if self.rotations.shape[0] != self.templates.shape[0]:
            raise ValueError("rotations and templates must have equal length")

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
        """``map`` is an order-preserving map over candidate indices (see
        :func:`forward.rotated_stack`); any map gives the same bytes."""
        rotations = candidate_rotations(prior, count, seed)
        templates = forward.rotated_stack(vbar, rotations, method, projected, map)
        return cls(rotations=rotations, templates=templates, prior=prior)


def candidate_rotations(prior: so3.RotationPrior, count: int, seed: int) -> np.ndarray:
    """The rotations of ``CandidateSet.build(..., prior, count, seed)``, (count, 3, 3),
    without building templates."""
    return prior.sample(np.random.default_rng([seed, 0xCA4D]), count)


def _batch(ys, x: np.ndarray) -> np.ndarray:
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if ys.shape[1] != x.shape[1]:
        raise DimensionMismatchError(f"observation dim {ys.shape[1]} != template dim {x.shape[1]}")
    return ys


def squared_norms(a: np.ndarray) -> np.ndarray:
    """||a_i||^2 of every row of a 2-D array."""
    return np.einsum("id,id->i", a, a)


def _normalized(log_w: np.ndarray) -> np.ndarray:
    # max-subtracted before exponentiation so the weights stay finite for any sigma
    log_w -= log_w.max(axis=1, keepdims=True)
    log_w -= np.log(np.sum(np.exp(log_w), axis=1, keepdims=True))
    return log_w


@dataclass(frozen=True)
class Scores:
    """The terms of ||y_m - x_l||^2 for a batch against one template matrix.

    ``cross`` is the (M x d)(d x L) product; MAP indices and the posterior
    log-weights both read it, so one scoring serves both.
    """

    y_sq: np.ndarray  # (M,)
    x_sq: np.ndarray  # (L,)
    cross: np.ndarray  # (M, L), ys @ x.T

    @classmethod
    def of(
        cls, ys: np.ndarray, x: np.ndarray, y_sq: np.ndarray | None = None, x_sq: np.ndarray | None = None,
        map=map,
    ) -> "Scores":
        """``y_sq`` and ``x_sq`` are the :func:`squared_norms` of ``ys`` and ``x``
        when the caller already holds them (a batch holds its rows', a sweep
        its fixed templates').  The product is a :func:`blas.fill
        <orient_bayes.blas.fill>` of ``cross`` in blocks of SCORE_BLOCK rows
        through the order-preserving ``map``."""
        ys = _batch(ys, x)
        if y_sq is None:
            y_sq = squared_norms(ys)
        if x_sq is None:
            x_sq = squared_norms(x)
        cross = np.empty((len(ys), len(x)))
        blas.fill(map, lambda rows: np.matmul(ys[rows], x.T, out=cross[rows]), len(ys), SCORE_BLOCK)
        return cls(y_sq=y_sq, x_sq=x_sq, cross=cross)

    def map_indices(self) -> np.ndarray:
        """Argmin_l ||y - x_l||^2 per observation; ties resolve to the lowest index."""
        resid = self.x_sq[None, :] - 2.0 * self.cross  # ||y||^2 omitted: constant per row
        return np.argmin(resid, axis=1)

    def log_weights(self, var) -> np.ndarray:
        """Normalized log posterior weights under the variance ``var``, (M, L):
        log w_l = -||y - x_l||^2 / (2 var), normalized per row."""
        if var == 0:
            raise ZeroVarianceError("the variance is zero: posterior weights need sigma > 0")
        return _normalized(-(self.y_sq[:, None] - 2.0 * self.cross + self.x_sq[None, :]) / (2.0 * var))


def normalized_log_weights(ys: np.ndarray, x: np.ndarray, var) -> np.ndarray:
    """Normalized log posterior weights against a template matrix under one
    scalar variance, (M, L): the scores of :meth:`Scores.log_weights`."""
    return Scores.of(ys, x).log_weights(var)


def _posterior_means(w: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_l w[m, l] values[l] for each row m of weights w (M, L), (M, K): an
    einsum, whose bytes for a row do not depend on M as a BLAS product's do."""
    return np.einsum("ml,lk->mk", w, values)


def mmse_rotations(w: np.ndarray, rotations: np.ndarray) -> np.ndarray:
    """Procrustes-rounded posterior mean of rotations (L, 3, 3) under each row of
    weights w (M, L): the (M, 3, 3) rotations."""
    w = np.atleast_2d(w)
    if w.shape[1] != rotations.shape[0]:
        raise DimensionMismatchError("weight length does not match candidate count")
    avg = _posterior_means(w, rotations.reshape(-1, 9)).reshape(-1, 3, 3)
    return so3.procrustes_project(avg)


def mmse_angles(w: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Circular mean of angles (L,) under each row of weights w (M, L), the exact
    SO(2) Procrustes rounding: the (M,) angles."""
    w = np.atleast_2d(w)
    if w.shape[1] != angles.shape[0]:
        raise DimensionMismatchError("weights and angles must have equal length")
    s, c = _posterior_means(w, np.stack([np.sin(angles), np.cos(angles)], axis=1)).T
    return np.arctan2(s, c)

