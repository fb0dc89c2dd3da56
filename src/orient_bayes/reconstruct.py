"""Iterative reconstruction with soft, MMSE-aligned, and hard assignment.

The reconstruction model has no projection: each observation is a copy of
the structure acted on by one element of a group, plus noise.  The caller
picks the group: :class:`Shifts`, the exact cyclic shifts of a polar image
(interpolation-free), or :class:`Rotations`, trilinear volume rotation
over a rotation grid.

A group runs its work through an order-preserving ``map``, for example on a
worker pool: its elements' actions, and as a :func:`blas.fill
<orient_bayes.blas.fill>` a batch's scoring product in blocks of
``estimators.SCORE_BLOCK`` rows and the soft step's weighted sum in blocks
of SOFT_BLOCK columns.  Every other sum is accumulated on the calling thread
in the original order, so the result does not depend on the map.

No step and no registration holds more than one window of CHUNK group
elements as structures: the scoring, the soft step's weighted sum and its
back-actions, and registration each take the elements one window at a
time.  A run holds the batch and about two windows of structures, not one
per element.  A group of at most CHUNK elements, such as the 30 shifts of
a shipped polar config, is one window.

The observations are a :class:`Batch`, fixed across iterations and modes:
only the templates change between steps, so the batch's terms are computed
once.  :func:`run_reconstruction` scores each iterate once, and the step,
soft, MMSE or hard, only turns those scores into the next iterate.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from . import blas, estimators, forward
from .estimators import ZeroVarianceError

ASSIGNMENTS = ("soft_em", "mmse_align", "hard_map")

# Group elements (or observations) handed to the map at once, and the window
# of elements scored, soft-summed and registered at a time: bounds the
# structures held in memory.  On em_volume (n = 32, L = 300, M = 500, 2-vCPU
# x86-64) windows of 48 and 64 peaked at 221 and 230 MB against 280 MB for
# the whole stack; a scoring's products took 0.110 and 0.104 s against 0.083 s
# as one product, since each window reads the whole batch once.  On OpenBLAS
# 0.3.31 a multiple of 8 scores every candidate bit-equal to one product of
# all L, except at most the last L mod 8.
CHUNK = 48
# Columns of one product of the soft step's weighted sum; a fixed width keeps
# each column bit-equal to one one-thread product on OpenBLAS 0.3.31.
SOFT_BLOCK = 512


@dataclass(frozen=True)
class ReconstructionConfig:
    assignment: str = "soft_em"
    max_iters: int = 100
    rel_tol: float = 1e-4

    def __post_init__(self):
        """The one rule for the EM settings; an integer too large for a double
        is not a finite ``rel_tol``."""
        if self.assignment not in ASSIGNMENTS:
            raise ValueError(f"assignment mode must be one of {list(ASSIGNMENTS)}, got {self.assignment!r}")
        iters, tol = self.max_iters, self.rel_tol
        if isinstance(iters, bool) or not (isinstance(iters, (int, np.integer)) and iters >= 1):
            raise ValueError(f"max_iters must be an integer >= 1, got {iters!r}")
        if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and 0 < tol <= sys.float_info.max):
            raise ValueError(f"rel_tol must be a finite number > 0, got {tol!r}")


def pcc(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson cross-correlation over all coordinates, in [-1, 1]."""
    return _pcc_of(_centred(a), _centred(b))


def _centred(x) -> tuple[np.ndarray, float]:
    """x as a flat vector of doubles less its mean, and that vector's norm:
    one side of a PCC, computed once for a side scored many times."""
    x = np.asarray(x, dtype=float).ravel()
    x = x - x.mean()
    return x, np.linalg.norm(x)


def _pcc_of(a: tuple[np.ndarray, float], b: tuple[np.ndarray, float]) -> float:
    """The PCC of two :func:`_centred` sides."""
    (a, na), (b, nb) = a, b
    if a.shape != b.shape:
        raise estimators.DimensionMismatchError("shapes differ")
    if na == 0 or nb == 0:
        raise ZeroVarianceError("pcc is undefined for a constant input")
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


class _Group:
    """L group elements acting on a structure.  Subclasses give
    ``templates(v, window)`` (the array whose rows are g_l^-1 . v, the
    candidate templates of v, for the elements l of a slice), ``back``
    (g_l . u, the adjoint of element l's action) and ``mmse_average``, their
    MMSE-rounded update.  Callers take the elements one window of
    :meth:`windows` at a time, so no more than CHUNK templates are held."""

    def __init__(self, size: int, map):
        if size < 1:
            raise ValueError("a group needs at least one element")
        self.size = size
        self.map = map

    def windows(self) -> list[slice]:
        """The elements in order, as slices of at most CHUNK elements."""
        return [slice(start, min(start + CHUNK, self.size)) for start in range(0, self.size, CHUNK)]

    def summed(self, fn, items, out=0.0) -> np.ndarray:
        """``out`` plus the sum of fn over items, run through the map CHUNK
        items at a time and added in item order on the calling thread.  From
        the default 0.0 it takes the shape of the terms; a sum carried on from
        an earlier call adds its terms after that call's."""
        items = list(items)
        for start in range(0, len(items), CHUNK):
            for u in self.map(fn, items[start : start + CHUNK]):
                out += u
        return out

    def assigned_average(self, ys: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """(1/M) sum_i g_{idx_i} . y_i over a stack of M structures, back-acting
        once per element used: the action is linear, so each group of
        observations is summed first."""

        def back_sum(ell):
            # rows added in observation order onto +0.0, as numpy sums a masked
            # copy along axis 0 (bit for bit, for two or more coordinates)
            out = np.zeros(ys.shape[1:])
            for i in np.flatnonzero(idx == ell):
                out += ys[i]
            return self.back(ell, out)

        return self.summed(back_sum, np.unique(idx)) / len(ys)


class Shifts(_Group):
    """The exact cyclic shifts of a polar image with ``size`` angular samples:
    element s shifts the angular axis by s samples, and element 0 is the
    identity.  ``map`` is an order-preserving map (the builtin by default)
    that runs the back-shifts and the batch products' blocks."""

    def __init__(self, size: int, map=map):
        super().__init__(int(size), map)

    def act(self, ell: int, v: np.ndarray) -> np.ndarray:
        if v.shape[1:] != (self.size,):
            raise estimators.DimensionMismatchError(f"polar image {v.shape} lacks {self.size} angular samples")
        return forward.rotate_polar(v, -ell)

    def templates(self, v: np.ndarray, window: slice = slice(None)) -> np.ndarray:
        return np.stack([self.act(ell, v).ravel() for ell in range(self.size)[window]])

    def back(self, ell: int, u: np.ndarray) -> np.ndarray:
        return forward.rotate_polar(u, ell)

    def mmse_average(self, ys: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Back-shift each observation by its circular-mean angle, rounded to
        the nearest grid shift so the action stays exact, then average."""
        mean_angle = estimators.mmse_angles(w, 2.0 * np.pi * np.arange(self.size) / self.size)
        shifts = np.round(mean_angle * self.size / (2.0 * np.pi)).astype(int) % self.size
        return self.assigned_average(ys, shifts)


class Rotations(_Group):
    """Volume rotation by trilinear interpolation over an (L, 3, 3) array of
    rotations.  ``map`` is an order-preserving map (the builtin by default)
    that runs the rotations and the batch products' blocks, for example on a
    worker pool."""

    def __init__(self, rotations: np.ndarray, map=map):
        rotations = np.asarray(rotations, dtype=float)
        if rotations.ndim != 3 or rotations.shape[1:] != (3, 3):
            raise ValueError(f"rotations must be an (L, 3, 3) array, got shape {rotations.shape}")
        super().__init__(rotations.shape[0], map)
        self.rotations = rotations

    def templates(self, v: np.ndarray, window: slice = slice(None)) -> np.ndarray:
        return forward.rotated_stack(v, self.rotations[window], map=self.map)

    def back(self, ell: int, u: np.ndarray) -> np.ndarray:
        return forward.rotate_volume(u, self.rotations[ell].T)

    def mmse_average(self, ys: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Back-rotate each observation by its Procrustes-rounded posterior-mean
        rotation, then average."""
        aligned = estimators.mmse_rotations(w, self.rotations)
        out = self.summed(lambda i: forward.rotate_volume(ys[i], aligned[i].T), range(len(ys)))
        return out / len(ys)


class Batch:
    """M fixed observations of a structure of ``shape`` under white Gaussian
    noise of level ``sigma`` (see :func:`forward.check_sigma`): the (M, d)
    matrix ``ys``, the same rows shaped like the structure (``shaped``), their
    squared norms ``y_sq`` and the variance ``var`` = sigma^2 they are scored
    under.

    Every mode, step and iteration on one batch reads these.  The batch also
    keeps the scores of the first template it scores, the starting template
    every mode begins from, and returns them when that template is scored
    against that group again.  A batch is used by one thread at a time.
    """

    def __init__(self, obs, shape, sigma):
        forward.check_sigma(sigma)
        self.shape = tuple(shape)
        self.ys = np.atleast_2d(np.asarray(obs, dtype=float))
        if self.ys.ndim != 2 or self.ys.shape[1] != math.prod(self.shape):
            raise estimators.DimensionMismatchError(
                f"observations of shape {self.ys.shape} are not rows of a {self.shape} structure"
            )
        if not len(self.ys):
            raise ValueError("a batch needs at least one observation")
        self.shaped = self.ys.reshape(-1, *self.shape)
        self.var = sigma**2
        self.y_sq = estimators.squared_norms(self.ys)
        self._start = None  # (group, template bytes, scores)

    def __len__(self) -> int:
        return len(self.ys)

    def scores(self, v: np.ndarray, group) -> estimators.Scores:
        """The scores of v's templates under ``group``, one window of
        elements at a time: each window's templates are scored by one
        :meth:`Scores.of <estimators.Scores.of>` and dropped before the next
        window's are made, and the windows' columns are joined in element
        order.  A group of one window is scored by that one product."""
        v = np.asarray(v, dtype=float)
        if v.shape != self.shape:
            raise estimators.DimensionMismatchError(f"structure {v.shape} != batch structure {self.shape}")
        key = v.tobytes()
        if self._start is not None and self._start[0] is group and self._start[1] == key:
            return self._start[2]
        parts = [
            estimators.Scores.of(self.ys, group.templates(v, window), self.y_sq, map=group.map)
            for window in group.windows()
        ]
        x_sq = np.concatenate([part.x_sq for part in parts])
        scores = estimators.Scores(self.y_sq, x_sq, np.concatenate([part.cross for part in parts], axis=1))
        if self._start is None:
            self._start = (group, key, scores)
        return scores


def em_step_soft(batch: Batch, scores: estimators.Scores, group) -> np.ndarray:
    """One soft-assignment (EM) update: weight-averaged back-aligned copies.

    The action is linear, so the weighted observation sum per element is
    back-acted once per element instead of once per observation.  The sums
    are formed and back-acted one window of elements at a time, in one
    buffer of a window's rows that every window reuses, and added in element
    order, so one window's sums and back-actions are held at once."""
    w = np.exp(scores.log_weights(batch.var))
    colsum = np.empty((min(CHUNK, group.size), batch.ys.shape[1]))
    out = 0.0
    for window in group.windows():
        elements = range(group.size)[window]
        sums = colsum[: len(elements)]
        weights, ys = w[:, window].T, batch.ys
        blas.fill(group.map, lambda cols: np.matmul(weights, ys[:, cols], out=sums[:, cols]), ys.shape[1], SOFT_BLOCK)
        shaped = sums.reshape(-1, *batch.shape)
        out = group.summed(lambda ell: group.back(ell, shaped[ell - window.start]), elements, out)
    return out / len(batch)


def em_step_mmse(batch: Batch, scores: estimators.Scores, group) -> np.ndarray:
    """One MMSE-alignment update: back-align each observation by its rounded
    posterior-mean group element under ``scores``, then average."""
    return group.mmse_average(batch.shaped, np.exp(scores.log_weights(batch.var)))


def hard_step(batch: Batch, scores: estimators.Scores, group) -> np.ndarray:
    """One hard-assignment update: back-align each observation by its MAP
    element under ``scores``, then average.  This is the soft update with
    one-hot weights, so only the assigned elements are back-acted; the MAP
    element is the least-squares one, so it needs no variance."""
    return group.assigned_average(batch.shaped, scores.map_indices())


_STEPS = {"soft_em": em_step_soft, "mmse_align": em_step_mmse, "hard_map": hard_step}


def run_reconstruction(
    batch: Batch, v0: np.ndarray, group, cfg: ReconstructionConfig, truth: np.ndarray | None = None
):
    """Iterate the configured step on ``batch`` over ``group`` until the
    relative change drops below cfg.rel_tol or cfg.max_iters is reached.
    Each iterate is scored once, and the step turns its scores into the next.

    Returns the final estimate and a per-iteration trace (iter, rel_change,
    pcc_truth, pcc_template); an iterate whose norm or change is not a finite
    double (data far too large in scale) raises estimators.WeightRangeError.
    """
    step = _STEPS[cfg.assignment]
    v = np.asarray(v0, dtype=float).copy()
    template = v.copy()
    trace = []
    for it in range(cfg.max_iters):
        v_next = step(batch, batch.scores(v, group), group)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below, with no warning first
            prev_norm, change = np.linalg.norm(v), np.linalg.norm(v_next - v)
            rel = float(change / prev_norm) if prev_norm > 0 else float("inf")
        if not (math.isfinite(prev_norm) and math.isfinite(change)):
            raise estimators.WeightRangeError(f"{cfg.assignment} iteration {it}: an iterate's norm is not finite")
        record = {
            "iter": it,
            "rel_change": rel,
            "pcc_truth": _safe_pcc(v_next, truth),
            "pcc_template": _safe_pcc(v_next, template),
        }
        trace.append(record)
        v = v_next
        if rel < cfg.rel_tol:
            break
    return v, trace


def _safe_pcc(a, b):
    try:
        return None if b is None else pcc(a, b)
    except ZeroVarianceError:
        return None


def registered_pcc(final: np.ndarray, truth: np.ndarray, group) -> float:
    """PCC vs truth after the best global group element.

    The reconstruction frame is set by the initial template, so the estimate
    recovers the truth only up to a global group element; fidelity is
    measured after registration.  The identity is always scored, since a
    rotation grid need not contain it.  The elements act one window at a
    time, each window in one ``templates`` fill through the group's map,
    and that window's rows are scored on the calling thread before the next
    window acts, so one window of structures is held at a time.  The truth
    is centred and normalised once, with the operations :func:`pcc` runs,
    so every score has the bytes of its own :func:`pcc`.
    """
    truth = _centred(truth)
    scores = [_pcc_of(_centred(final), truth)]
    for window in group.windows():
        scores += [_pcc_of(_centred(u), truth) for u in group.templates(final, window)]
    return max(scores)


def write_trace(path, trace) -> None:
    """One JSON object per iteration, one per line."""
    with open(path, "w") as fh:
        for record in trace:
            fh.write(json.dumps(record) + "\n")
