"""Iterative reconstruction with soft, MMSE-aligned, and hard assignment.

The reconstruction model has no projection: each observation is a copy of
the structure acted on by one element of a group, plus noise.  The caller
picks the group: :class:`Shifts`, the exact cyclic shifts of a polar image
(interpolation-free), or :class:`Rotations`, volume rotation by grid
interpolation over a rotation grid.

A :class:`Rotations` group may run its rotations through an order-preserving
``map``, for example on a worker pool.  Every sum is still accumulated on
the calling thread in the original order, so the result does not depend on
the map.

The observations are a :class:`Batch`, fixed across iterations and modes:
only the templates change between steps, so the batch's terms are computed
once.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import estimators, forward
from .estimators import ZeroVarianceError

ASSIGNMENTS = ("soft_em", "mmse_align", "hard_map")

# Rotations handed to the map at once: bounds the volumes held in memory.
CHUNK = 32


@dataclass(frozen=True)
class ReconstructionConfig:
    assignment: str = "soft_em"
    max_iters: int = 100
    rel_tol: float = 1e-4

    def __post_init__(self):
        if self.assignment not in ASSIGNMENTS:
            raise ValueError(f"unknown assignment mode: {self.assignment!r}")
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, (int, np.integer)):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0 < self.rel_tol <= sys.float_info.max:  # an integer too large for a double is not finite
            raise ValueError(f"rel_tol must be finite and positive, got {self.rel_tol!r}")


def pcc(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson cross-correlation over all coordinates, in [-1, 1]."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise estimators.DimensionMismatchError("shapes differ")
    a = a - a.mean()
    b = b - b.mean()
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise ZeroVarianceError("pcc is undefined for a constant input")
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


class _Group:
    """L group elements acting on a structure.  Subclasses give
    ``templates`` (the (L, d) array whose row l is g_l^-1 . v, the candidate
    template of v for element l), ``back`` (g_l . u, the adjoint of element
    l's action) and ``mmse_average``, their MMSE-rounded update."""

    def __init__(self, size: int, map):
        self.size = size
        self.map = map

    def summed(self, fn, items) -> np.ndarray:
        """sum of fn over items, run through the map CHUNK items at a time and
        added in item order on the calling thread; it starts from 0.0, so it
        takes the shape of the terms."""
        items = list(items)
        out = 0.0
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
    element s shifts the angular axis by s samples, and element 0 is the identity."""

    def __init__(self, size: int):
        super().__init__(int(size), map)

    def act(self, ell: int, v: np.ndarray) -> np.ndarray:
        if v.shape[1:] != (self.size,):
            raise estimators.DimensionMismatchError(f"polar image {v.shape} lacks {self.size} angular samples")
        return forward.rotate_polar(v, -ell)

    def templates(self, v: np.ndarray) -> np.ndarray:
        return np.stack([self.act(ell, v).ravel() for ell in range(self.size)])

    def back(self, ell: int, u: np.ndarray) -> np.ndarray:
        return forward.rotate_polar(u, ell)

    def mmse_average(self, ys: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Back-shift each observation by its circular-mean angle, rounded to
        the nearest grid shift so the action stays exact, then average."""
        mean_angle, _ = estimators.mmse_angles(w, 2.0 * np.pi * np.arange(self.size) / self.size)
        shifts = np.round(mean_angle * self.size / (2.0 * np.pi)).astype(int) % self.size
        return self.assigned_average(ys, shifts)


class Rotations(_Group):
    """Volume rotation by grid interpolation over an (L, 3, 3) array of
    rotations.  ``map`` is an order-preserving map (the builtin by default)
    that runs the rotations, for example on a worker pool."""

    def __init__(self, rotations: np.ndarray, method: str = "trilinear", map=map):
        rotations = np.asarray(rotations, dtype=float)
        if rotations.ndim != 3 or rotations.shape[1:] != (3, 3):
            raise ValueError(f"rotations must be an (L, 3, 3) array, got shape {rotations.shape}")
        super().__init__(rotations.shape[0], map)
        self.rotations = rotations
        self.method = method

    def templates(self, v: np.ndarray) -> np.ndarray:
        return forward.rotated_stack(v, self.rotations, self.method, map=self.map)

    def back(self, ell: int, u: np.ndarray) -> np.ndarray:
        return forward.rotate_volume(u, self.rotations[ell].T, method=self.method)

    def mmse_average(self, ys: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Back-rotate each observation by its Procrustes-rounded posterior-mean
        rotation, then average."""
        aligned, _, _ = estimators.mmse_rotations(w, self.rotations)
        out = self.summed(lambda i: forward.rotate_volume(ys[i], aligned[i].T, self.method), range(len(ys)))
        return out / len(ys)


class Batch:
    """M fixed observations of a structure of ``shape`` under one noise
    model: the (M, d) matrix ``ys``, the same rows shaped like the structure
    (``shaped``), and what scoring reads, the rows whitened by
    :func:`estimators.whitening`, their squared norms ``y_sq`` and the
    variance ``var`` of the whitened scores.

    Every mode, step and iteration on one batch reads these.  The batch also
    keeps the scores of the first template it scores, the starting template
    every mode begins from, and returns them when that template is scored
    against that group again.  A batch is used by one thread at a time.
    """

    def __init__(self, obs, shape, noise):
        self.shape = tuple(shape)
        self.ys = np.atleast_2d(np.asarray(obs, dtype=float))
        if self.ys.ndim != 2 or self.ys.shape[1] != math.prod(self.shape):
            raise estimators.DimensionMismatchError(
                f"observations of shape {self.ys.shape} are not rows of a {self.shape} structure"
            )
        self.shaped = self.ys.reshape(-1, *self.shape)
        self._whiten, self.var = estimators.whitening(noise.effective_variance(self.ys.shape[1]))
        self._scored = self._whiten(self.ys)
        self.y_sq = np.einsum("md,md->m", self._scored, self._scored)
        self._start = None  # (group, template bytes, scores)

    def __len__(self) -> int:
        return len(self.ys)

    def scores(self, v: np.ndarray, group) -> estimators.Scores:
        """The whitened scores of v's templates under ``group``; the (L, d)
        templates are dropped as soon as their product with the rows is taken."""
        v = np.asarray(v, dtype=float)
        if v.shape != self.shape:
            raise estimators.DimensionMismatchError(f"structure {v.shape} != batch structure {self.shape}")
        key = v.tobytes()
        if self._start is not None and self._start[0] is group and self._start[1] == key:
            return self._start[2]
        scores = estimators.Scores.of(self._scored, self._whiten(group.templates(v)), self.y_sq)
        if self._start is None:
            self._start = (group, key, scores)
        return scores

    def weights(self, v: np.ndarray, group) -> np.ndarray:
        """Posterior weights of each observation over ``group`` against v, (M, L)."""
        return np.exp(self.scores(v, group).log_weights(self.var))


def em_step_soft(batch: Batch, v_t, group) -> np.ndarray:
    """One soft-assignment (EM) update: weight-averaged back-aligned copies."""
    # the action is linear, so the weighted observation sum per element is
    # back-acted once per element instead of once per observation
    colsum = (batch.weights(v_t, group).T @ batch.ys).reshape(-1, *batch.shape)
    return group.summed(lambda ell: group.back(ell, colsum[ell]), range(group.size)) / len(batch)


def em_step_mmse(batch: Batch, v_t, group) -> np.ndarray:
    """One MMSE-alignment update: back-align each observation by its rounded
    posterior-mean group element against v_t, then average."""
    return group.mmse_average(batch.shaped, batch.weights(v_t, group))


def hard_step(batch: Batch, v_t, group) -> np.ndarray:
    """One hard-assignment update: back-align each observation by its MAP
    element against v_t, then average.  This is the soft update with
    one-hot weights, so only the assigned elements are back-acted; on the
    whitened scores the MAP element is the least-squares one."""
    return group.assigned_average(batch.shaped, batch.scores(v_t, group).map_indices())


_STEPS = {"soft_em": em_step_soft, "mmse_align": em_step_mmse, "hard_map": hard_step}


def run_reconstruction(
    batch: Batch, v0: np.ndarray, group, cfg: ReconstructionConfig, truth: np.ndarray | None = None
):
    """Iterate the configured step on ``batch`` over ``group`` until the
    relative change drops below cfg.rel_tol or cfg.max_iters is reached.

    Returns the final estimate and a per-iteration trace (iter, rel_change,
    pcc_truth, pcc_template).
    """
    step = _STEPS[cfg.assignment]
    v = np.asarray(v0, dtype=float).copy()
    template = v.copy()
    trace = []
    for it in range(cfg.max_iters):
        v_next = step(batch, v, group)
        prev_norm = np.linalg.norm(v)
        rel = float(np.linalg.norm(v_next - v) / prev_norm) if prev_norm > 0 else float("inf")
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
    if b is None:
        return None
    try:
        return pcc(a, b)
    except ZeroVarianceError:
        return None


def registered_pcc(final: np.ndarray, truth: np.ndarray, group) -> float:
    """PCC vs truth after the best global group element.

    The reconstruction frame is set by the initial template, so the estimate
    recovers the truth only up to a global group element; fidelity is
    measured after registration.  The identity is always scored, since a
    rotation grid need not contain it.  Every element acts first, in one
    ``templates`` fill through the group's map, and the rows are scored
    afterwards on the calling thread, so no scoring runs between rotations.
    """
    scores = [pcc(final, truth)]
    scores += [pcc(u, truth) for u in group.templates(final)]
    return max(scores)


def write_trace(path, trace) -> None:
    """One JSON object per iteration, one per line."""
    with open(path, "w") as fh:
        for record in trace:
            fh.write(json.dumps(record) + "\n")
