"""Iterative reconstruction with soft, MMSE-aligned, and hard assignment.

The reconstruction model has no projection: each observation is a rotated
(or, on the polar grid, cyclically shifted) copy of the structure plus
noise.  The polar group action is an exact shift, so the polar paths are
interpolation-free; the 3D paths back-rotate by grid interpolation.

The 3D steps and registration take an order-preserving ``map`` (the builtin
by default) that runs their rotations, for example on a worker pool.  Every
sum is still accumulated on the calling thread in the original order, so
the result does not depend on the map.
"""

from __future__ import annotations

import json
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
    method: str = "trilinear"

    def __post_init__(self):
        if self.assignment not in ASSIGNMENTS:
            raise ValueError(f"unknown assignment mode: {self.assignment!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")


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


class _GroupAction:
    """The L group elements the steps average over, acting on a structure.

    A 2-D structure lives on the polar grid: element s is the exact cyclic
    shift by s samples and L is the angular length.  A 3-D structure is
    rotated by interpolation over the candidate rotations: ``cands`` is a
    ``CandidateSet`` or an (L, 3, 3) array.
    """

    def __init__(self, v_t: np.ndarray, cands, method: str, map):
        self.shape = v_t.shape
        self.polar = v_t.ndim == 2
        self.rotations = None if self.polar else np.asarray(getattr(cands, "rotations", cands))
        self.size = v_t.shape[1] if self.polar else self.rotations.shape[0]
        self.method = method
        self.map = map

    def act(self, ell: int, v: np.ndarray) -> np.ndarray:
        """g_l^-1 . v, the candidate template of v for element l."""
        if self.polar:
            return forward.rotate_polar(v, -ell)
        return forward.rotate_volume(v, self.rotations[ell], method=self.method)

    def back(self, ell: int, u: np.ndarray) -> np.ndarray:
        """g_l . u, the adjoint of :meth:`act`."""
        u = u.reshape(self.shape)
        if self.polar:
            return forward.rotate_polar(u, ell)
        return forward.rotate_volume(u, self.rotations[ell].T, method=self.method)

    def templates(self, v: np.ndarray) -> np.ndarray:
        out = np.empty((self.size, v.size))

        def fill(ell):
            out[ell] = self.act(ell, v).ravel()

        for _ in self.map(fill, range(self.size)):
            pass
        return out

    def mapped(self, fn, items):
        """fn over items through the map, CHUNK items at a time, in order."""
        items = list(items)
        for start in range(0, len(items), CHUNK):
            yield from self.map(fn, items[start : start + CHUNK])

    def summed(self, fn, items) -> np.ndarray:
        """sum of fn over items, added in item order on the calling thread."""
        out = np.zeros(self.shape)
        for u in self.mapped(fn, items):
            out += u
        return out

    def assigned_average(self, ys: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """(1/M) sum_i g_{idx_i} . y_i, back-acting once per element used:
        the action is linear, so each group of observations is summed first."""
        out = self.summed(lambda ell: self.back(ell, ys[idx == ell].sum(axis=0)), np.unique(idx))
        return out / ys.shape[0]


def _setup(obs, v_t, cands, method, map):
    """The group action on v_t, the (M, d) observation matrix, and the templates."""
    v_t = np.asarray(v_t, dtype=float)
    ys = np.atleast_2d(np.asarray(obs, dtype=float))
    if ys.shape[1] != v_t.size:
        raise estimators.DimensionMismatchError(
            f"observation dim {ys.shape[1]} != structure dim {v_t.size}"
        )
    action = _GroupAction(v_t, cands, method, map)
    return action, ys, action.templates(v_t)


def em_step_soft(obs, v_t, cands, noise, method: str = "trilinear", map=map) -> np.ndarray:
    """One soft-assignment (EM) update: weight-averaged back-aligned copies."""
    action, ys, x = _setup(obs, v_t, cands, method, map)
    w = np.exp(estimators.normalized_log_weights(ys, x, noise.effective_variance(ys.shape[1])))
    colsum = w.T @ ys  # (L, d): weighted observation sum per candidate
    # the action is linear, so the weighted sum is back-acted once per
    # candidate instead of once per observation
    out = action.summed(lambda ell: action.back(ell, colsum[ell]), range(action.size))
    return out / ys.shape[0]


def em_step_mmse(obs, v_t, cands, noise, method: str = "trilinear", map=map) -> np.ndarray:
    """One MMSE-alignment update: back-rotate each observation by its
    Procrustes-rounded posterior-mean rotation against v_t, then average.

    On the polar grid the circular-mean angle is rounded to the nearest
    grid shift so the action stays exact.
    """
    action, ys, x = _setup(obs, v_t, cands, method, map)
    w = np.exp(estimators.normalized_log_weights(ys, x, noise.effective_variance(ys.shape[1])))
    if action.polar:
        l_ang = action.size
        mean_angle, _ = estimators.mmse_angles(w, 2.0 * np.pi * np.arange(l_ang) / l_ang)
        shifts = np.round(mean_angle * l_ang / (2.0 * np.pi)).astype(int) % l_ang
        return action.assigned_average(ys, shifts)
    aligned, _, _ = estimators.mmse_rotations(w, action.rotations)
    out = action.summed(
        lambda i: forward.rotate_volume(ys[i].reshape(action.shape), aligned[i].T, method=method),
        range(ys.shape[0]),
    )
    return out / ys.shape[0]


def hard_step(obs, v_t, cands, noise, method: str = "trilinear", map=map) -> np.ndarray:
    """One hard-assignment update: back-rotate each observation by its MAP
    candidate against v_t, then average.  This is the soft update with
    one-hot weights, so only the assigned candidates are back-acted."""
    action, ys, x = _setup(obs, v_t, cands, method, map)
    return action.assigned_average(ys, estimators.Scores.of(ys, x).map_indices())


_STEPS = {"soft_em": em_step_soft, "mmse_align": em_step_mmse, "hard_map": hard_step}


def run_reconstruction(
    obs,
    v0: np.ndarray,
    cands,
    noise,
    cfg: ReconstructionConfig,
    truth: np.ndarray | None = None,
    map=map,
):
    """Iterate the configured step until the relative change drops below
    cfg.rel_tol or cfg.max_iters is reached; ``map`` goes to every step.

    Returns the final estimate and a per-iteration trace (iter, rel_change,
    pcc_truth, pcc_template).
    """
    step = _STEPS[cfg.assignment]
    v = np.asarray(v0, dtype=float).copy()
    template = v.copy()
    trace = []
    for it in range(cfg.max_iters):
        v_next = step(obs, v, cands, noise, method=cfg.method, map=map)
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


def registered_pcc(
    final: np.ndarray, truth: np.ndarray, cands=None, method: str = "trilinear", map=map
) -> float:
    """PCC vs truth after the best global group element.

    The reconstruction frame is set by the initial template, so the estimate
    recovers the truth only up to a global group element; fidelity is
    measured after registration.  The polar shifts include the identity;
    the rotation grid need not, so it is scored as well.  Only the group
    action runs through ``map``; the scores are computed on the calling thread.
    """
    action = _GroupAction(final, cands, method, map)
    scores = [] if action.polar else [pcc(final, truth)]
    scores += [pcc(u, truth) for u in action.mapped(lambda ell: action.act(ell, final), range(action.size))]
    return max(scores)


def write_trace(path, trace) -> None:
    """One JSON object per iteration, one per line."""
    with open(path, "w") as fh:
        for record in trace:
            fh.write(json.dumps(record) + "\n")
