"""Rotation-group primitives: metrics, Procrustes projection, and priors.

Rotations are plain 3x3 numpy arrays (orthonormal, determinant +1).
Batches of rotations are stacked along the first axis, shape (L, 3, 3).
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Adaptive truncation of the angle-density series: stop once the newest term is
# below this fraction of the partial sum, with a hard cap on the series length.
_SERIES_RTOL = 1e-10
_SERIES_LMAX = 200

# The kinds of RotationPrior.
PRIOR_KINDS = ("uniform", "isotropic_gaussian")

# Points of the inverse-CDF table over [0, pi], 7.7e-4 rad apart; they cannot
# resolve an angle density much narrower, so eta >= MIN_ETA (at eta = 1e-4 the
# mean sampled angle came out 3x too large, at 1e-5 the samples were NaN).
_CDF_POINTS = 4096
MIN_ETA = 1e-3


def check_eta(eta) -> None:
    """Raise ValueError unless eta is a finite real number, not a bool, >= MIN_ETA."""
    if isinstance(eta, bool) or not (isinstance(eta, numbers.Real) and MIN_ETA <= eta <= sys.float_info.max):
        raise ValueError(f"eta must be a finite number >= {MIN_ETA}, got {eta!r}")


def check_prior(kind, eta=None) -> None:
    """Raise ValueError unless kind is the string name of a PRIOR_KINDS entry
    and, for an isotropic Gaussian, eta passes :func:`check_eta`."""
    if not (isinstance(kind, str) and kind in PRIOR_KINDS):
        raise ValueError(f"kind must be one of {list(PRIOR_KINDS)}, got {kind!r}")
    if kind == "isotropic_gaussian":
        check_eta(eta)


def geodesic_distances(gs1: np.ndarray, gs2: np.ndarray) -> np.ndarray:
    """Elementwise rotation angle of g2 g1^-1 for two (N, 3, 3) stacks, in [0, pi].

    The arccos argument is clamped: floating-point traces can stray past
    +-1 by ~1e-15.
    """
    tr = np.einsum("nij,nij->n", np.asarray(gs2), np.asarray(gs1))
    return np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0))


def procrustes_project(a: np.ndarray) -> np.ndarray:
    """Nearest rotation in Frobenius norm to a 3x3 matrix, or to each matrix
    of an (N, 3, 3) stack.

    With SVD a = U S V^T (singular values descending), the minimizer is
    U diag(1, 1, det(UV^T)) V^T.  When the two smallest singular values tie
    and the determinant correction is negative, or the matrix is (near) rank
    deficient, the minimizer is not unique; one of them is returned.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-2:] != (3, 3) or not np.all(np.isfinite(a)):
        raise ValueError("expected a finite 3x3 matrix or (N, 3, 3) stack")
    u, _, vt = np.linalg.svd(a)
    d = np.linalg.det(u @ vt)
    u[..., 2] *= np.where(d < 0, -1.0, 1.0)[..., None]
    return u @ vt


def _quats_to_matrices(q: np.ndarray) -> np.ndarray:
    """Unit quaternions (N, 4), scalar first, to rotation matrices (N, 3, 3)."""
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    out = np.empty((q.shape[0], 3, 3))
    out[:, 0, 0] = 1 - 2 * (y * y + z * z)
    out[:, 0, 1] = 2 * (x * y - z * w)
    out[:, 0, 2] = 2 * (x * z + y * w)
    out[:, 1, 0] = 2 * (x * y + z * w)
    out[:, 1, 1] = 1 - 2 * (x * x + z * z)
    out[:, 1, 2] = 2 * (y * z - x * w)
    out[:, 2, 0] = 2 * (x * z - y * w)
    out[:, 2, 1] = 2 * (y * z + x * w)
    out[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return out


def sample_uniform(rng: np.random.Generator, count: int) -> np.ndarray:
    """I.i.d. Haar-distributed rotations, shape (count, 3, 3).

    Normalized 4D Gaussians are uniform on the quaternion sphere, which maps
    to the Haar measure on the rotation group.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    q = rng.normal(size=(count, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return _quats_to_matrices(q)


def _ig_series(omega: np.ndarray, eta: float) -> np.ndarray:
    half = omega / 2.0
    sin_half = np.sin(half)
    small = np.abs(sin_half) < 1e-12
    total = np.zeros_like(omega)
    for ell in range(_SERIES_LMAX + 1):
        coef = (2 * ell + 1) * np.exp(-ell * (ell + 1) * eta * eta)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(small, 2 * ell + 1, np.sin((ell + 0.5) * omega) / np.where(small, 1.0, sin_half))
        term = coef * ratio
        total = total + term
        if np.max(np.abs(term)) < _SERIES_RTOL * max(float(np.max(np.abs(total))), 1e-300):
            break
    return (1.0 - np.cos(omega)) / np.pi * total


def _ig_small_eta(omega: np.ndarray, eta: float) -> np.ndarray:
    # Closed-form approximation for concentrated distributions; its
    # variance-like parameter is eta^2, matching the series' exponent.
    p = eta * eta
    half = omega / 2.0
    pref = (1.0 - np.cos(omega)) / np.sqrt(np.pi) * p**-1.5 * np.exp(p / 4.0 - half * half / p)
    # Exponents are combined so every one is <= 0; the raw wrap-around terms
    # overflow for small p.
    t1 = (omega - 2 * np.pi) * np.exp((np.pi * omega - np.pi * np.pi) / p)
    t2 = (omega + 2 * np.pi) * np.exp((-np.pi * omega - np.pi * np.pi) / p)
    sin_half = np.sin(half)
    small = np.abs(sin_half) < 1e-12
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(small, 1.0, (omega - (t1 + t2)) / np.where(small, 1.0, 2.0 * sin_half))
    return pref * ratio


def ig_density(omega, eta: float):
    """Angle density of the isotropic Gaussian on the rotation group.

    Truncated character series for eta >= 1; closed-form small-eta
    approximation below that (the two coincide at the switch point).
    Zero at omega = 0 through the (1 - cos w) factor.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    arr = np.atleast_1d(np.asarray(omega, dtype=float))
    if np.any(arr < -1e-12) or np.any(arr > np.pi + 1e-12):
        raise ValueError("omega must lie in [0, pi]")
    arr = np.clip(arr, 0.0, np.pi)
    out = _ig_series(arr, eta) if eta >= 1.0 else _ig_small_eta(arr, eta)
    out = np.maximum(out, 0.0)
    return out if np.ndim(omega) else float(out[0])


@dataclass(frozen=True)
class InverseCdfTable:
    """Tabulated angle CDF of the isotropic Gaussian, for inverse sampling."""

    omega_grid: np.ndarray
    cdf_values: np.ndarray

    def inverse(self, u):
        return np.interp(u, self.cdf_values, self.omega_grid)


@lru_cache(maxsize=8, typed=True)
def build_inverse_cdf(eta: float) -> InverseCdfTable:
    """Trapezoidal cumulative angle CDF on a uniform grid, renormalized to 1.

    Built once per eta and shared by every sampler, so its arrays are
    read-only.  The cache keys are typed: True == 1.0, and a cached eta = 1.0
    table must not let True past :func:`check_eta`.
    """
    check_eta(eta)
    omega = np.linspace(0.0, np.pi, _CDF_POINTS)
    dens = ig_density(omega, eta)
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(omega))])
    cdf /= cdf[-1]
    # Guard against flat stretches so interpolation stays invertible.
    cdf = np.maximum.accumulate(cdf)
    omega.flags.writeable = cdf.flags.writeable = False
    return InverseCdfTable(omega_grid=omega, cdf_values=cdf)


def ig_sample(rng: np.random.Generator, eta: float, count: int) -> np.ndarray:
    """I.i.d. samples of the isotropic Gaussian on the rotation group.

    Axes are uniform on the sphere; the angle is drawn by inverse-CDF
    sampling of :func:`ig_density`.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    axes = rng.normal(size=(count, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    omegas = build_inverse_cdf(eta).inverse(rng.uniform(size=count))
    half = omegas / 2.0
    q = np.empty((count, 4))
    q[:, 0] = np.cos(half)
    q[:, 1:] = axes * np.sin(half)[:, None]
    return _quats_to_matrices(q)


@dataclass
class RotationPrior:
    """Sampling distribution over rotations: uniform (Haar) or isotropic Gaussian."""

    kind: str  # "uniform" | "isotropic_gaussian"
    eta: float | None = None

    def __post_init__(self):
        check_prior(self.kind, self.eta)

    @classmethod
    def uniform(cls) -> "RotationPrior":
        return cls(kind="uniform")

    @classmethod
    def isotropic_gaussian(cls, eta: float) -> "RotationPrior":
        return cls(kind="isotropic_gaussian", eta=eta)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if self.kind == "uniform":
            return sample_uniform(rng, count)
        return ig_sample(rng, self.eta, count)

    def label(self) -> str:
        return "uniform" if self.kind == "uniform" else f"ig(eta={self.eta:g})"

