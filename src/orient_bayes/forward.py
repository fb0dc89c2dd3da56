"""Synthetic data generation: phantoms, grid rotations, projection, the noise level.

Volumes are (n, n, n) float arrays indexed [x, y, z] with coordinates
centered at the grid midpoint; polar images are (d_radial, l_angular)
arrays whose angular axis wraps around.

scipy.ndimage loads at the first volume rotation or ``asymmetric_L``
phantom, not at import: polar runs, config errors and ``--help`` load
numpy and the standard library only.
"""

from __future__ import annotations

import math
import numbers
import os
import struct
import sys
from functools import lru_cache

import numpy as np

from . import blas


class FileFormatError(ValueError):
    """Malformed volume file."""


class ZeroNoiseError(ValueError):
    """SNR is undefined at sigma = 0."""


OBV_MAGIC = b"OBV1"


def check_sigma(sigma) -> None:
    """Raise ValueError unless sigma is a real number, not a bool, that is 0 or
    positive with sigma^2 and 2 sigma^2 (the variance and the log-weight
    denominator) finite, positive normal doubles."""
    if isinstance(sigma, bool) or not (isinstance(sigma, numbers.Real) and 0 <= sigma <= sys.float_info.max):
        raise ValueError(f"sigma must be a finite number >= 0, got {sigma!r}")
    var = float(sigma) * float(sigma)  # a float's ** raises OverflowError
    if sigma != 0 and not (sys.float_info.min <= var and math.isfinite(2.0 * var)):
        raise ValueError(f"sigma {sigma!r} has a variance that is not a finite positive normal double")


@lru_cache(maxsize=8)
def _centered_grid(n: int) -> np.ndarray:
    """Coordinates of all voxels relative to the grid midpoint, shape (3, n^3).

    Built once per n and shared by every rotation, so it is read-only.
    """
    c = (n - 1) / 2.0
    grid = np.indices((n, n, n), dtype=float).reshape(3, -1) - c
    grid.flags.writeable = False
    return grid


# Interpolation method -> spline order of ndimage.map_coordinates.
INTERPOLATION_ORDERS = {"trilinear": 1, "tricubic": 3}
PHANTOM_KINDS = ("gaussian_blobs", "asymmetric_L", "loaded")
MIN_PHANTOM_N = 8
# A generated phantom's largest edge: one 512^3 volume is 1 GiB of doubles.
MAX_PHANTOM_N = 512


def interpolation_order(method) -> int:
    """The spline order of ``method``; ValueError unless it is the string name
    of an INTERPOLATION_ORDERS entry."""
    if not (isinstance(method, str) and method in INTERPOLATION_ORDERS):
        raise ValueError(f"method must be one of {list(INTERPOLATION_ORDERS)}, got {method!r}")
    return INTERPOLATION_ORDERS[method]


def _trilinear_reads(vol: np.ndarray, coords: np.ndarray) -> np.ndarray | None:
    """The indices of the sample points in ``coords`` (3, N) that can read a
    nonzero voxel of ``vol`` under trilinear interpolation; None when the
    nonzero box, grown by one voxel, covers the grid, so that nearly every
    point can.

    The box holds every voxel whose bits are not zero (so -0.0 and NaN count).
    A point reads the voxels floor(p) and floor(p) + 1 on each axis with
    weights >= 0, and map_coordinates in constant mode writes +0.0 at a point
    whose reads are all +0.0 or outside the grid.  So a point outside
    lo - 1 <= p <= hi + 1 on some axis (lo, hi the box's first and last
    index) takes +0.0.  The upper bound is closed because at p = n - 1 scipy
    also reads voxel n - 2, with weight 0.  An all-zero volume keeps no point.
    """
    bits = vol.view(np.int64)
    faces = (bits[:2], bits[-2:], bits[:, :2], bits[:, -2:], bits[:, :, :2], bits[:, :, -2:])
    if all(map(np.count_nonzero, faces)):
        return None
    yz = np.bitwise_or.reduce(bits, axis=0)  # the OR along x: fast over a leading axis, where any() is slow
    occupied = (bits.reshape(len(bits), -1).any(axis=1), yz.any(axis=1), yz.any(axis=0))
    keep = np.ones(coords.shape[1], dtype=bool)
    for p, along in zip(coords, occupied):
        box = np.flatnonzero(along)
        keep &= p >= box.min(initial=len(along)) - 1
        keep &= p <= box.max(initial=-1) + 1
    return np.flatnonzero(keep)


def rotate_volume(
    vol: np.ndarray, g: np.ndarray, method: str = "trilinear", out: np.ndarray | None = None
) -> np.ndarray:
    """Apply the inverse-rotation action: output(x) = vol(g x).

    Samples outside the source grid read as zero.  The identity is returned
    bit-exactly; axis-aligned quarter turns land on grid points and are exact
    under trilinear interpolation.  A trilinear rotation interpolates only
    the sample points that can read the volume's nonzero box and writes +0.0
    at the rest, the bytes one map_coordinates call over every point gives.
    ``out``, a flat array of vol.size doubles, receives the result in place;
    the return value is an (n, n, n) view of it.
    """
    vol = np.asarray(vol, dtype=float)
    n = vol.shape[0]
    if vol.shape != (n, n, n):
        raise ValueError("volume must be cubic")
    g = np.asarray(g, dtype=float)
    order = interpolation_order(method)
    if out is None:
        out = np.empty(vol.size)
    if np.array_equal(g, np.eye(3)):
        out[:] = vol.ravel()
    else:
        from scipy import ndimage

        coords = g @ _centered_grid(n)
        coords += (n - 1) / 2.0
        # tricubic's spline prefilter spreads any support over the whole grid
        keep = _trilinear_reads(vol, coords) if order == 1 else None
        if keep is None:
            ndimage.map_coordinates(vol, coords, output=out, order=order, mode="constant", cval=0.0)
        else:
            out[:] = 0.0
            kept = coords.take(keep, axis=1)
            out[keep] = ndimage.map_coordinates(vol, kept, order=order, mode="constant", cval=0.0)
    return out.reshape(n, n, n)


def rotated_stack(vol, rotations, method: str = "trilinear", projected: bool = False, map=map) -> np.ndarray:
    """Row i is g_i^-1 . vol, projected by :func:`project_z` if ``projected``,
    flattened: a :func:`blas.fill <orient_bayes.blas.fill>` of one row a call
    through the order-preserving ``map`` (an unprojected rotation writes
    straight into its row)."""
    vol = np.asarray(vol, dtype=float)
    out = np.empty((len(rotations), vol.shape[0] ** 2 if projected else vol.size))

    def fill(rows):  # one row a call
        i = rows.start
        if projected:
            out[i] = project_z(rotate_volume(vol, rotations[i], method=method)).ravel()
        else:
            rotate_volume(vol, rotations[i], method=method, out=out[i])

    blas.fill(map, fill, len(rotations))
    return out


def project_z(vol: np.ndarray) -> np.ndarray:
    """Line-integral approximation along the third axis (unit voxels), shape (n, n)."""
    return np.asarray(vol, dtype=float).sum(axis=2)


def rotate_polar(img: np.ndarray, k: int) -> np.ndarray:
    """Exact cyclic shift of the angular axis by k samples."""
    return np.roll(np.asarray(img), k, axis=1)


def _power(signal: np.ndarray, projected: bool) -> float:
    """Mean clean-signal power per coordinate."""
    arr = np.asarray(signal, dtype=float)
    return float(np.mean((project_z(arr) if projected else arr).ravel() ** 2))


def snr_of(signal: np.ndarray, sigma: float, projected: bool = False) -> float:
    """Mean clean-signal power per coordinate divided by sigma^2."""
    if sigma == 0:
        raise ZeroNoiseError("SNR is undefined when sigma = 0")
    return _power(signal, projected) / sigma**2


def sigma_for_snr(signal: np.ndarray, snr: float, projected: bool = False) -> float:
    """Invert :func:`snr_of` for a target SNR."""
    if snr <= 0:
        raise ValueError("target SNR must be positive")
    power = _power(signal, projected)
    if power == 0:
        raise ValueError("the signal has zero power, so no sigma gives a positive SNR")
    return float(np.sqrt(power / snr))


def signal_scale(signal: np.ndarray, projected: bool = False) -> float:
    """Root-mean-square of the clean signal; the natural unit for sigma."""
    return float(np.sqrt(_power(signal, projected)))


def _inscribed_sphere_mask(n: int) -> np.ndarray:
    c = (n - 1) / 2.0
    r = _centered_grid(n)
    return (np.linalg.norm(r, axis=0) <= 0.95 * c).reshape(n, n, n)


def check_phantom(kind, n, path=None) -> None:
    """Raise ValueError unless kind names a PHANTOM_KINDS entry and, for 'loaded',
    path is a path or a non-empty string, else n is an int, not a bool, from
    MIN_PHANTOM_N to MAX_PHANTOM_N."""
    if not (isinstance(kind, str) and kind in PHANTOM_KINDS):
        raise ValueError(f"kind must be one of {list(PHANTOM_KINDS)}, got {kind!r}")
    if kind == "loaded" and not (isinstance(path, os.PathLike) or isinstance(path, str) and path):
        raise ValueError(f"path must be a non-empty string for kind 'loaded', got {path!r}")
    if kind != "loaded" and (isinstance(n, bool) or not (isinstance(n, int) and MIN_PHANTOM_N <= n <= MAX_PHANTOM_N)):
        raise ValueError(f"n must be an integer >= {MIN_PHANTOM_N} and <= {MAX_PHANTOM_N}, got {n!r}")


def make_phantom(kind: str, n: int, seed: int = 0, path: str | None = None) -> np.ndarray:
    """Deterministic test volumes with support inside the inscribed sphere.

    ``gaussian_blobs`` sums a handful of anisotropically placed Gaussian
    bumps with no rotational symmetry; ``asymmetric_L`` is a smoothed chiral
    three-arm solid, so the true rotation is identifiable; ``loaded`` reads
    a volume file (see :func:`read_obv`), whose edge length replaces n.
    """
    check_phantom(kind, n, path)
    if kind == "loaded":
        vol = read_obv(path)
        if vol.shape[0] < MIN_PHANTOM_N or not np.all(np.isfinite(vol)):
            raise FileFormatError(f"{path}: a phantom needs an edge length >= {MIN_PHANTOM_N} and finite voxels")
        return vol
    c = (n - 1) / 2.0
    coords = _centered_grid(n).reshape(3, n, n, n)
    if kind == "gaussian_blobs":
        rng = np.random.default_rng([seed, 0x9B10B5])
        vol = np.zeros((n, n, n))
        for _ in range(rng.integers(5, 11)):
            center = rng.uniform(-0.45, 0.45, size=3) * c
            width = rng.uniform(0.06, 0.16, size=3) * n
            amp = rng.uniform(0.5, 1.5)
            d2 = sum(((coords[i] - center[i]) / width[i]) ** 2 for i in range(3))
            vol += amp * np.exp(-0.5 * d2)
    else:  # asymmetric_L
        vol = np.zeros((n, n, n))
        u = (np.arange(n) - c) / c  # normalized [-1, 1] coordinate
        ux, uy, uz = np.meshgrid(u, u, u, indexing="ij")
        # Three mutually orthogonal arms of distinct lengths and thicknesses,
        # offset from the center so no rotation or reflection maps the solid
        # onto itself.
        arm_x = (ux > -0.1) & (ux < 0.62) & (np.abs(uy - 0.08) < 0.13) & (np.abs(uz + 0.05) < 0.13)
        arm_y = (uy > -0.05) & (uy < 0.45) & (np.abs(ux + 0.12) < 0.10) & (np.abs(uz - 0.10) < 0.16)
        arm_z = (uz > -0.02) & (uz < 0.30) & (np.abs(ux - 0.18) < 0.15) & (np.abs(uy + 0.15) < 0.09)
        vol[arm_x] += 1.0
        vol[arm_y] += 0.8
        vol[arm_z] += 0.6
        from scipy import ndimage

        vol = ndimage.gaussian_filter(vol, sigma=n / 32.0)
    vol *= _inscribed_sphere_mask(n)
    return vol


def make_polar_phantom(d_radial: int, l_angular: int, seed: int = 0) -> np.ndarray:
    """Smooth polar-grid image with no angular periodic symmetry."""
    rng = np.random.default_rng([seed, 0x2D9A17])
    r = np.linspace(0.0, 1.0, d_radial)[:, None]
    theta = np.linspace(0.0, 2 * np.pi, l_angular, endpoint=False)[None, :]
    img = np.zeros((d_radial, l_angular))
    for _ in range(6):
        r0 = rng.uniform(0.15, 0.85)
        t0 = rng.uniform(0.0, 2 * np.pi)
        sr = rng.uniform(0.05, 0.2)
        st = rng.uniform(0.3, 1.2)
        amp = rng.uniform(0.5, 1.5)
        dt = np.angle(np.exp(1j * (theta - t0)))  # wrapped angular difference
        img += amp * np.exp(-0.5 * (((r - r0) / sr) ** 2 + (dt / st) ** 2))
    return img


def write_obv(path, vol: np.ndarray) -> None:
    """Write the 'OBV1' volume format: 16-byte header + float32 payload.

    Header fields (little endian): magic, u32 edge length, u32 reserved = 0,
    u32 payload byte length.  Payload is x-fastest float32.
    """
    vol = np.asarray(vol, dtype=float)
    n = vol.shape[0]
    if vol.shape != (n, n, n):
        raise ValueError("volume must be cubic")
    payload = vol.astype("<f4").ravel(order="F").tobytes()
    header = OBV_MAGIC + struct.pack("<III", n, 0, len(payload))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_obv(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16 or raw[:4] != OBV_MAGIC:
        raise FileFormatError(f"{path}: not an OBV1 volume file")
    n, reserved, length = struct.unpack("<III", raw[4:16])
    if reserved != 0:
        raise FileFormatError(f"{path}: nonzero reserved header field")
    if length != n * n * n * 4 or len(raw) != 16 + length:
        raise FileFormatError(f"{path}: payload length mismatch")
    flat = np.frombuffer(raw[16:], dtype="<f4")
    return flat.reshape((n, n, n), order="F").astype(float)
