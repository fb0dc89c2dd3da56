"""Synthetic data generation: phantoms, grid rotations, projection, the noise level.

Volumes are (n, n, n) float arrays indexed [x, y, z] with coordinates
centered at the grid midpoint; polar images are (d_radial, l_angular)
arrays whose angular axis wraps around.
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


PHANTOM_KINDS = ("gaussian_blobs", "asymmetric_L", "loaded")
MIN_PHANTOM_N = 8
# A generated phantom's largest edge: one 512^3 volume is 1 GiB of doubles.
MAX_PHANTOM_N = 512


def _read_bounds(vol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per axis, as (3, 1) columns, the least and the greatest sample
    coordinate at which a trilinear rotation of ``vol`` can read a voxel
    whose bits are not zero, inside the grid: max(0, lo - 1) and
    min(n - 1, hi + 1), with lo, hi the first and last index of the box of
    those voxels.

    A point reads the voxels floor(p) and floor(p) + 1 on each axis with
    weights >= 0, so a point outside these bounds on some axis reads only
    +0.0 and -0.0 and takes +0.0, as map_coordinates in constant mode gives
    it.  A volume whose two outer layers on every face hold such a voxel
    takes the whole grid without a search; an all-zero volume gets a lower
    bound above its upper one, so no point is kept.
    """
    n = len(vol)
    bits = vol.view(np.int64)
    faces = (bits[:2], bits[-2:], bits[:, :2], bits[:, -2:], bits[:, :, :2], bits[:, :, -2:])
    if all(map(np.count_nonzero, faces)):
        return np.zeros((3, 1)), np.full((3, 1), n - 1.0)
    yz = np.bitwise_or.reduce(bits, axis=0)  # the OR along x: fast over a leading axis, where any() is slow
    boxes = [np.flatnonzero(along) for along in (bits.reshape(n, -1).any(axis=1), yz.any(axis=1), yz.any(axis=0))]
    lo = [max(0, box.min(initial=n) - 1) for box in boxes]
    hi = [min(n - 1, box.max(initial=-1) + 1) for box in boxes]
    return np.array(lo, dtype=float)[:, None], np.array(hi, dtype=float)[:, None]


def _sample_points(g: np.ndarray, n: int) -> np.ndarray:
    """The (3, n^3) source coordinates vol(g x) reads, in voxel units."""
    coords = g @ _centered_grid(n)
    coords += (n - 1) / 2.0
    return coords


def _kept_points(vol: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The mask of the sample points of a trilinear rotation of ``vol`` by g
    that lie inside :func:`_read_bounds` on every axis, and those points'
    coordinates, one array per axis."""
    coords = _sample_points(g, len(vol))
    lo, hi = _read_bounds(vol)
    keep = ((coords >= lo) & (coords <= hi)).all(axis=0)
    return keep, [q[keep] for q in coords]


def _trilinear(vol: np.ndarray, g: np.ndarray, out: np.ndarray) -> None:
    """Write into ``out`` the bytes of ``map_coordinates(vol, _sample_points(g,
    n), order=1, mode="constant")`` for a finite C-contiguous volume of edge
    n >= 2, in a few dozen numpy passes over the whole grid.

    The points of :func:`_kept_points` are interpolated; every other point
    takes +0.0.  A kept point p with s = floor(p) reads the eight voxels
    s + {0, 1} on each axis with weights w0 = 1 - w1 and w1 = p - s, and
    takes t = 0.0 + sum ((v * w_x) * w_y) * w_z over the corners in C order
    (last axis fastest): scipy's products, summed in scipy's order.  At
    p = n - 1 the second voxel on that axis lies outside the grid and has
    weight 0.  scipy reads a mirrored voxel there, and this kernel whatever
    finite voxel its clipped flat index lands on.  Either term is +0.0 or
    -0.0, and adding a zero changes no bit of t: t starts at +0.0 and so is
    never -0.0 (+0 + -0 and x + -x are +0).  A NaN or an infinity would make
    that term a NaN whose payload can differ from scipy's, so
    :func:`rotate_volume` admits finite volumes only.

    Only the kept points' coordinates outlive :func:`_kept_points`, and the
    sum is accumulated in the head of ``out``, so besides ``out`` a rotation
    holds at most about eight vectors of the kept points.
    """
    n = len(vol)
    keep, p = _kept_points(vol, g)
    s = np.empty((3, len(p[0])))
    for row, q in zip(s, p):
        np.floor(q, out=row)
        q -= row  # p less its floor is w1
    # the flat index of s, exact in doubles, cast once
    base = (np.array([n * n, n, 1.0]) @ s).astype(np.intp)
    for row, q in zip(s, p):
        np.subtract(1.0, q, out=row)  # w0, in the floor's buffer
    weights = (s, p)
    flat = vol.reshape(-1)
    t = out[: len(base)]
    t[:] = 0.0
    term = np.empty(len(base))
    for dx, dy, dz in np.ndindex(2, 2, 2):
        np.take(flat[dx * n * n + dy * n + dz :], base, out=term, mode="clip")
        term *= weights[dx][0]
        term *= weights[dy][1]
        term *= weights[dz][2]
        t += term
    del term, weights, s, p, base
    t = t.copy()  # out's head is overwritten below
    out[:] = 0.0
    out[keep] = t


def rotate_volume(vol: np.ndarray, g: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply the inverse-rotation action by trilinear interpolation:
    output(x) = vol(g x).

    ``vol`` must be a finite cube of edge >= 2.  Samples outside the source
    grid read as zero; axis-aligned quarter turns, the identity among them,
    land on grid points and are exact.  The kernel :func:`_trilinear` writes
    the bytes of one ``ndimage.map_coordinates`` call over every sample
    point in constant mode.  ``out``, a flat array of vol.size doubles,
    receives the result in place; the return value is an (n, n, n) view of
    it.
    """
    vol = np.asarray(vol, dtype=float)
    n = vol.shape[0] if vol.ndim == 3 else 0
    if n < 2 or vol.shape != (n, n, n) or not np.isfinite(vol).all():
        raise ValueError(f"a rotated volume must be a finite cube of edge >= 2, got shape {vol.shape}")
    if out is None:
        out = np.empty(vol.size)
    _trilinear(np.ascontiguousarray(vol), np.asarray(g, dtype=float), out)
    return out.reshape(n, n, n)


def rotated_stack(vol, rotations, projected: bool = False, map=map) -> np.ndarray:
    """Row i is g_i^-1 . vol, projected by :func:`project_z` if ``projected``,
    flattened: a :func:`blas.fill <orient_bayes.blas.fill>` of one row a call
    through the order-preserving ``map`` (an unprojected rotation writes
    straight into its row)."""
    vol = np.asarray(vol, dtype=float)
    out = np.empty((len(rotations), vol.shape[0] ** 2 if projected else vol.size))

    def fill(rows):  # one row a call
        i = rows.start
        if projected:
            out[i] = project_z(rotate_volume(vol, rotations[i])).ravel()
        else:
            rotate_volume(vol, rotations[i], out=out[i])

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


def _gaussian_filter(vol: np.ndarray, sigma: float) -> None:
    """Smooth the C-contiguous cube ``vol`` in place into the bytes of
    ``ndimage.gaussian_filter(vol, sigma)``: radius r = int(4 sigma + 0.5),
    edges reflected (numpy's "symmetric" pad), axes 0, 1, 2 in turn, and each
    output v[i] w[0] plus (v[i - j] + v[i + j]) w[j] from j = r down to 1, the
    order of scipy's loop for a symmetric kernel.  It pads and sums one plane
    at a time, so it holds about four planes besides ``vol``."""
    r = int(4.0 * sigma + 0.5)
    w = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w /= w.sum()  # w[r - j] weighs the pair at offset j
    n = len(vol)
    pair = np.empty((n, n))
    # axes 0, 1, 2 as (planes in memory order, the axis within a plane)
    for planes, ax in ((vol.swapaxes(0, 1), 0), (vol, 0), (vol, 1)):
        widths = [(r, r) if a == ax else (0, 0) for a in (0, 1)]
        acc = np.moveaxis(pair, ax, 0)
        for plane in planes:
            p = np.moveaxis(np.pad(plane, widths, mode="symmetric"), ax, 0)
            out = np.moveaxis(plane, ax, 0)
            np.multiply(p[r : r + n], w[r], out=out)
            for j in range(r):  # the pair at offset r - j, the farthest first
                np.add(p[j : j + n], p[2 * r - j : 2 * r - j + n], out=acc)
                acc *= w[j]
                out += acc


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
        _gaussian_filter(vol, n / 32.0)
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
