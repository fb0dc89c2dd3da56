"""Synthetic data generation: phantoms, grid rotations, projection, the noise model.

Volumes are (n, n, n) float arrays indexed [x, y, z] with coordinates
centered at the grid midpoint; polar images are (d_radial, l_angular)
arrays whose angular axis wraps around.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import ndimage


class FileFormatError(ValueError):
    """Malformed volume file."""


class ZeroNoiseError(ValueError):
    """SNR is undefined at sigma = 0."""


OBV_MAGIC = b"OBV1"


@dataclass(frozen=True)
class NoiseModel:
    """Measurement noise sigma plus optional per-coordinate structural tau.

    The effective per-coordinate variance is tau_i^2 + sigma^2.
    """

    sigma: float
    tau: float | np.ndarray = 0.0

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=float)
        if not (np.isfinite(self.sigma) and np.all(np.isfinite(tau))):
            raise ValueError("sigma and tau must be finite")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if np.any(tau < 0):
            raise ValueError("tau must be >= 0")
        if tau.ndim > 1:
            raise ValueError(f"tau must be a scalar or a vector, got shape {tau.shape}")

    def effective_variance(self, d: int | None = None):
        var = np.asarray(self.tau, dtype=float) ** 2 + self.sigma**2
        if d is not None and var.ndim == 1 and var.shape[0] != d:
            raise ValueError("tau length does not match measurement dimension")
        return var


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


def rotate_volume(vol: np.ndarray, g: np.ndarray, method: str = "trilinear") -> np.ndarray:
    """Apply the inverse-rotation action: output(x) = vol(g x).

    Samples outside the source grid read as zero.  The identity is returned
    bit-exactly; axis-aligned quarter turns land on grid points and are exact
    under trilinear interpolation.
    """
    vol = np.asarray(vol, dtype=float)
    n = vol.shape[0]
    if vol.shape != (n, n, n):
        raise ValueError("volume must be cubic")
    g = np.asarray(g, dtype=float)
    order = INTERPOLATION_ORDERS.get(method)
    if order is None:
        raise ValueError(f"unknown interpolation method: {method!r}")
    if np.array_equal(g, np.eye(3)):
        return vol.copy()
    c = (n - 1) / 2.0
    coords = g @ _centered_grid(n) + c
    out = ndimage.map_coordinates(vol, coords, order=order, mode="constant", cval=0.0)
    return out.reshape(n, n, n)


def rotated_stack(vol, rotations, method: str = "trilinear", projected: bool = False, map=map) -> np.ndarray:
    """Row i is g_i^-1 . vol, projected by :func:`project_z` if ``projected``,
    flattened.  ``map`` is an order-preserving map over row indices; each call
    fills its own preallocated row, so any map gives the same bytes."""
    vol = np.asarray(vol, dtype=float)
    out = np.empty((len(rotations), vol.shape[0] ** 2 if projected else vol.size))

    def fill(i):
        clean = rotate_volume(vol, rotations[i], method=method)
        out[i] = (project_z(clean) if projected else clean).ravel()

    for _ in map(fill, range(len(rotations))):
        pass
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


def snr_of(signal: np.ndarray, noise: NoiseModel, projected: bool = False) -> float:
    """Mean clean-signal power per coordinate divided by sigma^2."""
    if noise.sigma == 0:
        raise ZeroNoiseError("SNR is undefined when sigma = 0")
    return _power(signal, projected) / noise.sigma**2


def sigma_for_snr(signal: np.ndarray, snr: float, projected: bool = False) -> float:
    """Invert :func:`snr_of` for a target SNR."""
    if snr <= 0:
        raise ValueError("target SNR must be positive")
    return float(np.sqrt(_power(signal, projected) / snr))


def signal_scale(signal: np.ndarray, projected: bool = False) -> float:
    """Root-mean-square of the clean signal; the natural unit for sigma."""
    return float(np.sqrt(_power(signal, projected)))


def _inscribed_sphere_mask(n: int) -> np.ndarray:
    c = (n - 1) / 2.0
    r = _centered_grid(n)
    return (np.linalg.norm(r, axis=0) <= 0.95 * c).reshape(n, n, n)


def make_phantom(kind: str, n: int, seed: int = 0, path: str | None = None) -> np.ndarray:
    """Deterministic test volumes with support inside the inscribed sphere.

    ``gaussian_blobs`` sums a handful of anisotropically placed Gaussian
    bumps with no rotational symmetry; ``asymmetric_L`` is a smoothed chiral
    three-arm solid, so the true rotation is identifiable; ``loaded`` reads
    a volume file (see :func:`read_obv`), whose edge length replaces n.
    """
    if kind == "loaded":
        if path is None:
            raise ValueError("loaded phantom requires a path")
        vol = read_obv(path)
        if vol.shape[0] < MIN_PHANTOM_N or not np.all(np.isfinite(vol)):
            raise FileFormatError(f"{path}: a phantom needs an edge length >= {MIN_PHANTOM_N} and finite voxels")
        return vol
    if n < MIN_PHANTOM_N:
        raise ValueError(f"n must be >= {MIN_PHANTOM_N}")
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
    elif kind == "asymmetric_L":
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
        vol = ndimage.gaussian_filter(vol, sigma=n / 32.0)
    else:
        raise ValueError(f"unknown phantom kind: {kind!r}")
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
