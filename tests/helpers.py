"""Helpers shared by the tests: closed-form rotations and angles, a rotation
check, the Haar angle density, Horn's exact Procrustes oracle, a scoring
oracle that does not go through the code under test, a signal's scale,
results.csv read back, the README's quick example, and a scope that sets
BLAS's thread count."""

import contextlib
import csv
import re
import typing
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

from orient_bayes import bench, blas, forward, so3

README = Path(__file__).resolve().parents[1] / "README.md"


@contextlib.contextmanager
def blas_at_two_threads():
    """Every loaded OpenBLAS at two threads, as a caller might set it; gives a
    function that reads the counts, and restores the counts before on exit.
    Skips where no OpenBLAS thread-count call is found."""
    calls = blas.thread_calls()
    if not calls:
        pytest.skip("no OpenBLAS thread-count call found")
    before = [get() for get, _ in calls]
    for _, set_ in calls:
        set_(2)
    try:
        yield lambda _=None: [get() for get, _ in calls]
    finally:
        for (_, set_), count in zip(calls, before):
            set_(count)


def rot_z(theta: float) -> np.ndarray:
    """Rotation by theta about the z axis."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def is_rotation(m, tol: float = 1e-10) -> bool:
    """Whether m is a finite 3x3 matrix within tol of orthonormal (Frobenius
    norm of m^T m - I) with determinant within tol of +1."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3) or not np.all(np.isfinite(m)):
        return False
    ortho = np.linalg.norm(m.T @ m - np.eye(3))
    return ortho <= tol and abs(np.linalg.det(m) - 1.0) <= tol


def uniform_angle_density(omega) -> np.ndarray:
    """Density of the rotation angle under the Haar measure: (1 - cos w) / pi."""
    return (1.0 - np.cos(np.asarray(omega, dtype=float))) / np.pi


def geodesic_distance(g1: np.ndarray, g2: np.ndarray) -> float:
    """Rotation angle of g2 g1^-1 for one pair: a one-pair call of so3.geodesic_distances."""
    return float(so3.geodesic_distances(np.asarray(g1)[None], np.asarray(g2)[None])[0])


def horn_rotation(a):
    """The R maximizing tr(R^T a) by Horn's quaternion method (1987): the
    rotation of the top eigenvector q = (w, x, y, z) of the symmetric 4x4 K
    with q^T K q = tr(R(q)^T a), and K's eigenvalues in ascending order."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    k = np.array([
        [a00 + a11 + a22, a21 - a12, a02 - a20, a10 - a01],
        [a21 - a12, a00 - a11 - a22, a01 + a10, a02 + a20],
        [a02 - a20, a01 + a10, -a00 + a11 - a22, a12 + a21],
        [a10 - a01, a02 + a20, a12 + a21, -a00 - a11 + a22],
    ])
    lam, vecs = np.linalg.eigh(k)
    w, x, y, z = vecs[:, -1]
    r = np.array([
        [w * w + x * x - y * y - z * z, 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), w * w - x * x + y * y - z * z, 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), w * w - x * x - y * y + z * z],
    ])
    return r, lam


def direct_log_weights(ys, x, var) -> np.ndarray:
    """-1/2 sum_i (y_i - x_li)^2 / var for every row y and template x_l,
    one residual at a time, normalized per row; (M, L)."""
    log_w = -0.5 * np.sum((ys[:, None, :] - x[None, :, :]) ** 2 / var, axis=2)
    return log_w - logsumexp(log_w, axis=1, keepdims=True)


def signal_scale(signal, projected: bool = False) -> float:
    """Root-mean-square of the clean signal, z-projected if ``projected``: the
    natural unit for sigma."""
    arr = np.asarray(signal, dtype=float)
    return float(np.sqrt(np.mean((forward.project_z(arr) if projected else arr).ravel() ** 2)))


def parse_csv(path) -> list:
    """The bench.ResultRecord rows of a results.csv, each field of its type."""
    columns = typing.get_type_hints(bench.ResultRecord)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [bench.ResultRecord(**{name: kind(row[name]) for name, kind in columns.items()}) for row in rows]


def readme_quick_example() -> str:
    """The python block under 'Quick example' in the README."""
    block = re.search(r"Quick example:.*?```python\n(.*?)```", README.read_text(), re.S)
    assert block, "README has no python block under 'Quick example'"
    return block.group(1)
