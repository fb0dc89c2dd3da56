"""Helpers shared by the tests: closed-form rotations and angles, a scoring
oracle that does not go through the code under test, and the README's
quick example."""

import re
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

from orient_bayes import so3

README = Path(__file__).resolve().parents[1] / "README.md"


def rot_z(theta: float) -> np.ndarray:
    """Rotation by theta about the z axis."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def geodesic_distance(g1: np.ndarray, g2: np.ndarray) -> float:
    """Rotation angle of g2 g1^-1 for one pair: a one-pair call of so3.geodesic_distances."""
    return float(so3.geodesic_distances(np.asarray(g1)[None], np.asarray(g2)[None])[0])


def direct_log_weights(ys, x, var) -> np.ndarray:
    """-1/2 sum_i (y_i - x_li)^2 / var for every row y and template x_l,
    one residual at a time, normalized per row; (M, L)."""
    log_w = -0.5 * np.sum((ys[:, None, :] - x[None, :, :]) ** 2 / var, axis=2)
    return log_w - logsumexp(log_w, axis=1, keepdims=True)


def readme_quick_example() -> str:
    """The python block under 'Quick example' in the README."""
    block = re.search(r"Quick example:.*?```python\n(.*?)```", README.read_text(), re.S)
    assert block, "README has no python block under 'Quick example'"
    return block.group(1)
