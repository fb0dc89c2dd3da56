"""Helpers shared by the tests: a closed-form rotation and a scoring oracle
that does not go through the code under test."""

import numpy as np
from scipy.special import logsumexp


def rot_z(theta: float) -> np.ndarray:
    """Rotation by theta about the z axis."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def direct_log_weights(ys, x, var) -> np.ndarray:
    """-1/2 sum_i (y_i - x_li)^2 / var_i for every row y and template x_l,
    one residual at a time, normalized per row; (M, L)."""
    log_w = -0.5 * np.sum((ys[:, None, :] - x[None, :, :]) ** 2 / var, axis=2)
    return log_w - logsumexp(log_w, axis=1, keepdims=True)
