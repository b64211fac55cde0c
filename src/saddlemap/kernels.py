"""Squared-exponential kernel shared by the diffusion-map and regression modules.

Every kernel of a chart build is assembled through this single routine, so
that a kernel computed for the spectral embedding can be handed to the
regressor and match a freshly computed one bit for bit, and a block assembled
from row and column subsets of the points matches the submatrix bit for bit.
"""
from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist


def squared_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix of squared Euclidean distances ||x_i - y_j||^2.

    cdist evaluates each entry from x_i and y_j alone, with the same
    summation order for (i, j) and (j, i): the matrix of a set against
    itself is exactly symmetric, and the matrix of row and column subsets
    equals the matching submatrix bit for bit.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    return cdist(x, y, "sqeuclidean")


def gaussian_kernel(
    x: np.ndarray, y: np.ndarray, eps: float, sq: np.ndarray | None = None
) -> np.ndarray:
    """Kernel matrix K_ij = exp(-||x_i - y_j||^2 / (2 eps)).

    ``sq`` may carry ``squared_distances(x, y)`` computed earlier (say, for a
    median bandwidth). It is overwritten with the kernel and returned, so the
    distances are neither recomputed nor copied. The kernel is built in place
    either way; the self-kernel is exactly symmetric.
    """
    if eps <= 0:
        raise ValueError(f"kernel bandwidth must be positive, got {eps}")
    if sq is None:
        sq = squared_distances(x, y)
    elif sq.shape != (len(x), len(y)):
        raise ValueError(f"sq has shape {sq.shape}, expected {(len(x), len(y))}")
    # sq / (-2 eps) equals -sq / (2 eps) bit for bit: negation is exact
    np.divide(sq, -2.0 * eps, out=sq)
    return np.exp(sq, out=sq)
