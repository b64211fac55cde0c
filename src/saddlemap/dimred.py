"""Diffusion-map coordinates on a local point-cloud and chart-dimension selection.

The embedding uses the density-normalized construction (alpha = 1, the
Laplace-Beltrami limit) so geometry recovery is insensitive to nonuniform
sampling. The normalized operator is never formed: the Lanczos solve reads
the plain Gaussian kernel through matrix-vector products with two diagonal
scalings. So the stored ``kernel`` is left as assembled: it is exactly the
matrix a squared-exponential regressor on the same inputs would assemble,
and it can be reused as the regression covariance without recomputation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg
from scipy.linalg.blas import dsymv

from .errors import DegenerateChartError
from .kernels import gaussian_kernel, squared_distances

# rows per block of a pass over an N x N matrix
_ROW_BLOCK = 512
# entries in the strided sample that brackets the median of a distance matrix
_MEDIAN_SAMPLE = 1 << 16
# a singular value counts toward a Jacobian's numerical rank above this
# fraction of the largest one
RANK_TOL = 0.2


@dataclass(frozen=True)
class PointCloud:
    """Ambient samples with the force field evaluated at each of them."""

    points: np.ndarray   # (N, n)
    forces: np.ndarray   # (N, n), forces[i] evaluated at points[i]
    base_point: np.ndarray

    def __post_init__(self):
        if self.points.ndim != 2 or self.points.shape[0] < 2:
            raise ValueError("a point-cloud needs at least two rows")
        if self.forces.shape != self.points.shape:
            raise ValueError("forces must align row-by-row with points")
        if not (np.all(np.isfinite(self.points)) and np.all(np.isfinite(self.forces))):
            raise ValueError("point-cloud contains non-finite entries")

    @property
    def size(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class DiffusionMapResult:
    """Spectral embedding of a point-cloud.

    ``eigenvalues`` are the leading Markov-operator eigenvalues in descending
    order including the trivial leading 1; ``eigenvectors`` the matching raw
    eigenvectors (column 0 is constant). ``coordinates`` drops the trivial
    column and scales each remaining eigenvector by its eigenvalue.
    """

    eigenvalues: np.ndarray    # (m + 1,)
    eigenvectors: np.ndarray   # (N, m + 1)
    coordinates: np.ndarray    # (N, m)
    bandwidth_eps: float
    kernel: np.ndarray         # (N, N) pre-normalization Gaussian kernel
    row_sums: np.ndarray       # (N,) the kernel's row sums q


def median_bandwidth(sq: np.ndarray) -> float:
    """Squared median of the pairwise distances whose squares fill ``sq``.

    ``sq`` is a symmetric (N, N) squared-distance matrix with a zero
    diagonal. No square is negative, so its entries sorted are the N
    diagonal zeros and each pair's square twice: the pair of rank r sits at
    rank N + 2r of the whole matrix. A strided sample brackets the two
    middle ranks, and one pass in row blocks counts the entries below the
    bracket and gathers those inside it; a bracket that misses either rank
    is widened and the pass repeated. So no copy of the triangle is made.
    The square root is monotone, so the middle order statistics of the
    squares sit where those of the distances do; the median is then the
    mean of their square roots, as ``np.median(pdist(x))`` computes it, and
    the result equals ``np.median(pdist(x)) ** 2`` bit for bit. A
    collapsed point set, whose median is 0, raises DegenerateChartError.
    """
    n = sq.shape[0]
    if n < 2:
        raise ValueError("median bandwidth needs at least two points")
    pairs = n * (n - 1) // 2
    half = pairs // 2
    low = half if pairs % 2 else half - 1
    ranks = np.array([n + 2 * low, n + 2 * half])
    sample = np.sort(sq.flat[::max(1, sq.size // _MEDIAN_SAMPLE)])
    at = ranks * sample.size // sq.size
    margin = 2 * int(np.sqrt(sample.size)) + 1
    while True:
        lo = sample[at[0] - margin] if at[0] >= margin else -np.inf
        hi = sample[at[1] + margin] if at[1] + margin < sample.size else np.inf
        below, inside = 0, []
        for start in range(0, n, _ROW_BLOCK):
            block = sq[start:start + _ROW_BLOCK]
            under = block < lo
            below += np.count_nonzero(under)
            inside.append(block[~under & (block <= hi)])
        inside = np.concatenate(inside)
        kth = ranks - below
        if kth[0] >= 0 and kth[1] < inside.size:
            break
        margin *= 4
    inside.partition(tuple(kth))
    # one entry when the pair count is odd, as np.median reads one
    eps = float(np.mean(np.sqrt(inside[np.unique(kth)])) ** 2)
    if not eps > 0.0:
        raise DegenerateChartError(f"median bandwidth {eps} of a collapsed point set")
    return eps


def bandwidth_median_rule(points: np.ndarray) -> float:
    """Squared median of the pairwise Euclidean distances."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    return median_bandwidth(squared_distances(points, points))


def conjugate_operator(kernel: np.ndarray):
    """Symmetric conjugate S of the alpha=1 Markov operator of ``kernel``,
    as a LinearOperator, with the kernel's row sums q and d^-1/2.

    With K_alpha = K / (q q^T) and d its row sums, S = diag(d^-1/2) K_alpha
    diag(d^-1/2), so S v = s * (K (s * v)) with s = d^-1/2 / q, and
    d = (K (1/q)) / q. S is never formed: each product is one ``dsymv``
    that reads one triangle of the symmetric kernel through ``kernel.T``,
    the Fortran-order view of a C-ordered kernel, so no copy is made and
    the kernel is left as it was.
    """
    q = kernel.sum(axis=1)
    d_isqrt = 1.0 / np.sqrt(dsymv(1.0, kernel.T, 1.0 / q, lower=1) / q)
    s = d_isqrt / q

    def matvec(v):
        return s * dsymv(1.0, kernel.T, s * np.ravel(v), lower=1)

    return scipy.sparse.linalg.LinearOperator(kernel.shape, matvec=matvec, dtype=float), q, d_isqrt


def diffusion_maps(
    points: np.ndarray, eps: float, n_components: int, sq: np.ndarray | None = None
) -> DiffusionMapResult:
    """Density-normalized diffusion-map embedding.

    Pipeline: Gaussian kernel K -> alpha=1 density normalization -> Markov
    operator, whose ``n_components + 1`` leading eigenpairs come from a
    Lanczos solve (ARPACK, which needs ``n_components + 1 < N``) of its
    symmetric conjugate from the fixed start vector 1/sqrt(N). Eigenvectors
    are scaled to ||psi||_2 = sqrt(N) (entries O(1) independent of N) with a
    permutation-covariant sign convention, and the embedding uses diffusion
    time 1: coordinate i = lambda_i * psi_i.

    One N x N buffer carries the whole pipeline: the kernel, which the
    Lanczos solve reads through matrix-vector products of the conjugate
    (:func:`conjugate_operator`) and which is returned as assembled, with its
    row sums. ``sq`` may carry the points' squared-distance matrix; it is
    that buffer, overwritten in place (see :func:`gaussian_kernel`).
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if eps <= 0:
        raise ValueError(f"bandwidth must be positive, got {eps}")
    if not 0 < n_components < n - 1:
        raise ValueError(f"need 0 < n_components < N - 1, got {n_components} of {n}")

    kernel = gaussian_kernel(points, points, eps, sq=sq)
    sym, q, d_isqrt = conjugate_operator(kernel)

    k_eig = n_components + 1
    v0 = np.full(n, 1.0 / np.sqrt(n))
    w, phi = scipy.sparse.linalg.eigsh(sym, k=k_eig, which="LA", v0=v0)
    order = np.argsort(w)[::-1]
    w = w[order]
    phi = phi[:, order]

    psi = phi * d_isqrt[:, None]
    # scale to ||psi||_2 = sqrt(N) and fix signs by the largest-|entry| component
    psi = psi * (np.sqrt(n) / np.linalg.norm(psi, axis=0))
    flips = np.sign(psi[np.argmax(np.abs(psi), axis=0), np.arange(k_eig)])
    psi = psi * flips

    coordinates = psi[:, 1:] * w[1:]
    return DiffusionMapResult(
        eigenvalues=w,
        eigenvectors=psi,
        coordinates=coordinates,
        bandwidth_eps=float(eps),
        kernel=kernel,
        row_sums=q,
    )


def select_chart_components(phi_jacobians: list[np.ndarray]) -> list[int]:
    """A component subset that realizes the estimated chart dimension.

    The dimension estimate is the rounded average, over evaluation points, of
    the numerical rank of the full coordinate-map Jacobian. Components are
    then scanned greedily in embedding order: one is kept when stacking its
    Jacobian row raises the rank of the running subset at >= 90% of the
    evaluation points, which skips components that are functions (harmonics)
    of those already kept.
    """
    if not phi_jacobians:
        raise ValueError("need at least one Jacobian evaluation")
    jacs = [np.asarray(j, dtype=float) for j in phi_jacobians]
    m = jacs[0].shape[0]

    def num_rank(mat: np.ndarray) -> int:
        sv = np.linalg.svd(mat, compute_uv=False)
        if sv[0] == 0.0:
            return 0
        return int(np.sum(sv > RANK_TOL * sv[0]))

    d = int(round(float(np.mean([num_rank(j) for j in jacs]))))
    if d < 1:
        raise DegenerateChartError("estimated chart dimension is zero")

    selected: list[int] = []
    for c in range(m):
        trial = selected + [c]
        hits = np.mean([num_rank(j[trial, :]) == len(trial) for j in jacs])
        if hits >= 0.9:
            selected = trial
        if len(selected) == d:
            return selected
    raise DegenerateChartError(
        f"no component subset achieves rank {d} (have {m} components)"
    )
