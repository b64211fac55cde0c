"""Intrinsic Riemannian geometry and saddle dynamics vector fields on a chart.

Everything here operates on plain coordinate arrays: a chart point is a
length-d vector, a tangent vector is its component array in the coordinate
basis, and each kernel takes and returns tensors as arrays. Only the metric
keeps a small type, :class:`MetricTensor`, that holds g with its inverse.

Index conventions
-----------------
* ``MetricTensor.g[i, j]`` is g_ij, ``g_inv[i, j]`` is g^ij.
* A metric derivative ``dg[i, j, k]`` is d g_ij / d u^k; the derivative axis
  is last, as :func:`central_difference` returns it.
* ``christoffel(g_inv, dg)[l, j, k]`` is Gamma^l_jk, symmetric in (j, k);
  ``pullback_christoffel(g_inv, jac, second)`` is the same tensor for the
  pullback metric, from the parameterization's derivatives.
* ``covariant_hessian`` and ``ChartGeometry.hessian`` are the symmetric (0,2)
  form h_ij; the (1,1) form acting on tangent vectors is ``g_inv @ h``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import dgesdd, dpotrf, dpotri, dsygvd

from .errors import DegenerateChartError, NonFiniteEvaluationError

Vector = np.ndarray


@dataclass(frozen=True)
class MetricTensor:
    """Riemannian metric and its inverse at a single chart point."""

    g: np.ndarray
    g_inv: np.ndarray

    @property
    def dim(self) -> int:
        return self.g.shape[0]

    def inner(self, a: Vector, b: Vector) -> float:
        """g-inner product of two tangent vectors."""
        return float(a @ self.g @ b)

    def norm(self, a: Vector) -> float:
        return float(np.sqrt(max(self.inner(a, a), 0.0)))


@dataclass
class GADState:
    """Extended phase-space state (position, ascent direction) in R^{2n}."""

    x: np.ndarray
    v: np.ndarray


def _as_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    return v


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the small array ``a`` is finite, from its sum:
    a NaN or inf entry makes the sum NaN or inf. This is the one finiteness
    check of the module. By design it also rejects finite entries so large
    that their sum overflows: no metric, connection or Hessian survives
    them, and the callers raise NonFiniteEvaluationError for both."""
    return math.isfinite(a.sum())


def _inner(a: Vector, b: Vector, g: Optional[MetricTensor]) -> float:
    if g is None:
        return float(a @ b)
    return g.inner(a, b)


def rayleigh_quotient(h: np.ndarray, v: Vector, g: Optional[MetricTensor] = None) -> float:
    """Rayleigh quotient of the symmetric (0,2) matrix h at v.

    Returns (v^T h v) / (v^T g v); for v an eigenvector of the generalized
    problem h v = lambda g v this is exactly lambda. Without a metric the
    denominator is the Euclidean norm.
    """
    v = _as_vector(v)
    denom = _inner(v, v, g)
    if denom <= 0.0 or not math.isfinite(denom):
        raise ValueError("Rayleigh quotient of a zero (or non-finite) vector")
    return float(v @ np.asarray(h) @ v) / denom


def gad_extended_field(
    state: GADState,
    grad_u: Callable[[np.ndarray], np.ndarray],
    hess_u: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side of the extended gentlest-ascent system.

    dx = -H(v) DU(x)
    dv = -D^2U(x) v + r(x, v) v

    The v-equation is a continuous eigensolver: along the flow v aligns with
    the eigenvector of the smallest Hessian eigenvalue.
    """
    x, v = _as_vector(state.x), _as_vector(state.v)
    # tolerance sized to the drift an un-renormalized Euler integration
    # accumulates over 10^3 steps; renormalized integrators stay far inside
    if not abs(np.linalg.norm(v) - 1.0) <= 1e-4:  # a NaN norm fails too
        raise ValueError(f"ascent direction must be unit norm, |v| = {np.linalg.norm(v)}")
    du = np.asarray(grad_u(x), dtype=float)
    d2u = np.asarray(hess_u(x), dtype=float)
    if not (_all_finite(du) and _all_finite(d2u)):
        raise NonFiniteEvaluationError("non-finite derivative evaluation", point=x)
    dx = -(du - 2.0 * (v @ du) * v)
    r = rayleigh_quotient(d2u, v)
    dv = -d2u @ v + r * v
    return dx, dv


def metric_from_jacobian(jac_psi: np.ndarray) -> MetricTensor:
    """Pullback metric g = Dpsi^T Dpsi of the parameterization Jacobian.

    Raises NonFiniteEvaluationError when Dpsi holds a NaN or inf, and
    DegenerateChartError when the SVD of Dpsi does not converge, Dpsi is
    (numerically) rank deficient or g is not positive definite: a degenerate
    chart means the coordinates are bad, not that the metric should be
    regularized. The rank check rejects Dpsi of condition number above 1e7,
    i.e. g of condition above 1e14; below that the Cholesky factorization of
    the rounded g succeeds, so the two checks agree instead of the verdict
    resting on rounding noise.

    Calls LAPACK directly, without numpy's wrappers: dgesdd (singular values
    only) for the rank check, dpotrf for the Cholesky factor of g, whose
    info is the positive-definiteness check, and dpotri for g^-1 from it.
    """
    jac = np.ascontiguousarray(jac_psi, dtype=float)
    if jac.ndim != 2:
        raise ValueError(f"expected an n x d Jacobian, got shape {jac.shape}")
    # checked first: a NaN singular value would pass the rank check
    if not _all_finite(jac):
        raise NonFiniteEvaluationError("non-finite chart Jacobian")
    _, sv, _, info = dgesdd(jac.T, compute_uv=0)
    if info != 0:
        raise DegenerateChartError(f"SVD of the chart Jacobian failed, dgesdd info {info}")
    if sv[-1] < 1e-7 * sv[0] or sv[0] == 0.0:
        raise DegenerateChartError(
            f"rank-deficient chart Jacobian, singular values {sv}"
        )
    # exactly symmetric: numpy forms a contiguous array times its own
    # transpose from one triangle (BLAS syrk)
    g = jac.T @ jac
    factor, info = dpotrf(g, lower=1)
    if info != 0:
        raise DegenerateChartError(f"metric not positive definite, dpotrf info {info}")
    # dpotri fills the lower triangle of g^-1 and leaves the upper one zero;
    # its info is 0 once dpotrf has succeeded
    lower = dpotri(factor, lower=1, overwrite_c=1)[0]
    g_inv = lower + lower.T
    np.fill_diagonal(g_inv, lower.diagonal())  # undo the doubled diagonal
    return MetricTensor(g=g, g_inv=g_inv)


def central_difference(f: Callable, u: np.ndarray, step: float) -> np.ndarray:
    """Central-difference derivative of the array-valued f at u.

    The result has f's shape plus a last axis k holding d f / d u^k. Only
    the geometry validation and the tests differentiate numerically; the
    search uses the analytic derivatives of its charts.
    """
    u = _as_vector(u)
    cols = [
        (np.asarray(f(u + e), dtype=float) - np.asarray(f(u - e), dtype=float)) / (2.0 * step)
        for e in step * np.eye(u.shape[0])
    ]
    return np.stack(cols, axis=-1)


def christoffel(g_inv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Levi-Civita connection coefficients gamma[l, j, k] = Gamma^l_jk.

    Gamma^l_jk = 1/2 sum_i g^li (d_k g_ij + d_j g_ik - d_i g_jk)

    from the inverse metric and the metric derivative dg[i, j, k] = d g_ij / d u^k.
    """
    if not _all_finite(dg):
        raise NonFiniteEvaluationError("non-finite metric derivative")
    # build d_k g_ij + d_j g_ik - d_i g_jk
    term = dg + dg.transpose(0, 2, 1) - dg.transpose(2, 0, 1)
    gamma = 0.5 * np.einsum("li,ijk->ljk", g_inv, term)
    return 0.5 * (gamma + gamma.transpose(0, 2, 1))  # enforce lower-index symmetry exactly


def covariant_hessian(g: MetricTensor, gamma: np.ndarray, y: Vector, dy: np.ndarray) -> np.ndarray:
    """Covariant Hessian h_ij of the potential, (0,2) form, from its force field.

    For Y = -grad U on the chart with Jacobian dy[i, j] = dY^i/du^j,

        (Hess U)^i_j = -(dY^i/du^j + sum_l Gamma^i_jl Y^l)

    and h = g @ Hess U. It is symmetrized because a regressed Y is not an
    exact gradient, while the true covariant Hessian of a scalar is
    symmetric. The (1,1) form acting on tangent vectors is ``g.g_inv @ h``.
    """
    if not (_all_finite(y) and _all_finite(dy)):
        raise NonFiniteEvaluationError("non-finite force evaluation")
    h = g.g @ -(dy + gamma @ y)
    return 0.5 * (h + h.T)


def smallest_eigpair(
    h: np.ndarray,
    g: MetricTensor,
    prev_v: Optional[Vector] = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Smallest eigenpair of the generalized problem h v = lambda g v, h the (0,2) Hessian.

    Returns (lambda_min, v, spectrum) with v normalized so g(v, v) = 1 and
    the spectrum sorted ascending. The sign of v is chosen to maximize the
    g-inner product with ``prev_v`` (continuity across integration steps);
    without a previous direction the first component of significant
    magnitude is made positive.

    Calls LAPACK's dsygvd directly, the routine ``scipy.linalg.eigh(h, g.g)``
    runs, without eigh's argument checks. Raises DegenerateChartError when
    dsygvd fails (info > n: g is not positive definite; 0 < info <= n: no
    convergence) and NonFiniteEvaluationError on a non-finite eigenvalue.
    """
    w, vecs, info = dsygvd(h, g.g, itype=1, jobz="V", uplo="L")
    if info != 0:
        raise DegenerateChartError(f"generalized eigensolve failed, dsygvd info {info}")
    if not math.isfinite(w[0]):
        raise NonFiniteEvaluationError("non-finite generalized eigenvalue")
    v = vecs[:, 0]
    # dsygvd (itype=1) returns g-orthonormal eigenvectors, i.e. already
    # g(v, v) = 1; renormalize anyway to pin the contract.
    v = v / np.sqrt(g.inner(v, v))
    if prev_v is not None:
        if g.inner(v, np.asarray(prev_v, dtype=float)) < 0.0:
            v = -v
    else:
        nz = np.nonzero(np.abs(v) > 1e-12 * np.max(np.abs(v)))[0]
        if nz.size and v[nz[0]] < 0.0:
            v = -v
    return float(w[0]), v, w


def isd_field(x_force: Vector, v: Vector, g: MetricTensor) -> Vector:
    """Idealized saddle dynamics field: reflect the force across the soft mode.

    X_hat = X - 2 g(V, X) V with g(V, V) = 1. Index-1 saddles of the gradient
    system become stable equilibria of X_hat.
    """
    x_force = _as_vector(x_force)
    v = _as_vector(v)
    vg = v @ g.g  # one product serves g(V, V) and g(V, X), rounded as g.inner rounds
    if not abs(float(vg @ v) - 1.0) <= 1e-8:  # a NaN norm fails too
        raise ValueError("soft-mode direction must be g-normalized")
    return x_force - 2.0 * float(vg @ x_force) * v


@dataclass(frozen=True)
class ChartGeometry:
    """Everything one integration step reads at a chart point: psi(u), the
    metric, the chart force and the (0,2) covariant Hessian of the potential."""

    ambient: np.ndarray
    metric: MetricTensor
    force: np.ndarray
    hessian: np.ndarray


def _metric_jacobian(jac: np.ndarray, second: np.ndarray) -> np.ndarray:
    """d g_ij / d u^k of g = Dpsi^T Dpsi from the parameterization's derivatives."""
    # dg[i,j,k] = sum_c (d2 psi_c / du_k du_i) (d psi_c / du_j) + (i <-> j)
    term = np.einsum("cki,cj->ijk", second, jac)
    return term + term.transpose(1, 0, 2)


def pullback_christoffel(g_inv: np.ndarray, jac: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Gamma^l_jk of the pullback metric g = Dpsi^T Dpsi, by the Gauss formula.

    Gamma^l_jk = sum_i g^li sum_c (d_i psi_c) (d_j d_k psi_c)

    from g^-1, the Jacobian jac[c, i] = d psi_c / d u^i and the second
    derivatives second[c, j, k]; it equals ``christoffel(g_inv, dg)`` for the
    metric derivative of g, to rounding, without forming dg.
    """
    if not _all_finite(second):
        raise NonFiniteEvaluationError("non-finite second derivative of the parameterization")
    q, p = jac.shape
    gamma = ((g_inv @ jac.T) @ second.reshape(q, p * p)).reshape(p, p, p)
    return 0.5 * (gamma + gamma.transpose(0, 2, 1))  # enforce lower-index symmetry exactly


class GeometryField:
    """Metric, force, and covariant Hessian over a learned chart.

    Built from two regressors with ``predict_with_derivatives``: the
    parameterization ``psi`` (chart -> ambient) and ``chart_force`` (ambient
    point -> chart components of the force). :meth:`evaluate` derives every
    geometric quantity analytically from one order-2 prediction of psi and
    one order-1 prediction of the chart force at psi(u): the metric from
    Dpsi, the Christoffel symbols from Dpsi and D^2psi by the Gauss formula
    (no metric derivative is formed), and the force Jacobian by the chain
    rule.

    All outputs are pure functions of u; instances hold no mutable state.
    """

    def __init__(self, psi, chart_force):
        self.psi = psi
        self.chart_force = chart_force

    def evaluate(self, u: np.ndarray) -> ChartGeometry:
        """psi(u), the metric, the chart force and the covariant Hessian at u."""
        x_amb, jac_psi, second = self.psi.predict_with_derivatives(u, order=2)
        g = metric_from_jacobian(jac_psi)
        gamma = pullback_christoffel(g.g_inv, jac_psi, second)
        y, jac_amb, _ = self.chart_force.predict_with_derivatives(x_amb, order=1)
        hess = covariant_hessian(g, gamma, y, jac_amb @ jac_psi)
        return ChartGeometry(ambient=x_amb, metric=g, force=y, hessian=hess)

    # single-quantity views for tests and callers that need one tensor;
    # perfbench/worker.py also looks these names up to trace them
    def ambient(self, u: np.ndarray) -> np.ndarray:
        return self.evaluate(u).ambient

    def metric(self, u: np.ndarray) -> MetricTensor:
        return self.evaluate(u).metric

    def metric_jacobian(self, u: np.ndarray) -> np.ndarray:
        _, jac, second = self.psi.predict_with_derivatives(u, order=2)
        return _metric_jacobian(jac, second)

    def christoffel(self, u: np.ndarray) -> np.ndarray:
        return christoffel(self.metric(u).g_inv, self.metric_jacobian(u))

    def force(self, u: np.ndarray) -> np.ndarray:
        return self.evaluate(u).force

    def covariant_hessian(self, u: np.ndarray) -> np.ndarray:
        return self.evaluate(u).hessian
