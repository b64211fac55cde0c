"""Intrinsic Riemannian geometry and saddle dynamics vector fields on a chart.

Everything here operates on plain coordinate arrays: a chart point is a
length-d vector, a tangent vector is its component array in the coordinate
basis. The value types bundle derived tensors together with the consistency
checks their downstream consumers rely on (symmetry, positive definiteness,
index conventions).

Index conventions
-----------------
* ``MetricTensor.g[i, j]`` is g_ij, ``g_inv[i, j]`` is g^ij.
* ``ChristoffelSymbols.gamma[l, j, k]`` is Gamma^l_jk, symmetric in (j, k).
* ``CovariantHessian.h_mixed[i, j]`` is the (1,1) Hessian acting on tangent
  vectors, ``h_lower`` the (0,2) form; ``h_lower = g @ h_mixed`` after
  symmetrization.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg

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


@dataclass(frozen=True)
class ChristoffelSymbols:
    """Levi-Civita connection coefficients Gamma^l_jk at a chart point."""

    gamma: np.ndarray  # shape (d, d, d), indexed [l, j, k]

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]


@dataclass(frozen=True)
class CovariantHessian:
    """Covariant Hessian of the potential in (0,2) and (1,1) form."""

    h_lower: np.ndarray
    h_mixed: np.ndarray


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
    if denom <= 0.0 or not np.isfinite(denom):
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
    if abs(np.linalg.norm(v) - 1.0) > 1e-4:
        raise ValueError(f"ascent direction must be unit norm, |v| = {np.linalg.norm(v)}")
    du = np.asarray(grad_u(x), dtype=float)
    d2u = np.asarray(hess_u(x), dtype=float)
    if not (np.all(np.isfinite(du)) and np.all(np.isfinite(d2u))):
        raise NonFiniteEvaluationError("non-finite derivative evaluation", point=x)
    dx = -(du - 2.0 * (v @ du) * v)
    r = rayleigh_quotient(d2u, v)
    dv = -d2u @ v + r * v
    return dx, dv


def metric_from_jacobian(jac_psi: np.ndarray) -> MetricTensor:
    """Pullback metric g = Dpsi^T Dpsi of the parameterization Jacobian.

    Raises DegenerateChartError when Dpsi is (numerically) rank deficient:
    a degenerate chart means the coordinates are bad, not that the metric
    should be regularized.
    """
    jac = np.asarray(jac_psi, dtype=float)
    if jac.ndim != 2:
        raise ValueError(f"expected an n x d Jacobian, got shape {jac.shape}")
    sv = np.linalg.svd(jac, compute_uv=False)
    if sv[-1] < 1e-10 * sv[0] or sv[0] == 0.0:
        raise DegenerateChartError(
            f"rank-deficient chart Jacobian, singular values {sv}"
        )
    g = jac.T @ jac
    g = 0.5 * (g + g.T)
    g_inv = np.linalg.inv(g)
    g_inv = 0.5 * (g_inv + g_inv.T)
    eigvals = np.linalg.eigvalsh(g)
    if eigvals[0] <= 0.0:
        raise DegenerateChartError(f"metric not positive definite, spectrum {eigvals}")
    return MetricTensor(g=g, g_inv=g_inv)


def christoffel(
    metric_field: Callable[[np.ndarray], MetricTensor],
    u: np.ndarray,
    fd_step: float = 1e-5,
    metric_jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> ChristoffelSymbols:
    """Levi-Civita connection coefficients at u.

    Gamma^l_jk = 1/2 sum_i g^li (d_k g_ij + d_j g_ik - d_i g_jk)

    Metric derivatives come from central differences with step ``fd_step``
    unless an analytic ``metric_jacobian`` (d g_ij / d u^k, indexed [i,j,k])
    is supplied.
    """
    u = _as_vector(u)
    d = u.shape[0]
    g0 = metric_field(u)
    if metric_jacobian is not None:
        dg = np.asarray(metric_jacobian(u), dtype=float)
    else:
        dg = np.empty((d, d, d))
        for k in range(d):
            step = np.zeros(d)
            step[k] = fd_step
            gp = metric_field(u + step).g
            gm = metric_field(u - step).g
            dg[:, :, k] = (gp - gm) / (2.0 * fd_step)
    if not np.all(np.isfinite(dg)):
        raise NonFiniteEvaluationError("non-finite metric derivative", point=u)
    # dg[i,j,k] = d g_ij / d u^k; build d_k g_ij + d_j g_ik - d_i g_jk
    term = dg + dg.transpose(0, 2, 1) - dg.transpose(2, 0, 1)
    gamma = 0.5 * np.einsum("li,ijk->ljk", g0.g_inv, term)
    gamma = 0.5 * (gamma + gamma.transpose(0, 2, 1))  # enforce lower-index symmetry exactly
    return ChristoffelSymbols(gamma=gamma)


def sharp_flat(vec_or_covec: Vector, g: MetricTensor, direction: str) -> Vector:
    """Musical isomorphisms: raise ('sharp') or lower ('flat') an index."""
    v = _as_vector(vec_or_covec)
    if direction == "sharp":
        return g.g_inv @ v
    if direction == "flat":
        return g.g @ v
    raise ValueError(f"direction must be 'sharp' or 'flat', got {direction!r}")


def covariant_hessian_from_force(
    force_field: Optional[Callable[[np.ndarray], np.ndarray]],
    gamma: ChristoffelSymbols,
    g: MetricTensor,
    u: np.ndarray,
    fd_step: float = 1e-5,
    force_jacobian: Optional[np.ndarray] = None,
    force_value: Optional[np.ndarray] = None,
) -> CovariantHessian:
    """Covariant Hessian of the potential from its (negative-gradient) force field.

    For Y = -grad U expressed on the chart,

        h_mixed[i, j] = -(dY^i/du^j + sum_l Gamma^i_jl Y^l)

    which is (Hess U)^i_j = (nabla_j grad U)^i. The (0,2) form is
    symmetrized because a regressed Y is not an exact gradient, while the
    true covariant Hessian of a scalar is symmetric. ``force_field`` may be
    None when both ``force_value`` and ``force_jacobian`` are supplied.
    """
    u = _as_vector(u)
    d = u.shape[0]
    if force_value is not None:
        y0 = np.asarray(force_value, dtype=float)
    else:
        y0 = np.asarray(force_field(u), dtype=float)
    if force_jacobian is not None:
        dy = np.asarray(force_jacobian, dtype=float)
    else:
        dy = np.empty((d, d))
        for j in range(d):
            step = np.zeros(d)
            step[j] = fd_step
            yp = np.asarray(force_field(u + step), dtype=float)
            ym = np.asarray(force_field(u - step), dtype=float)
            dy[:, j] = (yp - ym) / (2.0 * fd_step)
    if not (np.all(np.isfinite(y0)) and np.all(np.isfinite(dy))):
        raise NonFiniteEvaluationError("non-finite force evaluation", point=u)
    h_mixed = -(dy + np.einsum("ijl,l->ij", gamma.gamma, y0))
    h_lower = g.g @ h_mixed
    h_lower = 0.5 * (h_lower + h_lower.T)
    h_mixed = g.g_inv @ h_lower
    return CovariantHessian(h_lower=h_lower, h_mixed=h_mixed)


def smallest_eigpair(
    h: CovariantHessian,
    g: MetricTensor,
    prev_v: Optional[Vector] = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Smallest eigenpair of the generalized problem h_lower v = lambda g v.

    Returns (lambda_min, v, spectrum) with v normalized so g(v, v) = 1 and
    the spectrum sorted ascending. The sign of v is chosen to maximize the
    g-inner product with ``prev_v`` (continuity across integration steps);
    without a previous direction the first component of significant
    magnitude is made positive.
    """
    try:
        w, vecs = scipy.linalg.eigh(h.h_lower, g.g)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - scipy internal failure
        raise DegenerateChartError(f"generalized eigensolve failed: {exc}") from exc
    v = vecs[:, 0]
    # scipy returns B-orthonormal eigenvectors, i.e. already g(v, v) = 1;
    # renormalize anyway to pin the contract.
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
    if abs(g.inner(v, v) - 1.0) > 1e-8:
        raise ValueError("soft-mode direction must be g-normalized")
    return x_force - 2.0 * g.inner(v, x_force) * v


@dataclass(frozen=True)
class ChartGeometry:
    """Everything one integration step needs at a chart point."""

    ambient: np.ndarray
    metric: MetricTensor
    christoffel: ChristoffelSymbols
    force: np.ndarray
    hessian: CovariantHessian


def _metric_jacobian(jac: np.ndarray, second: np.ndarray) -> np.ndarray:
    """d g_ij / d u^k of g = Dpsi^T Dpsi from the parameterization's derivatives."""
    # dg[i,j,k] = sum_c (d2 psi_c / du_k du_i) (d psi_c / du_j) + (i <-> j)
    term = np.einsum("cki,cj->ijk", second, jac)
    return term + term.transpose(1, 0, 2)


class GeometryField:
    """Metric, connection, force, and covariant Hessian over a learned chart.

    Built from two regressors with ``predict_with_derivatives``: the
    parameterization ``psi`` (chart -> ambient) and ``chart_force`` (ambient
    point -> chart components of the force). :meth:`evaluate` derives every
    geometric quantity analytically from one order-2 prediction of psi and
    one order-1 prediction of the chart force at psi(u); the force Jacobian
    is composed by the chain rule.

    All outputs are pure functions of u; instances hold no mutable state.
    """

    def __init__(self, psi, chart_force):
        self.psi = psi
        self.chart_force = chart_force

    def evaluate(self, u: np.ndarray) -> ChartGeometry:
        x_amb, jac_psi, second = self.psi.predict_with_derivatives(u, order=2)
        g = metric_from_jacobian(jac_psi)
        dg = _metric_jacobian(jac_psi, second)
        gamma = christoffel(lambda _: g, u, metric_jacobian=lambda _: dg)
        y, jac_amb, _ = self.chart_force.predict_with_derivatives(x_amb, order=1)
        hess = covariant_hessian_from_force(
            None, gamma, g, u, force_jacobian=jac_amb @ jac_psi, force_value=y
        )
        return ChartGeometry(ambient=x_amb, metric=g, christoffel=gamma, force=y, hessian=hess)

    # single-quantity views for tests and callers that need one tensor;
    # perfbench/worker.py also looks these names up to trace them
    def ambient(self, u: np.ndarray) -> np.ndarray:
        return self.evaluate(u).ambient

    def metric(self, u: np.ndarray) -> MetricTensor:
        return self.evaluate(u).metric

    def metric_jacobian(self, u: np.ndarray) -> np.ndarray:
        _, jac, second = self.psi.predict_with_derivatives(u, order=2)
        return _metric_jacobian(jac, second)

    def christoffel(self, u: np.ndarray) -> ChristoffelSymbols:
        return self.evaluate(u).christoffel

    def force(self, u: np.ndarray) -> np.ndarray:
        return self.evaluate(u).force

    def covariant_hessian(self, u: np.ndarray) -> CovariantHessian:
        return self.evaluate(u).hessian
