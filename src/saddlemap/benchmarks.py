"""The two benchmark problems with closed-form oracles.

* energy x1*x2*x3 constrained to the unit sphere, with the stereographic
  chart (projection from the North pole to the tangent plane at the South
  pole) and every geometric quantity in closed form;
* the Mueller-Brown potential carried on the graph of a trigonometric
  surface, with Newton oracles for its critical points.

The closed forms double as the reference implementation the learned-chart
pipeline is validated against.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .driver import ProblemDefinition
from .geometry import ChartGeometry, MetricTensor


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row pair, bit for bit the 1-D ``a[i] @ b[i]``.

    Stacked matmul calls the same BLAS ``ddot`` per row; ``einsum`` and
    ``(a * b).sum(axis=-1)`` round differently.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bit for bit the 1-D ``np.linalg.norm``."""
    return np.sqrt(_row_dots(a, a))


# ---------------------------------------------------------------------------
# sphere with E = x1 x2 x3
# ---------------------------------------------------------------------------
# Every problem function below takes one point (n,) or a stack of rows
# (k, n), and row i of a stacked result is bit for bit the result at row i.


def sphere_energy(x: np.ndarray) -> np.ndarray:
    return x[..., 0] * x[..., 1] * x[..., 2]


def sphere_energy_gradient(x: np.ndarray) -> np.ndarray:
    return np.stack([x[..., 1] * x[..., 2], x[..., 0] * x[..., 2], x[..., 0] * x[..., 1]], axis=-1)


def sphere_energy_hessian(x: np.ndarray) -> np.ndarray:
    zero = np.zeros_like(x[..., 0])
    return np.stack([
        np.stack([zero, x[..., 2], x[..., 1]], axis=-1),
        np.stack([x[..., 2], zero, x[..., 0]], axis=-1),
        np.stack([x[..., 1], x[..., 0], zero], axis=-1),
    ], axis=-2)


def sphere_project(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x / _row_norms(x)[..., None]


def sphere_force(x: np.ndarray) -> np.ndarray:
    """Tangential negative gradient -(I - x x^T) grad E on the unit sphere."""
    x = np.asarray(x, dtype=float)
    grad = sphere_energy_gradient(x)
    return -(grad - _row_dots(x, grad)[..., None] * x)


class StereographicSphereChart:
    """Closed-form chart machinery of the sphere benchmark.

    Chart map phi(x) = (x1, x2) / (1 - x3); everything downstream of the
    parameterization (metric, connection, gradient, Hessian) in the exact
    algebraic form. Has the four chart methods the driver calls (``to_chart``,
    ``evaluate``, ``outside``, ``to_ambient``), so it can run in oracle mode;
    the chart covers all of the sphere but the North pole, so nothing is outside.
    """

    def phi(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.array([x[0], x[1]]) / (1.0 - x[2])

    to_chart = phi

    def outside(self, x: np.ndarray) -> bool:
        return False

    def to_ambient(self, problem: ProblemDefinition, u: np.ndarray) -> np.ndarray:
        return problem.project(self.psi(u))

    def psi(self, u: np.ndarray) -> np.ndarray:
        u1, u2 = u
        s = u1 * u1 + u2 * u2
        return np.array([2.0 * u1, 2.0 * u2, s - 1.0]) / (1.0 + s)

    def psi_jacobian(self, u: np.ndarray) -> np.ndarray:
        u1, u2 = u
        s = u1 * u1 + u2 * u2
        den = (1.0 + s) ** 2
        return np.array([
            [2.0 * (1.0 + s) - 4.0 * u1 * u1, -4.0 * u1 * u2],
            [-4.0 * u1 * u2, 2.0 * (1.0 + s) - 4.0 * u2 * u2],
            [4.0 * u1, 4.0 * u2],
        ]) / den

    def metric(self, u: np.ndarray) -> MetricTensor:
        s = float(u @ u)
        lam = 4.0 / (1.0 + s) ** 2
        return MetricTensor(g=lam * np.eye(2), g_inv=np.eye(2) / lam)

    def metric_jacobian(self, u: np.ndarray) -> np.ndarray:
        """d g_ij / d u^k for the conformal factor 4 / (1 + |u|^2)^2."""
        s = float(u @ u)
        dlam = -16.0 * np.asarray(u) / (1.0 + s) ** 3
        dg = np.zeros((2, 2, 2))
        for k in range(2):
            dg[:, :, k] = dlam[k] * np.eye(2)
        return dg

    def christoffel(self, u: np.ndarray) -> np.ndarray:
        u1, u2 = u
        c = -2.0 / (1.0 + u1 * u1 + u2 * u2)
        g111 = c * u1
        g112 = c * u2
        gamma = np.zeros((2, 2, 2))
        gamma[0, 0, 0] = g111
        gamma[0, 0, 1] = gamma[0, 1, 0] = g112
        gamma[0, 1, 1] = -g111
        gamma[1, 0, 0] = -g112
        gamma[1, 0, 1] = gamma[1, 1, 0] = g111
        gamma[1, 1, 1] = g112
        return gamma

    def potential(self, u: np.ndarray) -> float:
        u1, u2 = u
        s = u1 * u1 + u2 * u2
        return 4.0 * u1 * u2 * (s - 1.0) / (1.0 + s) ** 3

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """Riemannian gradient of the chart potential (closed form)."""
        u1, u2 = u
        den = u2 ** 4 + (2.0 * u1 ** 2 + 2.0) * u2 ** 2 + u1 ** 4 + 2.0 * u1 ** 2 + 1.0
        g1 = (u2 ** 5 - 2.0 * u1 ** 2 * u2 ** 3 + (-3.0 * u1 ** 4 + 8.0 * u1 ** 2 - 1.0) * u2) / den
        g2 = -(3.0 * u1 * u2 ** 4 + (2.0 * u1 ** 3 - 8.0 * u1) * u2 ** 2 - u1 ** 5 + u1) / den
        return np.array([g1, g2])

    def force(self, u: np.ndarray) -> np.ndarray:
        return -self.gradient(u)

    def hessian_mixed(self, u: np.ndarray) -> np.ndarray:
        """(1,1) covariant Hessian components [[A, B], [B, D]]."""
        u1, u2 = u
        den = (u2 ** 2 + u1 ** 2 + 1.0) ** 3
        a = -(4.0 * u1 * u2 * (u2 ** 4 + u2 ** 2 - u1 ** 4 + 11.0 * u1 ** 2 - 6.0)) / den
        b = -(u2 ** 6 - 5.0 * u1 ** 2 * u2 ** 4 - 5.0 * u2 ** 4 - 5.0 * u1 ** 4 * u2 ** 2
              + 30.0 * u1 ** 2 * u2 ** 2 - 5.0 * u2 ** 2 + u1 ** 6 - 5.0 * u1 ** 4
              - 5.0 * u1 ** 2 + 1.0) / den
        d = (4.0 * u1 * u2 * (u2 ** 4 - 11.0 * u2 ** 2 - u1 ** 4 - u1 ** 2 + 6.0)) / den
        return np.array([[a, b], [b, d]])

    def covariant_hessian(self, u: np.ndarray, g: MetricTensor) -> np.ndarray:
        """(0,2) covariant Hessian, symmetrized like the learned chart's."""
        h = g.g @ self.hessian_mixed(u)
        return 0.5 * (h + h.T)

    def evaluate(self, u: np.ndarray) -> ChartGeometry:
        """Every quantity an integration step needs, from the closed forms."""
        u = np.asarray(u, dtype=float)
        g = self.metric(u)
        return ChartGeometry(
            ambient=self.psi(u),
            metric=g,
            force=self.force(u),
            hessian=self.covariant_hessian(u, g),
        )


def sphere_problem() -> ProblemDefinition:
    return ProblemDefinition(
        ambient_dim=3,
        energy=sphere_energy,
        force=sphere_force,
        project=sphere_project,
        exact_chart=StereographicSphereChart(),
    )


# ---------------------------------------------------------------------------
# Mueller-Brown potential on a trigonometric graph surface
# ---------------------------------------------------------------------------

MB_A = np.array([-200.0, -100.0, -170.0, 15.0])
MB_a = np.array([-1.0, -1.0, -6.5, 0.7])
MB_b = np.array([0.0, 0.0, 11.0, 0.6])
MB_c = np.array([-10.0, -10.0, -6.5, 0.7])
MB_X0 = np.array([1.0, 0.0, -0.5, -1.0])
MB_Y0 = np.array([0.0, 0.5, 1.5, 1.0])

# (k1, k2, a, b) rows of the surface height function
SURFACE_COEFFS = np.array([
    [0.0, 1.0, 0.9490, 0.8838],
    [0.0, 2.0, 0.4575, 0.6564],
    [1.0, 0.0, 0.4152, 0.7449],
    [1.0, 2.0, 0.2911, 0.3619],
    [2.0, 0.0, 0.4121, 0.5469],
    [3.0, 2.0, 0.2817, 0.4719],
])


def _mb_terms(p: np.ndarray):
    """Offsets from the four Mueller-Brown centres and the weighted exponentials."""
    dx = p[..., :1] - MB_X0
    dy = p[..., 1:2] - MB_Y0
    return dx, dy, MB_A * np.exp(MB_a * dx * dx + MB_b * dx * dy + MB_c * dy * dy)


# a 4- or 6-term np.sum adds in order, on one point as on each row
def mb_potential(p: np.ndarray) -> np.ndarray:
    return np.sum(_mb_terms(p)[2], axis=-1)


def mb_gradient(p: np.ndarray) -> np.ndarray:
    dx, dy, e = _mb_terms(p)
    return np.stack([
        np.sum(e * (2.0 * MB_a * dx + MB_b * dy), axis=-1),
        np.sum(e * (MB_b * dx + 2.0 * MB_c * dy), axis=-1),
    ], axis=-1)


def mb_hessian(p: np.ndarray) -> np.ndarray:
    dx, dy, e = _mb_terms(p)
    gx = 2.0 * MB_a * dx + MB_b * dy
    gy = MB_b * dx + 2.0 * MB_c * dy
    hxx = np.sum(e * (gx * gx + 2.0 * MB_a), axis=-1)
    hxy = np.sum(e * (gx * gy + MB_b), axis=-1)
    hyy = np.sum(e * (gy * gy + 2.0 * MB_c), axis=-1)
    return np.stack([np.stack([hxx, hxy], axis=-1), np.stack([hxy, hyy], axis=-1)], axis=-2)


def surface_height(p: np.ndarray) -> np.ndarray:
    k1, k2, a, b = SURFACE_COEFFS.T
    return np.sum(a * np.cos(k1 * p[..., :1] + k2 * p[..., 1:2] + b), axis=-1)


def surface_height_gradient(p: np.ndarray) -> np.ndarray:
    k1, k2, a, b = SURFACE_COEFFS.T
    s = -a * np.sin(k1 * p[..., :1] + k2 * p[..., 1:2] + b)
    return np.stack([np.sum(s * k1, axis=-1), np.sum(s * k2, axis=-1)], axis=-1)


def surface_lift(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)[..., :2]
    return np.concatenate([p, surface_height(p)[..., None]], axis=-1)


def surface_project(x: np.ndarray) -> np.ndarray:
    """Vertical lift onto the graph: replace x3 by f(x1, x2)."""
    return surface_lift(x)


def surface_energy(x: np.ndarray) -> np.ndarray:
    return mb_potential(np.asarray(x, dtype=float)[..., :2])


def surface_force(x: np.ndarray) -> np.ndarray:
    """Ambient tangent representation of -grad_g MB, g = I + grad_f grad_f^T."""
    p = np.asarray(x, dtype=float)[..., :2]
    grad_f = surface_height_gradient(p)
    g = np.eye(2) + grad_f[..., :, None] * grad_f[..., None, :]
    du = -np.linalg.solve(g, mb_gradient(p)[..., None])[..., 0]
    return np.concatenate([du, _row_dots(grad_f, du)[..., None]], axis=-1)


def surface_problem() -> ProblemDefinition:
    return ProblemDefinition(
        ambient_dim=3,
        energy=surface_energy,
        force=surface_force,
        project=surface_project,
        exact_chart=None,
    )


# ---------------------------------------------------------------------------
# critical-point oracles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalPointReport:
    """Critical points with Morse indices and first-order residuals."""

    points: np.ndarray     # (k, n) ambient coordinates
    indices: np.ndarray    # (k,) number of negative tangential Hessian eigenvalues
    residuals: np.ndarray  # (k,) first-order condition norms

    def to_json(self) -> str:
        return json.dumps(
            {
                "points": self.points.tolist(),
                "indices": self.indices.tolist(),
                "residuals": self.residuals.tolist(),
            },
            indent=2,
        )

    def saddles(self) -> np.ndarray:
        return self.points[self.indices == 1]

    def minima(self) -> np.ndarray:
        return self.points[self.indices == 0]


def _fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic quasi-uniform seeds on the unit sphere."""
    i = np.arange(n) + 0.5
    phi_angle = np.arccos(1.0 - 2.0 * i / n)
    theta = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.column_stack([
        np.cos(theta) * np.sin(phi_angle),
        np.sin(theta) * np.sin(phi_angle),
        np.cos(phi_angle),
    ])


def _batched_newton(z, system, tol: float, radius: float, n_space: int):
    """Newton's method on every row of ``z`` at once, 80 iterations at most.

    ``system(z)`` returns the residuals (k, m) and Jacobians (k, m, m) of k
    rows. Each row takes the steps the one-seed loop would take: it stops once
    its residual norm is below ``tol``, and it is dropped when its Jacobian is
    singular or its step leaves the finite ball of ``radius`` in the first
    ``n_space`` coordinates. A row that uses every iteration is kept, for the
    caller's residual test to judge. Dropped rows are never evaluated again.
    Returns the final values of the rows kept, in row order.
    """
    z = np.array(z, dtype=float)
    kept = np.ones(len(z), dtype=bool)
    active = np.arange(len(z))
    for _ in range(80):
        f, jac = system(z[active])
        moving = _row_norms(f) >= tol
        active, f, jac = active[moving], f[moving], jac[moving]
        if not len(active):
            break
        try:
            step = np.linalg.solve(jac, f[:, :, None])[:, :, 0]
            solved = np.ones(len(active), dtype=bool)
        except np.linalg.LinAlgError:
            # a singular matrix fails the whole stack: solve row by row once
            step = np.zeros_like(f)
            solved = np.zeros(len(active), dtype=bool)
            for i in range(len(active)):
                try:
                    step[i] = np.linalg.solve(jac[i], f[i])
                    solved[i] = True
                except np.linalg.LinAlgError:
                    pass
        z_new = z[active] - step
        stays = solved & np.all(np.isfinite(z_new), axis=1)
        stays[stays] = _row_norms(z_new[stays, :n_space]) <= radius
        z[active[stays]] = z_new[stays]
        kept[active[~stays]] = False
        active = active[stays]
    return z[kept]


def _first_found(points: np.ndarray) -> np.ndarray:
    """Rows no closer than 1e-6 to any row kept before them, in row order."""
    keep = []
    covered = np.zeros(len(points), dtype=bool)
    while not covered.all():
        i = int(np.argmin(covered))
        keep.append(i)
        covered |= _row_norms(points - points[i]) < 1e-6
    return points[keep]


def _sphere_lagrange_system(z: np.ndarray):
    """F(x, lambda) = (grad E - lambda x, (|x|^2 - 1) / 2) and its Jacobian, per row."""
    x, lam = z[:, :3], z[:, 3]
    f = np.column_stack([sphere_energy_gradient(x) - lam[:, None] * x, 0.5 * (_row_dots(x, x) - 1.0)])
    jac = np.zeros((len(z), 4, 4))
    jac[:, :3, :3] = sphere_energy_hessian(x) - lam[:, None, None] * np.eye(3)
    jac[:, :3, 3] = -x
    jac[:, 3, :3] = x
    return f, jac


def _sphere_newton(seeds: np.ndarray):
    """Batched Newton on F from (seed, seed . grad E(seed)): the (x, lambda) rows kept."""
    z = np.column_stack([seeds, _row_dots(seeds, sphere_energy_gradient(seeds))])
    return _batched_newton(z, _sphere_lagrange_system, tol=1e-14, radius=5.0, n_space=3)


def sphere_critical_points(n_seeds: int = 10_000) -> CriticalPointReport:
    """Solve the Lagrange condition grad E = lambda x by seeded Newton.

    Newton runs on F(x, lambda) = (grad E - lambda x, (|x|^2 - 1) / 2), batched
    over all seeds; every seed is judged as a lone Newton loop would judge it.
    Converged roots are deduplicated at 1e-6 in seed order and classified by
    the spectrum of the tangential Hessian P (hess E - lambda I) P.
    """
    z = _sphere_newton(_fibonacci_sphere(n_seeds))
    f, _ = _sphere_lagrange_system(z)
    x = z[:, :3]
    converged = (_row_norms(f[:, :3]) <= 1e-10) & (np.abs(_row_dots(x, x) - 1.0) <= 1e-12)
    found = _first_found(x[converged])
    if not len(found):
        raise RuntimeError("Newton found no critical points on the sphere")

    x = np.array(sorted(found, key=lambda p: (round(p[0], 9), round(p[1], 9), round(p[2], 9))))
    lam = _row_dots(x, sphere_energy_gradient(x))
    proj = np.eye(3) - x[:, :, None] * x[:, None, :]
    w, vecs = np.linalg.eigh(proj @ (sphere_energy_hessian(x) - lam[:, None, None] * np.eye(3)) @ proj)
    # the projector contributes a spurious eigenpair along each point itself
    tangential = np.abs(np.matmul(x[:, None, :], vecs)[:, 0, :]) < 0.5
    return CriticalPointReport(
        points=x,
        indices=np.sum(tangential & (w < 0.0), axis=1),
        residuals=_row_norms(sphere_force(x)),
    )


def _mb_newton(seeds: np.ndarray) -> np.ndarray:
    """Batched Newton on grad MB = 0 from (x, y) seeds: the rows kept."""
    return _batched_newton(seeds, lambda p: (mb_gradient(p), mb_hessian(p)),
                           tol=1e-13, radius=10.0, n_space=2)


def mb_surface_critical_points() -> CriticalPointReport:
    """Newton on grad MB = 0 from a grid over [-1.5, 1] x [-0.5, 2], lifted to the surface.

    The 32 x 32 seeds run as one batch; every seed is judged as a lone Newton
    loop would judge it, and roots are deduplicated at 1e-6 in grid order.
    """
    xs, ys = np.meshgrid(np.linspace(-1.5, 1.0, 32), np.linspace(-0.5, 2.0, 32), indexing="ij")
    p = _mb_newton(np.column_stack([xs.ravel(), ys.ravel()]))
    inside = ((_row_norms(mb_gradient(p)) <= 1e-10)
              & (-1.6 <= p[:, 0]) & (p[:, 0] <= 1.1) & (-0.6 <= p[:, 1]) & (p[:, 1] <= 2.1))
    found = _first_found(p[inside])
    if not len(found):
        raise RuntimeError("Newton found no Mueller-Brown critical points")
    p = np.array(sorted(found, key=lambda q: (round(q[0], 9), round(q[1], 9))))
    return CriticalPointReport(
        points=surface_lift(p),
        indices=np.sum(np.linalg.eigvalsh(mb_hessian(p)) < 0.0, axis=1),
        residuals=_row_norms(mb_gradient(p)),
    )


def sphere_start_point(report: CriticalPointReport | None = None) -> np.ndarray:
    """Starting sink: the minimum nearest the (1, 1, -1)/sqrt(3) octant."""
    if report is None:
        report = sphere_critical_points()
    target = np.array([1.0, 1.0, -1.0]) / np.sqrt(3.0)
    minima = report.minima()
    return minima[np.argmin(np.linalg.norm(minima - target, axis=1))]


def sphere_search_start(report: CriticalPointReport | None = None) -> np.ndarray:
    """Reactant of the sphere search: the starting sink moved 0.2 along the
    e1 tangent, then projected back onto the sphere.

    The search cannot start at the sink itself: the force vanishes there and
    the covariant Hessian is isotropic, so gentlest ascent has no field and
    no softest mode to leave by.
    """
    sink = sphere_start_point(report)
    tangent = np.array([1.0, 0.0, 0.0]) - sink[0] * sink
    tangent /= np.linalg.norm(tangent)
    return sphere_project(sink + 0.2 * tangent)


def mb_start_point(report: CriticalPointReport | None = None) -> np.ndarray:
    """Starting sink of the surface run: the rightmost minimum.

    This is the one whose unstable-mode path actually terminates at its
    nearest saddle; from the other minima the ascent path crosses to a
    farther saddle.
    """
    if report is None:
        report = mb_surface_critical_points()
    minima = report.minima()
    return minima[np.argmax(minima[:, 0])]
