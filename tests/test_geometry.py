import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from saddlemap import benchmarks
from saddlemap.errors import DegenerateChartError
from saddlemap.geometry import (
    CovariantHessian,
    GADState,
    MetricTensor,
    christoffel,
    covariant_hessian_from_force,
    gad_extended_field,
    isd_field,
    metric_from_jacobian,
    rayleigh_quotient,
    sharp_flat,
    smallest_eigpair,
)

from conftest import random_spd

CHART = benchmarks.StereographicSphereChart()


def metric_tensor(g):
    g = np.asarray(g, dtype=float)
    return MetricTensor(g=g, g_inv=np.linalg.inv(g))


class TestRayleighQuotient:
    def test_eigenvector_case(self):
        assert rayleigh_quotient(np.diag([2.0, -1.0]), np.array([0.0, 1.0])) == -1.0

    def test_arithmetic(self):
        assert rayleigh_quotient(np.diag([2.0, -1.0]), np.array([1.0, 1.0])) == pytest.approx(0.5)

    def test_scale_invariance(self):
        assert rayleigh_quotient(np.diag([2.0, -1.0]), np.array([2.0, 2.0])) == pytest.approx(0.5)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            rayleigh_quotient(np.eye(2), np.zeros(2))

    def test_generalized_eigenvalue(self, rng):
        g = metric_tensor(random_spd(rng, 3))
        h = random_spd(rng, 3, scale=0.1) - 2.0 * np.eye(3)
        w, vecs = np.linalg.eigh(np.linalg.solve(g.g, h))
        # eigh of non-symmetric product is wrong; use scipy-style generalized
        import scipy.linalg
        w, vecs = scipy.linalg.eigh(h, g.g)
        for k in range(3):
            assert rayleigh_quotient(h, vecs[:, k], g) == pytest.approx(w[k], abs=1e-10)


def quad_grad(x):
    return np.array([2.0 * x[0], -2.0 * x[1]])


def quad_hess(x):
    return np.diag([2.0, -2.0])


class TestGADField:
    def test_off_axis_point(self):
        dx, dv = gad_extended_field(
            GADState(np.array([1.0, 1.0]), np.array([0.0, 1.0])), quad_grad, quad_hess
        )
        assert np.allclose(dx, [-2.0, -2.0])
        assert np.allclose(dv, [0.0, 0.0])

    def test_critical_point(self):
        dx, dv = gad_extended_field(
            GADState(np.zeros(2), np.array([0.0, 1.0])), quad_grad, quad_hess
        )
        assert np.allclose(dx, [0.0, 0.0])

    def test_stable_direction(self):
        dx, dv = gad_extended_field(
            GADState(np.array([1.0, 0.0]), np.array([1.0, 0.0])), quad_grad, quad_hess
        )
        assert np.allclose(dx, [2.0, 0.0])
        assert np.allclose(dv, [0.0, 0.0])


class TestMetricFromJacobian:
    def test_stereographic_origin(self):
        g = metric_from_jacobian(CHART.psi_jacobian(np.zeros(2)))
        assert np.allclose(g.g, np.diag([4.0, 4.0]), atol=1e-12)

    def test_identity_parameterization(self):
        g = metric_from_jacobian(np.eye(3))
        assert np.allclose(g.g, np.eye(3))

    def test_graph_chart_fd_oracle(self, rng):
        # oracle: finite-difference Jacobian of psi(u) = (u1, u2, f(u))
        def f(u):
            return np.sin(u[0]) * np.cos(2.0 * u[1])

        def psi(u):
            return np.array([u[0], u[1], f(u)])

        u = rng.uniform(-1, 1, 2)
        h = 1e-6
        jac_fd = np.column_stack([
            (psi(u + h * e) - psi(u - h * e)) / (2 * h) for e in np.eye(2)
        ])
        g = metric_from_jacobian(jac_fd)
        grad_f = np.array([
            np.cos(u[0]) * np.cos(2 * u[1]),
            -2.0 * np.sin(u[0]) * np.sin(2 * u[1]),
        ])
        assert np.allclose(g.g, np.eye(2) + np.outer(grad_f, grad_f), atol=1e-5)

    def test_rank_deficient_rejected(self):
        jac = np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])
        with pytest.raises(DegenerateChartError):
            metric_from_jacobian(jac)

    def test_spd_output(self, rng):
        for _ in range(20):
            jac = rng.standard_normal((4, 2))
            try:
                g = metric_from_jacobian(jac)
            except DegenerateChartError:
                continue
            assert np.linalg.eigvalsh(g.g)[0] > 0.0


class TestChristoffel:
    def test_euclidean_zero(self):
        flat = lambda u: metric_tensor(np.eye(2))
        out = christoffel(flat, np.array([0.3, -0.7]))
        assert np.max(np.abs(out.gamma)) < 1e-12

    def test_example_value_at_1_0(self):
        out = christoffel(CHART.metric, np.array([1.0, 0.0]), fd_step=1e-6)
        assert out.gamma[0, 0, 0] == pytest.approx(-1.0, abs=1e-8)

    def test_matches_closed_forms(self, rng):
        # oracle: the closed-form symbols of the stereographic chart
        for _ in range(10):
            u = rng.uniform(-1.4, 1.4, 2)
            out = christoffel(CHART.metric, u, fd_step=1e-6)
            assert np.allclose(out.gamma, out.gamma.transpose(0, 2, 1))
            assert np.max(np.abs(out.gamma - CHART.christoffel(u).gamma)) < 1e-6

    def test_analytic_path_matches_fd(self, rng):
        for _ in range(20):
            u = rng.uniform(-2, 2, 2)
            if np.linalg.norm(u) >= 2.0:
                u *= 0.9 * 2.0 / np.linalg.norm(u)
            fd = christoffel(CHART.metric, u, fd_step=1e-5)
            analytic = christoffel(CHART.metric, u, metric_jacobian=CHART.metric_jacobian)
            assert np.max(np.abs(fd.gamma - analytic.gamma)) < 5e-6


class TestEvaluate:
    """``evaluate`` is the free-function composition, bit for bit."""

    def test_learned_chart_matches_free_functions(self):
        from saddlemap.driver import DriverConfig, build_local_chart
        from saddlemap.sampling import SamplerConfig

        base = benchmarks.sphere_project(np.array([1.0, 1.0, -1.0]))
        cfg = DriverConfig(sampler=SamplerConfig(n_samples=500, perturbation_scale=0.15), seed=0)
        local = build_local_chart(benchmarks.sphere_problem(), base, cfg)
        psi, chart_force = local.chart.psi, local.geometry.chart_force
        for q in local.cloud.points[::50]:
            u = local.chart.phi.predict(q)
            x_amb, jac, second = psi.predict_with_derivatives(u, order=2)
            g = metric_from_jacobian(jac)
            term = np.einsum("cki,cj->ijk", second, jac)
            gamma = christoffel(lambda _: g, u, metric_jacobian=lambda _: term + term.transpose(1, 0, 2))
            # the force side as composed before evaluate existed: an order-1 psi call
            x_1, jac_1, _ = psi.predict_with_derivatives(u, order=1)
            y, jac_amb, _ = chart_force.predict_with_derivatives(x_1, order=1)
            hess = covariant_hessian_from_force(
                None, gamma, g, u, force_jacobian=jac_amb @ jac_1, force_value=y
            )
            geo = local.geometry.evaluate(u)
            assert np.array_equal(geo.ambient, x_amb)
            assert np.array_equal(geo.metric.g, g.g)
            assert np.array_equal(geo.metric.g_inv, g.g_inv)
            assert np.array_equal(geo.christoffel.gamma, gamma.gamma)
            assert np.array_equal(geo.force, y)
            assert np.array_equal(geo.hessian.h_lower, hess.h_lower)
            assert np.array_equal(geo.hessian.h_mixed, hess.h_mixed)

    def test_exact_chart_matches_closed_forms(self, rng):
        for _ in range(10):
            u = rng.uniform(-2, 2, 2)
            geo = CHART.evaluate(u)
            assert np.array_equal(geo.ambient, CHART.psi(u))
            assert np.array_equal(geo.metric.g, CHART.metric(u).g)
            assert np.array_equal(geo.metric.g_inv, CHART.metric(u).g_inv)
            assert np.array_equal(geo.christoffel.gamma, CHART.christoffel(u).gamma)
            assert np.array_equal(geo.force, CHART.force(u))
            assert np.array_equal(geo.hessian.h_lower, CHART.covariant_hessian(u).h_lower)
            assert np.array_equal(geo.hessian.h_mixed, CHART.covariant_hessian(u).h_mixed)


class TestSharpFlat:
    def test_polar_gradient(self):
        g = metric_tensor(np.diag([1.0, 4.0]))  # polar metric at r = 2
        out = sharp_flat(np.array([0.0, 1.0]), g, "sharp")
        assert np.allclose(out, [0.0, 0.25])

    def test_identity_metric(self, rng):
        g = metric_tensor(np.eye(3))
        v = rng.standard_normal(3)
        assert np.allclose(sharp_flat(v, g, "sharp"), v)

    def test_inverse_pair(self, rng):
        for _ in range(20):
            g = metric_tensor(random_spd(rng, 3))
            v = rng.standard_normal(3)
            back = sharp_flat(sharp_flat(v, g, "sharp"), g, "flat")
            assert np.max(np.abs(back - v)) < 1e-10


class TestCovariantHessian:
    def test_example_origin(self):
        u = np.zeros(2)
        out = covariant_hessian_from_force(
            CHART.force, CHART.christoffel(u), CHART.metric(u), u, fd_step=1e-6
        )
        assert np.allclose(out.h_mixed, [[0.0, -1.0], [-1.0, 0.0]], atol=1e-9)

    def test_flat_quadratic(self):
        def force(u):
            return np.array([-2.0 * u[0], 2.0 * u[1]])

        g = metric_tensor(np.eye(2))
        gamma = christoffel(lambda u: g, np.zeros(2))
        out = covariant_hessian_from_force(force, gamma, g, np.array([0.4, 0.1]))
        assert np.allclose(out.h_mixed, np.diag([2.0, -2.0]), atol=1e-8)

    def test_scalar_field_oracle(self, rng):
        # oracle: d_j d_k (U o psi) - Gamma^l_jk d_l (U o psi) via finite differences
        for _ in range(5):
            u = rng.uniform(-1.2, 1.2, 2)
            g = CHART.metric(u)
            gamma = CHART.christoffel(u)
            out = covariant_hessian_from_force(CHART.force, gamma, g, u, fd_step=1e-5)
            h = 1e-5
            d2 = np.zeros((2, 2))
            for j in range(2):
                for k in range(2):
                    ej, ek = np.eye(2)[j] * h, np.eye(2)[k] * h
                    d2[j, k] = (
                        CHART.potential(u + ej + ek)
                        - CHART.potential(u + ej - ek)
                        - CHART.potential(u - ej + ek)
                        + CHART.potential(u - ej - ek)
                    ) / (4 * h * h)
            du = np.array([
                (CHART.potential(u + np.eye(2)[l] * h) - CHART.potential(u - np.eye(2)[l] * h)) / (2 * h)
                for l in range(2)
            ])
            oracle = d2 - np.einsum("ljk,l->jk", gamma.gamma, du)
            assert np.allclose(out.h_lower, out.h_lower.T)
            assert np.max(np.abs(out.h_lower - oracle)) < 1e-5


class TestSmallestEigpair:
    def test_euclidean_diagonal(self):
        h = covariant_hessian_from_force(
            lambda u: np.zeros(2), christoffel(lambda u: metric_tensor(np.eye(2)), np.zeros(2)),
            metric_tensor(np.eye(2)), np.zeros(2),
            force_jacobian=np.diag([-3.0, 2.0]),
        )
        lam, v, spectrum = smallest_eigpair(h, metric_tensor(np.eye(2)))
        assert lam == pytest.approx(-2.0)
        assert np.allclose(np.abs(v), [0.0, 1.0], atol=1e-12)
        assert np.allclose(spectrum, [-2.0, 3.0])

    def test_example_origin_generalized(self):
        # oracle: generalized eigensolve of the closed-form tensors
        g = metric_tensor(np.diag([4.0, 4.0]))
        hess = CHART.covariant_hessian(np.zeros(2))
        lam, v, spectrum = smallest_eigpair(hess, g)
        assert lam == pytest.approx(-1.0, abs=1e-12)
        assert np.allclose(np.abs(v), np.ones(2) / (2.0 * np.sqrt(2.0)), atol=1e-12)

    def test_g_normalization(self, rng):
        for _ in range(10):
            g = metric_tensor(random_spd(rng, 3))
            a = rng.standard_normal((3, 3))
            h_lower = a + a.T
            from saddlemap.geometry import CovariantHessian
            hess = CovariantHessian(h_lower=h_lower, h_mixed=g.g_inv @ h_lower)
            lam, v, spectrum = smallest_eigpair(hess, g)
            assert abs(g.inner(v, v) - 1.0) < 1e-10
            assert rayleigh_quotient(h_lower, v, g) == pytest.approx(lam, abs=1e-10)

    def test_sign_continuity(self):
        g = metric_tensor(np.eye(2))
        from saddlemap.geometry import CovariantHessian
        hess = CovariantHessian(h_lower=np.diag([-1.0, 1.0]), h_mixed=np.diag([-1.0, 1.0]))
        _, v_prev, _ = smallest_eigpair(hess, g)
        _, v_flip, _ = smallest_eigpair(hess, g, prev_v=-v_prev)
        assert np.allclose(v_flip, -v_prev)


class TestISDField:
    def test_quadratic_chart(self):
        g = metric_tensor(np.eye(2))
        out = isd_field(np.array([-2.0, 2.0]), np.array([0.0, 1.0]), g)
        assert np.allclose(out, [-2.0, -2.0])

    def test_orthogonal_force_unchanged(self, rng):
        g = metric_tensor(random_spd(rng, 2))
        v = rng.standard_normal(2)
        v = v / g.norm(v)
        x = rng.standard_normal(2)
        x = x - g.inner(v, x) * v  # g-orthogonalize
        assert np.allclose(isd_field(x, v, g), x, atol=1e-12)

    def test_parallel_force_negated(self):
        g = metric_tensor(np.eye(2))
        v = np.array([1.0, 0.0])
        assert np.allclose(isd_field(3.0 * v, v, g), -3.0 * v)

    def test_equilibrium_preserved(self, rng):
        g = metric_tensor(random_spd(rng, 2))
        v = rng.standard_normal(2)
        v = v / g.norm(v)
        out = isd_field(np.zeros(2), v, g)
        assert np.all(out == 0.0)

    def test_rejects_unnormalized_direction(self):
        g = metric_tensor(np.eye(2))
        with pytest.raises(ValueError):
            isd_field(np.ones(2), np.array([2.0, 0.0]), g)

    def test_saddle_becomes_sink(self):
        # linearization of the reflected quadratic-model field at the origin
        def field(u):
            g = metric_tensor(np.eye(2))
            y = np.array([-2.0 * u[0], 2.0 * u[1]])
            v = np.array([0.0, 1.0])  # soft mode of diag(2, -2)
            return isd_field(y, v, g)

        h = 1e-6
        jac = np.column_stack([
            (field(h * e) - field(-h * e)) / (2 * h) for e in np.eye(2)
        ])
        assert np.all(np.linalg.eigvals(jac).real < 0.0)


@st.composite
def reflection_cases(draw):
    """A random SPD metric g (g >= I), a g-unit vector v and a vector w."""
    d = draw(st.integers(1, 4))
    entries = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    a = draw(arrays(np.float64, (d, d), elements=entries))
    g = metric_tensor(a @ a.T + np.eye(d))
    v = draw(arrays(np.float64, d, elements=entries).filter(lambda x: np.linalg.norm(x) > 1e-2))
    w = draw(arrays(np.float64, d, elements=entries))
    return g, v / g.norm(v), w


class TestISDReflectionProperties:
    """isd_field is the g-orthogonal reflection across the soft mode v."""

    @settings(max_examples=200, deadline=None)
    @given(reflection_cases())
    def test_isometry_and_involution(self, case):
        g, v, w = case
        hw = isd_field(w, v, g)
        scale = 1.0 + g.norm(w)
        assert abs(g.norm(hw) - g.norm(w)) <= 1e-10 * scale
        assert np.max(np.abs(isd_field(hw, v, g) - w)) <= 1e-10 * scale

    @settings(max_examples=200, deadline=None)
    @given(reflection_cases())
    def test_negates_v_and_fixes_complement(self, case):
        g, v, w = case
        assert np.max(np.abs(isd_field(v, v, g) + v)) <= 1e-12
        perp = w - g.inner(v, w) * v
        assert np.max(np.abs(isd_field(perp, v, g) - perp)) <= 1e-10 * (1.0 + g.norm(w))



# entries on a 1e-6 grid: zero or at least 1e-6 in magnitude, so the
# products below stay clear of underflow
grid_entries = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False).map(
    lambda x: round(x, 6)
)


@st.composite
def metric_cases(draw):
    """A random SPD metric g (g >= I) and a metric derivative dg[i, j, k] =
    d g_ij / d u^k, symmetric in i and j."""
    d = draw(st.integers(1, 4))
    a = draw(arrays(np.float64, (d, d), elements=grid_entries))
    raw = draw(arrays(np.float64, (d, d, d), elements=grid_entries))
    return metric_tensor(a @ a.T + np.eye(d)), raw + raw.transpose(1, 0, 2)


@st.composite
def index_one_cases(draw):
    """A random SPD metric g and a symmetric h_lower with one negative
    eigenvalue, eigenvalue magnitudes in [0.1, 10]."""
    d = draw(st.integers(1, 4))
    a = draw(arrays(np.float64, (d, d), elements=grid_entries))
    q, _ = np.linalg.qr(draw(arrays(np.float64, (d, d), elements=grid_entries)))
    mags = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=d, max_size=d)))
    mags[0] = -mags[0]
    return metric_tensor(a @ a.T + np.eye(d)), q @ np.diag(mags) @ q.T


class TestChristoffelProperties:
    """The analytic connection is the Levi-Civita connection of g."""

    @settings(max_examples=200, deadline=None)
    @given(metric_cases())
    def test_lower_index_symmetry(self, case):
        g, dg = case
        gamma = christoffel(lambda _: g, np.zeros(g.dim), metric_jacobian=lambda _: dg).gamma
        assert np.array_equal(gamma, gamma.transpose(0, 2, 1))

    @settings(max_examples=200, deadline=None)
    @given(metric_cases())
    def test_metric_compatibility(self, case):
        # d_k g_ij = g_il Gamma^l_jk + g_jl Gamma^l_ik
        g, dg = case
        gamma = christoffel(lambda _: g, np.zeros(g.dim), metric_jacobian=lambda _: dg).gamma
        lowered = np.einsum("il,ljk->ijk", g.g, gamma)
        rebuilt = lowered + lowered.transpose(1, 0, 2)
        assert np.max(np.abs(rebuilt - dg)) <= 1e-12 * np.max(np.abs(dg))


class TestISDFixedPointProperties:
    """An index-1 saddle of the linearized force is a stable fixed point of
    the reflected field."""

    @settings(max_examples=200, deadline=None)
    @given(index_one_cases())
    def test_saddle_is_stable_fixed_point(self, case):
        g, h_lower = case
        h_mixed = g.g_inv @ h_lower
        _, v, _ = smallest_eigpair(CovariantHessian(h_lower=h_lower, h_mixed=h_mixed), g)
        assert np.all(isd_field(np.zeros(g.dim), v, g) == 0.0)
        # u -> isd_field(-h_mixed u, v, g) is linear, so its columns on the
        # unit vectors are its Jacobian
        jac = np.column_stack([isd_field(-h_mixed @ e, v, g) for e in np.eye(g.dim)])
        assert np.max(np.linalg.eigvals(jac).real) < 0.0

class TestGeodesics:
    def _integrate_geodesic(self, u0, du0, t_final, n_steps):
        # RK4 on the second-order geodesic system
        u, du = np.array(u0, dtype=float), np.array(du0, dtype=float)
        h = t_final / n_steps
        us = [u.copy()]
        for _ in range(n_steps):
            def rhs(state):
                uu, dd = state
                gam = CHART.christoffel(uu)
                return np.array([dd, -np.einsum("ljk,j,k->l", gam.gamma, dd, dd)])

            s = np.array([u, du])
            k1 = rhs(s)
            k2 = rhs(s + 0.5 * h * k1)
            k3 = rhs(s + 0.5 * h * k2)
            k4 = rhs(s + h * k3)
            s = s + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            u, du = s
            us.append(u.copy())
        return np.array(us), du

    def test_geodesic_stays_on_sphere(self):
        # oracle: geodesics through the chart image of the South pole are
        # great circles; every mapped point must stay on the unit sphere
        us, _ = self._integrate_geodesic([0.0, 0.0], [0.5, 0.25], 1.0, 200)
        radii = np.array([np.linalg.norm(CHART.psi(u)) for u in us])
        assert np.max(np.abs(radii - 1.0)) < 1e-4

    def test_constant_geodesic_speed(self):
        us, _ = self._integrate_geodesic([0.2, -0.1], [0.3, 0.4], 1.0, 400)
        # recompute du along the trajectory by finite differences of u(t)
        h = 1.0 / 400
        speeds = []
        for k in range(1, len(us) - 1):
            du = (us[k + 1] - us[k - 1]) / (2 * h)
            speeds.append(CHART.metric(us[k]).norm(du))
        speeds = np.array(speeds)
        assert np.max(np.abs(speeds - speeds[0])) < 1e-4
