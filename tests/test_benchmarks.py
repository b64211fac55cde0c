import itertools
import json

import numpy as np
import pytest

from saddlemap import benchmarks
from saddlemap.geometry import metric_from_jacobian, smallest_eigpair

CHART = benchmarks.StereographicSphereChart()

# frozen Newton-oracle output for the standard four-term potential
MB_MINIMA = np.array([
    [-0.558224, 1.441726],
    [-0.050011, 0.466694],
    [0.623499, 0.028038],
])
MB_SADDLES = np.array([
    [-0.822002, 0.624313],
    [0.212487, 0.292988],
])


class TestSphereExactChart:
    def test_origin_values(self):
        geo = CHART.evaluate(np.zeros(2))
        assert np.allclose(geo.ambient, [0.0, 0.0, -1.0])
        assert np.allclose(geo.metric.g, np.diag([4.0, 4.0]))
        assert np.max(np.abs(geo.christoffel.gamma)) == 0.0
        assert np.allclose(geo.force, 0.0)
        assert np.allclose(geo.hessian.h_mixed, [[0.0, -1.0], [-1.0, 0.0]])

    def test_equator_point(self):
        geo = CHART.evaluate(np.array([1.0, 0.0]))
        assert np.allclose(geo.ambient, [1.0, 0.0, 0.0])
        assert geo.christoffel.gamma[0, 0, 0] == pytest.approx(-1.0)

    def test_parameterization_stays_on_sphere(self, rng):
        for _ in range(100):
            u = rng.uniform(-3, 3, 2)
            assert abs(np.linalg.norm(CHART.psi(u)) - 1.0) < 1e-12

    def test_phi_psi_inverse(self, rng):
        for _ in range(20):
            u = rng.uniform(-2, 2, 2)
            assert np.allclose(CHART.phi(CHART.psi(u)), u, atol=1e-12)

    def test_jacobian_matches_fd(self, rng):
        h = 1e-7
        for _ in range(10):
            u = rng.uniform(-2, 2, 2)
            fd = np.column_stack([
                (CHART.psi(u + h * e) - CHART.psi(u - h * e)) / (2 * h) for e in np.eye(2)
            ])
            assert np.max(np.abs(fd - CHART.psi_jacobian(u))) < 1e-8

    def test_gradient_is_riemannian_gradient(self, rng):
        # oracle: sharp of the finite-difference differential of the potential
        h = 1e-6
        for _ in range(10):
            u = rng.uniform(-1.5, 1.5, 2)
            du = np.array([
                (CHART.potential(u + h * e) - CHART.potential(u - h * e)) / (2 * h)
                for e in np.eye(2)
            ])
            riem = CHART.metric(u).g_inv @ du
            assert np.max(np.abs(riem - CHART.gradient(u))) < 1e-8


class TestSphereProblem:
    def test_force_is_tangent(self, rng):
        problem = benchmarks.sphere_problem()
        for _ in range(20):
            x = problem.project(rng.standard_normal(3))
            assert abs(problem.force(x) @ x) < 1e-12

    def test_energy_symmetry(self, rng):
        # E = x1 x2 x3 is invariant under coordinate permutations composed
        # with sign changes that preserve the product sign
        x = benchmarks.sphere_project(rng.standard_normal(3))
        e = benchmarks.sphere_energy(x)
        for perm in itertools.permutations(range(3)):
            assert benchmarks.sphere_energy(x[list(perm)]) == pytest.approx(e)
        assert benchmarks.sphere_energy(np.array([-x[0], -x[1], x[2]])) == pytest.approx(e)

    def test_force_matches_chart_gradient(self, rng):
        # pushforward of the ambient tangential force equals the closed-form
        # chart force
        problem = benchmarks.sphere_problem()
        h = 1e-7
        for _ in range(10):
            u = rng.uniform(-1.5, 1.5, 2)
            x = CHART.psi(u)
            jac_phi = np.column_stack([
                (CHART.phi(x + h * e) - CHART.phi(x - h * e)) / (2 * h) for e in np.eye(3)
            ])
            pushed = jac_phi @ problem.force(x)
            assert np.max(np.abs(pushed - CHART.force(u))) < 1e-6


@pytest.fixture(scope="module")
def sphere_report():
    return benchmarks.sphere_critical_points()


@pytest.fixture(scope="module")
def mb_report():
    return benchmarks.mb_surface_critical_points()


class TestSphereCriticalPoints:
    @pytest.fixture
    def report(self, sphere_report):
        return sphere_report

    def test_count_and_indices(self, report):
        assert len(report.points) == 14
        assert np.sum(report.indices == 1) == 6
        assert np.sum(report.indices == 0) == 4
        assert np.sum(report.indices == 2) == 4

    def test_axis_points_are_saddles(self, report):
        for axis in np.vstack([np.eye(3), -np.eye(3)]):
            k = np.argmin(np.linalg.norm(report.points - axis, axis=1))
            assert np.linalg.norm(report.points[k] - axis) < 1e-9
            assert report.indices[k] == 1
            assert benchmarks.sphere_energy(report.points[k]) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_points_classified_by_sign(self, report):
        val = 1.0 / np.sqrt(3.0)
        for signs in itertools.product([1.0, -1.0], repeat=3):
            p = val * np.array(signs)
            k = np.argmin(np.linalg.norm(report.points - p, axis=1))
            assert np.linalg.norm(report.points[k] - p) < 1e-9
            expected = 0 if np.prod(signs) < 0 else 2  # sinks below, sources above
            assert report.indices[k] == expected

    def test_residuals(self, report):
        assert np.max(report.residuals) < 1e-10

    def test_start_point_is_requested_sink(self, report):
        start = benchmarks.sphere_start_point(report)
        assert np.allclose(start, np.array([1.0, 1.0, -1.0]) / np.sqrt(3.0), atol=1e-9)


class TestMBSurface:
    @pytest.fixture
    def report(self, mb_report):
        return mb_report

    def test_counts(self, report):
        assert np.sum(report.indices == 0) == 3
        assert np.sum(report.indices == 1) == 2
        assert len(report.points) == 5

    def test_matches_frozen_oracle_values(self, report):
        for m in MB_MINIMA:
            d = np.min(np.linalg.norm(report.minima()[:, :2] - m, axis=1))
            assert d < 1e-5
        for s in MB_SADDLES:
            d = np.min(np.linalg.norm(report.saddles()[:, :2] - s, axis=1))
            assert d < 1e-5

    def test_residuals_and_lift(self, report):
        assert np.max(report.residuals) < 1e-10
        for p in report.points:
            assert p[2] == benchmarks.surface_height(p[:2])

    def test_start_point(self, report):
        start = benchmarks.mb_start_point(report)
        assert np.allclose(start[:2], MB_MINIMA[2], atol=1e-5)

    def test_report_serializes(self, report):
        payload = json.loads(report.to_json())
        assert len(payload["points"]) == 5
        assert payload["indices"].count(1) == 2


class TestSurfaceEval:
    def test_table_coefficients(self):
        row = benchmarks.SURFACE_COEFFS[0]
        assert row.tolist() == [0.0, 1.0, 0.9490, 0.8838]
        # the (0,1) term enters the height with exactly these constants
        p = np.array([0.7, -0.3])
        manual = sum(
            a * np.cos(k1 * p[0] + k2 * p[1] + b)
            for k1, k2, a, b in benchmarks.SURFACE_COEFFS
        )
        height = benchmarks.surface_height(p)
        assert height == pytest.approx(manual, abs=1e-14)

    def test_gradient_matches_fd(self, rng):
        h = 1e-7
        for _ in range(20):
            p = rng.uniform(-2, 2, 2)
            grad = benchmarks.surface_height_gradient(p)
            fd = np.array([
                (benchmarks.surface_height(p + h * e) - benchmarks.surface_height(p - h * e)) / (2 * h)
                for e in np.eye(2)
            ])
            assert np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1.0) < 1e-8

    def test_lifted_force_is_tangent(self, rng):
        for _ in range(20):
            p = rng.uniform(-1.5, 1.0, 2)
            grad_f = benchmarks.surface_height_gradient(p)
            force = benchmarks.surface_force(benchmarks.surface_lift(p))
            normal = np.append(-grad_f, 1.0)
            normal /= np.linalg.norm(normal)
            assert abs(force @ normal) < 1e-10

    def test_projection_is_vertical_lift(self, rng):
        x = rng.standard_normal(3)
        proj = benchmarks.surface_project(x)
        assert proj[0] == x[0] and proj[1] == x[1]
        assert proj[2] == benchmarks.surface_height(x[:2])


class TestChartInvariantScalars:
    def test_learned_chart_agrees_with_exact(self, rng):
        # chart-independent scalars (|grad U|_g, generalized Hessian
        # eigenvalues) computed in the learned chart match the closed-form
        # chart at matched ambient points within 10%
        from saddlemap.driver import DriverConfig, build_local_chart
        from saddlemap.sampling import SamplerConfig

        problem = benchmarks.sphere_problem()
        base = benchmarks.sphere_project(np.array([1.0, 1.0, -1.0]))
        cfg = DriverConfig(
            sampler=SamplerConfig(n_samples=600, perturbation_scale=0.15),
            seed=5,
        )
        local = build_local_chart(problem, base, cfg)
        for i in range(0, 600, 60):
            q = local.cloud.points[i]
            u_l = local.chart.phi.predict(q)
            g_l = local.geometry.metric(u_l)
            y_l = local.geometry.force(u_l)
            lam_l, _, _ = smallest_eigpair(local.geometry.covariant_hessian(u_l), g_l)
            u_e = CHART.phi(q)
            g_e = CHART.metric(u_e)
            y_e = CHART.force(u_e)
            lam_e, _, _ = smallest_eigpair(CHART.covariant_hessian(u_e), g_e)
            assert abs(g_l.norm(y_l) - g_e.norm(y_e)) <= 0.1 * max(g_e.norm(y_e), 0.05)
            assert abs(lam_l - lam_e) <= 0.1 * max(abs(lam_e), 0.05)
