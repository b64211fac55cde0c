import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
        assert np.max(np.abs(CHART.christoffel(np.zeros(2)))) == 0.0
        assert np.allclose(geo.force, 0.0)
        assert np.allclose(geo.metric.g_inv @ geo.hessian, [[0.0, -1.0], [-1.0, 0.0]])

    def test_equator_point(self):
        geo = CHART.evaluate(np.array([1.0, 0.0]))
        assert np.allclose(geo.ambient, [1.0, 0.0, 0.0])
        assert CHART.christoffel(np.array([1.0, 0.0]))[0, 0, 0] == pytest.approx(-1.0)

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


coords = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


class TestStereographicRoundTripProperties:
    """phi and psi are inverse maps between the plane and the sphere minus
    the North pole."""

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, 2, elements=coords))
    def test_chart_point_round_trip(self, u):
        s = float(u @ u)
        assert np.max(np.abs(CHART.to_chart(CHART.psi(u)) - u)) <= 1e-15 * (1.0 + s) ** 1.5

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, 3, elements=coords).filter(lambda v: np.linalg.norm(v) > 1e-3))
    def test_sphere_point_round_trip(self, v):
        x = benchmarks.sphere_project(v)
        if x[2] > 0.9:  # away from the North pole, where phi blows up
            x = -x
        assert np.max(np.abs(CHART.psi(CHART.to_chart(x)) - x)) <= 1e-14 / (1.0 - x[2])


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


class TestBenchmarkInputsPinned:
    """The start points and oracle reports the benchmark workloads run from.

    A change to the oracles or the start-point code changes every search
    the benchmark times, so it must show here first.
    """

    SPHERE_START = ("0x1.73d9399f2fb32p-1", "0x1.f1bd7f7fcd6b1p-2", "-0x1.f1bd7f7fcd6b1p-2")
    MB_START = ("0x1.3f3b506281d4cp-1", "0x1.cb5ee1fbc432cp-6", "0x1.b7de54d29bce4p-1")
    # float.hex of every coordinate, frozen from the per-seed Newton loops the
    # batched oracles replaced
    SPHERE_POINTS = (
        ("-0x1.0000000000000p+0", "0x1.23d8500000000p-63", "-0x1.23f5d80000000p-63"),
        ("-0x1.279a74590331cp-1", "-0x1.279a74590331cp-1", "-0x1.279a74590331cp-1"),
        ("-0x1.279a745903333p-1", "-0x1.279a745903332p-1", "0x1.279a74590330cp-1"),
        ("-0x1.279a74590331cp-1", "0x1.279a74590331cp-1", "-0x1.279a74590331cp-1"),
        ("-0x1.279a74590331cp-1", "0x1.279a74590331cp-1", "0x1.279a74590331dp-1"),
        ("-0x1.45d8000000000p-79", "-0x1.0000000000000p+0", "-0x1.44f8000000000p-79"),
        ("-0x1.82f014a000000p-51", "0x1.82e8782000000p-51", "-0x1.0000000000002p+0"),
        ("-0x1.3a4fd8c000000p-57", "0x1.3b81380000000p-57", "0x1.0000000000000p+0"),
        ("0x1.8c00000000000p-94", "0x1.0000000000000p+0", "-0x1.8c00000000000p-94"),
        ("0x1.279a74590331cp-1", "-0x1.279a74590331dp-1", "-0x1.279a74590331cp-1"),
        ("0x1.279a74590331cp-1", "-0x1.279a74590331cp-1", "0x1.279a74590331dp-1"),
        ("0x1.279a74590331cp-1", "0x1.279a74590331dp-1", "-0x1.279a74590331dp-1"),
        ("0x1.279a74590331cp-1", "0x1.279a74590331cp-1", "0x1.279a74590331cp-1"),
        ("0x1.0000000000000p+0", "0x1.2b00000000000p-90", "-0x1.3200000000000p-90"),
    )
    SPHERE_INDICES = [1, 0, 2, 2, 0, 1, 1, 1, 1, 2, 0, 0, 2, 1]
    MB_POINTS = (
        ("-0x1.a4dd636809457p-1", "0x1.3fa5ed7d20c09p-1", "0x1.d8d5542980d2bp-1"),
        ("-0x1.1dcf7cfd34c87p-1", "0x1.7114f1dc59601p+0", "-0x1.37f081871650ep-1"),
        ("-0x1.99b04c2725994p-5", "0x1.dde50f36a4fb3p-2", "0x1.11dbfb384b071p+0"),
        ("0x1.b32c2a4440d9ep-3", "0x1.2c0521a9c8a9dp-2", "0x1.107ad42a31f3ap+0"),
        ("0x1.3f3b506281d4cp-1", "0x1.cb5ee1fbc432cp-6", "0x1.b7de54d29bce4p-1"),
    )
    MB_INDICES = [1, 0, 0, 1, 0]

    def test_start_points_bitwise(self, sphere_report, mb_report):
        sphere = benchmarks.sphere_search_start(sphere_report)
        assert tuple(float(v).hex() for v in sphere) == self.SPHERE_START
        assert tuple(float(v).hex() for v in benchmarks.mb_start_point(mb_report)) == self.MB_START

    def test_oracle_reports(self, sphere_report, mb_report):
        for report, points, indices in ((sphere_report, self.SPHERE_POINTS, self.SPHERE_INDICES),
                                        (mb_report, self.MB_POINTS, self.MB_INDICES)):
            assert tuple(tuple(float(v).hex() for v in p) for p in report.points) == points
            assert report.indices.tolist() == indices
            # the bound perfbench's check_oracle holds the reports to
            assert np.max(report.residuals) <= 1e-8


def _one_seed_newton(z, system, tol, radius, n_space):
    """The per-seed Newton loop the batched oracles replaced; None for a dropped seed."""
    for _ in range(80):
        f, jac = system(z)
        if np.linalg.norm(f) < tol:
            break
        try:
            z = z - np.linalg.solve(jac, f)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(z)) or np.linalg.norm(z[:n_space]) > radius:
            return None
    return z


def _sphere_lagrange(z):
    x, lam = z[:3], z[3]
    f = np.append(benchmarks.sphere_energy_gradient(x) - lam * x, 0.5 * (x @ x - 1.0))
    jac = np.zeros((4, 4))
    jac[:3, :3] = benchmarks.sphere_energy_hessian(x) - lam * np.eye(3)
    jac[:3, 3] = -x
    jac[3, :3] = x
    return f, jac


class TestBatchedNewton:
    def test_rows_match_the_one_seed_loop(self):
        seeds = benchmarks._fibonacci_sphere(500)
        runs = [_one_seed_newton(np.append(s, s @ benchmarks.sphere_energy_gradient(s)),
                                 _sphere_lagrange, 1e-14, 5.0, 3) for s in seeds]
        assert np.array_equal(benchmarks._sphere_newton(seeds),
                              np.array([z for z in runs if z is not None]))

        # every 5th grid seed: converged, diverged and 80-iteration rows alike
        xs, ys = np.meshgrid(np.linspace(-1.5, 1.0, 32), np.linspace(-0.5, 2.0, 32), indexing="ij")
        seeds = np.column_stack([xs.ravel(), ys.ravel()])[::5]
        runs = [_one_seed_newton(p, lambda p: (benchmarks.mb_gradient(p), benchmarks.mb_hessian(p)),
                                 1e-13, 10.0, 2) for p in seeds]
        assert np.array_equal(benchmarks._mb_newton(seeds),
                              np.array([p for p in runs if p is not None]))

    def test_singular_row_is_dropped_alone(self):
        seeds = benchmarks._fibonacci_sphere(200)
        # at the origin lambda starts at 0 and the 4x4 Newton matrix is all zeros
        with_origin = np.insert(seeds, 57, 0.0, axis=0)
        assert np.array_equal(benchmarks._sphere_newton(with_origin),
                              benchmarks._sphere_newton(seeds))

    def test_oracles_emit_no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            benchmarks.sphere_critical_points()
            benchmarks.mb_surface_critical_points()


# each function against the rows it is defined on
SPHERE_ROW_FUNCTIONS = [benchmarks.sphere_energy, benchmarks.sphere_energy_gradient,
                        benchmarks.sphere_energy_hessian, benchmarks.sphere_project,
                        benchmarks.sphere_force]
PLANE_ROW_FUNCTIONS = [benchmarks.mb_potential, benchmarks.mb_gradient, benchmarks.mb_hessian,
                       benchmarks.surface_height, benchmarks.surface_height_gradient,
                       benchmarks.surface_lift]
SURFACE_ROW_FUNCTIONS = [benchmarks.surface_project, benchmarks.surface_energy,
                         benchmarks.surface_force]


@st.composite
def _sphere_rows(draw):
    raw = draw(arrays(float, st.tuples(st.integers(1, 16), st.just(3)),
                      elements=st.floats(-1.0, 1.0)))
    assume(np.all(np.linalg.norm(raw, axis=1) > 1e-3))
    return np.array([benchmarks.sphere_project(r) for r in raw])


@st.composite
def _mb_box_rows(draw):
    unit = draw(arrays(float, st.tuples(st.integers(1, 16), st.just(2)),
                       elements=st.floats(0.0, 1.0)))
    return np.array([-1.6, -0.6]) + 2.7 * unit


class TestRowsEqualPoints:
    """Row i of a stacked evaluation is bit for bit the evaluation at row i."""

    @staticmethod
    def assert_rows_equal_points(functions, rows):
        for f in functions:
            stacked = f(rows)
            assert len(stacked) == len(rows)
            for i, row in enumerate(rows):
                assert np.array_equal(stacked[i], f(row)), f.__name__

    @settings(max_examples=40, deadline=None)
    @given(_sphere_rows())
    def test_sphere_functions(self, rows):
        self.assert_rows_equal_points(SPHERE_ROW_FUNCTIONS, rows)

    @settings(max_examples=40, deadline=None)
    @given(_mb_box_rows())
    def test_surface_functions(self, plane):
        self.assert_rows_equal_points(PLANE_ROW_FUNCTIONS, plane)
        lifted = np.array([benchmarks.surface_lift(p) for p in plane])
        self.assert_rows_equal_points(SURFACE_ROW_FUNCTIONS, lifted)


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
            u_l = local.to_chart(q)
            g_l = local.metric(u_l)
            y_l = local.force(u_l)
            lam_l, _, _ = smallest_eigpair(local.covariant_hessian(u_l), g_l)
            u_e = CHART.phi(q)
            g_e = CHART.metric(u_e)
            y_e = CHART.force(u_e)
            lam_e, _, _ = smallest_eigpair(CHART.covariant_hessian(u_e, g_e), g_e)
            assert abs(g_l.norm(y_l) - g_e.norm(y_e)) <= 0.1 * max(g_e.norm(y_e), 0.05)
            assert abs(lam_l - lam_e) <= 0.1 * max(abs(lam_e), 0.05)
