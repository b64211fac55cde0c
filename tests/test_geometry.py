import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from saddlemap import benchmarks
from saddlemap.errors import DegenerateChartError, NonFiniteEvaluationError
from saddlemap.geometry import (
    GADState,
    _metric_jacobian,
    MetricTensor,
    central_difference,
    christoffel,
    covariant_hessian,
    gad_extended_field,
    isd_field,
    metric_from_jacobian,
    pullback_christoffel,
    rayleigh_quotient,
    smallest_eigpair,
)

from conftest import random_spd

CHART = benchmarks.StereographicSphereChart()


def metric_tensor(g):
    g = np.asarray(g, dtype=float)
    return MetricTensor(g=g, g_inv=np.linalg.inv(g))


def fd_christoffel(metric_field, u, step):
    """The connection from a central-difference metric derivative."""
    dg = central_difference(lambda v: metric_field(v).g, u, step)
    return christoffel(metric_field(u).g_inv, dg)


def fd_hessian(force_field, gamma, g, u, step):
    """The (0,2) covariant Hessian from a central-difference force Jacobian."""
    return covariant_hessian(g, gamma, force_field(u), central_difference(force_field, u, step))


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

    def test_nan_direction_rejected(self):
        # a NaN norm compares false both ways; the check must not pass it
        with pytest.raises(ValueError):
            gad_extended_field(GADState(np.ones(2), np.array([np.nan, 0.0])), quad_grad, quad_hess)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (2, 1)])
    def test_non_finite_jacobian_raises(self, bad, where):
        # the integration loop closes a NonFiniteEvaluationError as 'degenerate'
        jac = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]])
        jac[where] = bad
        with pytest.raises(NonFiniteEvaluationError):
            metric_from_jacobian(jac)

    def test_not_positive_definite_raises(self, monkeypatch):
        # a rounded g = Dpsi^T Dpsi that passes the rank check can still stop
        # dpotrf (which one depends on the platform's rounding), so its
        # report of a non-positive pivot is stubbed here
        from saddlemap import geometry

        dpotrf = geometry.dpotrf
        monkeypatch.setattr(geometry, "dpotrf", lambda a, lower: (dpotrf(a, lower=lower)[0], 2))
        with pytest.raises(DegenerateChartError):
            metric_from_jacobian(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]]))

    @pytest.mark.parametrize("t", [1e-9, 2e-9, 3e-9, 5e-9, 1e-8, 1e-7])
    def test_near_singular_rejected_by_rank_check(self, t):
        # condition ~4/t: past 1e7 the rounded g's Cholesky verdict would be
        # rounding noise (dpotrf takes some of these and gives g^-1 ~ 1e18),
        # so the rank check rejects them all
        with pytest.raises(DegenerateChartError, match="rank-deficient"):
            metric_from_jacobian(np.array([[1.0, 1.0], [1.0, 1.0 + t], [0.0, 0.0]]))

    def test_svd_failure_is_degenerate(self, monkeypatch):
        # numpy's svd raised LinAlgError here; a non-converged dgesdd must not
        # feed its singular values to the rank check
        from saddlemap import geometry

        dgesdd = geometry.dgesdd
        monkeypatch.setattr(geometry, "dgesdd", lambda a, compute_uv: (*dgesdd(a, compute_uv=compute_uv)[:3], 1))
        with pytest.raises(DegenerateChartError, match="dgesdd"):
            metric_from_jacobian(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]]))

    def test_inverse_is_exactly_symmetric(self, rng):
        for _ in range(20):
            jac = rng.standard_normal((int(rng.integers(3, 6)), 3))
            g = metric_from_jacobian(jac)
            assert np.array_equal(g.g, g.g.T)
            assert np.array_equal(g.g_inv, g.g_inv.T)
            assert np.allclose(g.g_inv @ g.g, np.eye(3), atol=1e-10 * np.linalg.cond(g.g))

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
        out = fd_christoffel(flat, np.array([0.3, -0.7]), 1e-5)
        assert np.max(np.abs(out)) < 1e-12

    def test_example_value_at_1_0(self):
        out = fd_christoffel(CHART.metric, np.array([1.0, 0.0]), 1e-6)
        assert out[0, 0, 0] == pytest.approx(-1.0, abs=1e-8)

    def test_matches_closed_forms(self, rng):
        # oracle: the closed-form symbols of the stereographic chart
        for _ in range(10):
            u = rng.uniform(-1.4, 1.4, 2)
            out = fd_christoffel(CHART.metric, u, 1e-6)
            assert np.allclose(out, out.transpose(0, 2, 1))
            assert np.max(np.abs(out - CHART.christoffel(u))) < 1e-6

    def test_analytic_path_matches_fd(self, rng):
        for _ in range(20):
            u = rng.uniform(-2, 2, 2)
            if np.linalg.norm(u) >= 2.0:
                u *= 0.9 * 2.0 / np.linalg.norm(u)
            fd = fd_christoffel(CHART.metric, u, 1e-5)
            analytic = christoffel(CHART.metric(u).g_inv, CHART.metric_jacobian(u))
            assert np.max(np.abs(fd - analytic)) < 5e-6


@pytest.fixture(scope="class")
def learned_chart():
    from saddlemap.driver import DriverConfig, build_local_chart
    from saddlemap.sampling import SamplerConfig

    base = benchmarks.sphere_project(np.array([1.0, 1.0, -1.0]))
    cfg = DriverConfig(sampler=SamplerConfig(n_samples=500, perturbation_scale=0.15), seed=0)
    return build_local_chart(benchmarks.sphere_problem(), base, cfg)


class TestEvaluate:
    """``evaluate`` is the free-function composition, bit for bit."""

    def test_learned_chart_matches_free_functions(self, learned_chart):
        local = learned_chart
        psi, chart_force = local.psi, local.chart_force
        for q in local.cloud.points[::50]:
            u = local.to_chart(q)
            x_amb, jac, second = psi.predict_with_derivatives(u, order=2)
            g = metric_from_jacobian(jac)
            gamma = pullback_christoffel(g.g_inv, jac, second)
            # the force side as composed before evaluate existed: an order-1 psi call
            x_1, jac_1, _ = psi.predict_with_derivatives(u, order=1)
            y, jac_amb, _ = chart_force.predict_with_derivatives(x_1, order=1)
            hess = covariant_hessian(g, gamma, y, jac_amb @ jac_1)
            geo = local.evaluate(u)
            assert np.array_equal(geo.ambient, x_amb)
            assert np.array_equal(geo.metric.g, g.g)
            assert np.array_equal(geo.metric.g_inv, g.g_inv)
            assert np.array_equal(geo.force, y)
            assert np.array_equal(geo.hessian, hess)

    def test_views_match_evaluate(self, learned_chart):
        # the single-quantity views are what the benchmark's tracer wraps
        local = learned_chart
        for q in local.cloud.points[::50]:
            u = local.to_chart(q)
            geo = local.evaluate(u)
            assert np.array_equal(local.ambient(u), geo.ambient)
            assert np.array_equal(local.metric(u).g, geo.metric.g)
            assert np.array_equal(local.metric(u).g_inv, geo.metric.g_inv)
            assert np.array_equal(local.force(u), geo.force)
            assert np.array_equal(local.covariant_hessian(u), geo.hessian)
            expected = christoffel(geo.metric.g_inv, local.metric_jacobian(u))
            assert np.array_equal(local.christoffel(u), expected)

    def test_exact_chart_matches_closed_forms(self, rng):
        for _ in range(10):
            u = rng.uniform(-2, 2, 2)
            geo = CHART.evaluate(u)
            assert np.array_equal(geo.ambient, CHART.psi(u))
            assert np.array_equal(geo.metric.g, CHART.metric(u).g)
            assert np.array_equal(geo.metric.g_inv, CHART.metric(u).g_inv)
            assert np.array_equal(geo.force, CHART.force(u))
            assert np.array_equal(geo.hessian, CHART.covariant_hessian(u, CHART.metric(u)))


class TestCovariantHessian:
    def test_example_origin(self):
        u = np.zeros(2)
        g = CHART.metric(u)
        out = fd_hessian(CHART.force, CHART.christoffel(u), g, u, 1e-6)
        assert np.allclose(g.g_inv @ out, [[0.0, -1.0], [-1.0, 0.0]], atol=1e-9)

    def test_flat_quadratic(self):
        def force(u):
            return np.array([-2.0 * u[0], 2.0 * u[1]])

        g = metric_tensor(np.eye(2))
        gamma = fd_christoffel(lambda u: g, np.zeros(2), 1e-5)
        out = fd_hessian(force, gamma, g, np.array([0.4, 0.1]), 1e-5)
        assert np.allclose(g.g_inv @ out, np.diag([2.0, -2.0]), atol=1e-8)

    def test_scalar_field_oracle(self, rng):
        # oracle: d_j d_k (U o psi) - Gamma^l_jk d_l (U o psi) via finite differences
        for _ in range(5):
            u = rng.uniform(-1.2, 1.2, 2)
            g = CHART.metric(u)
            gamma = CHART.christoffel(u)
            out = fd_hessian(CHART.force, gamma, g, u, 1e-5)
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
            oracle = d2 - np.einsum("ljk,l->jk", gamma, du)
            assert np.allclose(out, out.T)
            assert np.max(np.abs(out - oracle)) < 1e-5


class TestSmallestEigpair:
    def test_euclidean_diagonal(self):
        h = covariant_hessian(
            metric_tensor(np.eye(2)), np.zeros((2, 2, 2)), np.zeros(2), np.diag([-3.0, 2.0])
        )
        lam, v, spectrum = smallest_eigpair(h, metric_tensor(np.eye(2)))
        assert lam == pytest.approx(-2.0)
        assert np.allclose(np.abs(v), [0.0, 1.0], atol=1e-12)
        assert np.allclose(spectrum, [-2.0, 3.0])

    def test_example_origin_generalized(self):
        # oracle: generalized eigensolve of the closed-form tensors
        g = metric_tensor(np.diag([4.0, 4.0]))
        hess = CHART.covariant_hessian(np.zeros(2), g)
        lam, v, spectrum = smallest_eigpair(hess, g)
        assert lam == pytest.approx(-1.0, abs=1e-12)
        assert np.allclose(np.abs(v), np.ones(2) / (2.0 * np.sqrt(2.0)), atol=1e-12)

    def test_g_normalization(self, rng):
        for _ in range(10):
            g = metric_tensor(random_spd(rng, 3))
            a = rng.standard_normal((3, 3))
            h_lower = a + a.T
            lam, v, spectrum = smallest_eigpair(h_lower, g)
            assert abs(g.inner(v, v) - 1.0) < 1e-10
            assert rayleigh_quotient(h_lower, v, g) == pytest.approx(lam, abs=1e-10)

    def test_sign_continuity(self):
        g = metric_tensor(np.eye(2))
        hess = np.diag([-1.0, 1.0])
        _, v_prev, _ = smallest_eigpair(hess, g)
        _, v_flip, _ = smallest_eigpair(hess, g, prev_v=-v_prev)
        assert np.allclose(v_flip, -v_prev)

    def test_indefinite_metric_is_degenerate(self):
        # dsygvd cannot factor an indefinite g: info > n
        g = MetricTensor(g=np.array([[1.0, 2.0], [2.0, 1.0]]), g_inv=np.eye(2))
        with pytest.raises(DegenerateChartError, match="dsygvd info 4"):
            smallest_eigpair(np.diag([-1.0, 1.0]), g)

    def test_non_finite_hessian_is_non_finite(self):
        with pytest.raises(NonFiniteEvaluationError):
            smallest_eigpair(np.array([[np.nan, 0.0], [0.0, 1.0]]), metric_tensor(np.eye(2)))


def eigh_smallest_eigpair(h, g, prev_v=None):
    """smallest_eigpair through scipy.linalg.eigh, the reference for dsygvd."""
    w, vecs = scipy.linalg.eigh(h, g.g)
    v = vecs[:, 0]
    v = v / np.sqrt(g.inner(v, v))
    if prev_v is not None:
        if g.inner(v, prev_v) < 0.0:
            v = -v
    else:
        nz = np.nonzero(np.abs(v) > 1e-12 * np.max(np.abs(v)))[0]
        if nz.size and v[nz[0]] < 0.0:
            v = -v
    return float(w[0]), v, w


@st.composite
def spd_pairs(draw):
    """A random SPD metric g (g >= I/10), a symmetric h and a direction, d = 1-3."""
    d = draw(st.integers(1, 3))
    entries = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    a = draw(arrays(np.float64, (d, d), elements=entries))
    b = draw(arrays(np.float64, (d, d), elements=entries))
    prev = draw(arrays(np.float64, d, elements=entries))
    return metric_tensor(a @ a.T + 0.1 * np.eye(d)), b + b.T, prev


class TestSmallestEigpairMatchesEigh:
    @settings(max_examples=300, deadline=None)
    @given(spd_pairs(), st.booleans())
    def test_bitwise(self, case, with_prev):
        g, h, prev = case
        prev_v = prev if with_prev else None
        lam, v, spectrum = smallest_eigpair(h, g, prev_v=prev_v)
        lam_ref, v_ref, spectrum_ref = eigh_smallest_eigpair(h, g, prev_v=prev_v)
        assert lam == lam_ref
        assert np.array_equal(v, v_ref)
        assert np.array_equal(spectrum, spectrum_ref)


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

    def test_nan_direction_rejected(self):
        g = metric_tensor(np.eye(2))
        with pytest.raises(ValueError):
            isd_field(np.array([1.0, 0.0]), np.array([np.nan, 0.0]), g)

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

    @settings(max_examples=200, deadline=None)
    @given(reflection_cases())
    def test_equals_formula_through_inner_bitwise(self, case):
        # isd_field forms v @ g once for both inner products; g.inner rounds the same
        g, v, w = case
        assert np.array_equal(isd_field(w, v, g), w - 2.0 * g.inner(v, w) * v)



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
        gamma = christoffel(g.g_inv, dg)
        assert np.array_equal(gamma, gamma.transpose(0, 2, 1))

    @settings(max_examples=200, deadline=None)
    @given(metric_cases())
    def test_metric_compatibility(self, case):
        # d_k g_ij = g_il Gamma^l_jk + g_jl Gamma^l_ik
        g, dg = case
        gamma = christoffel(g.g_inv, dg)
        lowered = np.einsum("il,ljk->ijk", g.g, gamma)
        rebuilt = lowered + lowered.transpose(1, 0, 2)
        assert np.max(np.abs(rebuilt - dg)) <= 1e-12 * np.max(np.abs(dg))


@st.composite
def parameterization_cases(draw):
    """A full-rank Jacobian jac[c, i] = d psi_c / d u^i of p <= q columns
    with condition number below 1e3, and second derivatives second[c, j, k]
    symmetric in j and k."""
    p = draw(st.integers(1, 3))
    q = draw(st.integers(p, p + 2))
    jac = draw(arrays(np.float64, (q, p), elements=grid_entries))
    sv = np.linalg.svd(jac, compute_uv=False)
    assume(sv[-1] > 1e-3 * sv[0])
    raw = draw(arrays(np.float64, (q, p, p), elements=grid_entries))
    return jac, raw + raw.transpose(0, 2, 1)


class TestGaussFormulaProperties:
    """The Christoffel symbols of the pullback metric from Dpsi and D^2psi
    are the Levi-Civita symbols of its metric derivative."""

    @staticmethod
    def check(jac, second):
        g = metric_from_jacobian(jac)
        gamma = pullback_christoffel(g.g_inv, jac, second)
        assert np.array_equal(gamma, gamma.transpose(0, 2, 1))
        from_dg = christoffel(g.g_inv, _metric_jacobian(jac, second))
        # both sum products of jac and second entries, then apply g^-1
        q, p = jac.shape
        scale = np.max(np.abs(g.g_inv)) * np.max(np.abs(jac)) * np.max(np.abs(second))
        assert np.max(np.abs(gamma - from_dg)) <= 1e-14 * p * q * scale

    @settings(max_examples=300, deadline=None)
    @given(parameterization_cases())
    def test_equals_connection_of_metric_derivative(self, case):
        self.check(*case)

    def test_learned_chart_points(self, learned_chart):
        local = learned_chart
        for q in local.cloud.points[::25]:
            _, jac, second = local.psi.predict_with_derivatives(local.to_chart(q), order=2)
            self.check(jac, second)

    def test_non_finite_second_derivative_raises(self):
        jac = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]])
        for bad in (np.nan, np.inf):
            second = np.zeros((3, 2, 2))
            second[2, 0, 1] = second[2, 1, 0] = bad
            with pytest.raises(NonFiniteEvaluationError):
                pullback_christoffel(np.eye(2), jac, second)


class TestISDFixedPointProperties:
    """An index-1 saddle of the linearized force is a stable fixed point of
    the reflected field."""

    @settings(max_examples=200, deadline=None)
    @given(index_one_cases())
    def test_saddle_is_stable_fixed_point(self, case):
        g, h_lower = case
        h_mixed = g.g_inv @ h_lower
        _, v, _ = smallest_eigpair(h_lower, g)
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
                return np.array([dd, -np.einsum("ljk,j,k->l", gam, dd, dd)])

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
