import dataclasses
import tracemalloc

import numpy as np
import pytest

from saddlemap import benchmarks, regression
from saddlemap.dimred import diffusion_maps, median_bandwidth, select_chart_components
from saddlemap.driver import (
    DriverConfig,
    EXIT_CONVERGED,
    EXIT_STEP_BUDGET,
    EXIT_TRUST_REGION,
    MAX_TRIAL_POINTS,
    N_DMAP_COMPONENTS,
    VERDICT_FAILED,
    VERDICT_SADDLE_FOUND,
    _derive_seed,
    _rank_chart_components,
    build_local_chart,
    check_convergence,
    integrate_isd_on_chart,
    run_search,
)
from saddlemap.kernels import squared_distances
from saddlemap.regression import RegressorModel
from saddlemap.sampling import SamplerConfig, sample_cloud

from conftest import QuadraticSaddleChart, flat_problem, quadratic_saddle_force

SPHERE = benchmarks.sphere_problem()
CHART = benchmarks.StereographicSphereChart()


def small_cfg(**overrides):
    defaults = dict(
        sampler=SamplerConfig(n_samples=500, perturbation_scale=0.15),
        n_iterations_max=5,
        n_ode_steps=200,
        ode_dt=1e-4,
        tol_force=1e-3,
        seed=0,
    )
    defaults.update(overrides)
    return DriverConfig(**defaults)


class TestCheckConvergence:
    def test_index_one_accepted(self):
        cfg = small_cfg(tol_force=1e-6)
        assert check_convergence(1e-9, np.array([-1.0, 2.0]), cfg)

    def test_index_two_rejected(self):
        cfg = small_cfg(tol_force=1e-6)
        assert not check_convergence(1e-9, np.array([-1.0, -0.5]), cfg)

    def test_large_force_rejected(self):
        cfg = small_cfg(tol_force=1e-6)
        assert not check_convergence(0.1, np.array([-1.0, 2.0]), cfg)


class TestIntegrateOnSyntheticChart:
    def test_quadratic_saddle_contraction(self):
        # oracle: the reflected field is -2u, solution e^{-2t}; at dt = 3.5e-3
        # over 1000 steps the norm contracts below 1e-3 from (0.5, 0.5)
        chart = QuadraticSaddleChart()
        cfg = small_cfg(n_ode_steps=1000, ode_dt=3.5e-3, tol_force=1e-12)
        rec = integrate_isd_on_chart(chart, np.array([0.5, 0.5]), cfg)
        assert rec.exit_reason == EXIT_STEP_BUDGET
        assert np.linalg.norm(rec.chart_trajectory[-1]) < 1e-3
        expected = np.linalg.norm([0.5, 0.5]) * (1.0 - 2.0 * 3.5e-3) ** 1000
        assert np.linalg.norm(rec.chart_trajectory[-1]) == pytest.approx(expected, rel=1e-6)

    def test_starts_converged_at_saddle(self):
        chart = QuadraticSaddleChart()
        cfg = small_cfg(tol_force=1e-8)
        rec = integrate_isd_on_chart(chart, np.zeros(2), cfg)
        assert rec.exit_reason == EXIT_CONVERGED
        assert len(rec.chart_trajectory) == 1
        assert rec.step_lambda_mins[-1] == pytest.approx(-2.0)
        assert rec.spectrum[1] == pytest.approx(2.0)

    def test_records_are_consistent(self):
        chart = QuadraticSaddleChart()
        cfg = small_cfg(n_ode_steps=50, ode_dt=1e-3, tol_force=1e-12)
        rec = integrate_isd_on_chart(chart, np.array([0.2, 0.1]), cfg)
        assert len(rec.chart_trajectory) == 51
        assert len(rec.ambient_trajectory) == 51
        assert len(rec.step_force_norms) == 51
        assert len(rec.step_lambda_mins) == 51


class TestBuildLocalChart:
    def test_sphere_chart_dimension(self):
        base = benchmarks.sphere_project(np.array([1.0, 1.0, -1.0]))
        local = build_local_chart(SPHERE, base, small_cfg())
        assert local.chart_samples.shape[1] == 2
        assert local.cloud.size == 500
        assert local.trust_radius > 0.0

    def test_phi_fits_samples(self):
        base = benchmarks.sphere_project(np.array([1.0, 1.0, -1.0]))
        local = build_local_chart(SPHERE, base, small_cfg())
        pred = local.phi.predict_batch(local.cloud.points)
        err = np.max(np.abs(pred - local.chart_samples))
        scale = np.max(np.abs(local.chart_samples))
        assert err < 1e-3 * scale

    def test_pushforward_matches_exact_chart(self):
        # oracle-mode check: the learned chart force, compared through the
        # g-norm (a chart-invariant), within 5% relative RMS over the cloud
        base = benchmarks.sphere_project(np.array([1.0, 1.0, -1.0]))
        local = build_local_chart(SPHERE, base, small_cfg())
        norm_l, norm_e = [], []
        for q in local.cloud.points[::10]:
            u_l = local.to_chart(q)
            norm_l.append(local.metric(u_l).norm(local.force(u_l)))
            u_e = CHART.phi(q)
            norm_e.append(CHART.metric(u_e).norm(CHART.force(u_e)))
        norm_l, norm_e = np.array(norm_l), np.array(norm_e)
        rms = np.sqrt(np.mean((norm_l - norm_e) ** 2) / np.mean(norm_e ** 2))
        assert rms < 0.05

    def test_chart_consistency_invariant(self):
        base = benchmarks.sphere_project(np.array([1.0, 1.0, -1.0]))
        local = build_local_chart(SPHERE, base, small_cfg())
        pts = local.cloud.points
        back = local.psi.predict_batch(local.phi.predict_batch(pts))
        err = np.linalg.norm(back - pts, axis=1)
        diam = np.max(np.linalg.norm(pts - pts.mean(axis=0), axis=1)) * 2.0
        assert np.mean(err < 0.05 * diam) >= 0.95


def mb_chart_cfg(n: int, seed: int = 0) -> DriverConfig:
    return DriverConfig(
        sampler=SamplerConfig(n_samples=n, perturbation_scale=0.15, tau=0.0, method="flow"),
        seed=seed,
    )


class TestChartBuildMemory:
    def test_traced_peak_bounded(self):
        # a chart build holds about two N x N arrays at a time (a kernel and
        # a Cholesky factor); at N = 2000 the 1600-row trial fits beside
        # them bring the traced peak to ~3.4 N x N arrays
        n = 2000
        problem = benchmarks.surface_problem()
        start = benchmarks.mb_start_point()
        cfg = mb_chart_cfg(n)
        tracemalloc.start()
        try:
            build_local_chart(problem, start, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 8 * n * n


class TestChartFactorizations:
    """Above MAX_TRIAL_POINTS a chart factors two N-row systems, not three."""

    @staticmethod
    def factored_rows(monkeypatch, cfg):
        rows = []
        factor = regression.kernel_factorization

        def recording(kernel, nugget):
            rows.append(kernel.shape[0])
            return factor(kernel, nugget)

        monkeypatch.setattr(regression, "kernel_factorization", recording)
        build_local_chart(benchmarks.surface_problem(), benchmarks.mb_start_point(), cfg)
        return rows

    def test_two_full_factorizations_above_trial_cap(self, monkeypatch):
        cfg = mb_chart_cfg(2500)
        assert cfg.sampler.n_samples > MAX_TRIAL_POINTS
        rows = self.factored_rows(monkeypatch, cfg)
        # the ranking fit comes first, on MAX_TRIAL_POINTS rows; phi (shared
        # with the chart force) and psi are the two full-N systems
        assert rows[0] == MAX_TRIAL_POINTS
        assert rows.count(2500) == 2

    def test_ranking_sees_every_row_up_to_trial_cap(self, monkeypatch):
        cfg = mb_chart_cfg(1000)
        assert cfg.sampler.n_samples <= MAX_TRIAL_POINTS
        rows = self.factored_rows(monkeypatch, cfg)
        assert rows[0] == 1000
        assert rows.count(1000) == 3


class TestRankingParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_subset_ranking_matches_full_fit(self, seed):
        # the first Mueller-Brown cloud of driver seed `seed`, as
        # build_local_chart samples it
        n = 3000
        cfg = mb_chart_cfg(n, seed)
        points = sample_cloud(
            benchmarks.surface_problem(), benchmarks.mb_start_point(), cfg.sampler,
            _derive_seed(seed, 1, 0, 0),
        ).points
        sq = squared_distances(points, points)
        eps = median_bandwidth(sq)
        dmap = diffusion_maps(points, eps, N_DMAP_COMPONENTS, sq=sq)

        full = regression.fit(points, dmap.coordinates, eps, 1e-6, reuse_kernel=dmap.kernel)
        eval_idx = np.unique(np.linspace(0, n - 1, 50).astype(int))
        jacobians = [full.predict_with_derivatives(points[i], order=1)[1] for i in eval_idx]
        reference = select_chart_components(jacobians)

        assert n > MAX_TRIAL_POINTS
        assert _rank_chart_components(points, dmap, eps) == reference


class TestLearnedStep:
    def test_two_predictions_per_step(self, monkeypatch):
        # one order-2 psi prediction and one order-1 chart-force prediction
        base = benchmarks.sphere_project(np.array([1.0, 1.0, -1.0]))
        local = build_local_chart(SPHERE, base, small_cfg())
        u0 = local.to_chart(base)
        calls = []
        predict = RegressorModel.predict_with_derivatives

        def counting(self, x, order=2):
            calls.append(order)
            return predict(self, x, order=order)

        monkeypatch.setattr(RegressorModel, "predict_with_derivatives", counting)
        rec = integrate_isd_on_chart(local, u0, small_cfg(n_ode_steps=1))
        assert rec.exit_reason == EXIT_STEP_BUDGET
        assert len(rec.chart_trajectory) == 2
        assert sorted(calls) == [1, 1, 2, 2]


class TestRunSearch:
    def test_start_at_saddle_converges_immediately(self):
        saddle = np.array([1.0, 0.0, 0.0])
        cfg = small_cfg(tol_force=5e-3)
        traj = run_search(SPHERE, saddle, cfg)
        assert traj.verdict == VERDICT_SADDLE_FOUND
        assert len(traj.records) == 1
        assert traj.saddle_residual < 5e-3
        assert np.linalg.norm(traj.final_point - saddle) < 1e-2
        spectrum = traj.records[-1].spectrum
        assert np.sum(spectrum < 0) == 1

    def test_exact_chart_start_at_saddle(self):
        saddle = np.array([0.0, -1.0, 0.0])
        cfg = small_cfg(tol_force=1e-8)
        traj = run_search(SPHERE, saddle, cfg, mode="exact_chart")
        assert traj.verdict == VERDICT_SADDLE_FOUND
        assert len(traj.records) == 1
        assert traj.saddle_residual < 1e-8

    def test_accepted_saddle_evaluates_force_once(self):
        # the ambient accept check and the reported residual share one force
        # evaluation; the closed-form chart calls problem.force nowhere else
        calls = []

        def counting_force(x):
            calls.append(x)
            return SPHERE.force(x)

        problem = dataclasses.replace(SPHERE, force=counting_force)
        traj = run_search(problem, np.array([0.0, -1.0, 0.0]), small_cfg(tol_force=1e-8),
                          mode="exact_chart")
        assert traj.verdict == VERDICT_SADDLE_FOUND
        assert len(calls) == 1

    def test_direct_handoff_projects_once(self):
        base = benchmarks.sphere_project(np.array([1.0, 1.0, -1.0]))
        local = build_local_chart(SPHERE, base, small_cfg())
        calls = []

        def counting_project(x):
            calls.append(x)
            return SPHERE.project(x)

        problem = dataclasses.replace(SPHERE, project=counting_project)
        u_end = local.to_chart(base)
        x = local.to_ambient(problem, u_end)
        assert len(calls) == 1
        assert np.linalg.norm(x - base) < 1e-2

    def test_all_recorded_points_on_manifold(self):
        cfg = small_cfg(n_iterations_max=2, n_ode_steps=100)
        start = benchmarks.sphere_project(np.array([0.9, 0.9, -1.2]))
        traj = run_search(SPHERE, start, cfg)
        for rec in traj.records:
            for x in rec.ambient_trajectory:
                assert abs(np.linalg.norm(x) - 1.0) < 1e-3  # psi regression error
        assert abs(np.linalg.norm(traj.final_point) - 1.0) < 1e-10

    def test_determinism(self):
        cfg = small_cfg(n_iterations_max=2, n_ode_steps=100)
        start = benchmarks.sphere_project(np.array([0.9, 0.9, -1.2]))
        a = run_search(SPHERE, start, cfg)
        b = run_search(SPHERE, start, cfg)
        assert a.verdict == b.verdict
        assert np.array_equal(a.final_point, b.final_point)
        for ra, rb in zip(a.records, b.records):
            assert ra.exit_reason == rb.exit_reason
            assert np.array_equal(np.array(ra.chart_trajectory), np.array(rb.chart_trajectory))

    def test_first_iteration_ascends_from_near_sink(self):
        # from a point displaced off the sink the reflected dynamics climbs:
        # final energy above initial energy within the first chart
        sink = benchmarks.sphere_start_point(benchmarks.sphere_critical_points(2000))
        tangent = np.array([1.0, 0.0, 0.0]) - sink[0] * sink
        tangent /= np.linalg.norm(tangent)
        start = benchmarks.sphere_project(sink + 0.25 * tangent)
        cfg = small_cfg(n_iterations_max=1, n_ode_steps=1000)
        traj = run_search(SPHERE, start, cfg)
        rec = traj.records[0]
        assert rec.exit_reason in (EXIT_TRUST_REGION, EXIT_STEP_BUDGET)
        e0 = SPHERE.energy(rec.ambient_trajectory[0])
        e1 = SPHERE.energy(rec.ambient_trajectory[-1])
        assert e1 > e0

    def test_exact_chart_needs_only_the_four_methods(self):
        # the plane's exact chart has only to_chart, evaluate, outside and
        # to_ambient; the reflected field -2u drives (0.3, 0.2) to the origin
        problem = flat_problem(force=quadratic_saddle_force)
        cfg = small_cfg(n_iterations_max=1, n_ode_steps=1000, ode_dt=1e-2, tol_force=1e-3)
        traj = run_search(problem, np.array([0.3, 0.2]), cfg, mode="exact_chart")
        assert traj.verdict == VERDICT_SADDLE_FOUND
        assert np.linalg.norm(traj.final_point) < 1e-3

    def test_degenerate_exact_chart_fails_once(self):
        # the exact chart and its restart point never change, so a chart that
        # fails its first step ends the search at once instead of repeating
        problem = dataclasses.replace(
            flat_problem(), exact_chart=QuadraticSaddleChart(psi=[[1.0, 0.0], [0.0, 0.0]])
        )
        traj = run_search(problem, np.array([0.3, 0.2]), small_cfg(n_iterations_max=4),
                          mode="exact_chart")
        assert [r.exit_reason for r in traj.records] == ["degenerate"]
        assert traj.verdict == VERDICT_FAILED
        assert np.array_equal(traj.final_point, [0.3, 0.2])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_search(SPHERE, np.array([1.0, 0.0, 0.0]), small_cfg(), mode="bogus")

    def test_exact_mode_needs_exact_chart(self):
        problem = dataclasses.replace(SPHERE, exact_chart=None)
        with pytest.raises(ValueError):
            run_search(problem, np.array([1.0, 0.0, 0.0]), small_cfg(), mode="exact_chart")


@pytest.mark.slow
class TestSphereLongRun:
    def test_learned_matches_exact_endpoint(self):
        # oracle-mode equivalence: from an offset start both the learned and
        # the closed-form chart drive to the same saddle
        rep = benchmarks.sphere_critical_points(2000)
        saddles = rep.saddles()
        start = benchmarks.sphere_search_start(rep)
        cfg = DriverConfig(
            sampler=SamplerConfig(n_samples=1000, perturbation_scale=0.15),
            n_iterations_max=100,
            n_ode_steps=1000,
            ode_dt=1e-4,
            tol_force=1e-3,
            seed=0,
        )
        learned = run_search(SPHERE, start, cfg)
        exact = run_search(SPHERE, start, cfg, mode="exact_chart")
        assert exact.verdict == VERDICT_SADDLE_FOUND
        assert learned.verdict == VERDICT_SADDLE_FOUND
        assert np.min(np.linalg.norm(saddles - learned.final_point, axis=1)) < 5e-2
        assert np.linalg.norm(learned.final_point - exact.final_point) < 1e-2
        # residual decreases from the first iteration to the last
        d_first = np.min(np.linalg.norm(saddles - learned.records[0].ambient_trajectory[-1], axis=1))
        d_last = np.min(np.linalg.norm(saddles - learned.final_point, axis=1))
        assert d_last < d_first
