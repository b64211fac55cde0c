import dataclasses
import json
import logging
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from saddlemap import benchmarks, driver, regression
from saddlemap.dimred import PointCloud, diffusion_maps, median_bandwidth, select_chart_components
from saddlemap.errors import DegenerateChartError
from saddlemap.driver import (
    DriverConfig,
    EXIT_CONVERGED,
    EXIT_DEGENERATE,
    EXIT_STEP_BUDGET,
    EXIT_TRUST_REGION,
    MAX_TRIAL_POINTS,
    N_DMAP_COMPONENTS,
    VERDICT_FAILED,
    VERDICT_MAX_ITERATIONS,
    VERDICT_SADDLE_FOUND,
    _derive_seed,
    _pushforward_at_samples,
    _rank_chart_components,
    build_local_chart,
    check_convergence,
    integrate_isd_on_chart,
    run_search,
)
from saddlemap.kernels import gaussian_kernel, squared_distances
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
        assert local.psi.train_inputs.shape[1] == 2
        assert local.cloud.size == 500
        assert local.trust_radius > 0.0

    def test_phi_fits_samples(self):
        base = benchmarks.sphere_project(np.array([1.0, 1.0, -1.0]))
        local = build_local_chart(SPHERE, base, small_cfg())
        pred = local.phi.predict_batch(local.cloud.points)
        err = np.max(np.abs(pred - local.psi.train_inputs))
        scale = np.max(np.abs(local.psi.train_inputs))
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

    def test_collapsed_cloud_is_degenerate(self):
        # a nonzero scale can still project every sample onto the base point;
        # the bandwidth check then refuses the chart
        problem, base, cfg = collapsed_cloud_case()
        with pytest.raises(DegenerateChartError, match="collapsed"):
            build_local_chart(problem, base, cfg)

    def test_rejected_attempts_are_logged(self, caplog):
        problem, base, cfg = collapsed_cloud_case()
        with caplog.at_level(logging.INFO, logger="saddlemap"):
            traj = run_search(problem, base, dataclasses.replace(cfg, n_iterations_max=1))
        assert traj.verdict == VERDICT_FAILED
        records = [r for r in caplog.records if r.name == "saddlemap"]
        assert [r.levelno for r in records] == [logging.INFO] * 3
        for attempt, rec in enumerate(records):
            message = rec.getMessage()
            assert message.startswith(
                f"iteration 1: chart attempt {attempt} rejected: DegenerateChartError: "
            )
            assert "collapsed point set" in message


def collapsed_cloud_case():
    """A problem whose projection sends every sample onto the base point."""
    base = np.array([0.3, -0.2])
    problem = dataclasses.replace(
        flat_problem(), project=lambda x: np.broadcast_to(base, np.shape(x)).copy()
    )
    return problem, base, small_cfg(sampler=SamplerConfig(n_samples=50, perturbation_scale=0.1))


def mb_chart_cfg(n: int, seed: int = 0) -> DriverConfig:
    return DriverConfig(
        sampler=SamplerConfig(n_samples=n, perturbation_scale=0.15, tau=0.0, method="flow"),
        seed=seed,
    )


class TestChartBuildMemory:
    @staticmethod
    def traced_peak(n):
        problem = benchmarks.surface_problem()
        start = benchmarks.mb_start_point()
        cfg = mb_chart_cfg(n)
        tracemalloc.start()
        try:
            build_local_chart(problem, start, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_traced_peak_bounded(self):
        # one N x N array per stage; at N = 2000 the ranking fit assembles
        # and factors its own kernel of all MAX_TRIAL_POINTS rows beside the
        # cloud's, and the 1600-row trial fits beside the kernel bring the
        # traced peak to ~2.4 N x N arrays
        n = 2000
        assert self.traced_peak(n) <= 3.0 * 8 * n * n

    def test_traced_peak_bounded_at_mb_chart_size(self):
        # the mb_chart benchmark's N: every full-N system is factored in its
        # kernel's buffer, and the other blocks are small beside it (~1.25)
        n = 5000
        assert self.traced_peak(n) <= 1.5 * 8 * n * n


class TestChartFactorizations:
    """Above MAX_TRIAL_POINTS a chart factors two N-row systems, not three."""

    @staticmethod
    def factored_rows(monkeypatch, cfg):
        rows = []
        factor = regression.kernel_factorization

        def recording(kernel, nugget, overwrite_kernel=False):
            rows.append(kernel.shape[0])
            return factor(kernel, nugget, overwrite_kernel=overwrite_kernel)

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


class TestPushforwardBlocks:
    @pytest.mark.parametrize("n", [700, 2100])
    def test_equals_product_with_full_kernel_rows(self, rng, n):
        # kernel rows assembled in column chunks give the product of the
        # full kernel's row blocks bit for bit
        points = rng.uniform(-1.0, 1.0, (n, 3))
        cloud = PointCloud(points=points, forces=rng.standard_normal((n, 3)), base_point=points[0])
        eps = 0.3
        phi = RegressorModel(train_inputs=np.asfortranarray(points), bandwidth_eps=eps,
                             nugget=1e-8, weights=rng.standard_normal((n, 2)))
        kernel = gaussian_kernel(points, points, eps)
        expected = np.empty((n, 2))
        for start in range(0, n, 1024):
            rows = slice(start, start + 1024)
            f_blk = cloud.forces[rows]
            s = np.sum(points[rows] * f_blk, axis=1)[:, None] - f_blk @ points.T
            expected[rows] = -((kernel[rows] * s) @ phi.weights) / eps
        assert np.array_equal(_pushforward_at_samples(phi, cloud), expected)


class TestRankingParity:
    @staticmethod
    def check_ranking_matches_full_fit(n, seed):
        # the first Mueller-Brown cloud of driver seed `seed`, as
        # build_local_chart samples it
        cfg = mb_chart_cfg(n, seed)
        points = sample_cloud(
            benchmarks.surface_problem(), benchmarks.mb_start_point(), cfg.sampler,
            _derive_seed(seed, 1, 0, 0),
        ).points
        sq = squared_distances(points, points)
        eps = median_bandwidth(sq)
        dmap = diffusion_maps(points, eps, N_DMAP_COMPONENTS, sq=sq)
        kernel = dmap.kernel.copy()

        full = regression.fit(points, dmap.coordinates, eps, 1e-6, reuse_kernel=dmap.kernel)
        eval_idx = np.unique(np.linspace(0, n - 1, 50).astype(int))
        jacobians = [full.predict_with_derivatives(points[i], order=1)[1] for i in eval_idx]
        reference = select_chart_components(jacobians)

        assert _rank_chart_components(points, dmap, eps) == reference
        # phi's full factor still reads the cloud kernel after the ranking
        assert np.array_equal(dmap.kernel, kernel)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_subset_ranking_matches_full_fit(self, seed):
        assert 3000 > MAX_TRIAL_POINTS
        self.check_ranking_matches_full_fit(3000, seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ranking_within_trial_cap_matches_full_fit(self, seed):
        # a cloud of at most MAX_TRIAL_POINTS rows, as on the sphere: the
        # ranking fit reads every row
        assert 1000 <= MAX_TRIAL_POINTS
        self.check_ranking_matches_full_fit(1000, seed)


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

    def test_cached_clearance_decides_as_a_query_at_every_step(self, monkeypatch):
        # a chart at the sphere workload's settings (N=1000, dt=1e-3) that the
        # trajectory leaves after 882 steps
        cfg = small_cfg(sampler=SamplerConfig(n_samples=1000, perturbation_scale=0.15),
                        n_ode_steps=1000, ode_dt=1e-3)
        base = benchmarks.sphere_project(np.array([0.5, -1.0, 0.3]))
        local = build_local_chart(SPHERE, base, cfg)
        queries = []
        clearance = local.clearance
        monkeypatch.setattr(local, "clearance", lambda x: queries.append(x) or clearance(x))
        rec = integrate_isd_on_chart(local, local.to_chart(base), cfg)
        assert rec.exit_reason == EXIT_TRUST_REGION
        outside = [float(local.tree.query(x)[0]) > local.trust_radius
                   for x in rec.ambient_trajectory]
        assert outside == [False] * (len(outside) - 1) + [True]
        assert 1 < len(queries) < len(outside) // 5


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

    def test_handoff_projects_the_last_ambient_point(self):
        # the next base point is project(psi(u_end)), read from the record
        cfg = small_cfg(n_iterations_max=1, n_ode_steps=100)
        start = benchmarks.sphere_project(np.array([0.9, 0.9, -1.2]))
        traj = run_search(SPHERE, start, cfg)
        assert len(traj.records) == 1
        assert np.array_equal(traj.final_point,
                              SPHERE.project(traj.records[0].ambient_trajectory[-1]))

    def test_learned_chart_failing_first_step_keeps_base(self, monkeypatch):
        # a chart that fails its first step leaves a NaN placeholder as its
        # ambient point; the search relearns around the same base point and
        # never projects the placeholder
        monkeypatch.setattr(driver, "build_local_chart",
                            lambda *args: QuadraticSaddleChart(psi=[[1.0, 0.0], [0.0, 0.0]]))
        start = np.array([0.3, 0.2])
        traj = run_search(flat_problem(), start, small_cfg(n_iterations_max=2))
        assert [r.exit_reason for r in traj.records] == ["degenerate", "degenerate"]
        assert np.array_equal(traj.final_point, start)  # finite: NaN equals nothing

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

    def test_exact_chart_needs_only_the_three_methods(self):
        # the plane's exact chart has only to_chart, evaluate and clearance;
        # the reflected field -2u drives (0.3, 0.2) to the origin
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


class DiscChart(QuadraticSaddleChart):
    """The quadratic saddle's chart, trusted within ``radius`` of its base."""

    def __init__(self, base, radius):
        super().__init__()
        self.base, self.radius = np.array(base, dtype=float), radius

    def clearance(self, x):
        return self.radius - float(np.linalg.norm(x - self.base))


class TestSearchStepBudget:
    """One budget of n_iterations_max * n_ode_steps Euler steps per search."""

    @staticmethod
    def search(monkeypatch, make_chart, cfg, problem=None):
        # learned mode with build_local_chart replaced: make_chart(base,
        # number of charts built so far) gives each chart
        bases = []

        def build(problem, base, cfg, iteration, attempt):
            bases.append(np.array(base))
            return make_chart(base, len(bases) - 1)

        monkeypatch.setattr(driver, "build_local_chart", build)
        problem = problem or flat_problem(force=quadratic_saddle_force)
        return run_search(problem, np.array([0.3, 0.2]), cfg), bases

    def test_chart_that_stays_inside_is_built_once(self, monkeypatch):
        cfg = small_cfg(n_iterations_max=3, n_ode_steps=50, ode_dt=1e-3, tol_force=1e-12)
        traj, bases = self.search(monkeypatch, lambda base, k: QuadraticSaddleChart(), cfg)
        assert len(bases) == 1
        assert len(traj.records) == 1
        assert len(traj.records[0].chart_trajectory) == 3 * 50 + 1
        assert traj.records[0].exit_reason == EXIT_STEP_BUDGET
        assert traj.verdict == VERDICT_MAX_ITERATIONS

    def test_chart_left_through_trust_region_is_relearned_at_projected_end(self, monkeypatch):
        # a projection that moves points, so project(x_end) differs from x_end
        problem = dataclasses.replace(flat_problem(force=quadratic_saddle_force),
                                      project=lambda x: np.round(x, 3))
        cfg = small_cfg(n_iterations_max=3, n_ode_steps=100, ode_dt=1e-2, tol_force=1e-12)
        traj, bases = self.search(monkeypatch, lambda base, k: DiscChart(base, 0.05), cfg,
                                  problem=problem)
        first, second = traj.records[:2]
        assert first.exit_reason == EXIT_TRUST_REGION
        x_end = first.ambient_trajectory[-1]
        assert not np.array_equal(x_end, np.round(x_end, 3))
        assert np.array_equal(bases[1], np.round(x_end, 3))
        assert np.array_equal(second.chart_trajectory[0], bases[1])

    @pytest.mark.parametrize("pattern", ["dddd", "tdtd", "dttt", "tttt", "sddd"])
    def test_steps_and_charts_within_budget(self, monkeypatch, pattern):
        # d: a chart that fails its first step; t: one left through its trust
        # region after a few steps; s: one that never leaves (the budget ends it)
        def make_chart(base, k):
            kind = pattern[k]
            if kind == "d":
                return QuadraticSaddleChart(psi=[[1.0, 0.0], [0.0, 0.0]])
            return DiscChart(base, 0.05 if kind == "t" else np.inf)

        cfg = small_cfg(n_iterations_max=4, n_ode_steps=6, ode_dt=1e-2, tol_force=1e-12)
        traj, bases = self.search(monkeypatch, make_chart, cfg)
        steps = [len(r.chart_trajectory) - 1 for r in traj.records]
        assert len(bases) == len(traj.records) <= 4
        assert sum(steps) <= 4 * 6
        exits = [r.exit_reason for r in traj.records]
        expected = [{"d": EXIT_DEGENERATE, "t": EXIT_TRUST_REGION}.get(kind, EXIT_STEP_BUDGET)
                    for kind in pattern[:len(exits)]]
        if sum(steps) == 4 * 6:
            # the chart that spends the budget ends the search on it
            expected[-1] = EXIT_STEP_BUDGET
        assert exits == expected
        assert traj.verdict == VERDICT_MAX_ITERATIONS

    @pytest.mark.parametrize("mode", ["learned_chart", "exact_chart"])
    def test_single_chart_search_is_one_integration(self, mode):
        # n_iterations_max = 1 leaves the chart the whole n_ode_steps budget,
        # as a direct integration gets it
        cfg = small_cfg(n_iterations_max=1, n_ode_steps=150, ode_dt=1e-3)
        start = SPHERE.project(np.array([0.9, 0.9, -1.2]))
        traj = run_search(SPHERE, start, cfg, mode=mode)
        chart = CHART if mode == "exact_chart" else build_local_chart(SPHERE, start, cfg)
        direct = integrate_isd_on_chart(chart, chart.to_chart(SPHERE.project(start)), cfg)
        (record,) = traj.records
        assert record.exit_reason == direct.exit_reason
        for name in ("chart_trajectory", "ambient_trajectory", "step_force_norms",
                     "step_lambda_mins"):
            assert np.array_equal(getattr(record, name), getattr(direct, name))
        assert np.array_equal(record.spectrum, direct.spectrum)


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


# one short learned sphere search from criterion 2's start at the perfbench
# sphere workload's chart settings (N=1000, dt=1e-3), printed as JSON: two
# charts, the first leaving its trust region, on a budget of 3000 steps
_THREAD_PROBE = """
import json
import numpy as np
from saddlemap import benchmarks
from saddlemap.driver import DriverConfig, run_search
from saddlemap.sampling import SamplerConfig

cfg = DriverConfig(sampler=SamplerConfig(n_samples=1000, perturbation_scale=0.15),
                   n_iterations_max=2, n_ode_steps=1500, ode_dt=1e-3, tol_force=1e-3, seed=0)
traj = run_search(benchmarks.sphere_problem(), benchmarks.sphere_search_start(), cfg)
print(json.dumps({
    "verdict": traj.verdict,
    "exits": [r.exit_reason for r in traj.records],
    "rows": [len(r.chart_trajectory) for r in traj.records],
    "ambient": [np.asarray(r.ambient_trajectory).tolist() for r in traj.records],
    "final": traj.final_point.tolist(),
}))
"""


class TestBlasThreads:
    """The determinism contract across BLAS thread counts: the same records,
    exits and steps, trajectories equal only to rounding. Changes that move
    trajectory bits (a reordered sum) must stay inside the same band."""

    @staticmethod
    def run_probe(threads: int) -> dict:
        env = dict(os.environ)
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[key] = str(threads)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=300)
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_one_and_two_threads_agree(self):
        one, two = self.run_probe(1), self.run_probe(2)
        assert one["verdict"] == two["verdict"]
        assert one["exits"] == two["exits"]
        assert one["rows"] == two["rows"]
        a = np.concatenate([np.asarray(r) for r in one["ambient"]])
        b = np.concatenate([np.asarray(r) for r in two["ambient"]])
        assert np.all(np.isfinite(a)) and np.all(np.isfinite(b))
        # measured with OpenBLAS on 2 vCPUs: a largest gap of 1.2e-11 of the
        # largest coordinate, 2 records of 1231 and 1771 rows on both sides;
        # the bound is the ~1e-9 relative the README's determinism note states
        assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(a))
