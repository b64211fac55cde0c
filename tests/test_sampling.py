import numpy as np
import pytest

from saddlemap import benchmarks
from saddlemap.errors import TetherResidualError
from saddlemap.sampling import (
    SamplerConfig,
    TetherConfig,
    invert_chart_via_tether,
    sample_cloud,
)

from conftest import LinearChartStub, flat_problem

SPHERE = benchmarks.sphere_problem()
SINK = np.array([1.0, 1.0, -1.0]) / np.sqrt(3.0)


class TestFlowPerturbation:
    def test_zero_scale_zero_horizon_copies_base(self):
        cfg = SamplerConfig(n_samples=5, perturbation_scale=0.0, tau=0.0, seed=1)
        cloud = sample_cloud(SPHERE, SINK, cfg)
        assert np.allclose(cloud.points, SINK[None, :], atol=1e-14)

    def test_points_stay_on_sphere(self):
        cfg = SamplerConfig(n_samples=200, perturbation_scale=0.3, tau=0.0, seed=2)
        cloud = sample_cloud(SPHERE, SINK, cfg)
        radii = np.linalg.norm(cloud.points, axis=1)
        assert np.max(np.abs(radii - 1.0)) < 1e-10

    def test_flow_horizon_lowers_energy(self):
        # one-sided Monte-Carlo check: riding the descent flow concentrates
        # the cloud toward the sink
        base = SPHERE.project(SINK + np.array([0.3, -0.2, 0.1]))
        still = sample_cloud(
            SPHERE, base, SamplerConfig(n_samples=1000, perturbation_scale=0.3, tau=0.0, seed=3)
        )
        moved = sample_cloud(
            SPHERE, base,
            SamplerConfig(n_samples=1000, perturbation_scale=0.3, tau=1.0, dt=1e-2,
                          n_steps=100, seed=3),
        )
        e_still = np.mean([SPHERE.energy(p) for p in still.points])
        e_moved = np.mean([SPHERE.energy(p) for p in moved.points])
        assert e_moved < e_still

    def test_inconsistent_flow_clock_rejected(self):
        cfg = SamplerConfig(n_samples=5, tau=1.0, dt=1e-2, n_steps=7, seed=0)
        with pytest.raises(ValueError):
            sample_cloud(SPHERE, SINK, cfg)

    def test_off_manifold_base_rejected(self):
        cfg = SamplerConfig(n_samples=5, seed=0)
        with pytest.raises(ValueError):
            sample_cloud(SPHERE, np.array([1.0, 1.0, 1.0]), cfg)

    def test_only_flow_method_accepted(self):
        assert SamplerConfig(method="flow").method == "flow"
        with pytest.raises(ValueError):
            SamplerConfig(method="brownian")


class TestTether:
    def test_deterministic_fixed_point(self):
        problem = flat_problem(dim=2)
        phi = LinearChartStub(np.eye(2))
        target = np.array([0.3, -0.8])
        tether = TetherConfig(kappa=10.0, target_phi=target, burn_in=2000, n_average=10)
        cfg = SamplerConfig(n_samples=2, sigma=0.0, dt=1e-2, seed=0)
        out = invert_chart_via_tether(problem, phi, tether, cfg, start=np.zeros(2))
        assert np.max(np.abs(out - target)) < 1e-8

    def test_stochastic_stationary_mean(self):
        # oracle: OU stationary law, mean phi0 and sd sigma/sqrt(2 kappa);
        # the averaged estimate must sit within 3 standard errors
        problem = flat_problem(dim=2)
        phi = LinearChartStub(np.eye(2))
        target = np.array([0.5, 0.5])
        n_avg = 4000
        tether = TetherConfig(kappa=10.0, target_phi=target, burn_in=500, n_average=n_avg)
        cfg = SamplerConfig(n_samples=2, sigma=0.01, dt=1e-2, seed=4)
        out = invert_chart_via_tether(problem, phi, tether, cfg, start=np.zeros(2))
        sd = 0.01 / np.sqrt(2.0 * 10.0)
        dt_corr = 1.0 / (10.0 * 1e-2)  # correlation time in steps
        se = sd / np.sqrt(n_avg / dt_corr) * 3.0
        assert np.max(np.abs(out - target)) < 3.0 * se + 1e-6

    def test_sphere_chart_inversion(self, rng):
        # learn a small chart, then invert it at an interior target
        from saddlemap.dimred import bandwidth_median_rule, diffusion_maps
        from saddlemap.regression import fit

        cloud = sample_cloud(
            SPHERE, SINK, SamplerConfig(n_samples=400, perturbation_scale=0.25, seed=21)
        )
        eps = bandwidth_median_rule(cloud.points)
        dmap = diffusion_maps(cloud.points, eps, 3)
        chart = dmap.coordinates[:, :2]
        phi = fit(cloud.points, chart, eps, 1e-8, reuse_kernel=dmap.kernel)
        target = chart[57]
        tether = TetherConfig(kappa=2.0, target_phi=target, burn_in=1500, n_average=100)
        cfg = SamplerConfig(n_samples=2, sigma=0.0, dt=2e-2, seed=3)
        out = invert_chart_via_tether(SPHERE, phi, tether, cfg, start=SINK)
        residual = np.linalg.norm(phi.predict(out) - target)
        diam = np.linalg.norm(chart.max(axis=0) - chart.min(axis=0))
        assert residual < 0.1 * diam
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10

    def test_residual_tolerance_raises(self):
        problem = flat_problem(dim=2)
        phi = LinearChartStub(np.eye(2))
        target = np.array([5.0, 5.0])
        tether = TetherConfig(kappa=10.0, target_phi=target, burn_in=1, n_average=1)
        cfg = SamplerConfig(n_samples=2, sigma=0.0, dt=1e-3, seed=0)
        with pytest.raises(TetherResidualError) as err:
            invert_chart_via_tether(problem, phi, tether, cfg, start=np.zeros(2), tol=1e-3)
        assert err.value.point is not None
        assert err.value.residual > 1e-3


class TestWalkerSplitting:
    def test_flow_clouds_reproducible(self):
        cfg = SamplerConfig(n_samples=64, perturbation_scale=0.2, seed=77)
        a = sample_cloud(SPHERE, SINK, cfg)
        b = sample_cloud(SPHERE, SINK, cfg)
        assert np.array_equal(a.points, b.points)

    def test_walkers_independent_of_order(self):
        # per-walker generators: any single walker's draw matches a fresh
        # generator seeded with (seed, walker index)
        cfg = SamplerConfig(n_samples=8, perturbation_scale=0.5, seed=31)
        problem = flat_problem(dim=3)
        cloud = sample_cloud(problem, np.zeros(3), cfg)
        rng5 = np.random.default_rng([31, 5])
        assert np.allclose(cloud.points[5], 0.5 * rng5.standard_normal(3), atol=1e-15)
