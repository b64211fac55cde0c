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


def _per_walker_cloud(problem, base, cfg, seed):
    """The one-walker-at-a-time loop the batched sampler replaced: points, forces."""
    points = np.empty((cfg.n_samples, base.shape[0]))
    for i in range(cfg.n_samples):
        rng = np.random.default_rng([seed, i])
        points[i] = problem.project(base + cfg.perturbation_scale * rng.standard_normal(base.shape[0]))
    return points, np.vstack([problem.force(p) for p in points])


class TestFlowPerturbation:
    def test_zero_scale_rejected(self):
        # every sample would be the base point, and no chart comes from that
        with pytest.raises(ValueError, match="perturbation_scale"):
            SamplerConfig(n_samples=5, perturbation_scale=0.0)

    def test_points_stay_on_sphere(self):
        cfg = SamplerConfig(n_samples=200, perturbation_scale=0.3, tau=0.0)
        cloud = sample_cloud(SPHERE, SINK, cfg, seed=2)
        radii = np.linalg.norm(cloud.points, axis=1)
        assert np.max(np.abs(radii - 1.0)) < 1e-10

    def test_off_manifold_base_rejected(self):
        cfg = SamplerConfig(n_samples=5)
        with pytest.raises(ValueError):
            sample_cloud(SPHERE, np.array([1.0, 1.0, 1.0]), cfg, seed=0)

    def test_only_flow_method_accepted(self):
        assert SamplerConfig(method="flow").method == "flow"
        with pytest.raises(ValueError):
            SamplerConfig(method="brownian")
        # the sampler has no flow horizon
        with pytest.raises(ValueError):
            SamplerConfig(tau=1.0)


class TestTether:
    def test_deterministic_fixed_point(self):
        problem = flat_problem(dim=2)
        phi = LinearChartStub(np.eye(2))
        target = np.array([0.3, -0.8])
        tether = TetherConfig(kappa=10.0, target_phi=target, dt=1e-2, burn_in=2000, n_average=10)
        out = invert_chart_via_tether(problem, phi, tether, start=np.zeros(2))
        assert np.max(np.abs(out - target)) < 1e-8

    def test_sphere_chart_inversion(self, rng):
        # learn a small chart, then invert it at an interior target
        from saddlemap.dimred import bandwidth_median_rule, diffusion_maps
        from saddlemap.regression import fit

        cloud = sample_cloud(
            SPHERE, SINK, SamplerConfig(n_samples=400, perturbation_scale=0.25), seed=21
        )
        eps = bandwidth_median_rule(cloud.points)
        dmap = diffusion_maps(cloud.points, eps, 3)
        chart = dmap.coordinates[:, :2]
        phi = fit(cloud.points, chart, eps, 1e-8, reuse_kernel=dmap.kernel)
        target = chart[57]
        tether = TetherConfig(kappa=2.0, target_phi=target, dt=2e-2, burn_in=1500, n_average=100)
        out = invert_chart_via_tether(SPHERE, phi, tether, start=SINK)
        residual = np.linalg.norm(phi.predict(out) - target)
        diam = np.linalg.norm(chart.max(axis=0) - chart.min(axis=0))
        assert residual < 0.1 * diam
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10

    def test_residual_tolerance_raises(self):
        problem = flat_problem(dim=2)
        phi = LinearChartStub(np.eye(2))
        target = np.array([5.0, 5.0])
        tether = TetherConfig(kappa=10.0, target_phi=target, dt=1e-3, burn_in=1, n_average=1)
        with pytest.raises(TetherResidualError) as err:
            invert_chart_via_tether(problem, phi, tether, start=np.zeros(2), tol=1e-3)
        assert err.value.point is not None
        assert err.value.residual > 1e-3


class TestBatchedCloud:
    @pytest.mark.parametrize("seed", [0, 987654321])
    @pytest.mark.parametrize("problem, base, scale", [
        (SPHERE, SINK, 0.2),
        (benchmarks.surface_problem(), benchmarks.surface_lift(np.array([0.62, 0.03])), 0.15),
    ], ids=["sphere", "mb_surface"])
    def test_matches_per_walker_loop(self, problem, base, scale, seed):
        cfg = SamplerConfig(n_samples=500, perturbation_scale=scale)
        cloud = sample_cloud(problem, base, cfg, seed)
        points, forces = _per_walker_cloud(problem, base, cfg, seed)
        assert np.array_equal(cloud.points, points)
        assert np.array_equal(cloud.forces, forces)


class TestWalkerSplitting:
    def test_flow_clouds_reproducible(self):
        cfg = SamplerConfig(n_samples=64, perturbation_scale=0.2)
        a = sample_cloud(SPHERE, SINK, cfg, seed=77)
        b = sample_cloud(SPHERE, SINK, cfg, seed=77)
        assert np.array_equal(a.points, b.points)

    def test_walkers_independent_of_order(self):
        # per-walker generators: any single walker's draw matches a fresh
        # generator seeded with (seed, walker index)
        cfg = SamplerConfig(n_samples=8, perturbation_scale=0.5)
        problem = flat_problem(dim=3)
        cloud = sample_cloud(problem, np.zeros(3), cfg, seed=31)
        rng5 = np.random.default_rng([31, 5])
        assert np.allclose(cloud.points[5], 0.5 * rng5.standard_normal(3), atol=1e-15)
