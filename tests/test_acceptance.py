"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criterion 2 (sphere search) starts where the paper's reactant sits: near, not
on, a stable equilibrium. The start is the sink nearest (1, 1, -1)/sqrt(3)
moved 0.2 along the e1 tangent and projected back onto the sphere, the same
reactant as the long run in test_driver.py and the sphere_learned benchmark.
The search runs at most twelve charts on one budget of 12 x 1e3 explicit-Euler
steps at dt = 1e-3 (flow time 12), with N = 1000, perturbation scale 0.15 and
force tolerance 1e-3.
At least four of seeds 0-4 must reach an oracle saddle within 5e-2, with
verdict saddle_found, a smaller saddle distance than after the first chart,
under 300 s per seed, and within 1e-2 of the closed-form chart's endpoint
from the same start, so a pass cannot come from learning error.

The exact sink is no start for this criterion. Gentlest ascent dynamics
cannot leave an equilibrium: the force vanishes there, and the covariant
Hessian is isotropic (1.1547 I), so no softest mode exists either. And at
dt = 1e-4 the budget of 12 x 1e3 steps gives a flow time of 1.2, while the
sink-to-saddle geodesic is ~0.955 rad and the field speed is bounded by
~0.577. The
companion test keeps those settings (exact sink, dt = 1e-4) and asserts the
obstruction with the closed-form chart, where no learning error exists. The
`saddlemap run` sphere defaults in cli.py use criterion 2's start
(benchmarks.sphere_search_start), dt = 1e-3 and force tolerance 1e-3, so
criterion 8, which runs those defaults, checks a search that leaves the sink.
"""
import json
import time

import numpy as np
import pytest

from saddlemap import benchmarks, cli
from saddlemap.dimred import bandwidth_median_rule, diffusion_maps
from saddlemap.driver import DriverConfig, run_search
from saddlemap.geometry import GADState, gad_extended_field, isd_field, MetricTensor
from saddlemap.kernels import gaussian_kernel
from saddlemap.regression import fit
from saddlemap.sampling import SamplerConfig

RESULTS = []


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)


def sphere_search_config(seed):
    # criterion 2: at most twelve charts sharing 12 x 1000 steps at dt = 1e-3,
    # flow time 12
    return DriverConfig(
        sampler=SamplerConfig(n_samples=1000, perturbation_scale=0.15, method="flow"),
        n_iterations_max=12,
        n_ode_steps=1000,
        ode_dt=1e-3,
        tol_force=1e-3,
        seed=seed,
    )


def sphere_sink_budget_config(seed):
    # companion test: 12 x 1000 steps at dt = 1e-4, flow time 1.2
    return DriverConfig(
        sampler=SamplerConfig(n_samples=1000, perturbation_scale=0.15, method="flow"),
        n_iterations_max=12,
        n_ode_steps=1000,
        ode_dt=1e-4,
        tol_force=1e-3,
        seed=seed,
    )


def mb_config(seed):
    # criterion 3: at most ten charts sharing 10 x 1000 steps at dt = 1e-4
    return DriverConfig(
        sampler=SamplerConfig(n_samples=5000, perturbation_scale=0.15, method="flow"),
        n_iterations_max=10,
        n_ode_steps=1000,
        ode_dt=1e-4,
        tol_force=5e-2,
        seed=seed,
    )


class TestCriterion1ExactGeometry:
    def test_closed_form_agreement(self):
        t0 = time.time()
        result = cli.validate_geometry(100, seed=0)
        elapsed = time.time() - t0
        ok = (
            result["errors"]["metric_analytic"] < 1e-6
            and result["errors"]["christoffel_analytic"] < 1e-6
            and result["errors"]["christoffel_fd"] < 1e-4
            and result["errors"]["gradient_fd"] < 1e-4
            and result["errors"]["hessian_fd"] < 1e-4
            and elapsed < 10.0
        )
        report(1, ok, f"max errors {result['errors']}, runtime {elapsed:.2f}s")
        assert ok


class TestCriterion2SphereSearch:
    def test_reference_settings_five_seeds(self):
        problem = benchmarks.sphere_problem()
        rep = benchmarks.sphere_critical_points()
        start = benchmarks.sphere_search_start(rep)
        saddles = rep.saddles()
        # oracle mode: the closed-form chart has no learning error, so a
        # learned endpoint far from the exact endpoint cannot count as a pass
        exact = run_search(problem, start, sphere_search_config(0), mode="exact_chart")
        exact_ok = exact.verdict == "saddle_found"
        outcomes = []
        details = []
        for seed in range(5):
            t0 = time.time()
            traj = run_search(problem, start, sphere_search_config(seed))
            elapsed = time.time() - t0
            dist = float(np.min(np.linalg.norm(saddles - traj.final_point, axis=1)))
            err_first = float(np.min(np.linalg.norm(
                saddles - traj.records[0].ambient_trajectory[-1], axis=1)))
            decreasing = dist < err_first
            gap = float(np.linalg.norm(traj.final_point - exact.final_point))
            ok = (
                traj.verdict == "saddle_found"
                and len(traj.records) <= 12
                and dist <= 5e-2
                and decreasing
                and elapsed < 300.0
                and exact_ok
                and gap <= 1e-2
            )
            outcomes.append(ok)
            details.append(f"seed{seed}:{traj.verdict}/{len(traj.records)}it/"
                           f"{dist:.4f}/gap{gap:.1e}/{elapsed:.1f}s")
        passed = sum(outcomes)
        report(2, passed >= 4, f"{passed}/5 seeds ({', '.join(details)}); exact chart "
                               f"{exact.verdict} in {len(exact.records)}it")
        assert passed >= 4

    def test_exact_field_cannot_reach_saddle_in_budget(self):
        # companion measurement backing the sink analysis: from the exact sink
        # at dt = 1e-4, even closed-form geometry (no learning error) leaves
        # the trajectory at the sink after its 12 000 steps
        problem = benchmarks.sphere_problem()
        rep = benchmarks.sphere_critical_points()
        start = benchmarks.sphere_start_point(rep)
        traj = run_search(problem, start, sphere_sink_budget_config(0), mode="exact_chart")
        dist = float(np.min(np.linalg.norm(rep.saddles() - traj.final_point, axis=1)))
        assert traj.verdict == "max_iterations"
        assert dist > 0.9  # still at the sink


class TestCriterion3MBSurfaceSearch:
    def test_reference_settings_five_seeds(self):
        problem = benchmarks.surface_problem()
        rep = benchmarks.mb_surface_critical_points()
        start = benchmarks.mb_start_point(rep)
        saddles = rep.saddles()
        target = saddles[np.argmin(np.linalg.norm(saddles - start, axis=1))]
        outcomes = []
        details = []
        for seed in range(5):
            t0 = time.time()
            traj = run_search(problem, start, mb_config(seed))
            elapsed = time.time() - t0
            dist2 = float(np.linalg.norm(traj.final_point[:2] - target[:2]))
            ok = (
                traj.verdict == "saddle_found"
                and len(traj.records) <= 10
                and dist2 <= 5e-2
                and elapsed < 600.0
            )
            outcomes.append(ok)
            details.append(f"seed{seed}:{len(traj.records)}it/{dist2:.4f}")
        passed = sum(outcomes)
        report(3, passed >= 4, f"{passed}/5 seeds ({', '.join(details)})")
        assert passed >= 4


class TestCriterion4ISDFixedPoint:
    def test_saddle_becomes_sink_and_contracts(self):
        g = MetricTensor(g=np.eye(2), g_inv=np.eye(2))
        v_soft = np.array([0.0, 1.0])

        def field(u):
            return isd_field(np.array([-2.0 * u[0], 2.0 * u[1]]), v_soft, g)

        h = 1e-6
        jac = np.column_stack([(field(h * e) - field(-h * e)) / (2 * h) for e in np.eye(2)])
        eigs = np.linalg.eigvals(jac).real
        u = np.array([0.5, 0.5])
        dt, n = 3.5e-3, 1000  # dt scaled so 1e3 steps realize the e^{-2t} decay
        for _ in range(n):
            u = u + dt * field(u)
        expected = np.linalg.norm([0.5, 0.5]) * (1.0 - 2.0 * dt) ** n
        ok = (
            np.all(eigs < 0.0)
            and np.linalg.norm(u) < 1e-3
            and abs(np.linalg.norm(u) - expected) < 1e-9
        )
        report(4, ok, f"linearization eigs {np.round(eigs, 3)}, |u|={np.linalg.norm(u):.2e}")
        assert ok


class TestCriterion5ContinuousEigensolver:
    def test_v_dynamics_aligns_with_soft_mode(self):
        x = np.array([1.0, 1.0])  # frozen, non-degenerate point
        hess = np.diag([2.0, -2.0])
        rng = np.random.default_rng(11)
        v = rng.standard_normal(2)
        v /= np.linalg.norm(v)
        assert abs(v[1]) > 0.3  # non-orthogonal to the soft mode
        grad = np.array([2.0 * x[0], -2.0 * x[1]])
        dt = 1e-4
        for _ in range(10_000):
            _, dv = gad_extended_field(GADState(x, v), lambda q: grad, lambda q: hess)
            v = v + dt * dv
        cos = abs(v[1]) / np.linalg.norm(v)
        drift = abs(np.linalg.norm(v) - 1.0)
        ok = cos > 0.999 and drift < 1e-4
        report(5, ok, f"|cos|={cos:.6f}, norm drift={drift:.2e}")
        assert ok


class TestCriterion6DiffusionMaps:
    def test_circle_recovery_and_kernel_reuse(self):
        theta = 2.0 * np.pi * np.arange(200) / 200
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        eps = bandwidth_median_rule(pts)
        dmap = diffusion_maps(pts, eps, 2)
        ref = np.column_stack([np.cos(theta), np.sin(theta)])
        a = dmap.coordinates - dmap.coordinates.mean(axis=0)
        b = ref - ref.mean(axis=0)
        u, _, vt = np.linalg.svd(a.T @ b)
        aligned = a @ (u @ vt)
        corrs = [abs(np.corrcoef(aligned[:, k], b[:, k])[0, 1]) for k in range(2)]

        direct = gaussian_kernel(pts, pts, eps)
        byte_identical = (
            np.array_equal(dmap.kernel, direct)
            and dmap.kernel.tobytes() == direct.tobytes()
        )
        model = fit(pts, pts[:, :1], eps, 1e-8, reuse_kernel=dmap.kernel)
        model_direct = fit(pts, pts[:, :1], eps, 1e-8)
        weights_equal = np.array_equal(model.weights, model_direct.weights)

        ok = min(corrs) > 0.99 and byte_identical and weights_equal
        report(6, ok, f"correlations {np.round(corrs, 5)}, kernel byte-identical {byte_identical}")
        assert ok


class TestCriterion7RegressionDerivatives:
    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (80, 3))
        y = np.column_stack([np.sin(x[:, 0]) * x[:, 1], np.cos(x[:, 2])])
        model = fit(x, y, eps=0.4, nugget=1e-8)
        h = 1e-5
        worst = 0.0
        for _ in range(10):
            q = rng.uniform(-0.6, 0.6, 3)
            _, jac, second = model.predict_with_derivatives(q, order=2)
            fd_jac = np.column_stack([
                (model.predict(q + h * e) - model.predict(q - h * e)) / (2 * h)
                for e in np.eye(3)
            ])
            rel_j = np.max(np.abs(jac - fd_jac)) / max(np.max(np.abs(fd_jac)), 1e-12)
            fd_second = np.empty_like(second)
            for b in range(3):
                eb = np.eye(3)[b] * h
                _, jp, _ = model.predict_with_derivatives(q + eb, order=1)
                _, jm, _ = model.predict_with_derivatives(q - eb, order=1)
                fd_second[:, :, b] = (jp - jm) / (2 * h)
            rel_s = np.max(np.abs(second - fd_second.transpose(0, 2, 1))) / max(
                np.max(np.abs(fd_second)), 1e-12
            )
            worst = max(worst, rel_j, rel_s)
        ok = worst < 1e-4
        report(7, ok, f"worst relative derivative error {worst:.2e}")
        assert ok


class TestCriterion8Determinism:
    def test_identical_seeds_identical_csv(self, tmp_path):
        config = {
            "problem": "sphere",
            "mode": "learned_chart",
            "driver": {"seed": 0},
        }
        outputs = []
        for run in range(2):
            out_dir = tmp_path / f"run{run}"
            config["output_dir"] = str(out_dir)
            cfg_path = tmp_path / f"cfg{run}.json"
            cfg_path.write_text(json.dumps(config))
            cli.main(["run", str(cfg_path)])
            outputs.append((out_dir / "trajectory.csv").read_bytes())
        ok = outputs[0] == outputs[1]
        report(8, ok, f"trajectory.csv byte-identical across reruns ({len(outputs[0])} bytes)")
        assert ok


class TestZZSummary:
    def test_print_summary(self):
        print("\n" + "=" * 72)
        for line in RESULTS:
            print(line)
        print("=" * 72)
