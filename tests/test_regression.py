import numpy as np
import pytest
import scipy.linalg

from saddlemap import regression
from saddlemap.dimred import bandwidth_median_rule, diffusion_maps
from saddlemap.errors import ChartFitError
from saddlemap.kernels import gaussian_kernel
from saddlemap.regression import (
    ChartPair,
    fit,
    fit_with_nugget_selection,
    kernel_factorization,
    score,
)


class TestFit:
    def test_interpolates_identity(self, rng):
        x = rng.uniform(-1, 1, (5, 2))
        model = fit(x, x, eps=0.5, nugget=1e-10)
        pred = model.predict_batch(x)
        assert np.max(np.abs(pred - x)) < 1e-6

    def test_constant_target(self, rng):
        x = rng.uniform(-1, 1, (8, 2))
        c = np.full((8, 1), 3.25)
        model = fit(x, c, eps=0.5, nugget=1e-10)
        assert np.max(np.abs(model.predict_batch(x) - 3.25)) < 1e-6

    def test_reuse_kernel_bitwise(self, rng):
        x = rng.uniform(-1, 1, (30, 3))
        eps = bandwidth_median_rule(x)
        kernel = gaussian_kernel(x, x, eps)
        with_reuse = fit(x, x[:, :2], eps, 1e-8, reuse_kernel=kernel)
        without = fit(x, x[:, :2], eps, 1e-8)
        assert np.array_equal(with_reuse.weights, without.weights)

    def test_reuse_kernel_validated(self, rng):
        x = rng.uniform(-1, 1, (10, 2))
        bad = gaussian_kernel(x, x, 0.7) + 1e-6
        with pytest.raises(ValueError):
            fit(x, x, eps=0.7, nugget=1e-8, reuse_kernel=bad)

    def test_duplicate_inputs_zero_nugget_raises(self):
        x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ChartFitError):
            fit(x, x, eps=1.0, nugget=0.0)

    def test_invalid_hyperparameters(self, rng):
        x = rng.uniform(-1, 1, (4, 1))
        with pytest.raises(ValueError):
            fit(x, x, eps=-1.0, nugget=1e-8)
        with pytest.raises(ValueError):
            fit(x, x, eps=1.0, nugget=-1e-8)


class TestFactorization:
    def test_equals_factor_of_dense_sum_bitwise(self, rng):
        x = rng.uniform(-1, 1, (40, 3))
        kernel = gaussian_kernel(x, x, bandwidth_median_rule(x))
        before = kernel.copy()
        for nugget in (1e-8, 1e-6, 1e-4):
            factor, lower = kernel_factorization(kernel, nugget)
            expected, _ = scipy.linalg.cho_factor(kernel + nugget * np.eye(40), lower=True)
            assert lower
            assert np.array_equal(factor, expected)
        assert np.array_equal(kernel, before)  # only its copy is overwritten

    def test_fit_with_factorization_assembles_no_kernel(self, rng, monkeypatch):
        x = rng.uniform(-1, 1, (40, 3))
        eps = bandwidth_median_rule(x)
        factorization = kernel_factorization(gaussian_kernel(x, x, eps), 1e-6)
        expected = fit(x, x[:, :2], eps, 1e-6)
        calls = []
        assemble = regression.gaussian_kernel
        monkeypatch.setattr(
            regression, "gaussian_kernel", lambda *a, **k: calls.append(a) or assemble(*a, **k)
        )
        model = fit(x, x[:, :2], eps, 1e-6, factorization=factorization)
        assert len(calls) == 0
        assert np.array_equal(model.weights, expected.weights)


class TestDerivatives:
    def _model(self, rng, n=60, p=3, q=2):
        x = rng.uniform(-1, 1, (n, p))
        y = np.column_stack([
            np.sin(x[:, 0]) + x[:, 1] ** 2,
            np.cos(x[:, 1]) * x[:, 2],
        ])[:, :q]
        return fit(x, y, eps=0.4, nugget=1e-8)

    def test_jacobian_matches_fd(self, rng):
        # oracle: central finite differences of the predictor itself
        model = self._model(rng)
        h = 1e-5
        for _ in range(10):
            x = rng.uniform(-0.7, 0.7, 3)
            _, jac, _ = model.predict_with_derivatives(x, order=1)
            fd = np.column_stack([
                (model.predict(x + h * e) - model.predict(x - h * e)) / (2 * h)
                for e in np.eye(3)
            ])
            assert np.max(np.abs(jac - fd)) / max(np.max(np.abs(fd)), 1e-12) < 1e-5

    def test_second_matches_fd(self, rng):
        model = self._model(rng)
        for h in (1e-5, 1e-4):
            x = rng.uniform(-0.5, 0.5, 3)
            _, _, second = model.predict_with_derivatives(x, order=2)
            fd = np.empty_like(second)
            for b in range(3):
                eb = np.eye(3)[b] * h
                _, jp, _ = model.predict_with_derivatives(x + eb, order=1)
                _, jm, _ = model.predict_with_derivatives(x - eb, order=1)
                fd[:, :, b] = (jp - jm) / (2 * h)
            rel = np.max(np.abs(second - fd.transpose(0, 2, 1))) / max(np.max(np.abs(fd)), 1e-12)
            assert rel < 1e-4

    def test_linear_function_has_small_second(self, rng):
        x = rng.uniform(0, 1, (80, 2))
        y = x @ np.array([[1.0], [-2.0]])
        model = fit(x, y, eps=bandwidth_median_rule(x), nugget=1e-8)
        center = x.mean(axis=0)
        _, _, second = model.predict_with_derivatives(center, order=2)
        assert np.max(np.abs(second)) < 1e-3

    def test_dense_interpolation_midpoint(self):
        x = np.linspace(0.0, 1.0, 50)[:, None]
        model = fit(x, x, eps=0.05, nugget=1e-10)
        assert model.predict(np.array([0.5]))[0] == pytest.approx(0.5, abs=1e-3)


class TestScore:
    def test_perfect_prediction(self, rng):
        x = rng.uniform(-1, 1, (20, 2))
        model = fit(x, x, eps=0.5, nugget=1e-12)
        assert score(model, x, x) == pytest.approx(1.0, abs=1e-6)

    def test_mean_predictor_scores_zero(self, rng):
        # a constant-fit model predicting the training mean of held-out data
        x = rng.uniform(-1, 1, (30, 1))
        y = rng.standard_normal((30, 1))
        const = np.full_like(y, y.mean())
        model = fit(x, const, eps=0.5, nugget=1e-10)
        assert score(model, x, y) == pytest.approx(0.0, abs=1e-4)

    def test_zero_variance_targets(self, rng):
        x = rng.uniform(-1, 1, (10, 1))
        c = np.full((10, 1), 2.0)
        model = fit(x, c, eps=0.5, nugget=1e-12)
        assert score(model, x, c) == pytest.approx(1.0, abs=1e-8)
        bad = fit(x, x, eps=0.5, nugget=1e-10)
        with pytest.raises(ValueError):
            score(bad, x, c)

    def test_sphere_chart_inverse_heldout(self, rng):
        # desk-scale experiment: psi fitted on 80% of a sphere-cap cloud
        # generalizes with R^2 > 0.99 on the held-out 20%
        base = np.array([0.0, 0.0, -1.0])
        raw = base + 0.25 * rng.standard_normal((1000, 3))
        pts = raw / np.linalg.norm(raw, axis=1)[:, None]
        eps = bandwidth_median_rule(pts)
        dmap = diffusion_maps(pts, eps, 4)
        chart = dmap.coordinates[:, :2]
        train, test = np.arange(800), np.arange(800, 1000)
        psi = fit(chart[train], pts[train], bandwidth_median_rule(chart[train]), 1e-8)
        assert score(psi, chart[test], pts[test]) > 0.99


class TestInvariants:
    def test_interpolation_limit_monotone(self, rng):
        x = rng.uniform(-1, 1, (40, 2))
        y = np.sin(x[:, :1] * 2.0)
        residuals = []
        for nugget in (1e-4, 1e-6, 1e-8):
            model = fit(x, y, eps=0.5, nugget=nugget)
            residuals.append(np.max(np.abs(model.predict_batch(x) - y)))
        assert residuals[0] >= residuals[1] >= residuals[2]

    def test_permutation_invariance(self, rng):
        x = rng.uniform(-1, 1, (25, 2))
        y = np.cos(x @ np.array([[1.0], [0.5]]))
        model = fit(x, y, eps=0.8, nugget=1e-6)
        perm = rng.permutation(25)
        model_p = fit(x[perm], y[perm], eps=0.8, nugget=1e-6)
        for _ in range(5):
            q = rng.uniform(-1, 1, 2)
            assert abs(model.predict(q)[0] - model_p.predict(q)[0]) < 1e-12


class TestNuggetSelection:
    def test_smallest_sufficient_nugget_chosen(self, rng):
        x = rng.uniform(-1, 1, (120, 2))
        y = np.column_stack([np.sin(2 * x[:, 0]), x[:, 1] ** 2])
        model, r2 = fit_with_nugget_selection(x, y, eps=0.4, rng=rng)
        assert model.nugget == 1e-8
        assert r2 >= 0.99

    def test_cache_keeps_systems_apart(self, rng):
        # two input sets of one size that pick the same nugget share a
        # cache; each model must still solve its own kernel system
        def target(x):
            return np.column_stack([np.sin(2 * x[:, 0]), x[:, 1] ** 2])

        cache: dict = {}
        models = []
        for x in (rng.uniform(-1, 1, (120, 2)), rng.uniform(-1, 1, (120, 2))):
            cached, _ = fit_with_nugget_selection(
                x, target(x), eps=0.4, rng=np.random.default_rng(7), factorization_cache=cache
            )
            fresh, _ = fit_with_nugget_selection(x, target(x), eps=0.4, rng=np.random.default_rng(7))
            assert np.array_equal(cached.weights, fresh.weights)
            models.append(cached)
        assert models[0].nugget == models[1].nugget

    def test_reused_kernel_gives_identical_fit(self, rng):
        # trial kernels taken as submatrices of a supplied kernel equal the
        # ones assembled from the trial rows
        x = rng.uniform(-1, 1, (150, 2))
        y = np.column_stack([np.sin(2 * x[:, 0]), x[:, 1] ** 2])
        assembled, r2 = fit_with_nugget_selection(
            x, y, eps=0.4, rng=np.random.default_rng(3), max_trial_points=100
        )
        reused, r2_reused = fit_with_nugget_selection(
            x, y, eps=0.4, rng=np.random.default_rng(3), max_trial_points=100,
            reuse_kernel=gaussian_kernel(x, x, 0.4),
        )
        assert r2_reused == r2 and reused.nugget == assembled.nugget
        assert np.array_equal(reused.weights, assembled.weights)

    def test_unreachable_target_raises(self, rng):
        x = rng.uniform(-1, 1, (60, 1))
        noise = rng.standard_normal((60, 1))
        with pytest.raises(ChartFitError):
            fit_with_nugget_selection(x, noise, eps=1e-6, rng=rng)


class TestChartPair:
    def test_fit_contract(self, rng):
        base = np.array([0.0, 0.0, -1.0])
        raw = base + 0.2 * rng.standard_normal((300, 3))
        pts = raw / np.linalg.norm(raw, axis=1)[:, None]
        eps = bandwidth_median_rule(pts)
        dmap = diffusion_maps(pts, eps, 3)
        chart_samples = dmap.coordinates[:, :2]
        phi = fit(pts, chart_samples, eps, 1e-8, reuse_kernel=dmap.kernel)
        psi = fit(chart_samples, pts, bandwidth_median_rule(chart_samples), 1e-8)
        pair = ChartPair(phi=phi, psi=psi, chart_samples=chart_samples)
        assert pair.chart_dim == 2
        scale = np.max(np.abs(chart_samples))
        assert np.max(np.abs(phi.predict_batch(pts) - chart_samples)) < 1e-4 * scale
        assert np.max(np.linalg.norm(psi.predict_batch(chart_samples) - pts, axis=1)) < 1e-3
        assert pair.chart_diameter() > 0.0
