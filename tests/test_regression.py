import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlemap import regression
from saddlemap.dimred import bandwidth_median_rule, diffusion_maps
from saddlemap.errors import ChartFitError
from saddlemap.kernels import gaussian_kernel
from saddlemap.regression import (
    NUGGET_LADDER,
    RegressorModel,
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

    def test_reused_kernel_left_unchanged(self, rng):
        # the nugget trials hand one trial kernel to every nugget's fit
        x = rng.uniform(-1, 1, (40, 2))
        kernel = gaussian_kernel(x, x, 0.4)
        before = kernel.copy()
        for nugget in NUGGET_LADDER:
            fit(x, x[:, :1], 0.4, nugget, reuse_kernel=kernel)
        assert np.array_equal(kernel, before)

    def test_only_own_kernel_factored_in_place(self, rng, monkeypatch):
        x = rng.uniform(-1, 1, (40, 2))
        kernel = gaussian_kernel(x, x, 0.4)
        overwrites = []
        factor = regression.kernel_factorization

        def recording(kernel, nugget, overwrite_kernel=False):
            overwrites.append(overwrite_kernel)
            return factor(kernel, nugget, overwrite_kernel=overwrite_kernel)

        monkeypatch.setattr(regression, "kernel_factorization", recording)
        own = fit(x, x[:, :1], 0.4, 1e-8)
        reused = fit(x, x[:, :1], 0.4, 1e-8, reuse_kernel=kernel)
        assert overwrites == [True, False]
        assert np.array_equal(own.weights, reused.weights)

    def test_duplicate_inputs_zero_nugget_raises(self):
        # a singular finite system is a ChartFitError, own or reused kernel
        x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ChartFitError):
            fit(x, x, eps=1.0, nugget=0.0)
        with pytest.raises(ChartFitError):
            fit(x, x, eps=1.0, nugget=0.0, reuse_kernel=gaussian_kernel(x, x, 1.0))

    def test_invalid_hyperparameters(self, rng):
        x = rng.uniform(-1, 1, (4, 1))
        with pytest.raises(ValueError):
            fit(x, x, eps=-1.0, nugget=1e-8)
        with pytest.raises(ValueError):
            fit(x, x, eps=1.0, nugget=-1e-8)
        with pytest.raises(ValueError):
            fit(x, x, eps=1.0, nugget=1e-8, reuse_kernel=np.eye(3))

    @pytest.mark.parametrize("where", ["inputs", "targets"])
    def test_non_finite_data_raises(self, rng, where):
        x = rng.uniform(-1, 1, (20, 2))
        data = {"inputs": x.copy(), "targets": x[:, :1].copy()}
        data[where][7, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fit(data["inputs"], data["targets"], eps=0.5, nugget=1e-8)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n", [5, 300])
    def test_non_finite_reused_kernel_raises(self, rng, value, n):
        # a non-finite entry either reaches its row's diagonal in the factor
        # or stops the factorization early; both are a ValueError, not a
        # singular system
        x = rng.uniform(-1, 1, (n, 2))
        for i, j in [(n - 1, 0), (2, 2), (n // 2, 1)]:
            kernel = gaussian_kernel(x, x, 0.5)
            kernel[i, j] = kernel[j, i] = value
            with pytest.raises(ValueError, match="non-finite"):
                fit(x, x[:, :1], 0.5, 1e-6, reuse_kernel=kernel)


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
        model, r2 = fit_with_nugget_selection(x, y, 0.4, rng, gaussian_kernel(x, x, 0.4), {})
        assert model.nugget == 1e-8
        assert r2 >= 0.99

    def test_reused_kernel_gives_identical_fit(self, rng):
        # a supplied kernel changes no trial and no full fit: each equals a
        # fit on the split's rows and a fit on all rows, also when the
        # trials run on a row subset
        for n in (150, regression.MAX_TRIAL_POINTS + 100):
            x = rng.uniform(-1, 1, (n, 2))
            y = np.column_stack([np.sin(2 * x[:, 0]), x[:, 1] ** 2])
            factors: dict = {}
            reused, r2_reused = fit_with_nugget_selection(
                x, y, 0.4, np.random.default_rng(3), gaussian_kernel(x, x, 0.4), factors
            )
            split_rng = np.random.default_rng(3)
            rows = np.arange(n)
            if n > regression.MAX_TRIAL_POINTS:
                rows = np.sort(split_rng.permutation(n)[:regression.MAX_TRIAL_POINTS])
            tr, te = (rows[i] for i in regression.holdout_split(rows.size, split_rng))
            for nugget in regression.NUGGET_LADDER:
                try:
                    trial = fit(x[tr], y[tr], 0.4, nugget)
                except ChartFitError:
                    continue
                r2 = score(trial, x[te], y[te])
                if r2 >= regression.R2_TARGET:
                    break
            assert r2_reused == r2 and reused.nugget == nugget
            assert np.array_equal(reused.weights, fit(x, y, 0.4, nugget).weights)
            assert list(factors) == [nugget]

    @pytest.mark.parametrize("n", [150, regression.MAX_TRIAL_POINTS + 100])
    def test_assembled_blocks_give_identical_fit(self, rng, n):
        # the chart force's fit: no kernel handed over, and phi's factor
        # reused from the dict
        x = rng.uniform(-1, 1, (n, 2))
        y = np.column_stack([np.sin(2 * x[:, 0]), x[:, 1] ** 2])
        factors: dict = {}
        handed, r2_handed = fit_with_nugget_selection(
            x, y, 0.4, np.random.default_rng(5), gaussian_kernel(x, x, 0.4), factors
        )
        held = factors[handed.nugget]
        assembled, r2_assembled = fit_with_nugget_selection(
            x, y, 0.4, np.random.default_rng(5), None, factors
        )
        assert r2_assembled == r2_handed and assembled.nugget == handed.nugget
        assert np.array_equal(assembled.weights, handed.weights)
        assert list(factors) == [handed.nugget] and factors[handed.nugget] is held

    def test_other_nugget_drops_the_held_factor(self, rng):
        x = rng.uniform(-1, 1, (120, 2))
        y = np.column_stack([np.sin(2 * x[:, 0]), x[:, 1] ** 2])
        held = kernel_factorization(gaussian_kernel(x, x, 0.4), 1e-4)
        factors = {1e-4: held}
        model, _ = fit_with_nugget_selection(x, y, 0.4, rng, None, factors)
        assert model.nugget == 1e-8
        assert list(factors) == [1e-8]
        assert np.array_equal(model.weights, fit(x, y, 0.4, 1e-8).weights)

    def test_unreachable_target_raises(self, rng):
        x = rng.uniform(-1, 1, (60, 1))
        noise = rng.standard_normal((60, 1))
        with pytest.raises(ChartFitError):
            fit_with_nugget_selection(x, noise, 1e-6, rng, gaussian_kernel(x, x, 1e-6), {})


class TestChartMapFits:
    def test_fit_contract(self, rng):
        base = np.array([0.0, 0.0, -1.0])
        raw = base + 0.2 * rng.standard_normal((300, 3))
        pts = raw / np.linalg.norm(raw, axis=1)[:, None]
        eps = bandwidth_median_rule(pts)
        dmap = diffusion_maps(pts, eps, 3)
        chart_samples = dmap.coordinates[:, :2]
        phi = fit(pts, chart_samples, eps, 1e-8, reuse_kernel=dmap.kernel)
        psi = fit(chart_samples, pts, bandwidth_median_rule(chart_samples), 1e-8)
        scale = np.max(np.abs(chart_samples))
        assert np.max(np.abs(phi.predict_batch(pts) - chart_samples)) < 1e-4 * scale
        assert np.max(np.linalg.norm(psi.predict_batch(chart_samples) - pts, axis=1)) < 1e-3


seeds = st.integers(0, 2**32 - 1)


class TestLayoutBitwise:
    """Column-major train_inputs, the straight kernel copy and the in-place
    factor change no bit."""

    def test_fit_stores_column_major_inputs(self, rng):
        x = rng.uniform(-1, 1, (30, 3))
        assert fit(x, x[:, :2], eps=0.5, nugget=1e-8).train_inputs.flags.f_contiguous

    @staticmethod
    def _both_layouts(seed, n, p, q, order):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (n, p))
        c_model = RegressorModel(train_inputs=np.ascontiguousarray(x),
                                 bandwidth_eps=float(rng.uniform(0.05, 2.0)), nugget=0.0,
                                 weights=rng.standard_normal((n, q)))
        f_model = dataclasses.replace(c_model, train_inputs=np.asfortranarray(x))
        query = rng.uniform(-1.2, 1.2, p)
        c_out = c_model.predict_with_derivatives(query, order=order)
        f_out = f_model.predict_with_derivatives(query, order=order)
        assert all(a is None and b is None for a, b in zip(c_out[order + 1:], f_out[order + 1:]))
        return c_model, c_out[:order + 1], f_out[:order + 1]

    @settings(max_examples=150, deadline=None)
    @given(seeds, st.integers(1, 1200), st.integers(1, 4), st.integers(2, 8), st.integers(0, 2))
    def test_predictions_independent_of_input_order(self, seed, n, p, q, order):
        # every regressor of a chart of dimension >= 2 has q >= 2 outputs
        _, c_out, f_out = self._both_layouts(seed, n, p, q, order)
        assert all(np.array_equal(a, b) for a, b in zip(c_out, f_out))

    @settings(max_examples=150, deadline=None)
    @given(seeds, st.integers(1, 1200), st.integers(1, 4), st.integers(0, 2))
    def test_single_output_derivatives_agree_to_rounding(self, seed, n, p, order):
        # with q = 1 the Jacobian's kw.T @ diff is a BLAS matrix-vector
        # product, whose accumulation order follows the layout of diff: the
        # value stays bitwise equal, the derivatives only to rounding
        model, c_out, f_out = self._both_layouts(seed, n, p, 1, order)
        assert np.array_equal(c_out[0], f_out[0])
        eps = model.bandwidth_eps
        for k in range(1, order + 1):
            scale = np.abs(model.weights).sum() * ((1.0 + 2.5 ** 2) / min(eps, 1.0)) ** k
            assert np.max(np.abs(c_out[k] - f_out[k])) <= 1e-14 * n * scale

    @settings(max_examples=100, deadline=None)
    @given(seeds, st.integers(2, 150), st.integers(1, 4), st.sampled_from(NUGGET_LADDER))
    def test_factor_equals_factor_of_transposing_copy(self, seed, n, p, nugget):
        # the copying factor, and the in-place one of a C-ordered kernel (a
        # full kernel or an np.ix_ subset copy) that takes its buffer
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (n, p))
        kernel = gaussian_kernel(x, x, bandwidth_median_rule(x))
        sub = np.sort(rng.choice(n, size=max(1, n // 2), replace=False))
        for k in (kernel, kernel[np.ix_(sub, sub)]):
            # the Fortran-order copy of K itself transposes a C-ordered K
            system = np.array(k, dtype=float, order="F")
            system[np.diag_indices(k.shape[0])] += nugget
            own = k.copy()
            try:
                expected, _ = scipy.linalg.cho_factor(system, lower=True, overwrite_a=True)
            except scipy.linalg.LinAlgError:
                for overwrite in (False, True):
                    with pytest.raises(ChartFitError):
                        kernel_factorization(own, nugget, overwrite_kernel=overwrite)
                continue
            factor, lower = kernel_factorization(k, nugget)
            in_place, in_place_lower = kernel_factorization(own, nugget, overwrite_kernel=True)
            assert lower and in_place_lower
            assert np.array_equal(factor, expected)
            assert np.array_equal(in_place, expected)
            assert np.shares_memory(in_place, own)  # no copy was made


def reference_prediction(model: RegressorModel, x: np.ndarray):
    """The value, Jacobian and second derivative by the formulas the chart
    build has read since the kernel regressor was written: the second
    derivative contracts an (N, p, p) outer-product array with einsum."""
    x = np.asarray(x, dtype=float)
    eps = model.bandwidth_eps
    diff = x[None, :] - model.train_inputs
    k = np.exp(-np.sum(diff * diff, axis=1) / (2.0 * eps))
    value = k @ model.weights
    kw = k[:, None] * model.weights
    jacobian = -(kw.T @ diff) / eps
    outer = np.einsum("ib,ic->ibc", diff, diff) / eps ** 2
    outer -= np.eye(x.shape[0])[None, :, :] / eps
    second = np.einsum("ia,ibc->abc", kw, outer)
    return value, jacobian, second


class TestPredictionBits:
    """phi, the component ranking and the chart force read orders 0 and 1,
    so those orders keep their bits; only psi's second derivative is a
    new product, equal to the einsum formula to rounding."""

    @settings(max_examples=200, deadline=None)
    @given(seeds, st.integers(1, 1200), st.integers(1, 4), st.integers(1, 8),
           st.sampled_from(("C", "F")))
    def test_orders_pinned_to_reference(self, seed, n, p, q, layout):
        rng = np.random.default_rng(seed)
        model = RegressorModel(train_inputs=np.asarray(rng.uniform(-1, 1, (n, p)), order=layout),
                               bandwidth_eps=float(rng.uniform(0.05, 2.0)), nugget=0.0,
                               weights=rng.standard_normal((n, q)))
        query = rng.uniform(-1.2, 1.2, p)
        ref_value, ref_jac, ref_second = reference_prediction(model, query)

        value0, jac0, second0 = model.predict_with_derivatives(query, order=0)
        assert np.array_equal(value0, ref_value) and jac0 is None and second0 is None
        value1, jac1, second1 = model.predict_with_derivatives(query, order=1)
        assert np.array_equal(value1, ref_value) and np.array_equal(jac1, ref_jac)
        assert second1 is None
        value2, jac2, second2 = model.predict_with_derivatives(query, order=2)
        assert np.array_equal(value2, value1) and np.array_equal(jac2, jac1)

        # both formulas sum the same n terms per entry in another order
        eps = model.bandwidth_eps
        diff = query[None, :] - model.train_inputs
        k = np.exp(-np.sum(diff * diff, axis=1) / (2.0 * eps))
        terms = (np.sum(diff * diff, axis=1) / eps ** 2 + 1.0 / eps)
        scale = (np.abs(k[:, None] * model.weights) * terms[:, None]).sum(axis=0)
        assert second2.shape == ref_second.shape == (q, p, p)
        assert np.all(np.abs(second2 - ref_second) <= 1e-15 * n * scale[:, None, None])
