"""Squared-exponential kernel regression with analytic predictor derivatives.

Used three ways in the pipeline: ambient -> chart coordinates (phi), chart ->
ambient (psi), and the chart force field. Prediction is mean-only: the models
act as smooth interpolants, never as uncertainty estimates. The kernel matrix
of the diffusion-map step can be passed in verbatim as the covariance, saving
its recomputation.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import ChartFitError
from .kernels import gaussian_kernel

NUGGET_LADDER = (1e-8, 1e-6, 1e-4)
R2_TARGET = 0.99


@dataclass(frozen=True)
class RegressorModel:
    """Fitted kernel regressor mapping R^p -> R^q."""

    train_inputs: np.ndarray   # (N, p)
    bandwidth_eps: float
    nugget: float
    weights: np.ndarray        # (N, q), solution of (K + nugget I) w = targets

    def predict(self, x: np.ndarray) -> np.ndarray:
        value, _, _ = self.predict_with_derivatives(x, order=0)
        return value

    def predict_batch(self, xs: np.ndarray) -> np.ndarray:
        """Mean prediction at many query points at once."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return gaussian_kernel(xs, self.train_inputs, self.bandwidth_eps) @ self.weights

    def predict_with_derivatives(
        self, x: np.ndarray, order: int = 2
    ) -> tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
        """Prediction and its closed-form derivatives at a single point.

        value[a]       = sum_i k(x, x_i) w[i, a]
        jacobian[a, b] = sum_i w[i, a] * (-k_i (x - x_i)_b / eps)
        second[a, b, c]= sum_i w[i, a] * k_i ((x-x_i)_b (x-x_i)_c / eps^2
                                              - delta_bc / eps)
        """
        if order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {order}")
        x = np.asarray(x, dtype=float)
        diff = x[None, :] - self.train_inputs            # (N, p)
        k = np.exp(-np.sum(diff * diff, axis=1) / (2.0 * self.bandwidth_eps))
        value = k @ self.weights                         # (q,)
        jacobian = None
        second = None
        if order >= 1:
            kw = k[:, None] * self.weights               # (N, q)
            jacobian = -(kw.T @ diff) / self.bandwidth_eps
        if order >= 2:
            eps = self.bandwidth_eps
            outer = np.einsum("ib,ic->ibc", diff, diff) / eps ** 2
            outer -= np.eye(x.shape[0])[None, :, :] / eps
            second = np.einsum("ia,ibc->abc", kw, outer)
        return value, jacobian, second


def fit(
    inputs: np.ndarray,
    targets: np.ndarray,
    eps: float,
    nugget: float,
    reuse_kernel: Optional[np.ndarray] = None,
    factorization=None,
) -> RegressorModel:
    """Solve (K + nugget I) w = targets for the regression weights.

    ``reuse_kernel`` lets the caller supply the Gaussian kernel already
    assembled for the same inputs and bandwidth (it is validated against a
    recomputation at 1e-12). ``factorization`` may carry a Cholesky factor of
    (K + nugget I) from :func:`kernel_factorization` to share across fits on
    the same inputs; the kernel is then not assembled at all.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    targets = np.asarray(targets, dtype=float)
    if targets.ndim == 1:
        targets = targets[:, None]
    if eps <= 0:
        raise ValueError(f"bandwidth must be positive, got {eps}")
    if nugget < 0:
        raise ValueError(f"nugget must be nonnegative, got {nugget}")
    if reuse_kernel is not None:
        kernel = np.asarray(reuse_kernel, dtype=float)
        # spot-check the precondition on a row subset instead of recomputing
        # the full matrix (recomputation is what reuse is meant to avoid)
        rows = np.unique(np.linspace(0, inputs.shape[0] - 1, min(inputs.shape[0], 64)).astype(int))
        check = gaussian_kernel(inputs[rows], inputs, eps)
        if np.max(np.abs(kernel[rows] - check)) > 1e-12:
            raise ValueError("reuse_kernel does not match the stated inputs/bandwidth")
    elif factorization is None:
        kernel = gaussian_kernel(inputs, inputs, eps)
    if factorization is None:
        factorization = kernel_factorization(kernel, nugget)
    weights = scipy.linalg.cho_solve(factorization, targets)
    return RegressorModel(
        train_inputs=inputs,
        bandwidth_eps=float(eps),
        nugget=float(nugget),
        weights=weights,
    )


def kernel_factorization(kernel: np.ndarray, nugget: float):
    """Cholesky factorization of (K + nugget I), reusable across targets.

    The factor overwrites one Fortran-order copy of K with the nugget added
    to its diagonal. Off the diagonal k + 0 = k, so the factor equals that of
    ``K + nugget * np.eye(n)`` bit for bit.
    """
    system = np.array(kernel, dtype=float, order="F")
    diag = np.arange(system.shape[0])
    system[diag, diag] += nugget
    try:
        return scipy.linalg.cho_factor(system, lower=True, overwrite_a=True)
    except scipy.linalg.LinAlgError as exc:
        raise ChartFitError(
            f"kernel system singular at nugget {nugget}: {exc}"
        ) from exc


def score(model: RegressorModel, test_inputs: np.ndarray, test_targets: np.ndarray) -> float:
    """Coefficient of determination averaged over output components.

    A zero-variance component scores 1 when predicted exactly and raises
    otherwise (R^2 is undefined there).
    """
    test_inputs = np.atleast_2d(np.asarray(test_inputs, dtype=float))
    test_targets = np.asarray(test_targets, dtype=float)
    if test_targets.ndim == 1:
        test_targets = test_targets[:, None]
    pred = model.predict_batch(test_inputs)
    ss_res = np.sum((pred - test_targets) ** 2, axis=0)
    ss_tot = np.sum((test_targets - test_targets.mean(axis=0)) ** 2, axis=0)
    r2 = np.empty(test_targets.shape[1])
    for j in range(test_targets.shape[1]):
        if ss_tot[j] == 0.0:
            scale = max(1.0, float(np.max(np.abs(test_targets[:, j]))))
            rms = np.sqrt(ss_res[j] / test_targets.shape[0])
            if rms > 1e-6 * scale:
                raise ValueError("R^2 undefined: zero-variance targets with residuals")
            r2[j] = 1.0
        else:
            r2[j] = 1.0 - ss_res[j] / ss_tot[j]
    return float(np.mean(r2))


@dataclass(frozen=True)
class ChartPair:
    """Forward map phi (ambient -> chart) and inverse psi (chart -> ambient)."""

    phi: RegressorModel
    psi: RegressorModel
    chart_samples: np.ndarray  # (N, d) diffusion coordinates of the cloud

    @property
    def chart_dim(self) -> int:
        return self.chart_samples.shape[1]

    def chart_diameter(self) -> float:
        span = self.chart_samples.max(axis=0) - self.chart_samples.min(axis=0)
        return float(np.linalg.norm(span))


def holdout_split(n: int, fraction: float, rng: np.random.Generator):
    """Deterministic train/test index split."""
    perm = rng.permutation(n)
    n_test = max(1, int(round(fraction * n)))
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


def fit_with_nugget_selection(
    inputs: np.ndarray,
    targets: np.ndarray,
    eps: float,
    rng: np.random.Generator,
    reuse_kernel: Optional[np.ndarray] = None,
    max_trial_points: Optional[int] = None,
    factorization_cache: Optional[dict] = None,
) -> tuple[RegressorModel, float]:
    """Fit with the smallest nugget whose held-out R^2 reaches R2_TARGET.

    Trial fits run on an 80/20 split (optionally capped at
    ``max_trial_points`` rows for large clouds); the winning nugget is then
    refit on the full data. ``factorization_cache`` shares the full-data
    Cholesky factor between fits of different targets on the same inputs,
    bandwidth and nugget. Raises ChartFitError when no nugget on the ladder
    reaches the target.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    targets = np.asarray(targets, dtype=float)
    if targets.ndim == 1:
        targets = targets[:, None]
    n = inputs.shape[0]

    trial_idx = np.arange(n)
    if max_trial_points is not None and n > max_trial_points:
        trial_idx = np.sort(rng.permutation(n)[:max_trial_points])
    tr, te = holdout_split(trial_idx.size, 0.2, rng)
    tr, te = trial_idx[tr], trial_idx[te]

    trial_kernel = None
    if reuse_kernel is not None:
        trial_kernel = np.asarray(reuse_kernel)[np.ix_(tr, tr)]

    best = None
    for nugget in NUGGET_LADDER:
        try:
            model = fit(inputs[tr], targets[tr], eps, nugget, reuse_kernel=trial_kernel)
        except ChartFitError:
            continue
        r2 = score(model, inputs[te], targets[te])
        if r2 >= R2_TARGET:
            best = (nugget, r2)
            break
    if best is None:
        raise ChartFitError(
            f"no nugget in {NUGGET_LADDER} reaches held-out R^2 >= {R2_TARGET}"
        )
    nugget, r2 = best
    factorization = None
    if factorization_cache is not None:
        # a factor belongs to one system: the same rows, bandwidth and nugget
        cache_key = (nugget, float(eps), inputs.shape,
                     hashlib.blake2b(inputs.tobytes(), digest_size=16).digest())
        factorization = factorization_cache.get(cache_key)
    if factorization is None:
        kernel = reuse_kernel if reuse_kernel is not None else gaussian_kernel(inputs, inputs, eps)
        factorization = kernel_factorization(kernel, nugget)
        if factorization_cache is not None:
            factorization_cache[cache_key] = factorization
    full = fit(inputs, targets, eps, nugget, reuse_kernel=reuse_kernel, factorization=factorization)
    return full, r2
