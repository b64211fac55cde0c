"""Squared-exponential kernel regression with analytic predictor derivatives.

Used three ways in the pipeline: ambient -> chart coordinates (phi), chart ->
ambient (psi), and the chart force field. Prediction is mean-only: the models
act as smooth interpolants, never as uncertainty estimates. Every kernel
block a fit reads is assembled from its input rows. A chart build hands phi
and psi the full Gaussian kernel it already assembled (the diffusion-map
kernel of the cloud, psi's kernel of the chart samples) only so that the
winning nugget's full system is factored in its buffer.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import ChartFitError
from .kernels import gaussian_kernel

NUGGET_LADDER = (1e-8, 1e-6, 1e-4)
R2_TARGET = 0.99
# row cap of the nugget trials (and of the driver's component-ranking fit)
MAX_TRIAL_POINTS = 2000
# share of the trial rows held out to score each nugget
HOLDOUT_FRACTION = 0.2


@dataclass(frozen=True)
class RegressorModel:
    """Fitted kernel regressor mapping R^p -> R^q."""

    train_inputs: np.ndarray   # (N, p), column-major
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

        The second derivative is one BLAS product of the weighted kernel with
        the (N, p^2) row outer products, minus value[a] delta_bc / eps (the
        sum of k_i w[i, a] is the value). Order 2 returns the value and
        Jacobian of order 1 bit for bit.
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
            n, p = diff.shape
            outer = (diff[:, :, None] * diff[:, None, :]).reshape(n, p * p)
            second = kw.T @ outer
            second /= eps ** 2
            second[:, :: p + 1] -= (value / eps)[:, None]  # the (b, b) columns
            second = second.reshape(-1, p, p)
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
    assembled for the same inputs and bandwidth; it is taken as given, only
    its shape is checked, and it is left unchanged. A kernel assembled here
    is factored in its own buffer. ``factorization`` may carry a Cholesky
    factor of (K + nugget I) from :func:`kernel_factorization` to share
    across fits on the same inputs; the kernel is then not assembled at all.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    targets = np.asarray(targets, dtype=float)
    if targets.ndim == 1:
        targets = targets[:, None]
    if eps <= 0:
        raise ValueError(f"bandwidth must be positive, got {eps}")
    if nugget < 0:
        raise ValueError(f"nugget must be nonnegative, got {nugget}")
    if not (np.all(np.isfinite(inputs)) and np.all(np.isfinite(targets))):
        raise ValueError("inputs and targets must be finite")
    if reuse_kernel is not None:
        kernel = np.asarray(reuse_kernel, dtype=float)
        n = inputs.shape[0]
        if kernel.shape != (n, n):
            raise ValueError(f"reuse_kernel has shape {kernel.shape}, expected {(n, n)}")
    elif factorization is None:
        kernel = gaussian_kernel(inputs, inputs, eps)
    if factorization is None:
        factorization = kernel_factorization(kernel, nugget, overwrite_kernel=reuse_kernel is None)
    weights = scipy.linalg.cho_solve(factorization, targets, check_finite=False)
    # column-major: predict_with_derivatives sums diff * diff over p down
    # contiguous columns instead of along short rows, in the same order, and
    # takes the (N, p^2) outer products of its second derivative as a
    # column-major view of the (N, p, p) product, without a copy. The values
    # and, for q >= 2 outputs, the derivatives equal those of C-ordered inputs
    # bit for bit; for a single output the Jacobian and second derivative are
    # BLAS matrix-vector products whose accumulation follows the layout, equal
    # only to rounding
    return RegressorModel(
        train_inputs=np.asfortranarray(inputs),
        bandwidth_eps=float(eps),
        nugget=float(nugget),
        weights=weights,
    )


def kernel_factorization(kernel: np.ndarray, nugget: float, overwrite_kernel: bool = False):
    """Cholesky factorization of (K + nugget I), reusable across targets.

    ``kernel`` must equal its own transpose exactly, as every Gaussian
    self-kernel does. The factor overwrites a Fortran-order array of
    ``kernel.T`` with the nugget added to its diagonal. By default that
    array is a copy: for a C-ordered kernel a straight copy, not a
    transposing one, holding the same values. With ``overwrite_kernel``
    (scipy's ``overwrite_a`` idiom) it is ``kernel.T`` itself, a
    Fortran-order view of a C-ordered kernel, so the factor takes the
    kernel's buffer and no N x N copy is made; the kernel must not be read
    afterwards. Off the diagonal k + 0 = k, so the factor
    equals that of ``K + nugget * np.eye(n)`` bit for bit either way.
    A NaN or inf in the triangle read reaches its row's diagonal in the
    factor, or stays in the system if factoring stops: ValueError either way.
    """
    system = kernel.T if overwrite_kernel else np.array(kernel.T, dtype=float, order="F")
    diag = np.arange(system.shape[0])
    system[diag, diag] += nugget
    try:
        factor = scipy.linalg.cho_factor(system, lower=True, overwrite_a=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        if not np.all(np.isfinite(system)):
            raise ValueError("kernel system has non-finite entries") from exc
        raise ChartFitError(
            f"kernel system singular at nugget {nugget}: {exc}"
        ) from exc
    if not np.all(np.isfinite(factor[0][diag, diag])):
        raise ValueError("kernel system has non-finite entries")
    return factor


def score(model: RegressorModel, test_inputs: np.ndarray, test_targets: np.ndarray) -> float:
    """Coefficient of determination of the model's predictions at
    ``test_inputs``, averaged over output components.

    A zero-variance component scores 1 when predicted exactly and raises
    otherwise (R^2 is undefined there).
    """
    pred = model.predict_batch(test_inputs)
    test_targets = np.asarray(test_targets, dtype=float)
    if test_targets.ndim == 1:
        test_targets = test_targets[:, None]
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


def holdout_split(n: int, rng: np.random.Generator):
    """Deterministic train/test index split, ``HOLDOUT_FRACTION`` held out."""
    perm = rng.permutation(n)
    n_test = max(1, int(round(HOLDOUT_FRACTION * n)))
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


def fit_with_nugget_selection(
    inputs: np.ndarray,
    targets: np.ndarray,
    eps: float,
    rng: np.random.Generator,
    kernel: Optional[np.ndarray],
    factors: dict,
) -> tuple[RegressorModel, float]:
    """Fit with the smallest nugget whose held-out R^2 reaches R2_TARGET.

    Trial fits run on an 80/20 split of at most ``MAX_TRIAL_POINTS`` rows:
    each trains on the kernel of the training rows and is scored by its
    held-out predictions. The winning nugget is then refit on all rows.

    ``kernel`` is None or the C-ordered Gaussian kernel of ``inputs`` at
    ``eps``, taken as given and handed over: the winning nugget's full
    system, unless already held in ``factors``, is factored in its buffer,
    which the caller must not read afterwards.

    ``factors`` holds the Cholesky factor of one full system of these inputs
    and ``eps``, keyed by its nugget; the caller creates one dict per input
    set and passes it to every fit on it, so fits of different targets that
    pick the same nugget factor once. A fit that picks another nugget first
    drops the held factor, then factors a freshly assembled kernel in its
    own buffer, so two full systems are never live at once.

    A trial whose held-out R^2 is undefined (a constant target missed)
    fails. Raises ChartFitError when no nugget on the ladder reaches the
    target.
    """
    n = inputs.shape[0]
    if kernel is not None and kernel.shape != (n, n):
        raise ValueError(f"kernel has shape {kernel.shape}, expected {(n, n)}")
    trial_idx = np.arange(n)
    if n > MAX_TRIAL_POINTS:
        trial_idx = np.sort(rng.permutation(n)[:MAX_TRIAL_POINTS])
    tr, te = holdout_split(trial_idx.size, rng)
    tr, te = trial_idx[tr], trial_idx[te]

    trial_kernel = gaussian_kernel(inputs[tr], inputs[tr], eps)
    for nugget in NUGGET_LADDER:
        try:
            model = fit(inputs[tr], targets[tr], eps, nugget, reuse_kernel=trial_kernel)
        except ChartFitError:
            continue
        try:
            r2 = score(model, inputs[te], targets[te])
        except ValueError:
            continue
        if r2 >= R2_TARGET:
            break
    else:
        raise ChartFitError(f"no nugget in {NUGGET_LADDER} reaches held-out R^2 >= {R2_TARGET}")
    del trial_kernel  # not kept beside the full system
    if nugget not in factors:
        factors.clear()
        if kernel is None:
            kernel = gaussian_kernel(inputs, inputs, eps)
        factors[nugget] = kernel_factorization(kernel, nugget, overwrite_kernel=True)
    full = fit(inputs, targets, eps, nugget, factorization=factors[nugget])
    return full, r2
