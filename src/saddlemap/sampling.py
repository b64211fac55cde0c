"""Point-cloud generation around a base point and chart inversion by a tether.

The cloud sampler perturbs the base point isotropically and projects the
samples back onto the manifold, all rows in one call of the problem's
``project`` and then of its ``force``. It is deterministic given the seed:
walkers draw from counter-split generators, so a parallel run would produce
the same cloud as the sequential one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dimred import PointCloud
from .errors import NonFiniteEvaluationError, TetherResidualError


def check_integer(name: str, value, minimum: int) -> None:
    """Reject a count or seed that is not an integer of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class SamplerConfig:
    """Size and spread of the perturbation cloud. ``tau`` accepts only 0.0
    and ``method`` only 'flow', so configs that name them stay valid."""

    n_samples: int = 1000
    perturbation_scale: float = 0.2
    tau: float = 0.0
    method: str = "flow"

    def __post_init__(self):
        check_integer("n_samples", self.n_samples, 2)
        if not (np.isfinite(self.perturbation_scale) and self.perturbation_scale >= 0):
            raise ValueError("perturbation_scale must be nonnegative and finite")
        if self.tau != 0.0:
            raise ValueError(f"the sampler has no flow horizon: tau must be 0, got {self.tau!r}")
        if self.method != "flow":
            raise ValueError(f"unknown sampling method {self.method!r}")


@dataclass(frozen=True)
class TetherConfig:
    """Stiffness, target and step of the restrained flow that inverts a chart."""

    kappa: float
    target_phi: np.ndarray
    dt: float
    burn_in: int = 200
    n_average: int = 200

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("tether stiffness must be positive")
        if self.dt <= 0:
            raise ValueError("tether step must be positive")


def sample_cloud(problem, base: np.ndarray, cfg: SamplerConfig, seed: int) -> PointCloud:
    """Perturb the base isotropically and project the samples onto the manifold.

    Walker i draws from a generator seeded with (seed, i). The perturbed
    points are projected in one ``problem.project`` call, and the forces at
    the projected points come from one ``problem.force`` call.
    """
    base = np.asarray(base, dtype=float)
    residual = np.linalg.norm(problem.project(base) - base)
    if residual > 1e-8:
        raise ValueError(f"base point is off the manifold (projection residual {residual:.2e})")
    draws = np.array([
        np.random.default_rng([seed, i]).standard_normal(base.shape[0]) for i in range(cfg.n_samples)
    ])
    points = problem.project(base + cfg.perturbation_scale * draws)
    return PointCloud(points=points, forces=problem.force(points), base_point=base)


def invert_chart_via_tether(
    problem,
    phi,
    tether: TetherConfig,
    start: np.ndarray,
    tol: Optional[float] = None,
) -> np.ndarray:
    """Find an ambient point whose chart image is (approximately) target_phi.

    Runs the projected Euler flow with drift X(q) - kappa Jphi(q)^T (phi(q) -
    phi0); the restoring term lives in chart space and is lifted to the
    ambient through the chart Jacobian transpose. After burn-in, the next
    ``n_average`` states are averaged and projected back to the manifold.

    When ``tol`` is given and the residual ||phi(result) - phi0|| exceeds it,
    a TetherResidualError carrying the best point is raised so callers can
    fall back to a direct inverse-map regression.
    """
    target = np.asarray(tether.target_phi, dtype=float)
    q = problem.project(np.asarray(start, dtype=float))
    acc = np.zeros_like(q)
    for step in range(tether.burn_in + tether.n_average):
        value, jac, _ = phi.predict_with_derivatives(q, order=1)
        drift = problem.force(q) - tether.kappa * (jac.T @ (value - target))
        q = problem.project(q + tether.dt * drift)
        if not np.all(np.isfinite(q)):
            raise NonFiniteEvaluationError(f"tether flow diverged at step {step}", point=q)
        if step >= tether.burn_in:
            acc += q
    result = problem.project(acc / tether.n_average)
    residual = float(np.linalg.norm(phi.predict(result) - target))
    if tol is not None and residual > tol:
        raise TetherResidualError(
            f"tether residual {residual:.3e} exceeds tolerance {tol:.3e}",
            point=result,
            residual=residual,
        )
    return result
