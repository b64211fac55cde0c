"""Point-cloud generation on the manifold and chart inversion via a tethered SDE.

The cloud sampler perturbs the base point, projects, and rides the force
field for a short horizon. It is deterministic given the seed: walkers draw
from counter-split generators, so a parallel run would produce the same cloud
as the sequential one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dimred import PointCloud
from .errors import NonFiniteEvaluationError, TetherResidualError


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs of the cloud sampler and of the tethered SDE.

    ``method`` names the sampling variant; 'flow' is the only one. ``tau`` is
    the flow horizon and must equal dt * n_steps when it is positive.
    ``sigma`` is the noise scale of the tethered SDE.
    """

    n_samples: int = 1000
    sigma: float = 0.0
    dt: float = 1e-3
    n_steps: int = 0
    perturbation_scale: float = 0.2
    tau: float = 0.0
    seed: int = 0
    method: str = "flow"

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValueError("need at least two samples per cloud")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.sigma < 0 or self.perturbation_scale < 0 or self.tau < 0:
            raise ValueError("noise scales and the flow horizon must be nonnegative")
        if self.method != "flow":
            raise ValueError(f"unknown sampling method {self.method!r}")


@dataclass(frozen=True)
class TetherConfig:
    """Ornstein-Uhlenbeck restraint used to invert the chart map."""

    kappa: float
    target_phi: np.ndarray
    burn_in: int = 200
    n_average: int = 200

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("tether stiffness must be positive")


def _walker_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def sample_cloud(problem, base: np.ndarray, cfg: SamplerConfig) -> PointCloud:
    """Perturb the base isotropically, project, and ride the force flow for tau.

    With tau = 0 the cloud is the projected perturbation itself. Forces are
    evaluated at the final (projected) points.
    """
    base = np.asarray(base, dtype=float)
    residual = np.linalg.norm(problem.project(base) - base)
    if residual > 1e-8:
        raise ValueError(f"base point is off the manifold (projection residual {residual:.2e})")
    n_flow = 0
    if cfg.tau > 0.0:
        n_flow = cfg.n_steps
        if abs(cfg.dt * cfg.n_steps - cfg.tau) > 1e-9 * max(cfg.tau, 1.0):
            raise ValueError(
                f"flow sampling requires dt * n_steps == tau, got {cfg.dt} * {cfg.n_steps} != {cfg.tau}"
            )
    points = np.empty((cfg.n_samples, base.shape[0]))
    for i in range(cfg.n_samples):
        rng = _walker_rng(cfg.seed, i)
        q = base + cfg.perturbation_scale * rng.standard_normal(base.shape[0])
        q = problem.project(q)
        for step in range(n_flow):
            q = problem.project(q + cfg.dt * problem.force(q))
            if not np.all(np.isfinite(q)):
                raise NonFiniteEvaluationError(
                    f"flow diverged for sample {i} at step {step}", point=q
                )
        points[i] = q
    forces = np.vstack([problem.force(p) for p in points])
    return PointCloud(points=points, forces=forces, base_point=base)


def invert_chart_via_tether(
    problem,
    phi,
    tether: TetherConfig,
    cfg: SamplerConfig,
    start: np.ndarray,
    tol: Optional[float] = None,
) -> np.ndarray:
    """Find an ambient point whose chart image is (approximately) target_phi.

    Runs the SDE with the restoring drift X(q) - kappa Jphi(q)^T (phi(q) -
    phi0); the raw restoring term lives in chart space and is lifted to the
    ambient through the chart Jacobian transpose. After burn-in, the next
    ``n_average`` states are averaged and projected back to the manifold.

    When ``tol`` is given and the residual ||phi(result) - phi0|| exceeds it,
    a TetherResidualError carrying the best point is raised so callers can
    fall back to a direct inverse-map regression.
    """
    target = np.asarray(tether.target_phi, dtype=float)
    q = problem.project(np.asarray(start, dtype=float))
    rng = np.random.default_rng([cfg.seed, 1])
    sqrt_dt = np.sqrt(cfg.dt)
    total = tether.burn_in + tether.n_average
    acc = np.zeros_like(q)
    for step in range(total):
        value, jac, _ = phi.predict_with_derivatives(q, order=1)
        drift = problem.force(q) - tether.kappa * (jac.T @ (value - target))
        noise = rng.standard_normal(q.shape[0])
        q = q + cfg.dt * drift + cfg.sigma * sqrt_dt * noise
        q = problem.project(q)
        if not np.all(np.isfinite(q)):
            raise NonFiniteEvaluationError(f"tethered chain diverged at step {step}", point=q)
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

