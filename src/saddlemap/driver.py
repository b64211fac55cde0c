"""Iterative chart-switching saddle search.

One iteration: sample a cloud around the current base point, learn a chart
(diffusion maps + regression), push the force field onto the chart, build the
intrinsic geometry, integrate the reflected-force dynamics until convergence
or until the trajectory reaches the confines of the cloud, then hand the
endpoint back to ambient space and start over.
"""
from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

from . import regression
# bandwidth_median_rule and invert_chart_via_tether are not called here;
# perfbench/worker.py traces the search by wrapping layer functions under
# their names in this module
from .dimred import (  # noqa: F401
    DiffusionMapResult,
    PointCloud,
    bandwidth_median_rule,
    diffusion_maps,
    median_bandwidth,
    select_chart_components,
)
from .errors import ChartFitError, DegenerateChartError, NonFiniteEvaluationError
from .geometry import GeometryField, isd_field, smallest_eigpair
from .kernels import squared_distances
from .regression import RegressorModel, fit_with_nugget_selection
from .sampling import SamplerConfig, check_integer, invert_chart_via_tether, sample_cloud  # noqa: F401

EXIT_CONVERGED = "converged"
EXIT_TRUST_REGION = "trust_region"
EXIT_STEP_BUDGET = "step_budget"
EXIT_DEGENERATE = "degenerate"

VERDICT_SADDLE_FOUND = "saddle_found"
VERDICT_MAX_ITERATIONS = "max_iterations"
VERDICT_FAILED = "failed"

logger = logging.getLogger("saddlemap")

# trust radius of a learned chart, in median nearest-neighbour spacings of
# its cloud
TRUST_FACTOR = 3.0
# diffusion-map coordinates computed per cloud, before component selection
N_DMAP_COMPONENTS = 8
# eigenvalue margin of the index-1 certificate
TOL_INDEX = 1e-6
# cloud scale of each chart attempt as a fraction of perturbation_scale
ATTEMPT_SCALES = (1.0, 1.0, 1.0, 0.5, 0.25)


@dataclass(frozen=True)
class ProblemDefinition:
    """A gradient system on an implicitly known manifold.

    ``force`` is the manifold-tangent negative gradient; ``project`` must be a
    smooth retraction onto the manifold, not necessarily the closest point.
    ``energy``, ``force`` and ``project`` accept one point (n,) or a stack of
    rows (k, n); row i of a stacked result must equal, bit for bit, the result
    at row i alone, since the cloud sampler evaluates a cloud in one call.
    ``exact_chart`` optionally provides a closed-form chart for oracle mode,
    with the three methods the search loop calls on a :class:`LocalChart`:
    ``to_chart``, ``evaluate`` and ``clearance``. The search hands a chart's
    endpoint back through ``project`` alone.
    """

    ambient_dim: int
    energy: Callable[[np.ndarray], float]
    force: Callable[[np.ndarray], np.ndarray]
    project: Callable[[np.ndarray], np.ndarray]
    exact_chart: object = None


@dataclass(frozen=True)
class DriverConfig:
    # n_iterations_max caps the charts; n_iterations_max * n_ode_steps Euler
    # steps are the search's one step budget, shared by its charts
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    n_iterations_max: int = 12
    n_ode_steps: int = 1000
    ode_dt: float = 1e-4
    tol_force: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        check_integer("n_iterations_max", self.n_iterations_max, 1)
        check_integer("n_ode_steps", self.n_ode_steps, 1)
        check_integer("seed", self.seed, 0)
        values = (self.ode_dt, self.tol_force)
        if any(isinstance(v, bool) or not (np.isfinite(v) and v > 0) for v in values):
            raise ValueError("ode_dt and tol_force must be positive and finite numbers")


@dataclass
class IterationRecord:
    iteration: int
    chart_trajectory: list
    ambient_trajectory: list
    spectrum: np.ndarray
    exit_reason: str
    step_force_norms: list = field(default_factory=list)
    step_lambda_mins: list = field(default_factory=list)


@dataclass
class SearchTrajectory:
    records: list
    final_point: np.ndarray
    verdict: str
    saddle_residual: float


class LocalChart(GeometryField):
    """A learned chart: the maps, the geometry over them, and the cloud.

    The search loop calls three methods on a chart, and a problem's
    closed-form ``exact_chart`` has the same three: ``to_chart`` (phi),
    ``evaluate`` (from GeometryField) and ``clearance``. The trust radius is
    ``TRUST_FACTOR`` median nearest-neighbour spacings of the cloud.
    """

    def __init__(self, phi, psi, chart_force, cloud: PointCloud):
        super().__init__(psi, chart_force)
        self.phi = phi
        self.cloud = cloud
        self.tree = cKDTree(cloud.points)
        nn = self.tree.query(cloud.points, k=2)[0][:, 1]
        self.trust_radius = TRUST_FACTOR * float(np.median(nn))

    def to_chart(self, x: np.ndarray) -> np.ndarray:
        return self.phi.predict(x)

    def clearance(self, x: np.ndarray) -> float:
        """Trust radius minus the distance from ambient ``x`` to the cloud;
        negative once ``x`` lies beyond the trust radius of every cloud point."""
        return self.trust_radius - float(self.tree.query(x)[0])


def _derive_seed(*entropy) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


@dataclass(frozen=True)
class DiffusionExtension:
    """phi: the Nystrom extension of the diffusion coordinates (geometric
    harmonics, Coifman & Lafon 2006). Coordinate j at x is sum_i k(x, x_i)
    psi_j(x_i) / q_i over sum_i k(x, x_i) / q_i, q the kernel's row sums and
    psi_j the raw eigenvector: lambda_j psi_j(x_i) at a cloud point, up to the
    eigensolve's residual. ``model``'s weights are [psi / q | 1 / q]."""

    model: RegressorModel

    @classmethod
    def of(cls, points: np.ndarray, dmap: DiffusionMapResult) -> DiffusionExtension:
        """The extension of every diffusion coordinate of ``dmap``."""
        q = dmap.row_sums
        weights = np.column_stack([dmap.eigenvectors[:, 1:], np.ones(q.size)]) / q[:, None]
        return cls(RegressorModel(np.asfortranarray(points), dmap.bandwidth_eps, 0.0, weights))

    @staticmethod
    def quotient(raw: np.ndarray, raw_d: np.ndarray = None):
        """phi from the model's outputs ``raw``; by the quotient rule, its derivative per row of ``raw_d``."""
        value = raw[..., :-1] / raw[..., -1:]
        return value, None if raw_d is None else (raw_d[..., :-1] - value * raw_d[..., -1:]) / raw[..., -1:]

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.predict_with_derivatives(x, order=0)[0]

    def predict_with_derivatives(self, x: np.ndarray, order: int = 1):
        if order not in (0, 1):
            raise ValueError(f"order must be 0 or 1, got {order}")
        raw, raw_jac, _ = self.model.predict_with_derivatives(x, order=order)
        value, jac_t = self.quotient(raw, None if raw_jac is None else raw_jac.T)
        return value, None if jac_t is None else jac_t.T, None


def _pushforward_at_samples(
    phi: DiffusionExtension, cloud: PointCloud, kernel: np.ndarray
) -> np.ndarray:
    """Jacobian-vector products Dphi(x_j) X(x_j) for every cloud row.

    The model's Jacobian contracted with X_j reduces to (K o S) @ W with
    S_ji = (x_j - x_i) . X_j, so (K o S) W = a o (K W) - sum_c X_c o (K (P_c o W))
    with a_j = P_j . X_j: one product of the cloud's ``kernel`` with
    [W | P_1 o W | ...], which leaves the kernel as it was. P are the points
    less the cloud's base point, so the cancellation in the difference is at
    the cloud's scale, not at that of the coordinates.
    """
    centred, forces = cloud.points - cloud.base_point, cloud.forces
    weights, eps = phi.model.weights, phi.model.bandwidth_eps
    n, r = weights.shape
    scaled = (centred[:, :, None] * weights[:, None, :]).reshape(n, -1)
    product = kernel @ np.hstack([weights, scaled])
    raw, raw_p = product[:, :r], product[:, r:].reshape(n, -1, r)
    k_s = np.sum(centred * forces, axis=1)[:, None] * raw - np.einsum("nc,ncr->nr", forces, raw_p)
    return phi.quotient(raw, -k_s / eps)[1]


def _fit_chart_map_and_force(
    cloud: PointCloud, cfg: DriverConfig, iteration: int, attempt: int
) -> tuple[DiffusionExtension, RegressorModel, np.ndarray]:
    """phi (ambient -> chart), the chart force and the chart samples.

    One squared-distance matrix of the cloud gives the median bandwidth and
    is the diffusion map's one N x N buffer, which holds the kernel from then
    on. phi, the map's own extension, is fitted by nothing: its Jacobians at
    50 cloud points rank the components, and the pushforward is one product
    of the kernel. The chart-force fit then factors its full-N system in the
    buffer.
    """
    points, n = cloud.points, cloud.size
    # the Lanczos solve needs n_components + 1 < N
    n_components = min(N_DMAP_COMPONENTS, n - 2)
    if n_components < 1:
        raise DegenerateChartError(f"a cloud of {n} points has no diffusion coordinates")
    sq = squared_distances(points, points)
    eps = median_bandwidth(sq)
    dmap = diffusion_maps(points, eps, n_components, sq=sq)
    every = DiffusionExtension.of(points, dmap)
    eval_idx = np.unique(np.linspace(0, n - 1, min(n, 50)).astype(int))
    jacobians = [every.predict_with_derivatives(points[i])[1] for i in eval_idx]
    components = select_chart_components(jacobians)
    weights = every.model.weights[:, components + [n_components]]
    phi = DiffusionExtension(dataclasses.replace(every.model, weights=weights))
    pushforward = _pushforward_at_samples(phi, cloud, dmap.kernel)
    rng_force = np.random.default_rng([cfg.seed, iteration, attempt, 2])
    chart_force, _ = fit_with_nugget_selection(points, pushforward, eps, rng_force, dmap.kernel)
    return phi, chart_force, dmap.coordinates[:, components]


def build_local_chart(
    problem: ProblemDefinition,
    base: np.ndarray,
    cfg: DriverConfig,
    iteration: int = 1,
    attempt: int = 0,
) -> LocalChart:
    """Sample a cloud around ``base`` and learn chart, force field, geometry.

    The chart force and psi each factor a trial system per nugget tried and
    one full-N system. About one N x N array is live at a time: the cloud's
    kernel, which the diffusion map and the pushforward only read, the chart
    force's factor in its buffer, then psi's kernel and factor in one
    buffer. Raises DegenerateChartError / ChartFitError when the chart
    cannot be trusted; ``_learn_chart`` then resamples.
    """
    cloud = sample_cloud(problem, base, cfg.sampler, _derive_seed(cfg.seed, iteration, attempt, 0))
    phi, chart_force, chart_samples = _fit_chart_map_and_force(cloud, cfg, iteration, attempt)

    # psi's kernel comes from one squared-distance matrix of the chart
    # samples, like the cloud's, and its factor takes its buffer
    sq_chart = squared_distances(chart_samples, chart_samples)
    eps_chart = median_bandwidth(sq_chart)
    psi_kernel = regression.gaussian_kernel(chart_samples, chart_samples, eps_chart, sq=sq_chart)
    rng_psi = np.random.default_rng([cfg.seed, iteration, attempt, 3])
    psi, _ = fit_with_nugget_selection(chart_samples, cloud.points, eps_chart, rng_psi, psi_kernel)
    return LocalChart(phi, psi, chart_force, cloud)


def check_convergence(force_norm: float, spectrum: np.ndarray, cfg: DriverConfig) -> bool:
    """Index-1 certificate: vanishing force, exactly one negative eigenvalue."""
    spectrum = np.asarray(spectrum, dtype=float)
    if force_norm >= cfg.tol_force:
        return False
    if spectrum[0] >= -TOL_INDEX:
        return False
    return bool(np.all(spectrum[1:] > TOL_INDEX))


def integrate_isd_on_chart(
    chart, u0: np.ndarray, cfg: DriverConfig, iteration: int = 1
) -> IterationRecord:
    """Explicit-Euler integration of the reflected force field on one chart.

    ``chart`` is a :class:`LocalChart` or a problem's exact chart; its
    ``evaluate`` is called once per step. Stops on the index-1 convergence
    certificate, when ``chart.clearance`` turns negative (psi(u) has left
    the trusted region), or after ``cfg.n_ode_steps`` steps (the search
    passes what is left of its budget there). Geometry failures
    mid-trajectory close the record with exit reason 'degenerate'.

    The distance to the cloud is 1-Lipschitz, so psi(u) closer to the point
    of the last clearance query than that query's clearance is inside, and
    ``chart.clearance`` is called only when this cached clearance cannot
    decide. The factor 1 - 1e-9 covers the rounding of the two distances (a
    few ulps of the trust radius) while the anchor's clearance exceeds ~1e-6
    trust radii; nearer the edge, a cached decision could differ from a query
    only for a point within rounding of the trust radius. The anchor lives
    here, not on the chart: an exact chart is one object shared by every
    iteration.
    """
    u = np.asarray(u0, dtype=float)
    record = IterationRecord(
        iteration=iteration,
        chart_trajectory=[],
        ambient_trajectory=[],
        spectrum=np.array([]),
        exit_reason=EXIT_STEP_BUDGET,
    )
    anchor, anchor_clearance = None, 0.0
    for step in range(cfg.n_ode_steps + 1):
        try:
            if not np.abs(u).max() <= 1e8:  # a NaN fails too
                raise DegenerateChartError(f"chart coordinates diverged at step {step}")
            geo = chart.evaluate(u)
            lam, v, spectrum = smallest_eigpair(geo.hessian, geo.metric)
        except (DegenerateChartError, NonFiniteEvaluationError):
            record.exit_reason = EXIT_DEGENERATE
            break
        g, y, x_amb = geo.metric, geo.force, geo.ambient
        force_norm = g.norm(y)
        record.chart_trajectory.append(u.copy())
        record.ambient_trajectory.append(np.asarray(x_amb, dtype=float))
        record.step_force_norms.append(force_norm)
        record.step_lambda_mins.append(lam)
        record.spectrum = spectrum

        if check_convergence(force_norm, spectrum, cfg):
            record.exit_reason = EXIT_CONVERGED
            break
        if anchor is None or not math.dist(x_amb, anchor) < anchor_clearance * (1.0 - 1e-9):
            anchor, anchor_clearance = x_amb, chart.clearance(x_amb)
            if anchor_clearance < 0.0:
                record.exit_reason = EXIT_DEGENERATE if step == 0 else EXIT_TRUST_REGION
                break
        if step == cfg.n_ode_steps:
            record.exit_reason = EXIT_STEP_BUDGET
            break
        try:
            u = u + cfg.ode_dt * isd_field(y, v, g)
        except ValueError:
            # rounding alone can miss g(v, v) = 1 at a metric of condition near
            # metric_from_jacobian's 1e14 cap: degenerate, as a rank-deficient one
            record.exit_reason = EXIT_DEGENERATE
            break
    if not record.chart_trajectory:
        # a placeholder row, so every record has one entry per row in all four lists
        record.chart_trajectory.append(u.copy())
        record.ambient_trajectory.append(np.full(u.shape[0], np.nan))
        record.step_force_norms.append(np.nan)
        record.step_lambda_mins.append(np.nan)
        record.exit_reason = EXIT_DEGENERATE
    return record


def _learn_chart(problem, x: np.ndarray, cfg: DriverConfig, iteration: int):
    """A chart built around ``x``; None if every attempt is rejected.

    Attempt i samples a cloud seeded by i at ``ATTEMPT_SCALES[i]`` times
    ``perturbation_scale``; a rejection is logged at INFO on ``saddlemap``.
    """
    for attempt, scale in enumerate(ATTEMPT_SCALES):
        sampler = dataclasses.replace(cfg.sampler, perturbation_scale=scale * cfg.sampler.perturbation_scale)
        chart_cfg = dataclasses.replace(cfg, sampler=sampler)
        try:
            return build_local_chart(problem, x, chart_cfg, iteration, attempt)
        except (DegenerateChartError, ChartFitError) as exc:
            logger.info("iteration %d: chart attempt %d (cloud scale %g) rejected: %s: %s",
                        iteration, attempt, scale, type(exc).__name__, exc)
    return None


def run_search(
    problem: ProblemDefinition,
    start: np.ndarray,
    cfg: DriverConfig,
    mode: str = "learned_chart",
) -> SearchTrajectory:
    """Full saddle search: chart learning and integration until convergence.

    Each chart integrates with what is left of the search's budget of
    ``n_iterations_max * n_ode_steps`` Euler steps and is one record; it is
    relearned only when the ambient check rejects its certificate, or its
    trajectory leaves the trust region or degenerates.

    The mode only picks where each iteration's chart comes from:
    ``mode='exact_chart'`` bypasses sampling and regression and runs the same
    loop on the problem's closed-form chart (oracle mode), where a degenerate
    record ends the search as failed. Each chart hands off by projecting psi
    at its last step, the record's last ambient point; a learned chart that
    failed its first step leaves only a NaN placeholder there, and the next
    chart is learned around the same point.
    """
    if mode not in ("learned_chart", "exact_chart"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact_chart" and problem.exact_chart is None:
        raise ValueError("problem provides no exact chart")

    x = problem.project(np.asarray(start, dtype=float))
    records: list[IterationRecord] = []
    verdict = VERDICT_MAX_ITERATIONS
    # chart-level certificate threshold; tightened whenever the ambient
    # residual rejects a chart-level convergence, so the next chart walks
    # closer to its own fixed point instead of re-firing immediately
    chart_tol = cfg.tol_force
    steps_left = cfg.n_iterations_max * cfg.n_ode_steps

    for iteration in range(1, cfg.n_iterations_max + 1):
        chart = None  # free the last chart first: kept through the next build, it raises peak RSS
        if mode == "exact_chart":
            chart = problem.exact_chart
        elif (chart := _learn_chart(problem, x, cfg, iteration)) is None:
            verdict = VERDICT_FAILED
            break

        chart_cfg = dataclasses.replace(cfg, tol_force=chart_tol, n_ode_steps=steps_left)
        record = integrate_isd_on_chart(chart, chart.to_chart(x), chart_cfg, iteration)
        records.append(record)
        steps_left -= len(record.chart_trajectory) - 1

        if record.exit_reason == EXIT_DEGENERATE and mode == "exact_chart":
            verdict = VERDICT_FAILED  # the same chart would fail the same way again
            break
        x_end = record.ambient_trajectory[-1]
        if not np.all(np.isfinite(x_end)):
            continue  # the chart failed its first step: relearn around the same x
        x = problem.project(x_end)

        if record.exit_reason == EXIT_CONVERGED:
            # accept only when the ambient force confirms the chart-level
            # certificate; otherwise tighten the certificate and recenter
            residual = float(np.linalg.norm(problem.force(x)))
            if residual < cfg.tol_force:
                verdict = VERDICT_SADDLE_FOUND
                break
            chart_tol = max(0.8 * chart_tol, 1e-3 * cfg.tol_force)
        if steps_left == 0:
            break  # the search's step budget is spent

    if verdict != VERDICT_SADDLE_FOUND:
        residual = float(np.linalg.norm(problem.force(x)))
    return SearchTrajectory(
        records=records,
        final_point=x,
        verdict=verdict,
        saddle_residual=residual,
    )
