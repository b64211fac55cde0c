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
from .regression import MAX_TRIAL_POINTS, RegressorModel, fit_with_nugget_selection
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


@dataclass(frozen=True)
class ProblemDefinition:
    """A gradient system on an implicitly known manifold.

    ``force`` is the manifold-tangent negative gradient; ``project`` the
    closest-point projection used to keep samples on the manifold.
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


def _pushforward_at_samples(phi: RegressorModel, cloud: PointCloud) -> np.ndarray:
    """Jacobian-vector products Dphi(q_i) X(q_i) for every cloud row.

    The Jacobian of the kernel predictor contracted with X_j reduces to
    (K o S) @ weights with S_ji = (q_j - q_i) . X_j, over 1024-row blocks
    (the BLAS product's rounding depends on the block's row count). phi's
    factor has taken the training kernel's buffer by now, so K's rows are
    assembled from the points, multiplied into S in 1024-column chunks:
    they equal the full kernel's rows bit for bit.
    """
    points, forces = cloud.points, cloud.forces
    eps = phi.bandwidth_eps
    n = points.shape[0]
    out = np.empty((n, phi.weights.shape[1]))
    block = 1024
    # one block-sized buffer, updated in place
    buffer = np.empty((min(block, n), n))
    for start in range(0, n, block):
        stop = min(start + block, n)
        x_blk = points[start:stop]
        f_blk = forces[start:stop]
        row_dot = np.sum(x_blk * f_blk, axis=1)
        s = np.matmul(f_blk, points.T, out=buffer[:stop - start])
        np.subtract(row_dot[:, None], s, out=s)
        for col in range(0, n, block):
            cols = slice(col, col + block)
            s[:, cols] *= regression.gaussian_kernel(x_blk, points[cols], eps)
        out[start:stop] = -(s @ phi.weights) / eps
    return out


def _rank_chart_components(points: np.ndarray, dmap: DiffusionMapResult, eps: float) -> list[int]:
    """Chart components, ranked from a provisional fit.

    The provisional fit of all embedding components runs on an evenly
    strided subset of at most ``MAX_TRIAL_POINTS`` cloud rows (every row
    of a smaller cloud), assembles its own kernel from them and draws from
    no generator; its Jacobians at 50 cloud points rank the components.
    The quality gate applies to the chart map fitted afterwards, not to
    this fit.
    """
    n = points.shape[0]
    sub = np.unique(np.linspace(0, n - 1, min(n, MAX_TRIAL_POINTS)).astype(int))
    ranking = regression.fit(points[sub], dmap.coordinates[sub], eps, 1e-6)
    eval_idx = np.unique(np.linspace(0, n - 1, min(n, 50)).astype(int))
    jacobians = [ranking.predict_with_derivatives(points[i], order=1)[1] for i in eval_idx]
    return select_chart_components(jacobians)


def _fit_chart_map_and_force(
    cloud: PointCloud, cfg: DriverConfig, iteration: int, attempt: int
) -> tuple[RegressorModel, RegressorModel, np.ndarray]:
    """phi (ambient -> chart), the chart force and the chart samples.

    One squared-distance matrix of the cloud gives the median bandwidth and
    is then the one N x N buffer of the diffusion map, which returns the
    kernel in it. phi's fit takes that kernel over: its full-N Cholesky
    factor takes the buffer, so at most about one N x N array is live at a
    time. The component ranking, the nugget trials and the pushforward
    assemble the kernel blocks they read from the points. phi's factor goes
    straight to the chart-force fit through the ``factors`` dict when both
    pick the same nugget; otherwise the chart-force fit drops it and factors
    a freshly assembled kernel in place.
    """
    points = cloud.points
    # the Lanczos solve needs n_components + 1 < N
    n_components = min(N_DMAP_COMPONENTS, cloud.size - 2)
    if n_components < 1:
        raise DegenerateChartError(f"a cloud of {cloud.size} points has no diffusion coordinates")
    sq = squared_distances(points, points)
    eps = median_bandwidth(sq)
    dmap = diffusion_maps(points, eps, n_components, sq=sq)
    components = _rank_chart_components(points, dmap, eps)

    chart_samples = dmap.coordinates[:, components]
    factors: dict = {}
    rng_phi = np.random.default_rng([cfg.seed, iteration, attempt, 1])
    phi, _ = fit_with_nugget_selection(points, chart_samples, eps, rng_phi, dmap.kernel, factors)
    # the buffer now holds phi's factor: let the factors dict alone keep it
    del sq, dmap

    pushforward = _pushforward_at_samples(phi, cloud)
    rng_force = np.random.default_rng([cfg.seed, iteration, attempt, 2])
    chart_force, _ = fit_with_nugget_selection(points, pushforward, eps, rng_force, None, factors)
    return phi, chart_force, chart_samples


def build_local_chart(
    problem: ProblemDefinition,
    base: np.ndarray,
    cfg: DriverConfig,
    iteration: int = 1,
    attempt: int = 0,
) -> LocalChart:
    """Sample a cloud around ``base`` and learn chart, force field, geometry.

    At most about one N x N array is live at any stage (the cloud's kernel,
    phi's factor in its buffer, then psi's kernel and factor in one buffer),
    plus the smaller fits' kernels and row blocks of the pushforward. Raises
    DegenerateChartError / ChartFitError when the chart cannot be trusted;
    the caller resamples with a fresh seed (at most three attempts).
    """
    seed = _derive_seed(cfg.seed, iteration, attempt, 0)
    cloud = sample_cloud(problem, base, cfg.sampler, seed)
    points = cloud.points
    phi, chart_force, chart_samples = _fit_chart_map_and_force(cloud, cfg, iteration, attempt)

    # psi's kernel comes from one squared-distance matrix of the chart
    # samples, like the cloud's, and its factor takes its buffer
    sq_chart = squared_distances(chart_samples, chart_samples)
    eps_chart = median_bandwidth(sq_chart)
    psi_kernel = regression.gaussian_kernel(chart_samples, chart_samples, eps_chart, sq=sq_chart)
    rng_psi = np.random.default_rng([cfg.seed, iteration, attempt, 3])
    psi, _ = fit_with_nugget_selection(chart_samples, points, eps_chart, rng_psi, psi_kernel, {})
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
    prev_v = None
    anchor, anchor_clearance = None, 0.0
    for step in range(cfg.n_ode_steps + 1):
        try:
            if not np.abs(u).max() <= 1e8:  # a NaN fails too
                raise DegenerateChartError(f"chart coordinates diverged at step {step}")
            geo = chart.evaluate(u)
            lam, v, spectrum = smallest_eigpair(geo.hessian, geo.metric, prev_v=prev_v)
        except (DegenerateChartError, NonFiniteEvaluationError):
            record.exit_reason = EXIT_DEGENERATE
            break
        prev_v = v
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
        u = u + cfg.ode_dt * isd_field(y, v, g)
    if not record.chart_trajectory:
        # a placeholder row, so every record has one entry per row in all four lists
        record.chart_trajectory.append(u.copy())
        record.ambient_trajectory.append(np.full(u.shape[0], np.nan))
        record.step_force_norms.append(np.nan)
        record.step_lambda_mins.append(np.nan)
        record.exit_reason = EXIT_DEGENERATE
    return record


def _learn_chart(problem, x: np.ndarray, cfg: DriverConfig, iteration: int):
    """A chart built around ``x``, resampled at most three times; None if none holds.

    Each rejected attempt is logged at INFO on the ``saddlemap`` logger.
    """
    for attempt in range(3):
        try:
            return build_local_chart(problem, x, cfg, iteration, attempt)
        except (DegenerateChartError, ChartFitError) as exc:
            logger.info("iteration %d: chart attempt %d rejected: %s: %s",
                        iteration, attempt, type(exc).__name__, exc)
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
