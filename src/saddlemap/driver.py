"""Iterative chart-switching saddle search.

One iteration: sample a cloud around the current base point, learn a chart
(diffusion maps + regression), push the force field onto the chart, build the
intrinsic geometry, integrate the reflected-force dynamics until convergence
or until the trajectory reaches the confines of the cloud, then hand the
endpoint back to ambient space and start over.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

from . import regression
# bandwidth_median_rule is not called here; perfbench/worker.py traces the
# chart build by wrapping layer functions under their names in this module
from .dimred import (  # noqa: F401
    DiffusionMapResult,
    PointCloud,
    bandwidth_median_rule,
    diffusion_maps,
    median_bandwidth,
    select_chart_components,
)
from .errors import (
    ChartFitError,
    DegenerateChartError,
    NonFiniteEvaluationError,
    TetherResidualError,
)
from .geometry import GeometryField, isd_field, smallest_eigpair
from .kernels import squared_distances
from .regression import MAX_TRIAL_POINTS, RegressorModel, fit_with_nugget_selection
from .sampling import (
    SamplerConfig,
    TetherConfig,
    check_integer,
    invert_chart_via_tether,
    sample_cloud,
)

EXIT_CONVERGED = "converged"
EXIT_TRUST_REGION = "trust_region"
EXIT_STEP_BUDGET = "step_budget"
EXIT_DEGENERATE = "degenerate"

VERDICT_SADDLE_FOUND = "saddle_found"
VERDICT_MAX_ITERATIONS = "max_iterations"
VERDICT_FAILED = "failed"

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
    with the four methods the search loop calls on a :class:`LocalChart`:
    ``to_chart``, ``evaluate``, ``outside`` and ``to_ambient``.
    """

    ambient_dim: int
    energy: Callable[[np.ndarray], float]
    force: Callable[[np.ndarray], np.ndarray]
    project: Callable[[np.ndarray], np.ndarray]
    exact_chart: object = None


@dataclass(frozen=True)
class DriverConfig:
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
        if not all(np.isfinite(v) and v > 0 for v in (self.ode_dt, self.tol_force)):
            raise ValueError("ode_dt and tol_force must be positive and finite")


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

    The search loop calls four methods on a chart, and a problem's closed-form
    ``exact_chart`` has the same four: ``to_chart`` (phi), ``evaluate`` (from
    GeometryField), ``outside`` and ``to_ambient``. The trust radius is
    ``TRUST_FACTOR`` median nearest-neighbour spacings of the cloud.
    """

    def __init__(self, phi, psi, chart_force, chart_samples: np.ndarray, cloud: PointCloud):
        super().__init__(psi, chart_force)
        self.phi = phi
        self.chart_samples = chart_samples  # (N, d) diffusion coordinates of the cloud
        self.cloud = cloud
        self.tree = cKDTree(cloud.points)
        nn = self.tree.query(cloud.points, k=2)[0][:, 1]
        self.trust_radius = TRUST_FACTOR * float(np.median(nn))

    def to_chart(self, x: np.ndarray) -> np.ndarray:
        return self.phi.predict(x)

    def outside(self, x: np.ndarray) -> bool:
        """Whether ambient ``x`` lies beyond the trust radius of every cloud point."""
        return float(self.tree.query(x)[0]) > self.trust_radius

    def to_ambient(self, problem, u: np.ndarray) -> np.ndarray:
        """Map a chart endpoint back to the manifold, preferring psi.

        Falls back to the chart-inversion tether when the phi(psi(u)) round
        trip misses by more than a tenth of the chart diameter.
        """
        tol = 0.1 * float(np.linalg.norm(np.ptp(self.chart_samples, axis=0)))
        x_direct = problem.project(self.psi.predict(u))
        roundtrip = float(np.linalg.norm(self.phi.predict(x_direct) - u))
        if roundtrip > tol:
            _, jac, _ = self.phi.predict_with_derivatives(x_direct, order=1)
            scale = max(float(np.linalg.norm(jac, 2)) ** 2, 1e-12)
            tether = TetherConfig(
                kappa=1.0, target_phi=u, dt=min(0.5 / scale, 1e3), burn_in=150, n_average=50
            )
            try:
                x_tether = invert_chart_via_tether(problem, self.phi, tether, start=x_direct, tol=tol)
            except (TetherResidualError, NonFiniteEvaluationError):
                return x_direct  # keep the direct inverse-map estimate
            return problem.project(x_tether)
        return x_direct


def _derive_seed(*entropy) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def _pushforward_at_samples(phi: RegressorModel, cloud: PointCloud, kernel: np.ndarray) -> np.ndarray:
    """Jacobian-vector products Dphi(q_i) X(q_i) for every cloud row.

    Uses the training kernel rows directly: the Jacobian of the kernel
    predictor contracted with X_j reduces to (K o S) @ weights with
    S_ji = (q_j - q_i) . X_j.
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
        np.multiply(kernel[start:stop], s, out=s)
        out[start:stop] = -(s @ phi.weights) / eps
    return out


def _median_bandwidth(sq: np.ndarray) -> float:
    """:func:`median_bandwidth`; a collapsed point set has none to give."""
    eps = median_bandwidth(sq)
    if not eps > 0.0:
        raise DegenerateChartError(f"median bandwidth {eps} of a collapsed point set")
    return eps


def _rank_chart_components(points: np.ndarray, dmap: DiffusionMapResult, eps: float) -> list[int]:
    """Chart components, ranked from a provisional fit.

    The provisional fit of all embedding components runs on an evenly
    strided subset of at most ``MAX_TRIAL_POINTS`` cloud rows (every row
    of a smaller cloud) and draws from no generator; its Jacobians at 50
    cloud points rank the components. The quality gate applies to the chart
    map fitted afterwards, not to this fit.
    """
    n = points.shape[0]
    sub = np.unique(np.linspace(0, n - 1, min(n, MAX_TRIAL_POINTS)).astype(int))
    kernel = dmap.kernel if sub.size == n else dmap.kernel[np.ix_(sub, sub)]
    ranking = regression.fit(
        points[sub], dmap.coordinates[sub], eps, nugget=1e-6, reuse_kernel=kernel
    )
    eval_idx = np.unique(np.linspace(0, n - 1, min(n, 50)).astype(int))
    jacobians = [ranking.predict_with_derivatives(points[i], order=1)[1] for i in eval_idx]
    return select_chart_components(jacobians)


def _fit_chart_map_and_force(
    cloud: PointCloud, cfg: DriverConfig, iteration: int, attempt: int
) -> tuple[RegressorModel, RegressorModel, np.ndarray]:
    """phi (ambient -> chart), the chart force and the chart samples.

    One squared-distance matrix of the cloud gives the median bandwidth and
    is then exponentiated in place into the diffusion-map kernel, which the
    component ranking, phi, the chart force and the pushforward reuse. phi's
    full-N Cholesky factor goes straight to the chart-force fit through the
    kernel's ``factors`` dict; the ranking fit factors at most
    ``MAX_TRIAL_POINTS`` rows. That kernel and phi's factor live only in
    this frame.
    """
    points = cloud.points
    n = cloud.size
    sq = squared_distances(points, points)
    eps = _median_bandwidth(sq)
    n_components = min(N_DMAP_COMPONENTS, n - 1)
    dmap = diffusion_maps(points, eps, n_components, sq=sq)
    components = _rank_chart_components(points, dmap, eps)

    chart_samples = dmap.coordinates[:, components]
    factors: dict = {}
    rng_phi = np.random.default_rng([cfg.seed, iteration, attempt, 1])
    phi, _ = fit_with_nugget_selection(points, chart_samples, eps, rng_phi, dmap.kernel, factors)

    pushforward = _pushforward_at_samples(phi, cloud, dmap.kernel)
    rng_force = np.random.default_rng([cfg.seed, iteration, attempt, 2])
    chart_force, _ = fit_with_nugget_selection(
        points, pushforward, eps, rng_force, dmap.kernel, factors
    )
    return phi, chart_force, chart_samples


def build_local_chart(
    problem: ProblemDefinition,
    base: np.ndarray,
    cfg: DriverConfig,
    iteration: int = 1,
    attempt: int = 0,
) -> LocalChart:
    """Sample a cloud around ``base`` and learn chart, force field, geometry.

    About two N x N arrays are live at a time (a kernel and a Cholesky
    factor) plus the trial fits' submatrices. Raises DegenerateChartError /
    ChartFitError when the chart cannot be trusted; the caller resamples
    with a fresh seed (at most three attempts).
    """
    seed = _derive_seed(cfg.seed, iteration, attempt, 0)
    cloud = sample_cloud(problem, base, cfg.sampler, seed)
    points = cloud.points
    phi, chart_force, chart_samples = _fit_chart_map_and_force(cloud, cfg, iteration, attempt)

    # psi's kernel comes from one squared-distance matrix of the chart
    # samples, like the cloud's; its trial and held-out blocks are
    # submatrices of it
    sq_chart = squared_distances(chart_samples, chart_samples)
    eps_chart = _median_bandwidth(sq_chart)
    psi_kernel = regression.gaussian_kernel(chart_samples, chart_samples, eps_chart, sq=sq_chart)
    rng_psi = np.random.default_rng([cfg.seed, iteration, attempt, 3])
    psi, _ = fit_with_nugget_selection(chart_samples, points, eps_chart, rng_psi, psi_kernel, {})
    return LocalChart(phi, psi, chart_force, chart_samples, cloud)


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
    certificate, when ``chart.outside`` reports that psi(u) has left the
    trusted region, or on the step budget. Geometry failures mid-trajectory
    close the record with exit reason 'degenerate'.
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
    for step in range(cfg.n_ode_steps + 1):
        try:
            if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > 1e8:
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
        if chart.outside(x_amb):
            if step == 0:
                record.exit_reason = EXIT_DEGENERATE
            else:
                record.exit_reason = EXIT_TRUST_REGION
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
    """A chart built around ``x``, resampled at most three times; None if none holds."""
    for attempt in range(3):
        try:
            return build_local_chart(problem, x, cfg, iteration, attempt)
        except (DegenerateChartError, ChartFitError):
            continue
    return None


def run_search(
    problem: ProblemDefinition,
    start: np.ndarray,
    cfg: DriverConfig,
    mode: str = "learned_chart",
) -> SearchTrajectory:
    """Full saddle search: chart learning and integration until convergence.

    The mode only picks where each iteration's chart comes from:
    ``mode='exact_chart'`` bypasses sampling and regression and runs the same
    loop on the problem's closed-form chart (oracle mode), where a degenerate
    record ends the search as failed.
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

    for iteration in range(1, cfg.n_iterations_max + 1):
        chart = None  # free the last chart first: kept through the next build, it raises peak RSS
        if mode == "exact_chart":
            chart = problem.exact_chart
        elif (chart := _learn_chart(problem, x, cfg, iteration)) is None:
            verdict = VERDICT_FAILED
            break

        record = integrate_isd_on_chart(
            chart, chart.to_chart(x), dataclasses.replace(cfg, tol_force=chart_tol), iteration
        )
        records.append(record)

        u_end = record.chart_trajectory[-1]
        if record.exit_reason == EXIT_DEGENERATE:
            if mode == "exact_chart":
                verdict = VERDICT_FAILED  # the same chart would fail the same way again
                break
            if not np.all(np.isfinite(u_end)):
                continue  # resample around the previous base point
        x = chart.to_ambient(problem, u_end)

        if record.exit_reason == EXIT_CONVERGED:
            # accept only when the ambient force confirms the chart-level
            # certificate; otherwise tighten the certificate and recenter
            residual = float(np.linalg.norm(problem.force(x)))
            if residual < cfg.tol_force:
                verdict = VERDICT_SADDLE_FOUND
                break
            chart_tol = max(0.8 * chart_tol, 1e-3 * cfg.tol_force)

    if verdict != VERDICT_SADDLE_FOUND:
        residual = float(np.linalg.norm(problem.force(x)))
    return SearchTrajectory(
        records=records,
        final_point=x,
        verdict=verdict,
        saddle_residual=residual,
    )
