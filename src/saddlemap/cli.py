"""Configuration-driven command line: run searches, validate geometry, dump oracles.

Commands
--------
run <config.json>            execute a saddle search, write trajectory.csv,
                             error.csv and summary.json into output_dir
validate-geometry            compare the geometry operators against the
                             sphere chart closed forms, write report.json
oracle <sphere|mb_surface>   write the critical-point report JSON

Exit codes: 0 success / saddle found, 2 search hit the iteration cap or a
validation threshold failed, 1 configuration or hard failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import benchmarks, geometry
from .driver import (
    DriverConfig,
    VERDICT_MAX_ITERATIONS,
    VERDICT_SADDLE_FOUND,
    run_search,
)
from .sampling import SamplerConfig

#: problem name -> the defaults reproducing the reference experiment
#: settings, the problem definition, its critical-point oracle and the
#: search start from the oracle's report
PROBLEMS = {
    "sphere": {
        "driver": {
            "n_iterations_max": 12,
            "n_ode_steps": 1000,
            "ode_dt": 1e-3,
            "tol_force": 1e-3,
            "seed": 0,
        },
        "sampler": {
            "n_samples": 1000,
            "perturbation_scale": 0.15,
        },
        "problem": benchmarks.sphere_problem,
        "oracle": benchmarks.sphere_critical_points,
        "start": benchmarks.sphere_search_start,
    },
    "mb_surface": {
        "driver": {
            "n_iterations_max": 10,
            "n_ode_steps": 1000,
            "ode_dt": 1e-4,
            "tol_force": 5e-2,
            "seed": 0,
        },
        "sampler": {
            "n_samples": 5000,
            "perturbation_scale": 0.15,
        },
        "problem": benchmarks.surface_problem,
        "oracle": benchmarks.mb_surface_critical_points,
        "start": benchmarks.mb_start_point,
    },
}


def _fmt(value: float) -> str:
    return f"{value:.17g}"


@dataclasses.dataclass(frozen=True)
class RunConfig:
    problem: str
    mode: str
    driver: DriverConfig
    output_dir: Path

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.mode not in ("learned_chart", "exact_chart"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "exact_chart" and PROBLEMS[self.problem]["problem"]().exact_chart is None:
            raise ValueError(f"the {self.problem} problem has no exact chart")


def _json_object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


def load_run_config(path: str | Path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = _json_object(json.load(fh), "the config")
    unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(RunConfig)})
    if unknown:
        raise ValueError(f"unknown config keys {unknown}")
    problem = raw.get("problem")
    if problem not in PROBLEMS:
        raise ValueError(f"config must set problem to one of {sorted(PROBLEMS)}")
    defaults = PROBLEMS[problem]
    driver_raw = _json_object(raw.get("driver", {}), '"driver"')

    sampler_kwargs = dict(defaults["sampler"])
    sampler_kwargs.update(_json_object(driver_raw.get("sampler", {}), '"sampler"'))
    driver_kwargs = dict(defaults["driver"])
    driver_kwargs.update({k: v for k, v in driver_raw.items() if k != "sampler"})
    driver = DriverConfig(sampler=SamplerConfig(**sampler_kwargs), **driver_kwargs)

    output_dir = raw.get("output_dir")
    if not output_dir:
        raise ValueError("config must set output_dir")
    return RunConfig(
        problem=problem,
        mode=raw.get("mode", "learned_chart"),
        driver=driver,
        output_dir=Path(output_dir),
    )


def _problem_bundle(name: str):
    entry = PROBLEMS[name]
    report = entry["oracle"]()
    return entry["problem"](), report, entry["start"](report)


def _check_writable(output: str | None) -> None:
    """Open ``output`` for appending and close it, so that a report that
    cannot be written fails before it is computed; an existing file keeps
    its content until the report is written."""
    if output:
        Path(output).open("a", encoding="utf-8").close()


def write_outputs(config: RunConfig, problem, report, trajectory) -> None:
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    saddles = report.saddles()

    d_max = max((len(r.chart_trajectory[0]) for r in trajectory.records), default=0)
    n_amb = problem.ambient_dim
    header = (
        ["iteration", "step"]
        + [f"x{i + 1}" for i in range(n_amb)]
        + [f"u{i + 1}" for i in range(d_max)]
        + ["energy", "force_norm", "lambda_min"]
    )
    lines = [",".join(header)]
    for rec in trajectory.records:
        for step, (u, x) in enumerate(zip(rec.chart_trajectory, rec.ambient_trajectory)):
            row = [str(rec.iteration), str(step)]
            row += [_fmt(v) for v in x]
            row += [_fmt(v) for v in u] + [""] * (d_max - len(u))
            energy = problem.energy(x) if np.all(np.isfinite(x)) else np.nan
            row += [
                _fmt(energy),
                _fmt(rec.step_force_norms[step]),
                _fmt(rec.step_lambda_mins[step]),
            ]
            lines.append(",".join(row))
    (out / "trajectory.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    err_lines = ["iteration,relative_error"]
    for rec in trajectory.records:
        x_end = rec.ambient_trajectory[-1]
        if np.all(np.isfinite(x_end)) and len(saddles):
            dists = np.linalg.norm(saddles - x_end, axis=1)
            k = int(np.argmin(dists))
            rel = dists[k] / np.linalg.norm(saddles[k])
        else:
            rel = np.nan
        err_lines.append(f"{rec.iteration},{_fmt(rel)}")
    (out / "error.csv").write_text("\n".join(err_lines) + "\n", encoding="utf-8")

    summary = {
        "problem": config.problem,
        "mode": config.mode,
        "verdict": trajectory.verdict,
        "iterations": len(trajectory.records),
        "final_point": [float(v) for v in trajectory.final_point],
        "saddle_residual": float(trajectory.saddle_residual),
        "exit_reasons": [rec.exit_reason for rec in trajectory.records],
    }
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def run_command(config_file: str) -> int:
    try:
        config = load_run_config(config_file)
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1

    # before the oracle and the search, so that an unwritable output_dir fails fast
    config.output_dir.mkdir(parents=True, exist_ok=True)
    problem, report, start = _problem_bundle(config.problem)
    trajectory = run_search(problem, start, config.driver, mode=config.mode)
    write_outputs(config, problem, report, trajectory)
    if trajectory.verdict == VERDICT_SADDLE_FOUND:
        return 0
    if trajectory.verdict == VERDICT_MAX_ITERATIONS:
        return 2
    return 1


def validate_geometry(n_points: int, seed: int, christoffel_fn=None) -> dict:
    """Max relative errors of the geometry kernels against the chart closed forms.

    The analytic paths (pullback metric from the exact Jacobian, connection
    from the exact metric derivative) are held to 1e-6. The finite-difference
    paths are held to 1e-4: the connection from a central-difference metric
    derivative, the gradient as the raised central-difference differential
    g_inv @ dU, and the covariant Hessian from a central-difference force
    Jacobian, compared in (1,1) form g_inv @ h. Errors are normalized by the
    largest exact-tensor magnitude over the sample. ``christoffel_fn(g_inv, dg)``
    replaces the connection kernel under test.
    """
    chart = benchmarks.StereographicSphereChart()
    rng = np.random.default_rng(seed)
    if christoffel_fn is None:
        christoffel_fn = geometry.christoffel

    quantities = {
        "metric_analytic": [],
        "christoffel_analytic": [],
        "christoffel_fd": [],
        "gradient_fd": [],
        "hessian_fd": [],
    }
    scales = {k: [] for k in quantities}
    fd = 1e-5
    for _ in range(n_points):
        u = rng.uniform(-2.0, 2.0, 2)
        if np.linalg.norm(u) >= 2.0:
            u = 2.0 * u / (np.linalg.norm(u) + 1e-9) * rng.uniform(0.2, 0.99)
        g_exact = chart.metric(u)
        gamma_exact = chart.christoffel(u)
        grad_exact = chart.gradient(u)
        hess_exact = g_exact.g_inv @ chart.covariant_hessian(u, g_exact)

        g_mod = geometry.metric_from_jacobian(chart.psi_jacobian(u))
        quantities["metric_analytic"].append(np.max(np.abs(g_mod.g - g_exact.g)))
        scales["metric_analytic"].append(np.max(np.abs(g_exact.g)))

        gam_a = christoffel_fn(g_exact.g_inv, chart.metric_jacobian(u))
        quantities["christoffel_analytic"].append(np.max(np.abs(gam_a - gamma_exact)))
        scales["christoffel_analytic"].append(max(np.max(np.abs(gamma_exact)), 0.1))

        dg_fd = geometry.central_difference(lambda v: chart.metric(v).g, u, fd)
        gam_fd = christoffel_fn(g_exact.g_inv, dg_fd)
        quantities["christoffel_fd"].append(np.max(np.abs(gam_fd - gamma_exact)))
        scales["christoffel_fd"].append(max(np.max(np.abs(gamma_exact)), 0.1))

        grad_fd = g_exact.g_inv @ geometry.central_difference(chart.potential, u, fd)
        quantities["gradient_fd"].append(np.max(np.abs(grad_fd - grad_exact)))
        scales["gradient_fd"].append(max(np.max(np.abs(grad_exact)), 0.1))

        dy_fd = geometry.central_difference(chart.force, u, fd)
        h_fd = geometry.covariant_hessian(g_exact, gamma_exact, chart.force(u), dy_fd)
        hess_fd = g_exact.g_inv @ h_fd
        quantities["hessian_fd"].append(np.max(np.abs(hess_fd - hess_exact)))
        scales["hessian_fd"].append(max(np.max(np.abs(hess_exact)), 0.1))

    thresholds = {
        "metric_analytic": 1e-6,
        "christoffel_analytic": 1e-6,
        "christoffel_fd": 1e-4,
        "gradient_fd": 1e-4,
        "hessian_fd": 1e-4,
    }
    result = {"n_points": n_points, "seed": seed, "errors": {}, "thresholds": thresholds}
    passed = True
    for key, values in quantities.items():
        if values:
            err = float(np.max(values) / max(np.max(scales[key]), 1e-12))
        else:
            err = 0.0
        result["errors"][key] = err
        if err > thresholds[key]:
            passed = False
    result["passed"] = passed
    return result


def validate_geometry_command(n_points: int, seed: int, output: str | None) -> int:
    if n_points < 0:
        print(f"--n must be at least 0, got {n_points}", file=sys.stderr)
        return 1
    if seed < 0:
        print(f"--seed must be at least 0, got {seed}", file=sys.stderr)
        return 1
    _check_writable(output)
    result = validate_geometry(n_points, seed)
    text = json.dumps(result, indent=2, sort_keys=True)
    if output:
        Path(output).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0 if result["passed"] else 2


def oracle_command(problem: str, output: str | None) -> int:
    if problem not in PROBLEMS:
        print(f"unknown problem {problem!r}", file=sys.stderr)
        return 1
    _check_writable(output)
    try:
        report = PROBLEMS[problem]["oracle"]()
    except Exception as exc:
        print(f"oracle failed: {exc}", file=sys.stderr)
        return 1
    text = report.to_json()
    if output:
        Path(output).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saddlemap",
        description="saddle-point search on point-cloud manifolds via learned charts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured saddle search")
    p_run.add_argument("config", help="path to the JSON run configuration")

    p_val = sub.add_parser("validate-geometry", help="check geometry operators against closed forms")
    p_val.add_argument("--n", type=int, default=100, help="number of random chart points")
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--output", default=None, help="write the JSON report here")

    p_oracle = sub.add_parser("oracle", help="write a benchmark critical-point report")
    p_oracle.add_argument("problem", help="sphere or mb_surface")
    p_oracle.add_argument("--output", default=None, help="write the JSON report here")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return run_command(args.config)
        if args.command == "validate-geometry":
            return validate_geometry_command(args.n, args.seed, args.output)
        if args.command == "oracle":
            return oracle_command(args.problem, args.output)
    except OSError as exc:
        # the commands do no other I/O: run_command reports an unreadable
        # config itself, and the oracle, search and validation touch no file
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
