"""One benchmark session in a fresh process: set up, search, write outputs.

run.py starts this file with the BLAS thread count pinned in the
environment and ``src`` on PYTHONPATH, and reads the one JSON object it
prints on stdout. Untraced sessions run searches with distinct seeds until
their time slice is used; a traced session repeats one seed, alternating
untraced and traced searches, and checks that the repeats agree exactly.
"""
import time

_T0 = time.perf_counter()  # before numpy is imported: setup_s includes the imports

import argparse
import dataclasses
import faulthandler
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path

faulthandler.enable()  # a crash in native code leaves a stack on stderr
# spans.py sits beside this file; do not rely on the interpreter adding the
# script's directory to sys.path (it does not under PYTHONSAFEPATH)
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np
import scipy

import saddlemap
from saddlemap import benchmarks, cli
from saddlemap import dimred as sm_dimred
from saddlemap import driver as sm_driver
from saddlemap import geometry as sm_geometry
from saddlemap import regression as sm_regression
from saddlemap.driver import DriverConfig, run_search
from saddlemap.sampling import SamplerConfig

from spans import Tracer

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# cli.write_outputs takes 0.03-0.2 s; each search repeats it until this much
# time (and at least three writes) has been spent, so write_s is a median
# over several samples
WRITE_SECONDS = 0.3
OUTPUT_FILES = ("trajectory.csv", "error.csv", "summary.json")


@dataclasses.dataclass
class Workload:
    cli_problem: str
    mode: str
    problem: object
    report: object
    start: np.ndarray
    config: object              # seed -> DriverConfig
    check: object               # (workload, trajectory) -> (failed, incorrect)
    reference: np.ndarray = None


def _sphere_config(seed: int) -> DriverConfig:
    return DriverConfig(
        sampler=SamplerConfig(n_samples=1000, perturbation_scale=0.15, tau=0.0, method="flow"),
        n_iterations_max=30,
        n_ode_steps=1000,
        ode_dt=1e-3,
        tol_force=1e-3,
        seed=seed,
    )


def _mb_config(seed: int) -> DriverConfig:
    # criterion-3 settings, stopped after the first chart
    return DriverConfig(
        sampler=SamplerConfig(n_samples=5000, perturbation_scale=0.15, tau=0.0, method="flow"),
        n_iterations_max=1,
        n_ode_steps=1000,
        ode_dt=1e-4,
        tol_force=5e-2,
        seed=seed,
    )


def _sphere_setup() -> Workload:
    problem = benchmarks.sphere_problem()
    report = benchmarks.sphere_critical_points()
    sink = benchmarks.sphere_start_point(report)
    tangent = np.array([1.0, 0.0, 0.0]) - sink[0] * sink
    tangent /= np.linalg.norm(tangent)
    start = benchmarks.sphere_project(sink + 0.2 * tangent)
    return Workload("sphere", "learned_chart", problem, report, start, _sphere_config, _check_sphere)


def _mb_setup() -> Workload:
    problem = benchmarks.surface_problem()
    report = benchmarks.mb_surface_critical_points()
    start = benchmarks.mb_start_point(report)
    return Workload("mb_surface", "learned_chart", problem, report, start, _mb_config, _check_mb_chart)


SETUPS = {
    "mb_chart": _mb_setup,
    "sphere_learned": _sphere_setup,
}


def saddle_error(wl: Workload, x: np.ndarray) -> float:
    return float(np.min(np.linalg.norm(wl.report.saddles() - x, axis=1)))


# A check returns (failed, incorrect). ``failed`` says why the search
# delivered no result (None when it did): a failed operation, counted in
# ``failed``. ``incorrect`` lists what is wrong with a delivered result: the
# run is then not correct.
def _check_sphere(wl: Workload, traj) -> tuple:
    if traj.verdict != "saddle_found":
        return f"verdict {traj.verdict}", []
    incorrect = []
    err = saddle_error(wl, traj.final_point)
    if not err <= 5e-2:
        incorrect.append(f"distance to nearest saddle {err:.3e} > 5e-2")
    gap = float(np.linalg.norm(traj.final_point - wl.reference))
    if not gap <= 1e-2:
        incorrect.append(f"endpoint {gap:.3e} from the exact-chart endpoint (> 1e-2)")
    return None, incorrect


# the learned psi must reproduce the graph surface along the chart trajectory
MB_SURFACE_TOL = 1e-4


def _check_mb_chart(wl: Workload, traj) -> tuple:
    if len(traj.records) != 1:
        return f"verdict {traj.verdict} with {len(traj.records)} charts, expected 1", []
    rec = traj.records[0]
    if rec.exit_reason == "degenerate" or len(rec.chart_trajectory) < 100:
        return f"chart exit {rec.exit_reason} after {len(rec.chart_trajectory)} steps", []
    pts = np.asarray(rec.ambient_trajectory)
    if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(traj.final_point)):
        return None, ["non-finite trajectory"]
    heights = np.array([benchmarks.surface_height(p[:2]) for p in pts])
    residual = float(np.max(np.abs(pts[:, 2] - heights)))
    if not residual <= MB_SURFACE_TOL:
        return None, [f"learned chart leaves the surface by {residual:.3e} > {MB_SURFACE_TOL}"]
    return None, []


def check_oracle(name: str, report) -> list:
    # Morse index -> number of critical points
    expected = {0: 3, 1: 2} if name == "mb_chart" else {0: 4, 1: 6, 2: 4}
    found = dict(Counter(int(i) for i in report.indices))
    failures = []
    if found != expected:
        failures.append(f"oracle Morse indices {found}, expected {expected}")
    if not np.max(report.residuals) <= 1e-8:
        failures.append(f"oracle residual {np.max(report.residuals):.2e} > 1e-8")
    return failures


def one_search(wl: Workload, seed: int, out: Path, problem=None) -> dict:
    cfg = wl.config(seed)
    t = time.perf_counter()
    try:
        traj = run_search(problem or wl.problem, wl.start, cfg, mode=wl.mode)
    except Exception as exc:
        # an error that escapes run_search is a failed operation of the
        # program, counted like a failed verdict; the run goes on
        search_s = time.perf_counter() - t
        traceback.print_exc(file=sys.stderr)
        return {"seed": seed, "search_s": search_s, "write_s": [], "bytes": 0,
                "trajectory_sha256": None, "verdict": f"raised {type(exc).__name__}",
                "iterations": 0, "steps": 0, "exits": {}, "saddle_error": math.inf,
                "failed": f"run_search raised {type(exc).__name__}: {exc}", "incorrect": []}
    search_s = time.perf_counter() - t
    run_cfg = cli.RunConfig(problem=wl.cli_problem, mode=wl.mode, driver=cfg, output_dir=out)
    writes = []
    while len(writes) < 3 or sum(writes) < WRITE_SECONDS:
        t = time.perf_counter()
        cli.write_outputs(run_cfg, wl.problem, wl.report, traj)
        writes.append(time.perf_counter() - t)
    result = {
        "seed": seed,
        "search_s": search_s,
        "write_s": writes,
        "bytes": sum((out / f).stat().st_size for f in OUTPUT_FILES),
        "trajectory_sha256": hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest(),
        "verdict": traj.verdict,
        "iterations": len(traj.records),
        "steps": sum(len(r.chart_trajectory) for r in traj.records),
        "exits": dict(Counter(r.exit_reason for r in traj.records)),
        "saddle_error": saddle_error(wl, traj.final_point),
    }
    result["failed"], result["incorrect"] = wl.check(wl, traj)
    return result


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions where the program looks them up."""
    kernel_entries = lambda k: {"kernels.entries": k.size}
    tracer.wrap(sm_driver, "build_local_chart", "driver.chart_build")
    tracer.wrap(sm_driver, "integrate_isd_on_chart", "driver.integrate")
    tracer.wrap(sm_driver, "sample_cloud", "sampling.cloud",
                count=lambda c: {"sampling.points": c.size})
    tracer.wrap(sm_driver, "invert_chart_via_tether", "sampling.tether")
    tracer.wrap(sm_driver, "bandwidth_median_rule", "dimred.bandwidth")
    tracer.wrap(sm_driver, "diffusion_maps", "dimred.dmap")
    tracer.wrap(sm_driver, "select_chart_components", "dimred.select")
    tracer.wrap(sm_dimred, "gaussian_kernel", "kernels.gaussian", count=kernel_entries)
    tracer.wrap(sm_regression, "gaussian_kernel", "kernels.gaussian", count=kernel_entries)
    tracer.wrap(sm_driver, "fit_with_nugget_selection", "regression.select")
    tracer.wrap(sm_regression, "fit", "regression.fit")
    tracer.wrap(sm_regression, "kernel_factorization", "regression.factor")
    tracer.wrap(sm_regression.RegressorModel, "predict_with_derivatives", "regression.predict")
    for name in ("ambient", "metric", "metric_jacobian", "christoffel", "force", "covariant_hessian"):
        tracer.wrap(sm_geometry.GeometryField, name, "geometry.eval")
    tracer.wrap(sm_driver, "smallest_eigpair", "geometry.eigpair")
    tracer.wrap(benchmarks, "sphere_critical_points", "benchmarks.oracle")
    tracer.wrap(benchmarks, "mb_surface_critical_points", "benchmarks.oracle")


def layer_metrics(tracer: Tracer, run_id: int, result: dict) -> dict:
    """Per-layer metrics of one traced search. Times are self times, except
    the driver's stage times, which include the layers they call."""
    spans = tracer.summary(run_id)  # a name never called reads as zeros
    counts = tracer.counts[run_id]
    own = lambda name: spans[name]["self"]
    calls = lambda name: spans[name]["calls"]

    trial_fits = accepted = 0
    for failed, children in spans["regression.select"]["children"]:
        trial_fits += children.get("regression.fit", 0) - (0 if failed else 1)
        accepted += not failed
    steps, iterations = result["steps"], result["iterations"]
    build, integrate = spans["driver.chart_build"]["total"], spans["driver.integrate"]["total"]
    metrics = {
        "sampling.cloud_s": own("sampling.cloud"),
        "sampling.points": counts["sampling.points"],
        "sampling.tether_runs": calls("sampling.tether"),
        "sampling.tether_s": own("sampling.tether"),
        "dimred.bandwidth_s": own("dimred.bandwidth"),
        "dimred.dmap_s": own("dimred.dmap"),
        "dimred.select_s": own("dimred.select"),
        "kernels.calls": calls("kernels.gaussian"),
        "kernels.entries": counts["kernels.entries"],
        "kernels.bytes_computed": 8 * counts["kernels.entries"],
        "kernels.s": own("kernels.gaussian"),
        "regression.select_s": own("regression.select") + own("regression.fit"),
        "regression.factorizations": calls("regression.factor"),
        "regression.factor_s": own("regression.factor"),
        "regression.trial_fits": trial_fits,
        "regression.fit_yield": accepted / trial_fits if trial_fits else 0.0,
        "regression.predict_calls": calls("regression.predict"),
        "regression.predict_s": own("regression.predict"),
        "regression.predict_per_step": calls("regression.predict") / steps if steps else 0.0,
        "geometry.eval_s": own("geometry.eval"),
        "geometry.eigpair_s": own("geometry.eigpair"),
        "driver.chart_build_s": build,
        "driver.chart_build_per_iter_s": build / iterations if iterations else 0.0,
        "driver.chart_attempts": calls("driver.chart_build"),
        "driver.chart_rejects": spans["driver.chart_build"]["failed"],
        "driver.integrate_s": integrate,
        "driver.steps": steps,
        "driver.step_ms": 1e3 * integrate / steps if steps else 0.0,
        "driver.other_s": result["search_s"] - build - integrate,
        "benchmarks.force_evals": counts["benchmarks.force_evals"],
        "benchmarks.project_evals": counts["benchmarks.project_evals"],
        "cli.write_s": statistics.median(result["write_s"]) if result["write_s"] else 0.0,
        "cli.bytes": result["bytes"],
        "trace.spans": sum(v["calls"] for v in spans.values()),
    }
    for reason in ("converged", "trust_region", "step_budget", "degenerate"):
        metrics[f"driver.exit.{reason}"] = result["exits"].get(reason, 0)
    return metrics


# counts that must repeat exactly for one seed at a fixed BLAS thread count
EXACT_KEYS = ("iterations", "driver.steps", "regression.factorizations",
              "regression.predict_calls", "benchmarks.force_evals", "trajectory_sha256")


def prepare(name: str, wl: Workload, setup_s: float, out: Path) -> dict:
    """Session record after setup; also computes the exact-chart reference
    endpoint the learned sphere search is checked against (untimed)."""
    session = {
        "setup_s": setup_s,
        "incorrect": check_oracle(name, wl.report),
        "environment": environment(),
    }
    if name == "sphere_learned":
        wl.reference = run_search(wl.problem, wl.start, wl.config(0), mode="exact_chart").final_point
    out.mkdir(parents=True, exist_ok=True)
    return session


def traced_session(name: str, seed: int, seconds: float, out: Path) -> dict:
    tracer = Tracer()
    install(tracer)
    wl = SETUPS[name]()
    setup_s = time.perf_counter() - _T0
    oracle_s = tracer.summary(0)["benchmarks.oracle"]["self"]
    tracer.uninstall()
    session = prepare(name, wl, setup_s, out)

    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    block_s = 0.0
    while not traced or time.perf_counter() + block_s < deadline:
        block_start = time.perf_counter()
        # the untraced repeat sits between two traced ones, so warm-up and
        # drift fall on both sides of the overhead estimate
        for is_traced in (True, False, True):
            if not is_traced:
                untraced.append(one_search(wl, seed, out))
                continue
            tracer.run_id += 1
            install(tracer)
            counted = dataclasses.replace(
                wl.problem,
                force=tracer.counting(wl.problem.force, "benchmarks.force_evals"),
                project=tracer.counting(wl.problem.project, "benchmarks.project_evals"),
            )
            try:
                result = one_search(wl, seed, out, problem=counted)
            finally:
                tracer.uninstall()
            result["layers"] = layer_metrics(tracer, tracer.run_id, result)
            traced.append(result)
        block_s = time.perf_counter() - block_start
    tracer.write(out / "spans.csv")

    layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    layers["benchmarks.oracle_s"] = oracle_s
    layers["trace.overhead_s"] = (statistics.median(r["search_s"] for r in traced)
                                  - statistics.median(r["search_s"] for r in untraced))
    exact = [tuple({**r, **r["layers"]}[k] for k in EXACT_KEYS) for r in traced]
    if len(set(exact)) != 1:
        session["incorrect"].append(f"exact counts differ between repeats of seed {seed}: {exact}")
    if len({r["trajectory_sha256"] for r in traced + untraced}) != 1:
        session["incorrect"].append("trajectory.csv differs between traced and untraced repeats")
    session.update(searches=untraced + traced, layers=layers,
                   exact_counts=dict(zip(EXACT_KEYS, exact[0])))
    return session


def untraced_session(name: str, seed: int, seconds: float, out: Path) -> dict:
    wl = SETUPS[name]()
    setup_s = time.perf_counter() - _T0
    session = prepare(name, wl, setup_s, out)
    searches = []
    # start another search only when the last one would still fit
    deadline = time.perf_counter() + seconds
    last_s = 0.0
    while not searches or time.perf_counter() + last_s < deadline:
        t = time.perf_counter()
        searches.append(one_search(wl, seed + len(searches), out))
        last_s = time.perf_counter() - t
    session["searches"] = searches
    return session


def environment() -> dict:
    """What the session ran on, from the interpreter and the libraries only
    (the benchmark reads no files outside its checkout; NOTES.md records
    the CPU model and cache sizes)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "saddlemap": saddlemap.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, required=True, help="driver seed of the first search")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    session = (traced_session if args.trace else untraced_session)(
        args.workload, args.seed, args.seconds, args.out)
    session["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(session))
    return 0


if __name__ == "__main__":
    sys.exit(main())
