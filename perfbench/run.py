"""Saddle-search benchmark: time to a saddle, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload sphere_learned --seed 0 --seconds 20 --trace 0

Each session is a fresh Python process (perfbench/worker.py) with the BLAS
thread count pinned through its environment before numpy is imported. The
load is a closed loop: one search at a time, one client, no pool.

--trace 0 runs SESSIONS sessions one after another, each for a share of
--seconds, and reports the end-to-end metrics. --trace 1 runs one session
that repeats one seed in blocks of traced, untraced, traced searches and
reports the per-layer metrics and the tracing overhead; it fails when the
exact counts of the repeats differ. Every search is checked against its
workload's conditions. A search that delivers no result (say, verdict
'failed') is a failed operation: it counts in "failed" and failed_runs. A
delivered result that is wrong, a wrong oracle report, or repeats whose
exact counts differ make the run incorrect, and fail every search they
touch. The last line of stdout is the JSON result. perfbench/NOTES.md
describes the workloads and metrics.
"""
import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("mb_chart", "sphere_learned")
BLAS_THREADS = "1"
SESSIONS = 2
# a run must end within 180 s; sessions share what is left of this
RUN_TIMEOUT_S = 170.0
OUT_ROOT = Path(".perfbench_out")


def high_percentile(values: list) -> str:
    """The highest of p75/p90/p95/p99 that has at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(values, n=100)[p - 1]
            return f"p{p} {cut:.6g}"
    return "no percentile above the median has 10 samples beyond it"


def run_session(args, index: int, seconds: float, deadline: float) -> dict:
    out = OUT_ROOT / args.workload / f"session{index}"
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    seed = args.seed * 1000 + index * 100
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", args.workload, "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(args.trace), "--out", str(out)]
    # subprocess.run kills the session and waits for it on a timeout
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode < 0:
        cause = signal.Signals(-proc.returncode).name
        if proc.returncode == -signal.SIGKILL:
            cause += " (peak RSS is ~1.5 GB on mb_chart: out of memory?)"
        raise RuntimeError(f"session {index} was killed by {cause}")
    if proc.returncode != 0:
        raise RuntimeError(f"session {index} exited with code {proc.returncode}; "
                           "its traceback is above on stderr")
    # the session's record is its last line; anything the program printed
    # before it is passed on to stderr
    *chatter, record = proc.stdout.strip().splitlines() or [""]
    for line in chatter:
        print(line, file=sys.stderr)
    return json.loads(record)


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not Path("src/saddlemap/__init__.py").is_file():
        print("run from the root of a saddlemap checkout: src/saddlemap is missing",
              file=sys.stderr)
        return 2
    units = declared_units(args.trace)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    shutil.rmtree(OUT_ROOT / args.workload, ignore_errors=True)
    n_sessions = 1 if args.trace else SESSIONS
    sessions = [run_session(args, i, args.seconds / n_sessions, deadline)
                for i in range(n_sessions)]

    print("environment:", json.dumps(sessions[0]["environment"], sort_keys=True))
    searches = [s for sess in sessions for s in sess["searches"]]
    failed = 0
    correct = True
    for sess in sessions:
        for f in sess["incorrect"]:
            print(f"session INCORRECT: {f}")
        correct &= not sess["incorrect"]
        for s in sess["searches"]:
            note = (f" FAILED: {s['failed']}" if s["failed"] else "") + \
                   (f" INCORRECT: {'; '.join(s['incorrect'])}" if s["incorrect"] else "")
            print(f"seed {s['seed']}: {s['verdict']} after {s['iterations']} charts, "
                  f"{s['steps']} steps, {s['search_s']:.4f} s, saddle error "
                  f"{s['saddle_error']:.4g}{note}")
            failed += bool(s["failed"] or s["incorrect"] or sess["incorrect"])
            correct &= not s["incorrect"]
    print(f"failed_runs: {failed / len(searches):.6g} ratio ({failed} of {len(searches)} searches)")
    errors = [s["saddle_error"] for s in searches]
    print(f"saddle_error: median {statistics.median(errors):.6g}, max {max(errors):.6g} ambient units")

    if args.trace:
        values = sessions[0]["layers"]
        print("exact counts:", json.dumps(sessions[0]["exact_counts"], sort_keys=True))
    else:
        # failed searches count in failed_runs and stay out of the medians,
        # unless no search of the run delivered a result
        delivered = [s for s in searches if not s["failed"]] or searches
        samples = {
            "search_s": [s["search_s"] for s in delivered],
            "setup_s": [sess["setup_s"] for sess in sessions],
            "peak_rss_mb": [sess["peak_rss_mb"] for sess in sessions],
        }
        values = {k: statistics.median(v) for k, v in samples.items()}
        for k, v in samples.items():
            print(f"{k}: {values[k]:.6g} {units[k]} (median of {len(v)}; {high_percentile(v)})")
        # write_s carries no bound: on a shared 2-vCPU VM its run-to-run
        # spread (20-45%) exceeds the largest bound a metric may have
        writes = [w for s in delivered for w in s["write_s"]]
        if writes:
            print(f"write_s: {statistics.median(writes):.6g} s (median of {len(writes)}; "
                  f"{high_percentile(writes)}; no bound)")
        # a count: its mean over the run's seeds is reported
        values["iterations"] = statistics.fmean(s["iterations"] for s in delivered)
        print(f"iterations: {values['iterations']:.6g} count (mean of {len(delivered)} searches)")
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(values)}, BENCHMARK.json declares {sorted(units)}")
    for k, v in values.items():
        if not math.isfinite(v):
            raise RuntimeError(f"metric {k} is not finite")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    # the result line carries the verdict: an incorrect run still exits 0
    print(json.dumps({"correct": correct, "attempted": len(searches), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
