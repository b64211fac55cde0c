"""The benchmark harness's view of the program: every name its tracer wraps
and every config value it passes must still exist.

perfbench/worker.py is loaded read-only from its file; nothing under
perfbench/ is imported as a package or changed.
"""
import importlib.util
import sys
from pathlib import Path

import numpy as np

from saddlemap import benchmarks
from saddlemap.driver import DriverConfig, run_search
from saddlemap.sampling import SamplerConfig

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


def load_worker(monkeypatch):
    # the worker puts its own directory on sys.path to import spans.py
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_and_configs_resolve(monkeypatch):
    worker = load_worker(monkeypatch)
    tracer = worker.Tracer()
    try:
        worker.install(tracer)  # getattr raises on a name the program dropped
        patched = list(tracer._patched)
    finally:
        tracer.uninstall()
    assert patched
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
    for make_config in (worker._sphere_config, worker._mb_config):
        assert isinstance(make_config(0), DriverConfig)


def traced_spans(monkeypatch, mode):
    worker = load_worker(monkeypatch)
    tracer = worker.Tracer()
    cfg = DriverConfig(sampler=SamplerConfig(n_samples=300, perturbation_scale=0.15),
                       n_iterations_max=1, n_ode_steps=20, ode_dt=1e-3, tol_force=1e-3, seed=0)
    start = benchmarks.sphere_project(np.array([1.0, 1.0, -1.0]))
    try:
        worker.install(tracer)
        run_search(benchmarks.sphere_problem(), start, cfg, mode=mode)
    finally:
        tracer.uninstall()
    return tracer.summary(tracer.run_id)


def test_every_guarded_layer_records_calls(monkeypatch):
    # a layer the program captured at import (a default argument, a closure,
    # a bound alias) would escape the tracer's wrapper and read as 0 calls.
    # geometry.eval, dimred.bandwidth and sampling.tether are left out: the
    # tracer wraps names (the single-quantity views, bandwidth_median_rule,
    # the tether) the search never calls
    spans = traced_spans(monkeypatch, "learned_chart")
    for name in ("driver.chart_build", "driver.integrate", "sampling.cloud", "dimred.dmap",
                 "dimred.select", "kernels.gaussian", "regression.select", "regression.fit",
                 "regression.factor", "regression.predict", "geometry.eigpair"):
        assert spans[name]["calls"] >= 1, name


def test_exact_chart_search_records_calls(monkeypatch):
    spans = traced_spans(monkeypatch, "exact_chart")
    for name in ("driver.integrate", "geometry.eigpair"):
        assert spans[name]["calls"] >= 1, name


def test_layers_the_search_never_reaches_record_no_calls(monkeypatch):
    # the tracer wraps names the search no longer calls: the single-quantity
    # GeometryField views, driver's bandwidth_median_rule import and the
    # tether. These are the names ROADMAP item 1's benchmark-only change
    # stops wrapping, after which src/ can delete them
    for mode in ("learned_chart", "exact_chart"):
        spans = traced_spans(monkeypatch, mode)
        for name in ("geometry.eval", "dimred.bandwidth", "sampling.tether"):
            assert spans[name]["calls"] == 0, (mode, name)
