"""The benchmark harness's view of the program: every name its tracer wraps
and every config value it passes must still exist.

perfbench/worker.py is loaded read-only from its file; nothing under
perfbench/ is imported as a package or changed.
"""
import importlib.util
import sys
from pathlib import Path

from saddlemap.driver import DriverConfig

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
