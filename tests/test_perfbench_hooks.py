"""The benchmark in perfbench/ hooks into the library by name: its tracer
wraps functions found by module and attribute, and its table-cache reset
calls cache_clear on two cached builders.  A rename or deletion in src/
that would silently break those hooks fails here."""

import importlib.util
import sys
from pathlib import Path

from biortho import polys

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_and_wraps_every_target():
    tracer = load("tracing").Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert tracer.bypasses() == []
    finally:
        tracer.uninstall()


def test_table_caches_can_be_cleared():
    for table in (polys._biortho_table, polys._jacobi_table):
        assert callable(table.cache_clear)
    load("workloads").clear_table_caches()
