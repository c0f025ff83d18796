import importlib
import sys
from pathlib import Path

import mixmnl

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_exported_name_resolves():
    assert [name for name in mixmnl.__all__ if not hasattr(mixmnl, name)] == []


def test_exported_names_are_unique():
    assert len(set(mixmnl.__all__)) == len(mixmnl.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from mixmnl import *", namespace)
    assert set(mixmnl.__all__) <= namespace.keys()


def test_benchmark_modules_import(monkeypatch):
    # perfbench/run.py imports both on every run, so a library change that
    # drops a name they import would crash every benchmark run.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    names = ("workloads", "tracing")
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        for name in names:
            module = importlib.import_module(name)
            assert Path(module.__file__).resolve().parent == PERFBENCH
    finally:
        for name in names:
            sys.modules.pop(name, None)
