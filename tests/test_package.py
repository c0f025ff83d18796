import ast
import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mixmnl

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_every_exported_name_resolves():
    assert [name for name in mixmnl.__all__ if not hasattr(mixmnl, name)] == []


def test_import_does_not_load_scipy_optimize():
    # scipy.optimize adds about 17 MB of RSS and 0.14 s to every process; a
    # fresh interpreter shows what importing the package and its CLI loads.
    src = str(Path(mixmnl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, mixmnl, mixmnl.cli; print('scipy.optimize' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


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


def test_benchmark_imports_from_mixmnl_resolve():
    # Parsed rather than imported, so an import inside a function counts
    # too: every name perfbench takes from mixmnl must exist.
    missing = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names if a.name.split(".")[0] == "mixmnl"]
                for module in modules:
                    try:
                        importlib.import_module(module)
                    except ImportError:
                        missing.append(f"{path.name}: import {module}")
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if (node.module or "").split(".")[0] != "mixmnl":
                    continue
                module = importlib.import_module(node.module)
                for alias in node.names:
                    if not hasattr(module, alias.name):
                        missing.append(f"{path.name}: from {node.module} import {alias.name}")
    assert missing == []


@pytest.mark.parametrize("name", ["oracle", "pilot"])
def test_traced_replay_runs(name, monkeypatch, tmp_path):
    # The traced replay calls library stages directly and reads fields of
    # their results (the completion's matrix, objectives and ridge steps),
    # which an import check does not see.  Two repetitions, no timed budget.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for module in ("workloads", "tracing"):
        monkeypatch.delitem(sys.modules, module, raising=False)
    try:
        tracing = importlib.import_module("tracing")
        workloads = importlib.import_module("workloads")
        ops = workloads.Ops()
        metrics, spans = tracing.run_traced(workloads.make_workload(name, tmp_path), 1, 0.0, ops)
    finally:
        for module in ("workloads", "tracing"):
            sys.modules.pop(module, None)
    assert (ops.failed, ops.reasons) == (0, [])
    assert ops.attempted >= 2 and spans
    assert set(tracing.PER_LAYER) <= metrics.keys()
    assert math.isfinite(metrics["pipeline.mixture_error"])


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_property_test_is_reported_under_the_repo_config(tmp_path):
    # Hypothesis imports libcst to report a failure, and libcst warns with a
    # DeprecationWarning; the config's error filter must not turn that into
    # an INTERNALERROR that ends the run before the next test.
    (tmp_path / "test_pair.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
