"""Benchmark of the mixmnl learning pipeline; one workload per process.

    python3 perfbench/run.py --workload pilot --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the library is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` replays the chain stage by stage and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds informational numbers (machine facts, the cold first fit, errors).
See README.md in this directory.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("pilot", "wide", "oracle", "cli")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_blas_threads():
    """One BLAS thread; must run before numpy loads.

    With one OpenBLAS thread per core (2 here), about one process in four ran
    every `mixmnl learn` at twice the time of the others, on the same inputs.
    With one thread no process did, and fit times within a run spread less.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def blas_threads(np):
    """Thread count reported by the OpenBLAS that numpy loaded, if it exposes one."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    """Commit named by .git/HEAD, or None outside a git work tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def machine_facts():
    import numpy as np
    import scipy

    try:
        import numba  # noqa: F401

        have_numba = True
    except ImportError:
        have_numba = False
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "mixmnl").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "numba": have_numba,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest()[:16],
    }


def run_e2e(workload, seed, seconds, ops):
    """Set up and fit a fresh instance per iteration for ``seconds``.

    The first fit warms the process and is reported apart as the cold
    fit.  The first instance is then set up and fitted once more, which
    must reproduce its inputs and outputs exactly.

    Timings are process CPU time.  BLAS runs on one thread and the library
    starts none, so on a quiet host this is the wall time less 2-5%.  The
    kernel leaves time the hypervisor steals out of it: that steal slowed
    whole runs by 15-45% for minutes at a time.  Wall times go on the info
    line.
    """
    from workloads import instance_seed, timed

    setup_cpu, setup_wall, fit_cpu, fit_wall, reports = [], [], [], [], []
    first = None
    cold = None
    deadline = None
    i = 0
    while deadline is None or time.perf_counter() < deadline:
        with ops.attempt(f"instance {i}"):
            inst, cpu, wall = timed(workload.setup, instance_seed(seed, i))
            setup_cpu.append(cpu)
            setup_wall.append(wall)
            output, cpu, wall = timed(workload.fit, inst)
            reports.append(workload.check(inst, output))
            if first is None:
                first = (inst, output)
                cold = {"cpu": cpu, "wall": wall}
            else:
                fit_cpu.append(cpu)
                fit_wall.append(wall)
        inst = output = None  # one instance at a time besides the first
        if deadline is None:
            deadline = time.perf_counter() + seconds
        i += 1
        if ops.failed:
            return None, {}
    with ops.attempt("repeated set-up and fit"):
        inst, cpu, wall = timed(workload.setup, first[0].seed)
        setup_cpu.append(cpu)
        setup_wall.append(wall)
        workload.check_same_setup(first[0], inst)
        output, cpu, wall = timed(workload.fit, inst)
        fit_cpu.append(cpu)
        fit_wall.append(wall)
        workload.check_same_output(first[1], output)
    if ops.failed:
        return None, {}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "learn_s": (statistics.median(fit_cpu), "s"),
        "setup_s": (statistics.median(setup_cpu), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    info = {
        "cold_fit_s": cold,
        "fit_cpu_s": fit_cpu,
        "fit_wall_s": fit_wall,
        "setup_cpu_s": setup_cpu,
        "setup_wall_s": setup_wall,
        "mixture_error": statistics.median(r["max_mixture_error"] for r in reports),
        "weight_error": statistics.median(r["max_weight_error"] for r in reports),
    }
    return metrics, info


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mixmnl" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import mixmnl

    if Path(mixmnl.__file__).resolve().parent != SRC / "mixmnl":
        print(f"error: mixmnl imported from {mixmnl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracing import PER_LAYER, run_traced
    from workloads import Ops, make_workload

    info = {"workload": args.workload, "seed": args.seed, "machine": machine_facts()}
    ops = Ops()
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=BENCH_DIR) as workdir:
        workload = make_workload(args.workload, workdir)
        if args.trace:
            values, spans = run_traced(workload, args.seed, args.seconds, ops)
            metrics = None if values is None else {k: (values[k], PER_LAYER[k]) for k in PER_LAYER}
            trace_path = write_spans(args, spans)
            info["spans"] = str(trace_path.relative_to(ROOT))
            if values is not None and not values["trace.chain_agrees"]:
                print("warning: replayed chain disagrees with learn_mixed_mnl; "
                      "per-layer numbers are stale and withheld", file=sys.stderr)
        else:
            metrics, run_info = run_e2e(workload, args.seed, args.seconds, ops)
            info.update(run_info)
    info["failed_frac"] = ops.failed / max(ops.attempted, 1)
    info["failures"] = ops.reasons
    print(json.dumps(info))
    result = {
        "correct": metrics is not None and ops.failed == 0,
        "attempted": max(ops.attempted, 1),
        "failed": ops.failed if ops.attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in (metrics or {}).items()},
    }
    print(json.dumps(result))
    return 0


def write_spans(args, spans):
    out_dir = BENCH_DIR / "traces"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "spans": spans}))
    return path


if __name__ == "__main__":
    sys.exit(main())
