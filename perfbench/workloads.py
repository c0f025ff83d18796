"""The four benchmark workloads: how each builds its inputs, fits, and checks.

Every workload draws an Erdos-Renyi comparison graph and a uniform-weight
mixture from a seeded generator, so a seed fixes the inputs.  ``pilot``,
``wide`` and ``oracle`` call ``learn_mixed_mnl`` directly; ``cli`` runs the
``mixmnl generate`` and ``mixmnl learn`` commands in-process through click.
README.md in this directory says why each workload exists.
"""

import contextlib
import gc
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mixmnl import (
    LearnConfig,
    ComponentEstimates,
    erdos_renyi,
    evaluate,
    learn_mixed_mnl,
    random_uniform_model,
)
from mixmnl.cli import main as cli_main
from mixmnl.errors import MixMNLError
from mixmnl.serialize import load_dataset

# learn_mixed_mnl refuses the exact-moment path above 300 pairs, so the
# oracle redraws its graph (from the same seeded generator) until it fits.
ORACLE_MAX_PAIRS = 300
_ORACLE_GRAPH_DRAWS = 100
# Exact moments recover the model to roundoff (about 1e-15 measured).
ORACLE_TOLERANCE = 1e-9
_ROW_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Spec:
    """One workload's instance size and checks.

    ``beats_uniform`` adds the check that the weight estimate is closer to
    the truth than uniform weights are.
    """

    n_items: int
    mean_degree: float
    n_components: int
    ell: int
    samples: int
    exact: bool = False
    beats_uniform: bool = False


SPECS = {
    "pilot": Spec(30, 8.0, 2, 10, 200_000, beats_uniform=True),
    "wide": Spec(300, 12.0, 2, 40, 60_000, beats_uniform=True),
    # The batch only carries the graph: the exact path never reads samples.
    "oracle": Spec(70, 8.0, 8, 2, 2, exact=True),
    # `mixmnl generate` has no weight-range option, so weights are U[1, 2].
    "cli": Spec(30, 8.0, 2, 10, 50_000),
}

# Graphs and models come from this fixed seed, as in the README quickstart;
# the run seed draws the observations and seeds the power-method restarts.
# Rank Centrality's iteration budget depends on the graph's degrees and
# spectral gap, so fits on graphs from different seeds took up to 3x as long
# as each other, more than any bound absorbs.  `mixmnl generate` draws graph,
# model and observations from its one --seed, so on cli that seed is fixed
# and the run seed goes to `mixmnl learn --seed`.
STRUCTURE_SEED = 0
# Item weights of the API workloads are U[1, 8], as in the README quickstart.
WEIGHT_RANGE = (1.0, 8.0)


class Failure(Exception):
    """An output that fails a correctness check."""


def instance_seed(seed, index):
    """Seed of the index-th instance of a run, derived from the run seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def make_graph(spec, rng):
    if not spec.exact:
        return erdos_renyi(spec.n_items, spec.mean_degree, rng)
    for _ in range(_ORACLE_GRAPH_DRAWS):
        graph = erdos_renyi(spec.n_items, spec.mean_degree, rng)
        if graph.n_pairs <= ORACLE_MAX_PAIRS:
            return graph
    raise RuntimeError(f"no graph with at most {ORACLE_MAX_PAIRS} pairs")


def learn_config(spec, seed):
    return LearnConfig(n_components=spec.n_components, seed=seed, exact_moments=spec.exact)


def uniform_guess_error(model):
    """Largest relative L2 error of uniform weights against the true ones."""
    w = model.weights
    uniform = np.full(w.shape[1], 1.0 / w.shape[1])
    return float((np.linalg.norm(w - uniform, axis=1) / np.linalg.norm(w, axis=1)).max())


def check_estimates(spec, model, est):
    """Raise Failure unless the estimates pass the workload's checks."""
    arrays = (est.mixture, est.weights, est.outcome_matrix)
    if not all(np.isfinite(a).all() for a in arrays):
        raise Failure("non-finite estimate")
    sums = est.weights.sum(axis=1)
    if np.abs(sums - 1.0).max() > _ROW_SUM_TOLERANCE:
        raise Failure(f"weight rows sum to {sums.tolist()}")
    report = evaluate(est, model)
    if spec.exact:
        worst = max(report["max_mixture_error"], report["max_weight_error"])
        if worst > ORACLE_TOLERANCE:
            raise Failure(f"exact-moment error {worst:.3e} above {ORACLE_TOLERANCE:g}")
    elif spec.beats_uniform and report["max_weight_error"] >= uniform_guess_error(model):
        raise Failure("weights are no better than a uniform guess")
    return report


def same_estimates(a, b):
    return (
        np.array_equal(a.mixture, b.mixture)
        and np.array_equal(a.weights, b.weights)
        and np.array_equal(a.outcome_matrix, b.outcome_matrix)
    )


@dataclass
class ApiInstance:
    graph: object
    model: object
    batch: object
    seed: int


class ApiWorkload:
    """Builds instances in memory and fits them with learn_mixed_mnl."""

    def __init__(self, spec):
        self.spec = spec

    def setup(self, seed, tracer=None):
        spec = self.spec
        call = tracer.call if tracer else _untraced
        rng = np.random.default_rng(STRUCTURE_SEED)
        graph = call("graphs.erdos_renyi", make_graph, spec, rng)
        model = call(
            "model.random_uniform_model",
            random_uniform_model,
            spec.n_items,
            spec.n_components,
            rng,
            *WEIGHT_RANGE,
        )
        batch = call(
            "model.sample_batch",
            model.sample_batch,
            graph,
            spec.ell,
            spec.samples,
            np.random.default_rng(seed),
        )
        return ApiInstance(graph, model, batch, seed)

    def fit(self, inst):
        return learn_mixed_mnl(inst.batch, learn_config(self.spec, inst.seed), model=inst.model)

    def check_same_setup(self, a, b):
        same = (
            np.array_equal(a.graph.edges, b.graph.edges)
            and np.array_equal(a.model.weights, b.model.weights)
            and np.array_equal(a.batch.pair_indices, b.batch.pair_indices)
            and np.array_equal(a.batch.signs, b.batch.signs)
        )
        if not same:
            raise Failure("a repeated set-up with the same seed built other inputs")

    def check(self, inst, output):
        return check_estimates(self.spec, inst.model, output)

    def check_same_output(self, a, b):
        if not same_estimates(a, b):
            raise Failure("a repeated fit on the same batch gave other estimates")


def _untraced(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def run_cli(args):
    """Run one mixmnl command in-process; raise Failure on a non-zero exit."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            cli_main.main(args=[str(a) for a in args], standalone_mode=False)
        except SystemExit as exc:
            if exc.code:
                raise Failure(f"mixmnl {args[0]} exited {exc.code}: {err.getvalue().strip()}")


@dataclass
class CliInstance:
    path: Path
    data: bytes
    seed: int


class CliWorkload:
    """`mixmnl generate` builds an instance file; `mixmnl learn` fits it."""

    def __init__(self, spec, workdir):
        self.spec = spec
        self.workdir = Path(workdir)
        self._outputs = 0

    def generate_args(self, path):
        s = self.spec
        return [
            "generate", "--n", s.n_items, "--dbar", s.mean_degree, "--r", s.n_components,
            "--ell", s.ell, "--samples", s.samples, "--seed", STRUCTURE_SEED, "--out", path,
        ]

    def learn_args(self, dataset, seed, path):
        return [
            "learn", "--dataset", dataset, "--r", self.spec.n_components,
            "--seed", seed, "--out", path,
        ]

    def fresh_path(self, stem):
        self._outputs += 1
        return self.workdir / f"{stem}-{self._outputs}.json"

    def setup(self, seed):
        path = self.fresh_path("dataset")
        run_cli(self.generate_args(path))
        return CliInstance(path, path.read_bytes(), seed)

    def check_same_setup(self, a, b):
        if a.data != b.data:
            raise Failure("a repeated generate with the same seed wrote other bytes")

    def fit(self, inst):
        path = self.fresh_path("results")
        run_cli(self.learn_args(inst.path, inst.seed, path))
        data = path.read_bytes()
        path.unlink()
        return data

    def check(self, inst, output):
        _, model = load_dataset(inst.path)
        return check_estimates(self.spec, model, estimates_from_results(output))

    def check_same_output(self, a, b):
        if a != b:
            raise Failure("a repeated learn on the same dataset wrote other bytes")


def estimates_from_results(data):
    results = json.loads(data)
    return ComponentEstimates(
        mixture=np.asarray(results["q_hat"], dtype=np.float64),
        weights=np.asarray(results["w_hat"], dtype=np.float64),
        outcome_matrix=np.asarray(results["p_hat"], dtype=np.float64),
    )


def make_workload(name, workdir):
    spec = SPECS[name]
    return CliWorkload(spec, workdir) if name == "cli" else ApiWorkload(spec)


class Ops:
    """Counts attempted and failed operations and keeps the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    @contextlib.contextmanager
    def attempt(self, what):
        self.attempted += 1
        try:
            yield
        except (MixMNLError, Failure) as err:
            self.failed += 1
            self.reasons.append(f"{what}: {type(err).__name__}: {err}")


def timed(fn, *args):
    """Run fn(*args) on a collected heap; return (result, CPU s, wall s).

    Without the collection, the cyclic collector's work on the previous
    call's garbage lands in this call: on cli, `mixmnl learn` took 1.7 s
    instead of 0.85 s.
    """
    gc.collect()
    wall, cpu = time.perf_counter(), time.process_time()
    out = fn(*args)
    return out, time.process_time() - cpu, time.perf_counter() - wall
