"""Traced run: span recording, replay of the learning chain, per-layer metrics.

Spans are recorded from outside the library, around calls into its public
functions.  A span has a name, a start, an end and a parent, and all spans
stay in memory until the run writes them out.

The library runs its stages inside ``learn_mixed_mnl``, out of reach of a
benchmark that does not patch it.  So each traced repetition first times the
whole call, then replays the calls it makes, one span per call, on the same
inputs.  The replayed spans name the whole call as their parent, and a
parent's self time is its duration minus the summed durations of its
children.  The replay must reproduce the whole call's estimates bit for
bit; when it does not, the per-layer numbers describe a chain the library
no longer runs and are withheld as stale.
"""

import gc
import math
import statistics
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

from mixmnl import (
    ComponentEstimates,
    build_transition,
    empirical_second_moment,
    erdos_renyi,
    exact_second_moment,
    exact_third_moment,
    learn_mixed_mnl,
    project_outcomes,
    projected_third_moment,
    random_uniform_model,
    rank_centrality,
    split_ranges,
)
from mixmnl.altmin import altmin_complete, symmetrize_and_eig
from mixmnl.rankcentrality import default_iteration_count
from mixmnl.serialize import load_dataset, save_dataset, save_results
from mixmnl.spectral import components_from_exact_moments, estimate_components
from mixmnl.tensors import (
    default_restarts,
    tensor_power_decomposition,
    whitened_ls_operator,
    whitened_third_moment_ls,
    whitened_third_moment_ls_exact,
)
from workloads import (
    ApiInstance,
    STRUCTURE_SEED,
    CliWorkload,
    Failure,
    check_estimates,
    instance_seed,
    learn_config,
    run_cli,
    same_estimates,
)

# Rank Centrality counts an iteration as useful until the L1 change between
# iterates falls below this.
USEFUL_CHANGE = 1e-13
MB = 1024.0 * 1024.0

# Per-layer metrics a run reports: name -> unit.  Layers a workload never
# reaches report 0.
PER_LAYER = {
    "graphs.erdos_renyi_s": "s",
    "model.sample_batch_s": "s",
    "model.keys_drawn": "count",
    "model.key_use_frac": "1",
    "moments.second_s": "s",
    "moments.third_s": "s",
    "moments.second_bytes": "bytes",
    "moments.exact_s": "s",
    "moments.second_peak_alloc_mb": "MB",
    "moments.exact_peak_alloc_mb": "MB",
    "altmin.complete_s": "s",
    "altmin.whiten_s": "s",
    "altmin.iterations": "count",
    "altmin.ridge_steps": "count",
    "altmin.complete_peak_alloc_mb": "MB",
    "altmin.whiten_peak_alloc_mb": "MB",
    "tensors.operator_s": "s",
    "tensors.ls_s": "s",
    "tensors.power_s": "s",
    "tensors.power_restarts": "count",
    "tensors.condition_number": "1",
    "tensors.pinv_fallbacks": "count",
    "tensors.ls_peak_alloc_mb": "MB",
    "rankcentrality.rank_s": "s",
    "rankcentrality.budget_s": "s",
    "rankcentrality.iterations": "count",
    "rankcentrality.useful_frac": "1",
    "serialize.save_dataset_s": "s",
    "serialize.load_dataset_s": "s",
    "serialize.save_results_s": "s",
    "serialize.dataset_bytes": "bytes",
    "spectral.self_s": "s",
    "pipeline.self_s": "s",
    "cli.self_s": "s",
    "pipeline.mixture_error": "1",
    "pipeline.weight_error": "1",
    "trace.overhead_frac": "1",
    "trace.chain_agrees": "count",
}

# Counts that must repeat exactly across the repetitions of a traced run.
EXACT_COUNTS = (
    "altmin.iterations",
    "rankcentrality.iterations",
    "tensors.power_restarts",
    "model.keys_drawn",
    "serialize.dataset_bytes",
)

# Span name -> metric that sums the durations (or self times) of its spans.
_DURATIONS = {
    "graphs.erdos_renyi": "graphs.erdos_renyi_s",
    "model.sample_batch": "model.sample_batch_s",
    "moments.empirical_second_moment": "moments.second_s",
    "moments.projected_third_moment": "moments.third_s",
    "moments.exact_second_moment": "moments.exact_s",
    "moments.exact_third_moment": "moments.exact_s",
    "altmin.altmin_complete": "altmin.complete_s",
    "altmin.symmetrize_and_eig": "altmin.whiten_s",
    "tensors.whitened_ls_operator": "tensors.operator_s",
    "tensors.tensor_power_decomposition": "tensors.power_s",
    "rankcentrality.rank_centrality": "rankcentrality.rank_s",
    "rankcentrality.default_iteration_count": "rankcentrality.budget_s",
    "serialize.save_dataset": "serialize.save_dataset_s",
    "serialize.load_dataset": "serialize.load_dataset_s",
    "serialize.save_results": "serialize.save_results_s",
}
_SELF_TIMES = {
    "tensors.whitened_third_moment_ls": "tensors.ls_s",
    "tensors.whitened_third_moment_ls_exact": "tensors.ls_s",
    "spectral.estimate_components": "spectral.self_s",
    "spectral.components_from_exact_moments": "spectral.self_s",
    "pipeline.learn_mixed_mnl": "pipeline.self_s",
    "cli.generate": "cli.self_s",
    "cli.learn": "cli.self_s",
}


class Tracer:
    """Keeps spans in memory; the innermost open span is the parent."""

    def __init__(self):
        self.spans = []
        self.rep = 0
        self._stack = []
        self.origin = time.perf_counter()

    @contextmanager
    def span(self, name):
        record = {
            "name": name,
            "rep": self.rep,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - self.origin,
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.origin
            self._stack.pop()

    @contextmanager
    def under(self, record):
        """Make a finished span the parent of the spans opened inside."""
        self._stack.append(self.spans.index(record))
        try:
            yield
        finally:
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def rep_metrics(self, rep):
        """Durations and self times of one repetition, summed per metric."""
        spans = [s for s in self.spans if s["rep"] == rep]
        child_time = {}
        for s in self.spans:
            if s["parent"] is not None and s["rep"] == rep:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        out = {}
        for s in spans:
            duration = s["end"] - s["start"]
            if s["name"] in _DURATIONS:
                key = _DURATIONS[s["name"]]
                out[key] = out.get(key, 0.0) + duration
            if s["name"] in _SELF_TIMES:
                key = _SELF_TIMES[s["name"]]
                own = duration - child_time.get(self.spans.index(s), 0.0)
                out[key] = out.get(key, 0.0) + own
        return out


def reconstruct(basis, eigenpairs):
    """Mixture and outcome means from the whitening basis and tensor eigenpairs.

    The library's formula, which it keeps private; if it changes, the chain
    stops agreeing and the run says so.
    """
    values = eigenpairs.values
    p_hat = (basis.coloring_map @ eigenpairs.vectors) * values[None, :]
    return values**-2.0, p_hat


class ChainReplay:
    """Replays learn_mixed_mnl's calls on one instance, one span per call.

    After ``fit``, ``budgets`` holds each component's Rank Centrality
    iteration budget.
    """

    def __init__(self, spec, tracer):
        self.spec = spec
        self.tracer = tracer
        self.budgets = []

    def fit(self, inst):
        """Whole call, then its replay; returns (estimates, counts, agrees)."""
        t = self.tracer
        config = learn_config(self.spec, inst.seed)
        with t.span("pipeline.learn_mixed_mnl") as whole:
            est = learn_mixed_mnl(inst.batch, config, model=inst.model)
        with t.under(whole):
            start = time.perf_counter()
            replayed, counts = self._chain(inst, config.seed)
            # The chain's own wall time leaves out the whole spectral call.
            chain_s = time.perf_counter() - start - _duration(self.spectral_span)
            self._probes(inst, replayed, counts)
        counts["trace.overhead_frac"] = chain_s / _duration(whole) - 1.0
        return est, counts, same_estimates(est, replayed)

    def _chain(self, inst, seed):
        t = self.tracer
        r = self.spec.n_components
        batch, graph = inst.batch, inst.graph
        counts = {"tensors.power_restarts": r * default_restarts(r)}
        self.third_range = None
        if self.spec.exact:
            m2 = t.call("moments.exact_second_moment", exact_second_moment, inst.model, graph)
            m3 = t.call(
                "moments.exact_third_moment",
                exact_third_moment,
                inst.model,
                graph,
                max_pairs=graph.n_pairs,
            )
            with t.span("spectral.components_from_exact_moments") as self.spectral_span:
                components_from_exact_moments(m2, m3, r, rng=np.random.default_rng(seed))
            with t.under(self.spectral_span):
                basis = t.call("altmin.symmetrize_and_eig", symmetrize_and_eig, m2, r)
                with t.span("tensors.whitened_third_moment_ls_exact") as self.ls_span:
                    ls = whitened_third_moment_ls_exact(m3, basis)
        else:
            with t.span("spectral.estimate_components") as self.spectral_span:
                estimate_components(batch, r, rng=np.random.default_rng(seed))
            with t.under(self.spectral_span):
                count = len(batch)
                (lo2, hi2), self.third_range = t.call(
                    "moments.split_ranges", split_ranges, count
                )
                # estimate_components' default completion budget
                iterations = max(1, math.ceil(math.log(graph.n_pairs * count)))
                second = t.call(
                    "moments.empirical_second_moment", empirical_second_moment, batch, lo2, hi2
                )
                completion = t.call(
                    "altmin.altmin_complete", altmin_complete, second.matrix, r, iterations
                )
                basis = t.call(
                    "altmin.symmetrize_and_eig", symmetrize_and_eig, completion.matrix, r
                )
                with t.span("tensors.whitened_third_moment_ls") as self.ls_span:
                    ls = whitened_third_moment_ls(batch, basis, *self.third_range)
            counts["altmin.iterations"] = len(completion.objectives)
            counts["altmin.ridge_steps"] = len(completion.ridge_steps)
        with t.under(self.spectral_span):
            pairs = t.call(
                "tensors.tensor_power_decomposition",
                tensor_power_decomposition,
                ls.tensor,
                r,
                n_iterations=50,
                rng=np.random.default_rng(seed),
            )
        self.basis = basis
        counts["tensors.condition_number"] = ls.condition_number
        counts["tensors.pinv_fallbacks"] = int(ls.used_pinv)
        mixture, p_hat = reconstruct(basis, pairs)
        weights = np.empty((r, graph.n_items))
        self.rank_spans = []
        for a in range(r):
            with t.span("rankcentrality.rank_centrality") as rank_span:
                weights[a] = rank_centrality(graph, p_hat[:, a])
            self.rank_spans.append(rank_span)
        replayed = ComponentEstimates(mixture=mixture, weights=weights, outcome_matrix=p_hat)
        return replayed, counts

    def _probes(self, inst, replayed, counts):
        """Calls made inside other calls, timed apart on the same inputs."""
        t = self.tracer
        with t.under(self.ls_span):
            if self.third_range is not None:
                t.call(
                    "moments.projected_third_moment",
                    projected_third_moment,
                    inst.batch,
                    self.basis.whitening_map,
                    *self.third_range,
                )
            t.call("tensors.whitened_ls_operator", whitened_ls_operator, self.basis)
        self.budgets = []
        for a, rank_span in enumerate(self.rank_spans):
            projected = project_outcomes(replayed.outcome_matrix[:, a])
            with t.under(rank_span):
                self.budgets.append(
                    t.call(
                        "rankcentrality.default_iteration_count",
                        default_iteration_count,
                        inst.graph,
                        projected,
                    )
                )
        counts["rankcentrality.iterations"] = sum(self.budgets)


def _duration(span):
    return span["end"] - span["start"]


def useful_fraction(graph, outcome_matrix, budgets):
    """Share of Rank Centrality's iterations run before the change drops below 1e-13."""
    useful = 0
    for a, budget in enumerate(budgets):
        transition = build_transition(graph, project_outcomes(outcome_matrix[:, a]))
        transposed = transition.matrix.T.tocsr()
        pi = np.full(graph.n_items, 1.0 / graph.n_items)
        for step in range(1, budget + 1):
            nxt = transposed @ pi
            nxt /= nxt.sum()
            change = float(np.abs(nxt - pi).sum())
            pi = nxt
            if change < USEFUL_CHANGE:
                break
        useful += step
    return useful / sum(budgets)


def peak_allocations(spec, inst):
    """tracemalloc peak of each memory-heavy call, above what was live before it."""
    out = {}

    def measure(key, fn, *args, **kwargs):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
        out[key] = out.get(key, 0.0) + (peak - before) / MB
        return result

    r = spec.n_components
    tracemalloc.start()
    try:
        if spec.exact:
            m2 = measure("moments.exact_peak_alloc_mb", exact_second_moment, inst.model, inst.graph)
            m3 = measure(
                "moments.exact_peak_alloc_mb",
                exact_third_moment,
                inst.model,
                inst.graph,
                max_pairs=inst.graph.n_pairs,
            )
            basis = measure("altmin.whiten_peak_alloc_mb", symmetrize_and_eig, m2, r)
            measure("tensors.ls_peak_alloc_mb", whitened_third_moment_ls_exact, m3, basis)
        else:
            batch = inst.batch
            (lo2, hi2), (lo3, hi3) = split_ranges(len(batch))
            iterations = max(1, math.ceil(math.log(inst.graph.n_pairs * len(batch))))
            second = measure(
                "moments.second_peak_alloc_mb", empirical_second_moment, batch, lo2, hi2
            )
            completion = measure(
                "altmin.complete_peak_alloc_mb", altmin_complete, second.matrix, r, iterations
            )
            del second
            basis = measure(
                "altmin.whiten_peak_alloc_mb", symmetrize_and_eig, completion.matrix, r
            )
            del completion
            measure("tensors.ls_peak_alloc_mb", whitened_third_moment_ls, batch, basis, lo3, hi3)
    finally:
        tracemalloc.stop()
    return out


def setup_counts(spec, graph):
    return {
        "model.keys_drawn": spec.samples * graph.n_pairs,
        "model.key_use_frac": spec.ell / graph.n_pairs,
        "moments.second_bytes": 0 if spec.exact else 8 * graph.n_pairs**2,
    }


def traced_setup_api(workload, tracer, seed):
    with tracer.span("setup"):
        inst = workload.setup(seed, tracer=tracer)
    return inst, setup_counts(workload.spec, inst.graph)


def traced_setup_cli(workload, tracer):
    """`mixmnl generate`, then the calls it makes replayed into a second file."""
    spec = workload.spec
    path = workload.fresh_path("dataset")
    with tracer.span("cli.generate") as whole:
        run_cli(workload.generate_args(path))
    replay_path = workload.fresh_path("dataset")
    with tracer.under(whole):
        rng = np.random.default_rng(STRUCTURE_SEED)
        graph = tracer.call("graphs.erdos_renyi", erdos_renyi, spec.n_items, spec.mean_degree, rng)
        model = tracer.call(
            "model.random_uniform_model", random_uniform_model, spec.n_items, spec.n_components, rng
        )
        batch = tracer.call(
            "model.sample_batch", model.sample_batch, graph, spec.ell, spec.samples, rng
        )
        tracer.call("serialize.save_dataset", save_dataset, replay_path, batch, model)
    agrees = path.read_bytes() == replay_path.read_bytes()
    replay_path.unlink()
    counts = setup_counts(spec, graph)
    counts["serialize.dataset_bytes"] = path.stat().st_size
    return path, counts, agrees


def traced_fit_cli(workload, replay, path, seed):
    """`mixmnl learn`, then load, fit (replayed stage by stage) and save."""
    tracer = replay.tracer
    out = workload.fresh_path("results")
    with tracer.span("cli.learn") as whole:
        run_cli(workload.learn_args(path, seed, out))
    replay_out = workload.fresh_path("results")
    with tracer.under(whole):
        batch, model = tracer.call("serialize.load_dataset", load_dataset, path)
        inst = ApiInstance(batch.graph, model, batch, seed)
        est, counts, agrees = replay.fit(inst)
        tracer.call("serialize.save_results", save_results, replay_out, est)
    agrees = agrees and out.read_bytes() == replay_out.read_bytes()
    for p in (out, replay_out):
        p.unlink()
    return inst, est, counts, agrees


def run_traced(workload, seed, seconds, ops):
    """Traced repetitions for ``seconds`` (at least two); returns metrics and spans."""
    spec = workload.spec
    seed = instance_seed(seed, 0)
    tracer = Tracer()
    replay = ChainReplay(spec, tracer)
    per_rep = []
    agrees = True
    first = None
    deadline = None
    while deadline is None or time.perf_counter() < deadline or len(per_rep) < 2:
        tracer.rep = len(per_rep)
        gc.collect()  # as before every timed call of the untraced run
        with ops.attempt(f"traced repetition {tracer.rep}"):
            if isinstance(workload, CliWorkload):
                path, counts, setup_agrees = traced_setup_cli(workload, tracer)
                if deadline is None:  # warm the fit path before the first timed repetition
                    run_cli(workload.learn_args(path, seed, workload.fresh_path("results")))
                inst, est, fit_counts, fit_agrees = traced_fit_cli(workload, replay, path, seed)
                agrees = agrees and setup_agrees and fit_agrees
            else:
                inst, counts = traced_setup_api(workload, tracer, seed)
                if deadline is None:
                    workload.fit(inst)
                est, fit_counts, fit_agrees = replay.fit(inst)
                agrees = agrees and fit_agrees
            counts.update(fit_counts)
            report = check_estimates(spec, inst.model, est)
            rep = tracer.rep_metrics(tracer.rep)
            rep.update(counts)
            if first is None:
                first = (inst, est, report, rep)
            else:
                changed = [k for k in EXACT_COUNTS if rep.get(k) != first[3].get(k)]
                if changed:
                    raise Failure(f"counts changed between repetitions: {changed}")
            per_rep.append(rep)
        if deadline is None:
            deadline = time.perf_counter() + seconds
        if ops.failed:
            break
    if first is None:
        return None, tracer.spans
    inst, est, report, _ = first
    if agrees:
        metrics = {k: statistics.median(r.get(k, 0.0) for r in per_rep) for k in PER_LAYER}
        metrics["rankcentrality.useful_frac"] = useful_fraction(
            inst.graph, est.outcome_matrix, replay.budgets
        )
        metrics.update(peak_allocations(spec, inst))
    else:
        metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics["trace.chain_agrees"] = int(agrees)
    metrics["pipeline.mixture_error"] = report["max_mixture_error"]
    metrics["pipeline.weight_error"] = report["max_weight_error"]
    return metrics, tracer.spans
