"""End-to-end learning, evaluation against ground truth, and sweeps.

The full learner chains the moment phase (mixture proportions and per-pair
outcome means) with one stationary-distribution solve per component to
produce item weights.  Estimated components come back in an arbitrary
order, so evaluation first finds the error-minimizing assignment to the
true components.
"""

import csv
import math
import statistics
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import MixMNLError, ValidationError
from .graphs import erdos_renyi
from .model import random_uniform_model
from .moments import (
    exact_second_moment,
    exact_third_moment,
    incoherence_from_basis,
    second_moment_spectrum,
)
from .rankcentrality import rank_centrality
from .spectral import components_from_exact_moments, estimate_components

_EXACT_TENSOR_LIMIT = 300
# Failure probability and target accuracy of the sample-size estimate.
_DELTA = 0.1
_EPS = 0.1


@dataclass
class LearnConfig:
    """Settings of the full learner.

    Every iteration count comes from the data: completion runs
    ceil(log(n_pairs * count)) solves, the tensor power method
    ``default_restarts(r)`` restarts per round, and each Rank Centrality
    power iteration stops at convergence, capped by
    ``rankcentrality.default_iteration_count``.  ``seed`` seeds only the
    tensor power method's restarts; every other stage is deterministic.
    """

    n_components: int
    seed: int = 0
    exact_moments: bool = False


@dataclass
class ComponentEstimates:
    """Full learner output: mixture, item weights, per-pair outcome means."""

    mixture: np.ndarray  # (r,)
    weights: np.ndarray  # (r, n_items), rows on the simplex
    outcome_matrix: np.ndarray  # (n_pairs, r)
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MatchResult:
    """Assignment of estimated components to true components.

    ``order[b]`` is the estimated index matched to true component b, so
    reindexing estimates by ``order`` aligns them with the truth.
    """

    order: tuple
    mixture_errors: np.ndarray  # |q_hat - q| per true component
    vector_errors: np.ndarray  # relative L2 error per true component

    @property
    def max_mixture_error(self):
        return float(self.mixture_errors.max())

    @property
    def max_vector_error(self):
        return float(self.vector_errors.max())


def learn_mixed_mnl(batch, config, model=None):
    """Run both phases on a batch and return per-component weight vectors.

    With ``config.exact_moments`` the moment phase runs on the population
    moments of ``model`` (debug path, requires the generating model and a
    modest number of pairs); otherwise everything comes from the batch.
    """
    graph = batch.graph
    rng = np.random.default_rng(config.seed)
    if config.exact_moments:
        if model is None:
            raise ValidationError("exact-moment path needs the generating model")
        if graph.n_pairs > _EXACT_TENSOR_LIMIT:
            raise ValidationError(
                f"exact-moment path is limited to {_EXACT_TENSOR_LIMIT} pairs"
            )
        estimate = components_from_exact_moments(
            exact_second_moment(model, graph),
            exact_third_moment(model, graph, max_pairs=graph.n_pairs),
            config.n_components,
            rng=rng,
        )
    else:
        estimate = estimate_components(batch, config.n_components, rng=rng)
    weights = np.empty((estimate.n_components, graph.n_items))
    for a in range(estimate.n_components):
        weights[a] = rank_centrality(graph, estimate.outcome_matrix[:, a])
    return ComponentEstimates(
        mixture=estimate.mixture,
        weights=weights,
        outcome_matrix=estimate.outcome_matrix,
        diagnostics=dict(estimate.diagnostics),
    )


def match_components(est_mixture, est_vectors, true_mixture, true_vectors):
    """Error-minimizing assignment of estimated to true components.

    ``est_vectors`` and ``true_vectors`` hold one component per row (item
    weights or outcome-mean columns transposed).  The matching minimizes
    the summed per-pair cost |q_hat - q| + relative vector error by the
    Hungarian algorithm.
    """
    est_mixture = np.asarray(est_mixture, dtype=np.float64)
    true_mixture = np.asarray(true_mixture, dtype=np.float64)
    est_vectors = np.atleast_2d(np.asarray(est_vectors, dtype=np.float64))
    true_vectors = np.atleast_2d(np.asarray(true_vectors, dtype=np.float64))
    r = true_mixture.shape[0]
    if est_mixture.shape != (r,) or est_vectors.shape != true_vectors.shape:
        raise ValidationError("estimate and truth must have matching shapes")
    if est_vectors.shape[0] != r:
        raise ValidationError("need one vector per component")

    true_norms = np.linalg.norm(true_vectors, axis=1)
    if (true_norms == 0).any():
        raise ValidationError("true component vectors must be non-zero")
    # cost[a, b]: estimated component a against true component b
    diff = est_vectors[:, None, :] - true_vectors[None, :, :]
    vector_cost = np.linalg.norm(diff, axis=2) / true_norms[None, :]
    cost = np.abs(est_mixture[:, None] - true_mixture[None, :]) + vector_cost

    est_idx, true_idx = linear_sum_assignment(cost)
    order = est_idx[np.argsort(true_idx)]
    return MatchResult(
        order=tuple(int(a) for a in order),
        mixture_errors=np.abs(est_mixture[order] - true_mixture),
        vector_errors=vector_cost[order, range(r)],
    )


def evaluate(estimates, model, graph=None, ell=None):
    """Match estimates to the generating model and report errors.

    Adds the model/graph conditioning diagnostics when ``graph`` (and
    optionally ``ell`` for the sample-size estimate) is given.
    """
    match = match_components(
        estimates.mixture, estimates.weights, model.mixture, model.weights
    )
    report = {
        "order": list(match.order),
        "mixture_errors": [float(v) for v in match.mixture_errors],
        "weight_errors": [float(v) for v in match.vector_errors],
        "max_mixture_error": match.max_mixture_error,
        "max_weight_error": match.max_vector_error,
        "diagnostics": dict(estimates.diagnostics),
    }
    if graph is not None:
        report["conditions"] = check_conditions(model, graph, ell=ell)
    return report


def check_conditions(model, graph, ell=None):
    """Diagnostics for whether moment-phase recovery is well posed.

    Reports the exact second moment's top spectrum and incoherence, the
    graph's connectivity and spectral gap, the model's dynamic range, and
    the order-of-magnitude sample-size estimate

        r N^4 log(N / delta) / (q_min sigma_1^2 eps^2)
          * (1 / ell^2 + sigma_1 / (ell N) + r^4 sigma_1^4 / sigma_r^5)

    at delta = eps = 0.1, with all universal constants omitted, alongside
    the largest recovery accuracy the theory tolerates.  Everything is
    reported, not asserted.
    """
    r = model.n_components
    n_pairs = graph.n_pairs
    values, basis = second_moment_spectrum(model, graph)
    sigma_1 = float(values[0])
    sigma_r = float(values[-1])
    tol = n_pairs * np.finfo(float).eps * sigma_1
    diag = graph.diagnostics()
    q_min = float(model.mixture.min())
    q_max = float(model.mixture.max())
    b = model.dynamic_range
    out = {
        "n_items": graph.n_items,
        "n_pairs": n_pairs,
        "n_components": r,
        "second_moment_values": [float(v) for v in values],
        "numerical_rank": int((values > tol).sum()),
        "sigma_1": sigma_1,
        "sigma_r": sigma_r,
        "condition_ratio": sigma_1 / sigma_r if sigma_r > 0 else float("inf"),
        "incoherence": incoherence_from_basis(basis),
        "graph": diag.to_dict(),
        "dynamic_range": b,
        "mixture_min": q_min,
        "mixture_max": q_max,
        "delta": _DELTA,
        "eps": _EPS,
        # Largest eps the recovery guarantee tolerates; reported, never asserted.
        "eps_admissible": float(
            math.sqrt(
                q_min
                * diag.spectral_gap**2
                * diag.d_min**2
                / (16.0 * q_max * r * sigma_1 * b**5 * diag.d_max**2)
            )
        )
        if sigma_1 > 0
        else float("inf"),
    }
    if ell is not None:
        ell = int(ell)
        if not 1 <= ell <= n_pairs:
            raise ValidationError("ell must be in [1, n_pairs]")
        lead = (
            r
            * n_pairs**4
            * math.log(n_pairs / _DELTA)
            / (q_min * sigma_1**2 * _EPS**2)
        )
        bracket = (
            1.0 / ell**2
            + sigma_1 / (ell * n_pairs)
            + r**4 * sigma_1**4 / sigma_r**5
        )
        out["ell"] = ell
        # Order of magnitude only; universal constants are omitted.
        out["sample_size_estimate"] = float(lead * bracket)
    return out


def run_sweep(
    n_items,
    n_components,
    mean_degree,
    ell,
    sample_sizes,
    seeds,
    out_path=None,
):
    """Error decay sweep over observation counts.

    For each seed the model and graph are drawn once (so error decay per
    seed is attributable to sample size alone), then one run per sample
    size generates observations, learns, and records matched errors.
    Failures become rows with a non-ok status instead of aborting the
    sweep.  Median rows per sample size are appended.  Returns the rows;
    writes CSV when ``out_path`` is given.
    """
    rows = []
    for samples in sample_sizes:
        per_size = []
        for seed in seeds:
            row = {
                "samples": int(samples),
                "seed": int(seed),
                "status": "ok",
                "max_mixture_error": "",
                "max_weight_error": "",
                "mean_weight_error": "",
            }
            try:
                setup_rng = np.random.default_rng([int(seed)])
                graph = erdos_renyi(n_items, mean_degree, setup_rng)
                model = random_uniform_model(n_items, n_components, setup_rng)
                sample_rng = np.random.default_rng([int(seed), int(samples)])
                batch = model.sample_batch(graph, ell, int(samples), sample_rng)
                config = LearnConfig(n_components=n_components, seed=int(seed))
                estimates = learn_mixed_mnl(batch, config)
                match = match_components(
                    estimates.mixture, estimates.weights, model.mixture, model.weights
                )
                row["max_mixture_error"] = match.max_mixture_error
                row["max_weight_error"] = match.max_vector_error
                row["mean_weight_error"] = float(match.vector_errors.mean())
                per_size.append(row)
            except MixMNLError as err:
                row["status"] = f"error:{type(err).__name__}"
            rows.append(row)
        if per_size:
            rows.append(
                {
                    "samples": int(samples),
                    "seed": "median",
                    "status": "median",
                    "max_mixture_error": statistics.median(
                        r["max_mixture_error"] for r in per_size
                    ),
                    "max_weight_error": statistics.median(
                        r["max_weight_error"] for r in per_size
                    ),
                    "mean_weight_error": statistics.median(
                        r["mean_weight_error"] for r in per_size
                    ),
                }
            )
    if out_path is not None:
        fields = [
            "samples",
            "seed",
            "status",
            "max_mixture_error",
            "max_weight_error",
            "mean_weight_error",
        ]
        with open(out_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)
    return rows
