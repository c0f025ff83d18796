"""End-to-end learning, evaluation against ground truth, and sweeps.

The full learner chains the moment phase (mixture proportions and per-pair
outcome means) with one stationary-distribution solve per component, all
components iterated together, to produce item weights.  Estimated
components come back in an arbitrary order, so evaluation first finds the
error-minimizing assignment to the true components.
"""

import csv
import math
import statistics
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from .altmin import numerical_rank
from .errors import MixMNLError, ValidationError, checked_array, checked_count
from .graphs import erdos_renyi, erdos_renyi_arguments
from .model import checked_ell, component_count, random_uniform_model
from .moments import check_ell, incoherence_from_basis, second_moment_spectrum
from .rankcentrality import ergodic_diagnostics, rank_centrality
from .spectral import components_from_factors, estimate_components

# Failure probability and target accuracy of the sample-size estimate.
_DELTA = 0.1
_EPS = 0.1

# The sweep CSV's columns, in order; the last three are the matched errors.
_SWEEP_FIELDS = (
    "samples", "seed", "status", "max_mixture_error", "max_weight_error", "mean_weight_error"
)


def seeded_rng(seed):
    """``np.random.default_rng(seed)``; ``ValidationError`` for a seed such as -1 or True."""
    if isinstance(seed, (bool, np.bool_)):
        raise ValidationError(f"invalid seed {seed!r}: expected an integer, not a bool")
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as err:
        raise ValidationError(f"invalid seed {seed!r}: {err}") from err


@dataclass
class LearnConfig:
    """Settings of the full learner.

    Every iteration count comes from the data: completion runs
    ceil(log(n_pairs * count)) solves and the tensor power method
    ``default_restarts(r)`` restarts per round, while Rank Centrality
    solves each chain's stationary equations directly.  ``seed`` seeds
    only the tensor power method's restarts; every other stage is
    deterministic.
    ``exact_moments`` runs the moment phase on the generating model's
    population moments, from their factors, at any number of pairs.
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
    mixture_errors: np.ndarray  # |q_est - q| per true component
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
    moments of ``model`` (debug path, requires the generating model), taken
    from their factors by ``components_from_factors`` at any number of
    pairs; otherwise everything comes from the batch, and a batch of
    ell < 3 pairs per row raises ``ValidationError`` before the second
    moment is estimated.  A comparison graph that Rank Centrality rejects
    (disconnected or bipartite) raises ``ValidationError`` before the
    moment phase runs.
    """
    graph = batch.graph
    ergodic_diagnostics(graph)
    rng = seeded_rng(config.seed)
    if config.exact_moments:
        if model is None:
            raise ValidationError("exact-moment path needs the generating model")
        estimate = components_from_factors(
            model.expected_outcomes(graph), model.mixture, config.n_components, rng=rng
        )
    else:
        estimate = estimate_components(batch, config.n_components, rng=rng)
    return ComponentEstimates(
        mixture=estimate.mixture,
        weights=rank_centrality(graph, estimate.outcome_matrix),
        outcome_matrix=estimate.outcome_matrix,
        diagnostics=dict(estimate.diagnostics),
    )


def match_components(est_mixture, est_vectors, true_mixture, true_vectors):
    """Error-minimizing assignment of estimated to true components.

    ``est_vectors`` and ``true_vectors`` hold one component per row (item
    weights or outcome-mean columns transposed).  The matching minimizes
    the summed per-pair cost |q_est - q| + relative vector error by sparse
    Jonker-Volgenant (scipy's ``min_weight_full_bipartite_matching``).  All
    four arrays must be finite numbers (``checked_array``), and a cost that
    overflows to inf raises ``ValidationError``.
    """
    est_mixture = checked_array(est_mixture, "est_mixture")
    true_mixture = checked_array(true_mixture, "true_mixture")
    est_vectors = np.atleast_2d(checked_array(est_vectors, "est_vectors"))
    true_vectors = np.atleast_2d(checked_array(true_vectors, "true_vectors"))
    r = true_mixture.shape[0]
    if est_mixture.shape != (r,) or est_vectors.shape != true_vectors.shape:
        raise ValidationError("estimate and truth must have matching shapes")
    if est_vectors.shape[0] != r:
        raise ValidationError("need one vector per component")

    # Finite inputs can still overflow the norms; the check below catches it.
    with np.errstate(over="ignore", invalid="ignore"):
        true_norms = np.linalg.norm(true_vectors, axis=1)
        if (true_norms == 0).any():
            raise ValidationError("true component vectors must be non-zero")
        # cost[a, b]: estimated component a against true component b
        diff = est_vectors[:, None, :] - true_vectors[None, :, :]
        vector_cost = np.linalg.norm(diff, axis=2) / true_norms[None, :]
        cost = np.abs(est_mixture[:, None] - true_mixture[None, :]) + vector_cost
    if not np.isfinite(cost).all():
        raise ValidationError("matching cost overflows: component norms are not finite")
    order = _min_cost_order(cost)
    return MatchResult(
        order=tuple(int(a) for a in order),
        mixture_errors=np.abs(est_mixture[order] - true_mixture),
        vector_errors=vector_cost[order, range(r)],
    )


def _min_cost_order(cost):
    """``order[b]``: the row matched to column b by a minimum-cost assignment.

    ``cost`` is a finite, non-negative square matrix.  A sparse matrix drops
    zero entries, so every cost moves up by 1 to stay an edge; that adds r to
    every full matching and leaves the optimum where it was.
    """
    rows, cols = min_weight_full_bipartite_matching(csr_matrix(cost + 1.0))
    return rows[np.argsort(cols)]


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
    reported, not asserted; ``numerical_rank`` counts the eigenvalues above
    the roundoff floor of ``altmin.numerical_rank``.  ``ell``, when given,
    must be an integer in [1, n_pairs]; a float is refused, not truncated.
    """
    r = model.n_components
    n_pairs = graph.n_pairs
    values, basis = second_moment_spectrum(model, graph)
    sigma_1 = float(values[0])
    sigma_r = float(values[-1])
    diag = graph.diagnostics()
    q_min = float(model.mixture.min())
    q_max = float(model.mixture.max())
    b = model.dynamic_range
    out = {
        "n_items": graph.n_items,
        "n_pairs": n_pairs,
        "n_components": r,
        "second_moment_values": [float(v) for v in values],
        "numerical_rank": numerical_rank(values, n_pairs),
        "sigma_1": sigma_1,
        "sigma_r": sigma_r,
        "condition_ratio": sigma_1 / sigma_r if sigma_r > 0 else float("inf"),
        "incoherence": incoherence_from_basis(basis),
        "graph": asdict(diag),
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
        ell = checked_ell(graph, ell)
        out["ell"] = ell
        # Order of magnitude only; universal constants are omitted.  A
        # vanishing sigma_r (its fifth power underflowing included) makes the
        # estimate unbounded, as it makes the condition ratio.
        out["sample_size_estimate"] = float("inf")
        if sigma_r**5 > 0:
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

    Each run draws the graph and model from its seed alone, so every sample
    size of a seed sees the same graph and model, redrawn bit for bit (error
    decay per seed is attributable to sample size alone); the observations
    come from the seed and the sample size.  Each run learns and records
    matched errors.
    Median rows per sample size are appended.  Returns the rows; writes
    CSV with the columns of ``_SWEEP_FIELDS`` when ``out_path`` is given.
    Configuration errors raise before any run: a count (n_items >= 2,
    n_components >= 1, ell >= 3, each sample size and seed >= 0) that is
    out of range or not an integer, or a mean degree outside (0, n_items].
    Failures that depend on the draw become rows with an error status.
    """
    erdos_renyi_arguments(n_items, mean_degree)
    component_count(n_components)
    check_ell(ell, 3)
    sample_sizes = [checked_count(samples, "sample size") for samples in sample_sizes]
    seeds = [checked_count(seed, "seed") for seed in seeds]
    rows = []
    for samples in sample_sizes:
        per_size = []
        for seed in seeds:
            try:
                setup_rng = seeded_rng([seed])
                graph = erdos_renyi(n_items, mean_degree, setup_rng)
                model = random_uniform_model(n_items, n_components, setup_rng)
                sample_rng = seeded_rng([seed, samples])
                batch = model.sample_batch(graph, ell, samples, sample_rng)
                config = LearnConfig(n_components=n_components, seed=seed)
                estimates = learn_mixed_mnl(batch, config)
                match = match_components(
                    estimates.mixture, estimates.weights, model.mixture, model.weights
                )
            except MixMNLError as err:
                rows.append(_sweep_row(samples, seed, f"error:{type(err).__name__}"))
            else:
                mean_error = float(match.vector_errors.mean())
                errors = (match.max_mixture_error, match.max_vector_error, mean_error)
                per_size.append(errors)
                rows.append(_sweep_row(samples, seed, "ok", errors))
        if per_size:
            medians = [statistics.median(column) for column in zip(*per_size)]
            rows.append(_sweep_row(samples, "median", "median", medians))
    if out_path is not None:
        with open(out_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=_SWEEP_FIELDS)
            writer.writeheader()
            writer.writerows(rows)
    return rows


def _sweep_row(samples, seed, status, errors=("", "", "")):
    return dict(zip(_SWEEP_FIELDS, (samples, seed, status, *errors)))
