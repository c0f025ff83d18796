"""Item weights from per-pair outcome means via a random-walk stationary
distribution.

Given a vector of (estimated) mean outcomes on the graph's pairs, build
the Markov chain that moves along an edge with probability proportional to
the win rate of the far endpoint, scaled by 1/(2 d_max), with the residual
mass on the self-loop.  For exact inputs the chain is reversible with
stationary distribution exactly equal to the item weights; for noisy
inputs the stationary distribution is the weight estimate.  The power
iteration starts from the uniform vector, so results are deterministic, and
stops once successive iterates agree to roundoff; the worst-case spectral
bound of ``default_iteration_count`` only caps the number of steps.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import NumericalError, ValidationError

_DENSE_SOLVE_LIMIT = 2000
_CONVERGENCE_EPS = 1e-8
# Power iteration stops once the L1 change between iterates is at most this.
# The change settles at a roundoff floor of about 2e-16 or less on the chains
# the pipeline builds, so the stop is reached once the iterate has converged;
# a chain whose floor lies above it runs to its cap.
_STOP_CHANGE = 1e-15
# Iteration budgets grow with the square of the dynamic-range estimate, so
# wild estimates from noisy inputs are capped before entering the formula.
_RANGE_CAP = 16.0
_RATIO_CLIP = 1.0 - 1e-12


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic sparse chain over items plus the scale it was built at."""

    matrix: sp.csr_matrix  # (n, n)
    d_max: int

    @property
    def n_items(self):
        return self.matrix.shape[0]


class PowerIterationResult(NamedTuple):
    distribution: np.ndarray
    last_change: float  # L1 distance between the final two iterates
    iterations: int  # steps actually run, at most the cap


def project_outcomes(values):
    """Clip mean-outcome estimates into [-1, 1]; rejects non-finite input."""
    v = np.asarray(values, dtype=np.float64)
    if not np.isfinite(v).all():
        raise ValidationError("outcome estimates must be finite")
    return np.clip(v, -1.0, 1.0)


def build_transition(graph, outcomes):
    """Markov chain whose stationary distribution scores the items.

    ``outcomes[k]`` is the mean sign of pair k = (i, j), i < j, so the
    chain moves i -> j with rate (1 + outcomes[k]) / (2 d_max) and j -> i
    with the complementary rate; leftover mass stays put.
    """
    v = np.asarray(outcomes, dtype=np.float64)
    if v.shape != (graph.n_pairs,):
        raise ValidationError("need one outcome mean per graph pair")
    if not np.isfinite(v).all() or np.abs(v).max(initial=0.0) > 1.0:
        raise ValidationError("outcome means must lie in [-1, 1]")
    n = graph.n_items
    d_max = int(graph.degrees.max())
    i = graph.edges[:, 0]
    j = graph.edges[:, 1]
    forward = (1.0 + v) / (2.0 * d_max)
    backward = (1.0 - v) / (2.0 * d_max)
    off = sp.coo_matrix(
        (np.concatenate([forward, backward]), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(n, n),
    ).tocsr()
    hold = 1.0 - np.asarray(off.sum(axis=1)).ravel()
    hold = np.maximum(hold, 0.0)  # guard float residue when rates fill a row
    matrix = (off + sp.diags(hold)).tocsr()
    matrix.eliminate_zeros()  # zero-rate edges are not edges for reachability checks
    return TransitionMatrix(matrix=matrix, d_max=d_max)


def power_stationary(transition, n_iterations):
    """Left power iteration from uniform, renormalized, stopped at convergence.

    Stops after the first step whose L1 change is at most 1e-15, or after
    ``n_iterations`` steps, whichever comes first.
    """
    n = transition.n_items
    n_iterations = int(n_iterations)
    if n_iterations < 1:
        raise ValidationError("n_iterations must be at least 1")
    pi = np.full(n, 1.0 / n)
    transposed = transition.matrix.T.tocsr()
    for step in range(1, n_iterations + 1):
        nxt = transposed @ pi
        nxt /= nxt.sum()
        last_change = float(np.abs(nxt - pi).sum())
        pi = nxt
        if last_change <= _STOP_CHANGE:
            break
    return PowerIterationResult(distribution=pi, last_change=last_change, iterations=step)


def exact_stationary(transition):
    """Stationary distribution by a dense linear solve (oracle path).

    Only for modest sizes (n <= 2000); raises on reducible chains.
    """
    n = transition.n_items
    if n > _DENSE_SOLVE_LIMIT:
        raise ValidationError(
            f"dense stationary solve is limited to n <= {_DENSE_SOLVE_LIMIT}"
        )
    n_comp, _ = connected_components(transition.matrix, directed=True, connection="strong")
    if n_comp != 1:
        raise NumericalError("chain is reducible; stationary distribution is not unique")
    dense = transition.matrix.toarray()
    system = dense.T - np.eye(n)
    system[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = np.linalg.solve(system, rhs)
    return pi / pi.sum()


def estimate_dynamic_range(graph, outcomes):
    """Weight-ratio estimate from log-ratios along a spanning tree.

    Each pair's mean outcome implies a weight ratio of its endpoints;
    propagating log-ratios over a spanning tree recovers the weights up to
    a constant, exactly so for consistent inputs.  The estimate is capped
    at 16 to keep downstream iteration budgets sane when noisy outcomes
    suggest absurd ranges.
    """
    v = np.clip(np.asarray(outcomes, dtype=np.float64), -_RATIO_CLIP, _RATIO_CLIP)
    if v.shape != (graph.n_pairs,):
        raise ValidationError("need one outcome mean per graph pair")
    n = graph.n_items
    adj = graph.neighbor_lists()
    log_w = np.full(n, np.nan)
    log_w[0] = 0.0
    stack = [0]
    while stack:
        u = stack.pop()
        for nbr, k, orientation in adj[u]:
            if np.isnan(log_w[nbr]):
                step = math.log1p(v[k]) - math.log1p(-v[k])
                log_w[nbr] = log_w[u] + orientation * step
                stack.append(nbr)
    if np.isnan(log_w).any():
        raise ValidationError("dynamic-range estimate needs a connected graph")
    spread = math.exp(log_w.max() - log_w.min())
    return float(min(spread, _RANGE_CAP))


def default_iteration_count(graph, outcomes):
    """Iteration cap b^2 d_max (log n + log 1/eps) / (xi d_min).

    The Rank Centrality worst-case bound, with unit constant and
    eps = 1e-8.  ``rank_centrality`` uses it as the cap on
    ``power_stationary``, which usually stops far earlier.  Needs a
    connected non-bipartite graph (positive spectral gap).
    """
    diag = graph.diagnostics()
    if not diag.connected or diag.spectral_gap <= 0.0:
        raise ValidationError(
            "default iteration count needs a connected non-bipartite graph"
        )
    spread = estimate_dynamic_range(graph, outcomes)
    count = (
        spread**2
        * diag.d_max
        * (math.log(graph.n_items) + math.log(1.0 / _CONVERGENCE_EPS))
        / (diag.spectral_gap * diag.d_min)
    )
    return max(1, math.ceil(count))


def rank_centrality(graph, outcomes, n_iterations=None):
    """Item weights from per-pair outcome means.

    Clips the outcomes into [-1, 1], builds the comparison chain, and
    power-iterates from uniform until the iterates stop changing.
    ``n_iterations`` caps the steps and defaults to the spectral-gap bound
    of ``default_iteration_count``.
    """
    projected = project_outcomes(outcomes)
    if n_iterations is None:
        n_iterations = default_iteration_count(graph, projected)
    transition = build_transition(graph, projected)
    return power_stationary(transition, n_iterations).distribution
