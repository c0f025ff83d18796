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
bound of ``default_iteration_count``, taken at the largest weight range the
bound allows for, only caps the number of steps.  The cap depends on the
graph alone, so every chain of a fit shares it.

The r components of a mixture are ranked in one block iteration: their
transposed chains form one block-diagonal sparse matrix, applied to an
(r, n_items) iterate whose rows are the components' distributions.  Each
row keeps its own stop rule and is frozen once it stops, so every chain
takes exactly the steps, and returns exactly the bits, it would on its own;
a single chain is the one-row case of the same loop.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError

_CONVERGENCE_EPS = 1e-8
# Power iteration stops once the L1 change between iterates is at most this.
# The change settles at a roundoff floor of about 2e-16 or less on the chains
# the pipeline builds, so the stop is reached once the iterate has converged;
# a chain whose floor lies above it runs to its cap.
_STOP_CHANGE = 1e-15
# The iteration bound grows with the square of the weights' dynamic range
# b = max w / min w.  Every chain is capped with b at this ceiling: the stop
# rule ends the pipeline's chains long before that cap, while a b estimated
# from noisy outcomes could put the cap below the steps a nearly flat chain
# needs to reach the stop.
_RANGE_CAP = 16.0


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic sparse chain over items."""

    matrix: sp.csr_matrix  # (n, n)

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
    return TransitionMatrix(matrix=matrix)


def power_stationary(transition, n_iterations):
    """Left power iteration from uniform, renormalized, stopped at convergence.

    Stops after the first step whose L1 change is at most 1e-15, or after
    ``n_iterations`` steps, whichever comes first.
    """
    return _block_power([transition], n_iterations)[0]


def _block_power(transitions, cap):
    """``power_stationary`` of several chains over the same items at once.

    Row a of the iterate belongs to ``transitions[a]``; every row is capped
    at ``cap`` steps.  The rows still running are stepped together by one
    block-diagonal product; a row that stops leaves the block, keeping its
    last iterate.  Returns one ``PowerIterationResult`` per chain.
    """
    cap = int(cap)
    if cap < 1:
        raise ValidationError("n_iterations must be at least 1")
    n = transitions[0].n_items
    chains = [t.matrix.T.tocsr() for t in transitions]
    results = [None] * len(chains)
    running = np.arange(len(chains))
    pi = np.full((len(chains), n), 1.0 / n)
    block = None
    step = 0
    while running.size:
        if block is None:
            block = sp.block_diag([chains[a] for a in running], format="csr")
        step += 1
        nxt = (block @ pi.ravel()).reshape(pi.shape)
        nxt /= nxt.sum(axis=1, keepdims=True)
        changes = np.abs(nxt - pi).sum(axis=1)
        pi = nxt
        if min(changes.tolist()) > _STOP_CHANGE and step < cap:
            continue
        stopped = (changes <= _STOP_CHANGE) | (step == cap)
        for row in np.flatnonzero(stopped):
            results[running[row]] = PowerIterationResult(
                distribution=pi[row], last_change=float(changes[row]), iterations=step
            )
        running = running[~stopped]
        pi = pi[~stopped]
        block = None
    return results


def ergodic_diagnostics(graph):
    """The graph's cached diagnostics; ``ValidationError`` unless it is
    connected and non-bipartite (positive spectral gap)."""
    diag = graph.diagnostics()
    if not diag.connected or diag.spectral_gap <= 0.0:
        raise ValidationError("Rank Centrality needs a connected non-bipartite comparison graph")
    return diag


def default_iteration_count(graph, outcomes):
    """Iteration cap b^2 d_max (log n + log 1/eps) / (xi d_min).

    The Rank Centrality worst-case bound, with unit constant, eps = 1e-8
    and the weight range b at its ceiling of 16, so the cap depends on the
    graph alone.  ``rank_centrality`` uses it as the cap on
    ``power_stationary``, which usually stops far earlier.  ``outcomes``,
    one mean per graph pair, is checked for shape and NaN but does not move
    the cap.  Needs a connected non-bipartite graph
    (``ergodic_diagnostics``).
    """
    cap = _iteration_cap(graph)
    v = np.asarray(outcomes, dtype=np.float64)
    if v.shape != (graph.n_pairs,):
        raise ValidationError("need one outcome mean per graph pair")
    if np.isnan(v).any():
        raise ValidationError("outcome means must not be NaN")
    return cap


def _iteration_cap(graph):
    diag = ergodic_diagnostics(graph)
    count = (
        _RANGE_CAP**2
        * diag.d_max
        * (math.log(graph.n_items) + math.log(1.0 / _CONVERGENCE_EPS))
        / (diag.spectral_gap * diag.d_min)
    )
    return max(1, math.ceil(count))


def rank_centrality(graph, outcomes):
    """Item weights from per-pair outcome means.

    ``outcomes`` is one mean per graph pair, shape (n_pairs,), or one
    column of means per component, shape (n_pairs, r); the weights come
    back as (n_items,) or (r, n_items) to match.  Each column is clipped
    into [-1, 1] and turned into its comparison chain, and the chains are
    power-iterated together from uniform until each one's iterates stop
    changing, or for at most ``default_iteration_count`` steps.
    """
    projected = project_outcomes(outcomes)
    columns = np.atleast_2d(projected.T)
    if projected.ndim not in (1, 2) or columns.shape[0] == 0 or columns.shape[1] != graph.n_pairs:
        raise ValidationError("need outcomes of shape (n_pairs,) or (n_pairs, r), r >= 1")
    cap = _iteration_cap(graph)
    transitions = [build_transition(graph, column) for column in columns]
    weights = np.stack([res.distribution for res in _block_power(transitions, cap)])
    return weights[0] if projected.ndim == 1 else weights
