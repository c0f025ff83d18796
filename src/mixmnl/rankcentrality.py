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

The r components of a mixture are ranked in one block iteration.  Their
chains are built once, in one pass, as one block-diagonal sparse matrix
(``build_transition`` is the one-chain case of the same builder); the block
is transposed once and applied to an (r, n_items) iterate whose rows are
the components' distributions.  Each row keeps its own stop rule; once it
stops, its last iterate is kept and its rows and columns are sliced out of
the transposed block.  So every chain takes exactly the steps, and returns
exactly the bits, it would on its own; a single chain is the one-row case
of the same loop.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError, checked_array, checked_count

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
    """Clip mean-outcome estimates, finite numbers (``checked_array``), into [-1, 1]."""
    return np.clip(checked_array(values, "outcomes"), -1.0, 1.0)


def build_transition(graph, outcomes):
    """Markov chain whose stationary distribution scores the items.

    ``outcomes[k]`` is the mean sign of pair k = (i, j), i < j, so the
    chain moves i -> j with rate (1 + outcomes[k]) / (2 d_max) and j -> i
    with the complementary rate; leftover mass stays put.
    """
    v = _checked_outcomes(graph, outcomes)
    return TransitionMatrix(matrix=_chains(graph, v[np.newaxis]))


def _chains(graph, columns):
    """The chains of outcome rows ``columns``, (r, n_pairs), as one CSR matrix.

    Block a of the (r n, r n) block-diagonal result is the chain of row a,
    entry for entry and in the same order as ``build_transition`` of that
    row alone, which is the r = 1 case.
    """
    r = columns.shape[0]
    n = graph.n_items
    d_max = int(graph.degrees.max())
    # (r, n_pairs) endpoints: block a holds items a n, ..., a n + n - 1.
    i, j = graph.edges.T[:, np.newaxis] + n * np.arange(r)[:, np.newaxis]
    # Rates of every i -> j move, then of every j -> i move.
    rates = np.concatenate([1.0 + columns, 1.0 - columns], axis=None) / (2.0 * d_max)
    off = sp.coo_matrix(
        (rates, (np.concatenate([i, j], axis=None), np.concatenate([j, i], axis=None))),
        shape=(r * n, r * n),
    ).tocsr()
    hold = 1.0 - np.asarray(off.sum(axis=1)).ravel()
    hold = np.maximum(hold, 0.0)  # guard float residue when rates fill a row
    matrix = (off + sp.diags(hold)).tocsr()
    matrix.eliminate_zeros()  # zero-rate edges are not edges for reachability checks
    return matrix


def power_stationary(transition, n_iterations):
    """Left power iteration from uniform, renormalized, stopped at convergence.

    Stops after the first step whose L1 change is at most 1e-15, or after
    ``n_iterations`` steps, whichever comes first.  ``n_iterations`` must
    be an integer of at least 1; a float such as 10.5 is refused.
    """
    return _block_power(transition.matrix, 1, n_iterations)[0]


def _block_power(chains, r, cap):
    """``power_stationary`` of the r chains of a ``_chains`` block at once.

    The block is transposed once.  Row a of the iterate belongs to block a;
    every row is capped at ``cap`` steps.  The rows still running are
    stepped together by one product; a row that stops keeps its last
    iterate, and its rows and columns are sliced out of the transposed
    block.  Returns one ``PowerIterationResult`` per chain.
    """
    cap = checked_count(cap, "n_iterations", low=1)
    n = chains.shape[0] // r
    block = chains.T.tocsr()
    results = [None] * r
    running = np.arange(r)
    pi = np.full((r, n), 1.0 / n)
    step = 0
    while running.size:
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
        kept = (n * np.flatnonzero(~stopped)[:, np.newaxis] + np.arange(n)).ravel()
        block = block[kept][:, kept]
        running = running[~stopped]
        pi = pi[~stopped]
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
    one mean per graph pair, is checked as ``build_transition`` checks it
    but does not move the cap.  Needs a connected non-bipartite graph
    (``ergodic_diagnostics``).
    """
    cap = _iteration_cap(graph)
    _checked_outcomes(graph, outcomes)
    return cap


def _checked_outcomes(graph, outcomes):
    """``outcomes`` as float64, one mean per graph pair, each finite and in [-1, 1]."""
    v = checked_array(outcomes, "outcomes")
    if v.shape != (graph.n_pairs,):
        raise ValidationError("need one outcome mean per graph pair")
    if np.abs(v).max(initial=0.0) > 1.0:
        raise ValidationError("outcome means must lie in [-1, 1], with no NaN or inf")
    return v


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
    back as (n_items,) or (r, n_items) to match.  The columns are clipped
    into [-1, 1], their comparison chains are built once as one
    block-diagonal matrix, and the chains are power-iterated together from
    uniform until each one's iterates stop changing, or for at most
    ``default_iteration_count`` steps; a chain that stops is sliced out of
    the block.
    """
    projected = project_outcomes(outcomes)
    columns = np.atleast_2d(projected.T)
    if projected.ndim not in (1, 2) or columns.shape[0] == 0 or columns.shape[1] != graph.n_pairs:
        raise ValidationError("need outcomes of shape (n_pairs,) or (n_pairs, r), r >= 1")
    cap = _iteration_cap(graph)
    results = _block_power(_chains(graph, columns), columns.shape[0], cap)
    weights = np.stack([res.distribution for res in results])
    return weights[0] if projected.ndim == 1 else weights
