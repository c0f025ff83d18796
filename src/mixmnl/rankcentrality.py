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
the components' distributions.  The steps run in spans of up to 32, each
written into one reused buffer by scipy's ``csr_matvec`` kernel and two
in-place numpy calls, and the stop rule is applied once per span: the L1
changes of all the span's steps are taken together, and each row stops at
its first step whose change is at most 1e-15, or at the cap.  A stopped
row keeps that step's iterate, and its chain is cut out of the transposed
block by slicing the CSR arrays, since each chain's rows are one range of
entries.  So every chain takes exactly the steps, and returns exactly the
bits, it would on its own; a single chain is the one-row case of the same
loop.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

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
# Steps per span of the block iteration, and the floats its buffer of
# span + 1 iterates may hold (2 MB); a block larger than half of that takes
# spans of one step.
_SPAN = 32
_SPAN_FLOATS = 1 << 18


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
    stepped together, in spans of up to ``_SPAN`` steps that write into one
    (span + 1, rows, n) buffer, allocated once and reused: the span's rows
    are zeroed, and each step adds the block times the previous row into
    its row with scipy's ``csr_matvec`` (what ``block @ x`` runs into
    zeros), then divides each chain by its sum in place.  After a span,
    the L1 changes of all its steps are taken at once.  Each row stops at
    its first step whose change is at most 1e-15, or at the cap, which a
    span never passes: the step where a loop of single steps stops it,
    with the same iterate and change.  A stopped row keeps that step's
    iterate, and its chain's rows are cut from the transposed block's CSR
    arrays by slices, since each chain's rows are one contiguous range of
    entries.  Returns one ``PowerIterationResult`` per chain.
    """
    cap = checked_count(cap, "n_iterations", low=1)
    n = chains.shape[0] // r
    block = chains.T.tocsr()
    indptr, indices, data = block.indptr, block.indices, block.data
    results = [None] * r
    running = np.arange(r)
    # Sized by the first span; fewer rows later fit more steps in it.
    size = (max(1, min(_SPAN, _SPAN_FLOATS // (r * n) - 1, cap)) + 1) * r * n
    buffer = np.empty(size)
    buffer[: r * n] = 1.0 / n
    step = 0
    while running.size:
        k = running.size
        span = min(_SPAN, size // (k * n) - 1, cap - step)
        buf = buffer[: (span + 1) * k * n].reshape(span + 1, k, n)
        buf[1:] = 0.0
        sums = np.empty((k, 1))
        flat = list(buf.reshape(span + 1, k * n))
        for s, nxt in enumerate(buf[1:]):
            _sparsetools.csr_matvec(k * n, k * n, indptr, indices, data, flat[s], flat[s + 1])
            np.add.reduce(nxt, axis=1, keepdims=True, out=sums)
            np.divide(nxt, sums, out=nxt)
        changes = np.diff(buf, axis=0)
        np.abs(changes, out=changes)
        changes = changes.sum(axis=2)  # (span, k): change of each step and row
        hit = changes <= _STOP_CHANGE
        converged = hit.any(axis=0)
        stopped = converged | (step + span == cap)
        last = np.where(converged, hit.argmax(axis=0), span - 1)
        for row in np.flatnonzero(stopped):
            i = int(last[row])
            results[running[row]] = PowerIterationResult(
                distribution=buf[i + 1, row].copy(),
                last_change=float(changes[i, row]),
                iterations=step + i + 1,
            )
        step += span
        kept = np.flatnonzero(~stopped)
        if 0 < kept.size < k:
            indptr, indices, data = _kept_chains(indptr, indices, data, n, kept)
        buffer[: kept.size * n] = buf[span, kept].ravel()
        running = running[kept]
    return results


def _kept_chains(indptr, indices, data, n, kept):
    """CSR arrays of the chains at sorted positions ``kept`` of a block of chains.

    Chain a's rows a n, ..., a n + n - 1 hold one contiguous range of
    entries, whose columns lie in the same range; each kept chain's range
    is copied in order and its rows and columns are shifted to its new
    position.  The result equals scipy's ``block[rows][:, rows]`` for the
    kept chains' rows, entry for entry, without its fancy indexing.
    """
    ptrs, cols, vals = [indptr[:1]], [], []
    total = 0
    for new, old in enumerate(kept.tolist()):
        lo, hi = indptr[old * n], indptr[old * n + n]
        ptrs.append(indptr[old * n + 1 : old * n + n + 1] - (lo - total))
        cols.append(indices[lo:hi] - (old - new) * n)
        vals.append(data[lo:hi])
        total += hi - lo
    return np.concatenate(ptrs), np.concatenate(cols), np.concatenate(vals)


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
