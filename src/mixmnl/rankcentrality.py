"""Item weights from per-pair outcome means via a random-walk stationary
distribution.

Given a vector of (estimated) mean outcomes on the graph's pairs, build
the Markov chain that moves along an edge with probability proportional to
the win rate of the far endpoint, scaled by 1/(2 d_max), with the residual
mass on the self-loop.  For exact inputs the chain is reversible with
stationary distribution exactly equal to the item weights; for noisy
inputs the stationary distribution is the weight estimate.

``rank_centrality`` solves for that distribution directly.  The r chains of
a mixture are built once, in one pass, as one block-diagonal sparse matrix
(``build_transition`` is the one-chain case of the same builder), and one
strong-components pass over the block finds the chains that are
irreducible.  Each of those has a unique stationary distribution, the
solution of (I - P^T) pi = 0 with the last equation replaced by
sum(pi) = 1: the dense systems are scattered from the chains' CSR entries
and solved by one batched LU solve per group of at most 2^20 floats.  The
cost is fixed by n, however slowly a chain mixes; the comparison graph's
own diagnostics already form a dense n x n matrix and its eigenvalues.

An outcome clipped to +1 or -1 removes one direction of its edge, and a
chain can then fall into several closed classes.  Such a chain gets the
limit of the power iteration from the uniform start: each closed class's
own stationary distribution, weighted by its share of the start plus the
transient mass it absorbs, and zero on the transient items.

``power_stationary`` is that power iteration, one chain at a time: it
starts from the uniform vector and stops once successive iterates agree to
roundoff, and the worst-case spectral bound of ``default_iteration_count``,
taken at the largest weight range the bound allows for, caps its steps.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import NumericalError, ValidationError, checked_array, checked_count

_CONVERGENCE_EPS = 1e-8
# The power iteration stops once the L1 change between iterates is at most this.
# The change settles at a roundoff floor of about 2e-16 or less on the chains
# the pipeline builds, so the stop is reached once the iterate has converged;
# a chain whose floor lies above it runs to its cap.
_STOP_CHANGE = 1e-15
# The iteration bound grows with the square of the weights' dynamic range
# b = max w / min w.  Every chain is capped with b at this ceiling: the stop
# rule usually ends a chain long before that cap, while a b estimated
# from noisy outcomes could put the cap below the steps a nearly flat chain
# needs to reach the stop.
_RANGE_CAP = 16.0
# The dense systems of the irreducible chains are built and solved in
# groups of at most this many floats (8 MB), so a fit's peak memory grows
# with one chain's n^2 floats rather than r of them.
_GROUP_FLOATS = 1 << 20


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
    cap = checked_count(n_iterations, "n_iterations", low=1)
    n = transition.n_items
    pi = np.full(n, 1.0 / n)
    transposed = transition.matrix.T.tocsr()
    for step in range(1, cap + 1):
        nxt = transposed @ pi
        nxt /= nxt.sum()
        change = float(np.abs(nxt - pi).sum())
        pi = nxt
        if change <= _STOP_CHANGE:
            break
    return PowerIterationResult(distribution=pi, last_change=change, iterations=step)


def _stationary(chains, r):
    """Stationary distributions of the r chains of a ``_chains`` block: (r, n).

    One strong-components pass over the block finds the irreducible chains.
    They are solved by ``_solve_stationary`` in groups of at most
    ``_GROUP_FLOATS`` floats of dense systems; every other chain gets its
    ``_closed_class_limit``.  A ``LinAlgError`` of any solve is raised as
    the ``NumericalError`` of stage "rank centrality".
    """
    n = chains.shape[0] // r
    labels = connected_components(chains, directed=True, connection="strong")[1].reshape(r, n)
    irreducible = (labels == labels[:, :1]).all(axis=1)
    solved = np.flatnonzero(irreducible)
    per_group = max(1, _GROUP_FLOATS // (n * n))
    diagonal = np.arange(n)
    weights = np.empty((r, n))
    try:
        for lo in range(0, solved.size, per_group):
            group = solved[lo : lo + per_group]
            system = _transposed(chains, n, group)
            np.negative(system, out=system)
            system[:, diagonal, diagonal] += 1.0
            weights[group] = _solve_stationary(system)
        for a in np.flatnonzero(~irreducible):
            weights[a] = _closed_class_limit(_transposed(chains, n, [a])[0], labels[a])
    except np.linalg.LinAlgError as err:
        failure = NumericalError(f"stationary solve failed: {err}")
        failure.stage = "rank centrality"
        raise failure from err
    return weights


def _transposed(chains, n, which):
    """Dense transposes of the chains at positions ``which`` of a ``_chains``
    block: (len(which), n, n).

    Chain a's rows a n, ..., a n + n - 1 hold one contiguous range of
    entries, whose columns lie in the same range; that range is scattered
    into the chain's own slab, entry (i, j) of the chain to place (j, i).
    """
    dense = np.zeros((len(which), n, n))
    indptr = chains.indptr
    rows = np.arange(n)
    for slab, a in zip(dense, which):
        ptr = indptr[a * n : a * n + n + 1]
        entries = slice(ptr[0], ptr[-1])
        slab[chains.indices[entries] - a * n, np.repeat(rows, np.diff(ptr))] = chains.data[entries]
    return dense


def _solve_stationary(system):
    """Stationary distributions, (g, m), of g irreducible chains from their
    systems I - P^T, (g, m, m).

    The last equation of each system is overwritten, in place, by
    sum(pi) = 1, which makes it nonsingular; the stack is solved by one
    batched LU solve with right-hand sides of shape (g, m, 1).
    """
    system[:, -1] = 1.0
    rhs = np.zeros(system.shape[:2] + (1,))
    rhs[:, -1] = 1.0
    return np.linalg.solve(system, rhs)[..., 0]


def _closed_class_limit(transposed, labels):
    """The limit of ``power_stationary`` on a chain of several strong components.

    ``transposed`` is the chain's dense P^T and ``labels`` its items' strong
    components.  A component is a closed class when no move leaves it; the
    rest are transient.  One solve of (I - Q) h = R, with Q the moves among
    transient items and R their moves into each class, gives the mass h
    each transient item sends into each class.  Class C keeps (|C| + the
    sum of its h) / n of the uniform start, spread as its own stationary
    distribution, and transient items keep none.  A periodic class has no
    such limit, as the power iteration runs to its cap there; it gets its
    stationary distribution all the same.
    """
    n = labels.size
    chain = transposed.T
    to, frm = np.nonzero(transposed)
    leaving = labels[frm][labels[frm] != labels[to]]
    member = labels[:, np.newaxis] == np.setdiff1d(labels, leaving)  # (n, classes)
    transient = ~member.any(axis=1)
    mass = member.sum(axis=0, dtype=np.float64)
    if transient.any():
        escape = np.eye(transient.sum()) - chain[np.ix_(transient, transient)]
        mass += np.linalg.solve(escape, chain[transient] @ member).sum(axis=0)
    weights = np.zeros(n)
    for share, items in zip(mass / n, member.T):
        system = np.eye(items.sum()) - transposed[np.ix_(items, items)]
        weights[items] = share * _solve_stationary(system[np.newaxis])[0]
    return weights


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
    graph alone.  It is the cap to give ``power_stationary``, which usually
    stops far earlier.  ``outcomes``, one mean per graph pair, is checked
    as ``build_transition`` checks it but does not move the cap.  Needs a
    connected non-bipartite graph (``ergodic_diagnostics``).
    """
    diag = ergodic_diagnostics(graph)
    _checked_outcomes(graph, outcomes)
    count = (
        _RANGE_CAP**2
        * diag.d_max
        * (math.log(graph.n_items) + math.log(1.0 / _CONVERGENCE_EPS))
        / (diag.spectral_gap * diag.d_min)
    )
    return max(1, math.ceil(count))


def _checked_outcomes(graph, outcomes):
    """``outcomes`` as float64, one mean per graph pair, each finite and in [-1, 1]."""
    v = checked_array(outcomes, "outcomes")
    if v.shape != (graph.n_pairs,):
        raise ValidationError("need one outcome mean per graph pair")
    if np.abs(v).max(initial=0.0) > 1.0:
        raise ValidationError("outcome means must lie in [-1, 1], with no NaN or inf")
    return v


def rank_centrality(graph, outcomes):
    """Item weights from per-pair outcome means.

    ``outcomes`` is one mean per graph pair, shape (n_pairs,), or one
    column of means per component, shape (n_pairs, r); the weights come
    back as (n_items,) or (r, n_items) to match.  The columns are clipped
    into [-1, 1], their comparison chains are built once as one
    block-diagonal matrix, and each chain's stationary distribution is
    solved for directly (``_stationary``).  The graph must be connected
    and non-bipartite (``ergodic_diagnostics``).
    """
    projected = project_outcomes(outcomes)
    columns = np.atleast_2d(projected.T)
    if projected.ndim not in (1, 2) or columns.shape[0] == 0 or columns.shape[1] != graph.n_pairs:
        raise ValidationError("need outcomes of shape (n_pairs,) or (n_pairs, r), r >= 1")
    ergodic_diagnostics(graph)
    weights = _stationary(_chains(graph, columns), columns.shape[0])
    return weights[0] if projected.ndim == 1 else weights
