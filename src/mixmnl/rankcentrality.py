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
(``build_transition`` is the one-chain case), and one strong-components
pass over it labels each chain's items.  The chains are then solved one at
a time, from their dense P^T: an irreducible chain by one LU solve of
(I - P^T) pi = 0 with the last equation replaced by sum(pi) = 1, and a
chain that outcomes clipped to +1 or -1 split into several closed classes
by the limit of the power iteration from the uniform start.  The cost is
fixed by n, however slowly a chain mixes.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import NumericalError, ValidationError, checked_array

_CONVERGENCE_EPS = 1e-8
# The iteration bound grows with the square of the weight range b = max w /
# min w.  b is taken at this ceiling: one estimated from noisy outcomes could
# put the bound below the steps a nearly flat chain needs.
_RANGE_CAP = 16.0


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic sparse chain over items."""

    matrix: sp.csr_matrix  # (n, n)

    @property
    def n_items(self):
        return self.matrix.shape[0]


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


def _stationary(chains, r):
    """Stationary distributions of the r chains of a ``_chains`` block: (r, n).

    One strong-components pass over the block finds the irreducible chains.
    The chains are then taken one at a time: an irreducible one is solved by
    ``_solve_stationary``, any other gets its ``_closed_class_limit``.  A
    ``LinAlgError`` of any solve is raised as the ``NumericalError`` of
    stage "rank centrality".
    """
    n = chains.shape[0] // r
    labels = connected_components(chains, directed=True, connection="strong")[1].reshape(r, n)
    weights = np.empty((r, n))
    try:
        for a, chain_labels in enumerate(labels):
            transposed = _transposed(chains, n, a)
            if (chain_labels == chain_labels[0]).all():
                weights[a] = _solve_stationary(transposed)
            else:
                weights[a] = _closed_class_limit(transposed, chain_labels)
    except np.linalg.LinAlgError as err:
        failure = NumericalError(f"stationary solve failed: {err}")
        failure.stage = "rank centrality"
        raise failure from err
    return weights


def _transposed(chains, n, a):
    """Dense transpose, (n, n), of chain a of a ``_chains`` block.

    The chain's rows a n, ..., a n + n - 1 hold one contiguous range of
    entries, whose columns lie in the same range; that range is scattered
    into the result, entry (i, j) of the chain to place (j, i).
    """
    dense = np.zeros((n, n))
    ptr = chains.indptr[a * n : a * n + n + 1]
    entries = slice(ptr[0], ptr[-1])
    rows = np.repeat(np.arange(n), np.diff(ptr))
    dense[chains.indices[entries] - a * n, rows] = chains.data[entries]
    return dense


def _solve_stationary(transposed):
    """Stationary distribution, (m,), of an irreducible chain from its dense
    P^T, (m, m).

    P^T is overwritten, in place, by the system I - P^T with its last
    equation replaced by sum(pi) = 1, which makes it nonsingular; that is
    solved by one LU solve with a 1-D right-hand side.
    """
    system = np.negative(transposed, out=transposed)
    system[np.diag_indices_from(system)] += 1.0
    system[-1] = 1.0
    rhs = np.zeros(len(system))
    rhs[-1] = 1.0
    return np.linalg.solve(system, rhs)


def _closed_class_limit(transposed, labels):
    """The limit of the power iteration from the uniform start on a chain of
    several strong components.

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
        weights[items] = share * _solve_stationary(transposed[np.ix_(items, items)])
    return weights


def ergodic_diagnostics(graph):
    """The graph's cached diagnostics; ``ValidationError`` unless it is
    connected and non-bipartite, the rule ``erdos_renyi`` draws by.  The
    spectral gap is not read: its roundoff does not decide the check."""
    diag = graph.diagnostics()
    if not diag.connected or diag.bipartite:
        raise ValidationError("Rank Centrality needs a connected non-bipartite comparison graph")
    return diag


def default_iteration_count(graph, outcomes):
    """Iteration bound b^2 d_max (log n + log 1/eps) / (xi d_min).

    The Rank Centrality worst-case bound on the power-iteration steps to
    eps = 1e-8, with unit constant and the weight range b at its ceiling of
    16, so it depends on the graph alone.  The library runs no iteration
    (``rank_centrality`` solves each chain directly); the bound is what a
    traced benchmark run reports.  ``outcomes`` is checked as
    ``build_transition`` checks it but does not move the bound.  Needs a
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
