"""Undirected comparison graphs over items.

A comparison graph fixes which unordered item pairs may ever be compared.
Pairs get stable indices 0..N-1 assigned after sorting the edge list by
(min endpoint, max endpoint), so a (graph, seed) pair pins down every
downstream observation exactly.
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import GraphGenerationError, ValidationError

# Graphs ``erdos_renyi`` draws before giving up on a connected non-bipartite one.
_GRAPH_DRAWS = 50


@dataclass(frozen=True)
class GraphDiagnostics:
    """Connectivity and mixing summary of a comparison graph.

    ``spectral_gap`` is 1 - max(lambda_2, -lambda_n) of the random-walk
    matrix D^-1 A, computed through the similar symmetric matrix
    D^-1/2 A D^-1/2.  It is forced to exactly 0.0 for bipartite graphs
    (where -lambda_n = 1) and is only meaningful when ``connected``.
    """

    connected: bool
    bipartite: bool
    spectral_gap: float
    d_min: int
    d_max: int

    def to_dict(self):
        return {
            "connected": self.connected,
            "bipartite": self.bipartite,
            "spectral_gap": self.spectral_gap,
            "d_min": self.d_min,
            "d_max": self.d_max,
        }


class ComparisonGraph:
    """Immutable undirected graph on ``n_items`` nodes with indexed pairs."""

    def __init__(self, n_items, edges):
        n_items = int(n_items)
        if n_items < 2:
            raise ValidationError("a comparison graph needs at least 2 items")
        rows = edges
        try:
            edges = np.asarray(edges)
        except ValueError as err:  # ragged rows, e.g. [[0, 1], [0]]
            raise ValidationError(f"edges must be an (m, 2) array of endpoints: {err}") from err
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValidationError("edges must be an (m, 2) array of endpoints")
        if edges.shape[0] == 0:
            raise ValidationError("a comparison graph needs at least one pair")
        # numpy reads a float, a string or a lone bool as a non-integer dtype,
        # but folds booleans among integers into 1/0, so bools are sought too.
        if edges.dtype.kind not in "iu" or (
            not isinstance(rows, np.ndarray)
            and any(isinstance(v, (bool, np.bool_)) for v in chain.from_iterable(rows))
        ):
            raise ValidationError("edge endpoints must be integers")
        edges = edges.astype(np.int64, copy=False)
        if edges.min() < 0 or edges.max() >= n_items:
            raise ValidationError("edge endpoint out of range")
        lo = edges.min(axis=1)
        hi = edges.max(axis=1)
        if (lo == hi).any():
            raise ValidationError("self-loops are not valid comparison pairs")
        canonical = np.unique(np.column_stack([lo, hi]), axis=0)
        canonical.setflags(write=False)
        self._n = n_items
        self._edges = canonical
        degrees = np.bincount(canonical.ravel(), minlength=n_items)
        degrees.setflags(write=False)
        self._degrees = degrees
        self._diagnostics = None

    @property
    def n_items(self):
        return self._n

    @property
    def n_pairs(self):
        return self._edges.shape[0]

    @property
    def edges(self):
        """Sorted (n_pairs, 2) array; row k is pair k as (i, j) with i < j."""
        return self._edges

    @property
    def degrees(self):
        return self._degrees

    def diagnostics(self):
        if self._diagnostics is None:
            self._diagnostics = _diagnose(self)
        return self._diagnostics

    def __repr__(self):
        return f"ComparisonGraph(n_items={self._n}, n_pairs={self.n_pairs})"


def _diagnose(graph):
    n = graph.n_items
    i, j = graph.edges.T
    # The bipartite double cover joins u to v + n and v to u + n for each edge
    # u-v.  It keeps an item's two copies apart exactly when the item's
    # component is bipartite; either way their smaller label names it.
    rows, cols = np.concatenate([i, j]), np.concatenate([j + n, i + n])
    cover = coo_matrix((np.ones(rows.size), (rows, cols)), shape=(2 * n, 2 * n))
    labels = connected_components(cover, directed=False)[1]
    connected = np.unique(np.minimum(labels[:n], labels[n:])).size == 1
    bipartite = bool((labels[:n] != labels[n:]).all())
    degrees = graph.degrees
    d_min = int(degrees.min())
    d_max = int(degrees.max())

    if bipartite:
        gap = 0.0
    else:
        scale = 1.0 / np.sqrt(np.maximum(degrees, 1))  # isolated items touch no edge
        sym = np.zeros((n, n))
        sym[i, j] = sym[j, i] = scale[i] * scale[j]
        lam = np.linalg.eigvalsh(sym)
        gap = float(1.0 - max(lam[-2], -lam[0]))
        gap = max(gap, 0.0)
    return GraphDiagnostics(connected, bipartite, gap, d_min, d_max)


def erdos_renyi(n_items, mean_degree, rng):
    """Sample G(n, mean_degree / n), retrying until connected and non-bipartite.

    Each unordered pair is included independently; a fixed seed gives a
    bit-identical edge list.  Raises ``GraphGenerationError`` carrying the
    last candidate's diagnostics when all 50 draws fail.
    """
    n_items = int(n_items)
    if n_items < 2:
        raise ValidationError("need at least 2 items")
    mean_degree = float(mean_degree)
    if not 0.0 < mean_degree <= n_items:
        raise ValidationError("mean_degree must be in (0, n_items]")
    p = mean_degree / n_items
    iu, ju = np.triu_indices(n_items, k=1)
    last = None
    for _ in range(_GRAPH_DRAWS):
        mask = rng.random(iu.shape[0]) < p
        if not mask.any():
            last = None
            continue
        graph = ComparisonGraph(n_items, np.column_stack([iu[mask], ju[mask]]))
        diag = graph.diagnostics()
        if diag.connected and not diag.bipartite:
            return graph
        last = diag
    raise GraphGenerationError(
        f"no connected non-bipartite graph in {_GRAPH_DRAWS} draws "
        f"(n={n_items}, mean_degree={mean_degree})",
        last_diagnostics=last,
    )
