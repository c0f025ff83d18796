import numpy as np
import pytest

from mixmnl import (
    ComparisonGraph,
    GraphDiagnostics,
    GraphGenerationError,
    ValidationError,
    erdos_renyi,
)

from conftest import complete_graph


class TestConstruction:
    def test_edges_sorted_and_deduplicated(self):
        g = ComparisonGraph(4, [(3, 1), (0, 2), (1, 3), (2, 0), (0, 1)])
        assert g.edges.tolist() == [[0, 1], [0, 2], [1, 3]]
        assert g.n_pairs == 3

    def test_degrees(self):
        g = ComparisonGraph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degrees.tolist() == [3, 1, 1, 1]

    def test_rejects_self_loops(self):
        with pytest.raises(ValidationError):
            ComparisonGraph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            ComparisonGraph(3, [(0, 3)])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            ComparisonGraph(3, np.empty((0, 2), dtype=int))

    @pytest.mark.parametrize(
        "edges",
        [
            [[0.5, 1], [True, 2]],
            [[0, 1], [True, 2]],
            [["0", 1], [1, 2]],
            [[False, True]],
        ],
        ids=["float", "bool-among-ints", "string", "bool"],
    )
    def test_rejects_non_integer_endpoints(self, edges):
        with pytest.raises(ValidationError, match="integers"):
            ComparisonGraph(3, edges)

    def test_rejects_ragged_edges(self):
        with pytest.raises(ValidationError, match="edges"):
            ComparisonGraph(3, [[0, 1], [0], [1, 2]])

    def test_edges_immutable(self):
        g = ComparisonGraph(3, [(0, 1)])
        with pytest.raises(ValueError):
            g.edges[0, 0] = 2

    def test_neighbor_lists_built_once_and_immutable(self):
        g = ComparisonGraph(3, [(1, 2), (0, 1)])
        adj = g.neighbor_lists()
        assert adj == (((1, 0, 1),), ((0, 0, -1), (2, 1, 1)), ((1, 1, -1),))
        assert g.neighbor_lists() is adj
        with pytest.raises(TypeError):
            adj[0][0] = (2, 1, 1)

    def test_spanning_tree_in_discovery_order(self):
        g = ComparisonGraph(4, [(0, 2), (0, 1), (1, 3)])
        tree = g.spanning_tree()
        rows = np.column_stack(tree).tolist()
        # From 0: reach 1 over pair 0 and 2 over pair 1; pop 2, then 1 reaches 3.
        assert rows == [[0, 1, 0, 1], [0, 2, 1, 1], [1, 3, 2, 1]]
        assert g.spanning_tree() is tree
        with pytest.raises(ValueError):
            tree.child[0] = 3

    def test_spanning_tree_of_disconnected_graph_is_short(self):
        g = ComparisonGraph(4, [(0, 1), (2, 3)])
        assert np.column_stack(g.spanning_tree()).tolist() == [[0, 1, 0, 1]]


class TestDiagnostics:
    def test_complete_graph(self):
        # K4: every degree 3, random-walk eigenvalues are 1 and -1/3.
        diag = complete_graph(4).diagnostics()
        assert diag.connected and not diag.bipartite
        assert diag.d_min == diag.d_max == 3
        assert diag.spectral_gap == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_even_cycle_is_bipartite_with_zero_gap(self):
        g = ComparisonGraph(6, [(i, (i + 1) % 6) for i in range(6)])
        diag = g.diagnostics()
        assert diag.connected and diag.bipartite
        assert diag.spectral_gap == 0.0

    def test_triangle_is_not_bipartite(self):
        diag = complete_graph(3).diagnostics()
        assert not diag.bipartite
        assert diag.spectral_gap > 0

    def test_star_graph(self):
        g = ComparisonGraph(6, [(0, i) for i in range(1, 6)])
        diag = g.diagnostics()
        assert diag.connected and diag.bipartite
        assert diag.d_min == 1 and diag.d_max == 5
        assert diag.spectral_gap == 0.0

    def test_isolated_vertex_reports_disconnected(self):
        g = ComparisonGraph(4, [(0, 1), (1, 2), (0, 2)])
        diag = g.diagnostics()
        assert not diag.connected
        assert diag.d_min == 0

    def test_two_triangles_disconnected(self):
        g = ComparisonGraph(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        assert not g.diagnostics().connected


def reference_diagnostics(graph):
    """Two-colouring walk over ``neighbor_lists`` and a dense adjacency: the
    loop that ``graphs._diagnose`` ran before it used ``scipy.sparse.csgraph``."""
    n = graph.n_items
    adj = graph.neighbor_lists()
    color = np.full(n, -1, dtype=np.int8)
    bipartite = True
    components = 0
    for root in range(n):
        if color[root] >= 0:
            continue
        components += 1
        color[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for v, _, _ in adj[u]:
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    stack.append(v)
                elif color[v] == color[u]:
                    bipartite = False
    degrees = graph.degrees
    gap = 0.0
    if not bipartite:
        dense = np.zeros((n, n))
        dense[graph.edges[:, 0], graph.edges[:, 1]] = 1.0
        dense[graph.edges[:, 1], graph.edges[:, 0]] = 1.0
        scale = np.zeros(n)
        nz = degrees > 0
        scale[nz] = 1.0 / np.sqrt(degrees[nz])
        lam = np.linalg.eigvalsh(scale[:, None] * dense * scale[None, :])
        gap = max(float(1.0 - max(lam[-2], -lam[0])), 0.0)
    return GraphDiagnostics(components == 1, bipartite, gap, int(degrees.min()), int(degrees.max()))


def test_diagnostics_match_two_colouring_reference():
    # Sparse edge sets on up to 14 items leave many graphs disconnected,
    # with isolated items, and many bipartite.
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(400):
        n = int(rng.integers(2, 15))
        iu, ju = np.triu_indices(n, k=1)
        mask = rng.random(iu.size) < rng.uniform(0.05, 0.5)
        if not mask.any():
            continue
        graph = ComparisonGraph(n, np.column_stack([iu[mask], ju[mask]]))
        diag = graph.diagnostics()
        assert diag == reference_diagnostics(graph), graph.edges.tolist()
        assert type(diag.connected) is bool and type(diag.bipartite) is bool
        seen.add((diag.connected, diag.bipartite, diag.d_min == 0))
    # (connected, bipartite, has an isolated item)
    assert seen >= {
        (True, True, False),
        (True, False, False),
        (False, True, True),
        (False, False, True),
    }


class TestErdosRenyi:
    def test_same_seed_same_edges(self):
        g1 = erdos_renyi(50, 6.0, np.random.default_rng(123))
        g2 = erdos_renyi(50, 6.0, np.random.default_rng(123))
        assert np.array_equal(g1.edges, g2.edges)

    def test_returns_connected_non_bipartite(self):
        for seed in range(5):
            g = erdos_renyi(60, 7.0, np.random.default_rng(seed))
            diag = g.diagnostics()
            assert diag.connected and not diag.bipartite
            assert diag.spectral_gap > 0

    def test_two_items_always_bipartite(self):
        # The only possible graph on 2 items is a single edge, so every
        # retry fails and the error carries the last diagnostics.
        with pytest.raises(GraphGenerationError) as excinfo:
            erdos_renyi(2, 2.0, np.random.default_rng(0))
        diag = excinfo.value.last_diagnostics
        assert diag is not None and diag.bipartite

    def test_rejects_bad_degree(self):
        with pytest.raises(ValidationError):
            erdos_renyi(10, 0.0, np.random.default_rng(0))
        with pytest.raises(ValidationError):
            erdos_renyi(10, 11.0, np.random.default_rng(0))
