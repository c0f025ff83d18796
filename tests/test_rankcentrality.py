import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from mixmnl import (
    ComparisonGraph,
    LearnConfig,
    NumericalError,
    ValidationError,
    erdos_renyi,
    learn_mixed_mnl,
    random_uniform_model,
    rank_centrality,
)
from mixmnl import rankcentrality
from mixmnl.rankcentrality import (
    build_transition,
    default_iteration_count,
    power_stationary,
    project_outcomes,
)

from conftest import complete_graph


def exact_stationary(transition):
    """Stationary distribution by a dense linear solve: the reference.

    Raises ``NumericalError`` on a chain that is not strongly connected,
    whose stationary distribution is not unique.
    """
    n = transition.n_items
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


def ideal_outcomes(graph, weights):
    w = np.asarray(weights, dtype=np.float64)
    i = graph.edges[:, 0]
    j = graph.edges[:, 1]
    return (w[j] - w[i]) / (w[i] + w[j])


class TestProjection:
    def test_clips_to_unit_interval(self):
        out = project_outcomes(np.array([-2.0, -0.5, 0.0, 0.5, 2.0]))
        np.testing.assert_array_equal(out, [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            project_outcomes(np.array([0.0, np.nan]))


class TestTransition:
    def test_two_item_chain(self):
        g = ComparisonGraph(2, [[0, 1]])
        # w = (1, 2): item 1 wins with probability 2/3
        t = build_transition(g, np.array([1.0 / 3.0]))
        dense = t.matrix.toarray()
        np.testing.assert_allclose(dense, [[1.0 / 3.0, 2.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0]], atol=1e-15)
        pi = exact_stationary(t)
        np.testing.assert_allclose(pi, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_row_stochastic_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        g = complete_graph(n)
        outcomes = rng.uniform(-1.0, 1.0, g.n_pairs)
        dense = build_transition(g, outcomes).matrix.toarray()
        assert (dense >= 0.0).all()
        np.testing.assert_allclose(dense.sum(axis=1), 1.0, atol=1e-12)

    def test_shape_checked(self):
        g = complete_graph(4)
        with pytest.raises(ValidationError):
            build_transition(g, np.zeros(3))

    def test_range_checked(self):
        g = ComparisonGraph(2, [[0, 1]])
        with pytest.raises(ValidationError):
            build_transition(g, np.array([1.5]))


class TestStationary:
    def test_ideal_chain_recovers_weights(self):
        # Exact pairwise marginals make the chain reversible with
        # stationary distribution proportional to the weights.
        g = complete_graph(7)
        w = np.array([1.0, 2.0, 1.3, 1.8, 1.1, 1.6, 1.9])
        pi = exact_stationary(build_transition(g, ideal_outcomes(g, w)))
        np.testing.assert_allclose(pi, w / w.sum(), atol=1e-12)

    def test_power_matches_dense_solve(self):
        rng = np.random.default_rng(0)
        g = erdos_renyi(40, 6.0, rng)
        w = rng.uniform(1.0, 2.0, 40)
        t = build_transition(g, ideal_outcomes(g, w))
        exact = exact_stationary(t)
        power = power_stationary(t, 4000).distribution
        assert np.abs(power - exact).max() <= 1e-12

    def test_power_error_decays_with_iterations(self):
        rng = np.random.default_rng(1)
        g = erdos_renyi(30, 5.0, rng)
        w = rng.uniform(1.0, 2.0, 30)
        t = build_transition(g, ideal_outcomes(g, w))
        exact = exact_stationary(t)
        err = lambda k: np.abs(power_stationary(t, k).distribution - exact).max()
        e1, e2 = err(25), err(50)
        assert e2 < e1 / 2

    def test_last_change_reported(self):
        g = complete_graph(5)
        w = np.linspace(1.0, 2.0, 5)
        t = build_transition(g, ideal_outcomes(g, w))
        result = power_stationary(t, 500)
        assert result.last_change <= 1e-12

    def test_stops_at_convergence_below_cap(self):
        rng = np.random.default_rng(5)
        g = erdos_renyi(40, 6.0, rng)
        w = rng.uniform(1.0, 2.0, 40)
        outcomes = ideal_outcomes(g, w)
        cap = default_iteration_count(g, outcomes)
        result = power_stationary(build_transition(g, outcomes), cap)
        assert result.iterations < cap
        assert result.last_change <= 1e-15

    def test_early_stop_matches_dense_solve_on_noisy_chain(self):
        # Noisy outcomes break reversibility, so the stationary distribution
        # is no longer the weights; the stop must still land on it.
        rng = np.random.default_rng(6)
        g = erdos_renyi(60, 7.0, rng)
        w = rng.uniform(1.0, 2.0, 60)
        noisy = np.clip(ideal_outcomes(g, w) + rng.uniform(-0.3, 0.3, g.n_pairs), -1, 1)
        t = build_transition(g, noisy)
        result = power_stationary(t, default_iteration_count(g, noisy))
        exact = exact_stationary(t)
        assert np.abs(result.distribution - exact).max() <= 1e-11 * exact.min()

    def test_explicit_cap_runs_exactly(self):
        rng = np.random.default_rng(1)
        g = erdos_renyi(30, 5.0, rng)
        w = rng.uniform(1.0, 2.0, 30)
        result = power_stationary(build_transition(g, ideal_outcomes(g, w)), 25)
        assert result.iterations == 25
        assert result.last_change > 1e-15

    def test_reducible_chain_rejected(self):
        # Two cliques joined by nothing: the dense solve must refuse.
        edges = [[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]]
        g = ComparisonGraph(6, edges)
        t = build_transition(g, np.zeros(6))
        with pytest.raises(NumericalError):
            exact_stationary(t)

    def test_saturated_edge_breaks_reachability(self):
        # An outcome pinned at +1 zeroes the backward rate; if that edge
        # was the only bridge the chain is no longer strongly connected.
        g = ComparisonGraph(3, [[0, 1], [1, 2]])
        t = build_transition(g, np.array([1.0, 0.0]))
        with pytest.raises(NumericalError):
            exact_stationary(t)


class TestDynamicRange:
    # The cap takes the weights' dynamic range at its ceiling of 16; the
    # outcomes are checked but do not move it.
    def test_disconnected_rejected(self):
        g = ComparisonGraph(4, [[0, 1], [2, 3]])
        with pytest.raises(ValidationError):
            default_iteration_count(g, np.zeros(2))

    def test_nan_rejected(self):
        # NaN, inf and values outside [-1, 1] are refused here as
        # build_transition refuses them.
        g = complete_graph(3)
        for outcomes in (
            [np.nan, 0.5, 0.0], [0.5, 0.0, np.nan], [np.inf, 0.5, 0.0], [0.5, -np.inf, 0.0],
            [1.5, 0.0, 0.0],
        ):
            for check in (default_iteration_count, build_transition):
                with pytest.raises(ValidationError, match="NaN"):
                    check(g, np.array(outcomes))


class TestDefaults:
    def test_iteration_budget_converges(self):
        # The default budget must push the power iteration to within
        # 1e-8 of the true stationary distribution on ideal inputs.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(20, 120))
            g = erdos_renyi(n, 6.0, rng)
            w = rng.uniform(1.0, 2.0, n)
            outcomes = ideal_outcomes(g, w)
            budget = default_iteration_count(g, outcomes)
            pi = power_stationary(build_transition(g, outcomes), budget).distribution
            truth = w / w.sum()
            rel = np.abs(pi - truth).max() / truth.min()
            assert rel <= 1e-8, (seed, n, budget, rel)

    def test_bipartite_graph_rejected(self):
        g = ComparisonGraph(4, [[0, 1], [1, 2], [2, 3], [0, 3]])
        with pytest.raises(ValidationError):
            default_iteration_count(g, np.zeros(4))

    def test_cap_reaches_the_stop_on_a_flat_noisy_fit(self):
        # U[1, 2] weights and 2,000 samples give a nearly flat, noisy fit.
        # A cap from the fitted columns' own dynamic range stopped one of
        # these chains at 218 steps with an L1 change of 8.8e-15.
        rng = np.random.default_rng([8])
        g = erdos_renyi(30, 8.0, rng)
        model = random_uniform_model(30, 2, rng)
        batch = model.sample_batch(g, 10, 2000, rng)
        fit = learn_mixed_mnl(batch, LearnConfig(n_components=2, seed=8))
        for column in project_outcomes(fit.outcome_matrix).T:
            cap = default_iteration_count(g, column)
            result = power_stationary(build_transition(g, column), cap)
            assert result.iterations < cap
            assert result.last_change <= 1e-15


class TestRankCentrality:
    def test_end_to_end_recovers_weights(self):
        rng = np.random.default_rng(3)
        g = erdos_renyi(50, 7.0, rng)
        w = rng.uniform(1.0, 2.0, 50)
        pi = rank_centrality(g, ideal_outcomes(g, w))
        np.testing.assert_allclose(pi, w / w.sum(), atol=1e-9)

    def test_perturbation_scales_linearly(self):
        # First-order stability: halving the outcome perturbation should
        # roughly halve the stationary error (log-log slope near one).
        rng = np.random.default_rng(4)
        g = erdos_renyi(40, 6.0, rng)
        w = rng.uniform(1.0, 2.0, 40)
        base = ideal_outcomes(g, w)
        noise = rng.uniform(-1.0, 1.0, g.n_pairs)
        truth = w / w.sum()
        scales = [1e-4, 1e-3, 1e-2]
        errors = []
        for s in scales:
            pi = rank_centrality(g, np.clip(base + s * noise, -1, 1))
            errors.append(np.abs(pi - truth).max())
        slope = np.polyfit(np.log(scales), np.log(errors), 1)[0]
        assert 0.9 <= slope <= 1.1


def component_outcomes(graph, n_components, seed):
    """(n_pairs, r) noisy outcome means; the components' chains mix at different rates."""
    rng = np.random.default_rng(seed)
    spreads = np.linspace(1.5, 4.0, n_components)
    columns = []
    for spread in spreads:
        w = rng.uniform(1.0, spread, graph.n_items)
        noise = rng.uniform(-0.2, 0.2, graph.n_pairs)
        columns.append(np.clip(ideal_outcomes(graph, w) + noise, -1.0, 1.0))
    return np.stack(columns, axis=1)


def loop_steps(transition, cap):
    """Reference: the one-chain power iteration as a plain loop.

    Returns the last iterate, its L1 change and the steps taken.
    """
    n = transition.n_items
    pi = np.full(n, 1.0 / n)
    transposed = transition.matrix.T.tocsr()
    for step in range(1, cap + 1):
        nxt = transposed @ pi
        nxt /= nxt.sum()
        change = float(np.abs(nxt - pi).sum())
        pi = nxt
        if change <= 1e-15:
            break
    return pi, change, step


def loop_power(transition, cap):
    """Reference: the last iterate of ``loop_steps``."""
    return loop_steps(transition, cap)[0]


class TestBlockIteration:
    GRAPH = erdos_renyi(60, 6.0, np.random.default_rng(30))
    OUTCOMES = component_outcomes(GRAPH, 4, 31)

    def loop_reference(self, caps):
        return np.stack(
            [
                loop_power(build_transition(self.GRAPH, column), cap)
                for column, cap in zip(self.OUTCOMES.T, caps)
            ]
        )

    def stop_steps(self, cap):
        return [
            power_stationary(build_transition(self.GRAPH, column), cap).iterations
            for column in self.OUTCOMES.T
        ]

    def test_matches_per_column_calls(self):
        # The components stop at different steps, so rows leave the block
        # one by one; each must still end on its own chain's bits.
        caps = [default_iteration_count(self.GRAPH, column) for column in self.OUTCOMES.T]
        steps = self.stop_steps(max(caps))
        assert len(set(steps)) == len(steps)
        assert all(step < cap for step, cap in zip(steps, caps))
        block = rank_centrality(self.GRAPH, self.OUTCOMES)
        columns = [rank_centrality(self.GRAPH, column) for column in self.OUTCOMES.T]
        assert block.shape == (4, self.GRAPH.n_items)
        assert np.array_equal(block, np.stack(columns))
        assert np.array_equal(block, self.loop_reference(caps))

    def test_explicit_cap_hit_by_some_components(self):
        steps = sorted(self.stop_steps(10**6))
        cap = (steps[1] + steps[2]) // 2
        assert steps[1] < cap < steps[2]  # two components stop, two hit the cap
        chains = rankcentrality._chains(self.GRAPH, self.OUTCOMES.T)
        results = rankcentrality._block_power(chains, 4, cap)
        assert sorted(res.iterations for res in results) == steps[:2] + [cap, cap]
        alone = [
            power_stationary(build_transition(self.GRAPH, column), cap)
            for column in self.OUTCOMES.T
        ]
        for res, single in zip(results, alone):
            assert res.iterations == single.iterations
            assert res.last_change == single.last_change
        block = np.stack([res.distribution for res in results])
        assert np.array_equal(block, np.stack([single.distribution for single in alone]))
        assert np.array_equal(block, self.loop_reference([cap] * 4))

    def test_chain_blocks_match_build_transition(self):
        # Block a of the one-pass build holds exactly the entries, in the
        # same order, that build_transition gives column a alone.
        n = self.GRAPH.n_items
        chains = rankcentrality._chains(self.GRAPH, self.OUTCOMES.T)
        assert chains.shape == (4 * n, 4 * n)
        for a, column in enumerate(self.OUTCOMES.T):
            single = build_transition(self.GRAPH, column).matrix
            indptr = chains.indptr[a * n : (a + 1) * n + 1]
            entries = slice(indptr[0], indptr[-1])
            assert np.array_equal(indptr - indptr[0], single.indptr)
            assert np.array_equal(chains.indices[entries] - a * n, single.indices)
            assert np.array_equal(chains.data[entries], single.data)

    def test_chains_built_once_as_one_block(self, monkeypatch):
        calls = []
        chains = rankcentrality._chains
        monkeypatch.setattr(
            rankcentrality, "_chains", lambda *args: calls.append("_chains") or chains(*args)
        )
        for name in ("build_transition", "power_stationary"):
            monkeypatch.setattr(rankcentrality, name, lambda *args, name=name: calls.append(name))
        monkeypatch.setattr(
            rankcentrality.sp, "block_diag", lambda *args, **kw: calls.append("block_diag")
        )
        weights = rank_centrality(self.GRAPH, self.OUTCOMES)
        assert calls == ["_chains"]
        assert np.array_equal(weights, self.loop_reference([10**6] * 4))

    def test_one_dimensional_input_keeps_its_shape(self):
        pi = rank_centrality(self.GRAPH, self.OUTCOMES[:, 0])
        assert pi.shape == (self.GRAPH.n_items,)
        single = rank_centrality(self.GRAPH, self.OUTCOMES[:, :1])
        assert single.shape == (1, self.GRAPH.n_items)
        assert np.array_equal(single[0], pi)

    @pytest.mark.parametrize(
        "extra_pairs, columns",
        [(-1, ()), (1, (2,)), (0, (0,)), (0, (2, 1))],
        ids=["short", "long", "no-columns", "3d"],
    )
    def test_wrong_shape_rejected(self, extra_pairs, columns):
        outcomes = np.zeros((self.GRAPH.n_pairs + extra_pairs,) + columns)
        with pytest.raises(ValidationError):
            rank_centrality(self.GRAPH, outcomes)

    def test_scalar_rejected_on_one_pair_graph(self):
        with pytest.raises(ValidationError):
            rank_centrality(ComparisonGraph(2, [[0, 1]]), np.float64(0.5))

    def test_power_stationary_is_the_one_row_case(self):
        t = build_transition(self.GRAPH, self.OUTCOMES[:, 1])
        result = power_stationary(t, 10**6)
        assert result.distribution.shape == (self.GRAPH.n_items,)
        assert result.last_change <= 1e-15
        exact = exact_stationary(t)
        assert np.abs(result.distribution - exact).max() <= 1e-11 * exact.min()


def scalar_dynamic_range(graph, outcomes):
    """Reference: the weight range implied by one column of outcome means.

    Log weight ratios are propagated edge by edge along a depth-first
    walk from item 0, and the range is capped at 16.
    """
    v = np.clip(np.asarray(outcomes, dtype=np.float64), -(1.0 - 1e-12), 1.0 - 1e-12)
    adj = [[] for _ in range(graph.n_items)]
    for k, (i, j) in enumerate(graph.edges.tolist()):
        adj[i].append((j, k, 1))
        adj[j].append((i, k, -1))
    log_w = np.full(graph.n_items, np.nan)
    log_w[0] = 0.0
    stack = [0]
    while stack:
        u = stack.pop()
        for nbr, k, orientation in adj[u]:
            if np.isnan(log_w[nbr]):
                step = math.log1p(v[k]) - math.log1p(-v[k])
                log_w[nbr] = log_w[u] + orientation * step
                stack.append(nbr)
    return float(min(math.exp(log_w.max() - log_w.min()), 16.0))


def scalar_cap(graph, outcomes):
    diag = graph.diagnostics()
    count = (
        scalar_dynamic_range(graph, outcomes) ** 2
        * diag.d_max
        * (math.log(graph.n_items) + math.log(1.0 / 1e-8))
        / (diag.spectral_gap * diag.d_min)
    )
    return max(1, math.ceil(count))


def test_cap_never_below_an_estimated_range_cap(monkeypatch):
    # A cap taken at each column's estimated weight range is never above
    # the shared cap, and equals it once the estimate reaches the ceiling.
    graph = erdos_renyi(70, 8.0, np.random.default_rng(50))
    outcomes = component_outcomes(graph, 8, 51)
    outcomes[:4, 0] = [1.0, -1.0, 1.0 - 1e-15, 0.0]  # clipped ratios and a zero step
    outcomes[:, 7] = np.sign(outcomes[:, 7])  # spread far above the cap of 16
    cap = default_iteration_count(graph, outcomes[:, 0])
    for column in outcomes.T:
        assert default_iteration_count(graph, column) == cap
        assert scalar_cap(graph, column) <= cap
    assert scalar_dynamic_range(graph, outcomes[:, 7]) == 16.0
    assert scalar_cap(graph, outcomes[:, 7]) == cap
    seen = []
    block_power = rankcentrality._block_power
    monkeypatch.setattr(
        rankcentrality,
        "_block_power",
        lambda chains, r, cap: seen.append(cap) or block_power(chains, r, cap),
    )
    rank_centrality(graph, outcomes)
    assert seen == [cap]


class TestSpans:
    # The block runs in spans of up to _SPAN steps; each chain must still
    # stop at the step, and on the bits, of a loop of single steps.  The
    # four chains stop at steps 580, 584, 551 and 590: out of index order.
    GRAPH = TestBlockIteration.GRAPH
    OUTCOMES = TestBlockIteration.OUTCOMES
    STOPS = [580, 584, 551, 590]

    def assert_matches_loops(self, cap):
        chains = rankcentrality._chains(self.GRAPH, self.OUTCOMES.T)
        results = rankcentrality._block_power(chains, 4, cap)
        for res, column in zip(results, self.OUTCOMES.T):
            transition = build_transition(self.GRAPH, column)
            pi, change, steps = loop_steps(transition, cap)
            single = power_stationary(transition, cap)
            assert np.array_equal(res.distribution, pi)
            assert np.array_equal(res.distribution, single.distribution)
            assert res.iterations == single.iterations == steps
            assert res.last_change == single.last_change == change
        return [res.iterations for res in results]

    def test_stop_steps(self):
        assert self.assert_matches_loops(10**6) == self.STOPS

    @pytest.mark.parametrize("chain", range(4))
    @pytest.mark.parametrize("where", ["first", "last"])
    def test_stop_on_a_span_edge(self, monkeypatch, chain, where):
        # A span of s steps ends at step s, so the chain stops on the last
        # step of the first span, or on the first step of the second.
        stop = self.STOPS[chain]
        monkeypatch.setattr(rankcentrality, "_SPAN", stop if where == "last" else stop - 1)
        assert self.assert_matches_loops(10**6) == self.STOPS

    @pytest.mark.parametrize(
        "cap, steps",
        [
            (582, [580, 582, 551, 582]),  # inside the 19th span of 32
            (576, [576, 576, 551, 576]),  # the end of the 18th span
            (20, [20] * 4),  # below _SPAN: one short span
            (1, [1] * 4),
        ],
    )
    def test_cap(self, cap, steps):
        assert rankcentrality._SPAN == 32
        assert self.assert_matches_loops(cap) == steps

    def test_spans_of_one_step(self, monkeypatch):
        # A buffer of two iterates, the fallback for blocks of more than
        # half the float budget; fewer chains fit more steps in it.
        monkeypatch.setattr(rankcentrality, "_SPAN_FLOATS", 1)
        assert self.assert_matches_loops(10**6) == self.STOPS
        buffers = []
        real = rankcentrality._sparsetools.csr_matvec
        monkeypatch.setattr(
            rankcentrality._sparsetools,
            "csr_matvec",
            lambda *args: buffers.append(args[-1].base.size) or real(*args),
        )
        chains = rankcentrality._chains(self.GRAPH, self.OUTCOMES.T)
        rankcentrality._block_power(chains, 4, 10**6)
        # One buffer of 2 iterates of 4 chains.  Spans of one step run to
        # step 580; then 2 chains fit 3 steps (581-586, chain 1 stopped at
        # 584), and the last chain 7 (587-593, stopped at 590).
        assert buffers == [2 * 4 * self.GRAPH.n_items] * 593

    @pytest.mark.parametrize("kept", [[0], [3], [0, 2], [1, 3], [0, 1, 3], [0, 1, 2, 3]])
    def test_kept_chains_match_fancy_indexing(self, kept):
        n = self.GRAPH.n_items
        block = rankcentrality._chains(self.GRAPH, self.OUTCOMES.T).T.tocsr()
        rows = (n * np.array(kept)[:, np.newaxis] + np.arange(n)).ravel()
        want = block[rows][:, rows]
        got = rankcentrality._kept_chains(
            block.indptr, block.indices, block.data, n, np.array(kept)
        )
        for mine, theirs in zip(got, (want.indptr, want.indices, want.data)):
            assert mine.dtype == theirs.dtype
            assert np.array_equal(mine, theirs)

    def test_chains_cut_out_of_order(self, monkeypatch):
        # Chain 2 stops first, then 0, then 1: every cut the iteration makes
        # equals scipy's fancy indexing of the block it cut.
        n = self.GRAPH.n_items
        cuts = []
        real = rankcentrality._kept_chains

        def spy(indptr, indices, data, n_items, kept):
            block = sp.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1,) * 2)
            rows = (n * kept[:, np.newaxis] + np.arange(n)).ravel()
            want = block[rows][:, rows]
            got = real(indptr, indices, data, n_items, kept)
            for mine, theirs in zip(got, (want.indptr, want.indices, want.data)):
                assert np.array_equal(mine, theirs)
            cuts.append(kept.tolist())
            return got

        monkeypatch.setattr(rankcentrality, "_kept_chains", spy)
        monkeypatch.setattr(rankcentrality, "_SPAN", 1)  # one stop per cut
        assert self.assert_matches_loops(10**6) == self.STOPS
        assert cuts == [[0, 1, 3], [1, 2], [1]]

    @pytest.mark.parametrize("n_items, cap", [(6_250, 9), (20_000, 3)])
    def test_buffer_within_float_budget(self, n_items, cap):
        # At r = 8 the buffer of span + 1 iterates holds at most
        # max(2^18, 2 r n) floats: 5 iterates of 50,000 floats, then 2 of
        # 160,000.
        # Each item i compared with i + 1 and i + 2: a connected graph of
        # 2n - 3 pairs, built without erdos_renyi's n^2 / 2 candidate pairs.
        r = 8
        items = np.arange(n_items)
        graph = ComparisonGraph(
            n_items, np.concatenate([np.c_[items[:-1], items[1:]], np.c_[items[:-2], items[2:]]])
        )
        outcomes = np.random.default_rng(1).uniform(-0.5, 0.5, (r, graph.n_pairs))
        chains = rankcentrality._chains(graph, outcomes)
        tracemalloc.start()
        try:
            results = rankcentrality._block_power(chains, r, cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [res.iterations for res in results] == [cap] * r
        block = chains.indptr.nbytes + chains.indices.nbytes + chains.data.nbytes
        rows = r * n_items
        buffer = max(1 << 18, 2 * rows) * 8
        # Beside the block and the buffer: the changes of a span's steps,
        # one iterate fewer than the buffer, and the results.
        assert peak < block + 2 * buffer + rows * 8 + (1 << 16)
