import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixmnl import (
    ComparisonGraph,
    MixedMNLModel,
    ObservationBatch,
    ValidationError,
    erdos_renyi,
    marginally_identical_mixtures,
    random_uniform_model,
)
from mixmnl import model as model_module
from mixmnl.errors import checked_array
from mixmnl.model import ranking_mixture_marginals

from conftest import complete_graph


def models(max_items=8, max_components=3):
    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_items))
        r = draw(st.integers(1, max_components))
        weights = draw(
            st.lists(
                st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n),
                min_size=r,
                max_size=r,
            )
        )
        mixture = draw(st.lists(st.floats(0.05, 1.0), min_size=r, max_size=r))
        return MixedMNLModel(weights, mixture)

    return build()


class TestModelBasics:
    def test_normalization(self):
        m = MixedMNLModel([[2.0, 2.0], [1.0, 3.0]], [1.0, 3.0])
        assert np.allclose(m.weights.sum(axis=1), 1.0)
        assert np.allclose(m.mixture, [0.25, 0.75])

    def test_normalizing_twice_changes_no_bit(self):
        # reloading a saved model normalizes its weights again
        m = random_uniform_model(30, 3, np.random.default_rng(4))
        again = MixedMNLModel(m.weights, m.mixture)
        assert np.array_equal(again.weights, m.weights)
        assert np.array_equal(again.mixture, m.mixture)

    def test_expected_outcome_sign_convention(self):
        # Pair 0 is (0, 1); +1 means the larger-index item won, so the
        # mean outcome is positive when item 1 is heavier.
        g = ComparisonGraph(2, [(0, 1)])
        m = MixedMNLModel([[1.0, 2.0]], [1.0])
        p = m.expected_outcomes(g)
        assert p.shape == (1, 1)
        assert p[0, 0] == pytest.approx(1.0 / 3.0)

    def test_uniform_weights_have_zero_outcome_means(self, small_graph):
        m = MixedMNLModel(np.ones((2, 6)), [0.5, 0.5])
        assert np.abs(m.expected_outcomes(small_graph)).max() == 0.0

    def test_dynamic_range(self):
        m = MixedMNLModel([[1.0, 2.0], [1.0, 1.5]], [0.5, 0.5])
        assert m.dynamic_range == pytest.approx(2.0)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValidationError):
            MixedMNLModel([[1.0, 0.0]], [1.0])
        with pytest.raises(ValidationError):
            MixedMNLModel([[1.0, 2.0]], [0.0])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            MixedMNLModel([[1.0, 2.0]], [0.5, 0.5])

    @settings(max_examples=50, deadline=None)
    @given(models())
    def test_outcome_means_bounded_by_dynamic_range(self, model):
        # |E[x]| on any pair is at most (b - 1) / (b + 1).
        g = complete_graph(model.n_items)
        p = model.expected_outcomes(g)
        b = model.dynamic_range
        assert np.abs(p).max() <= (b - 1.0) / (b + 1.0) + 1e-12


_FOUR = complete_graph(4)

# Each constructor crossed with the inputs that ``checked_array`` rejects.
# numpy would truncate the float index, parse the strings, fold the bool
# into 1, and raise a bare ValueError on the ragged rows.
_REJECTED = {
    "graph-float-index": (lambda: ComparisonGraph(3, [[0.5, 1], [1, 2]]), "integers"),
    "graph-string": (lambda: ComparisonGraph(3, [["0", 1], [1, 2]]), "integers"),
    "graph-bool-among-ints": (lambda: ComparisonGraph(3, [[0, 1], [True, 2]]), "integers"),
    "graph-ragged": (lambda: ComparisonGraph(3, [[0, 1], [0], [1, 2]]), "edges"),
    "batch-float-index": (lambda: ObservationBatch(_FOUR, [[0.5, 1.7]], [[1, 1]]), "integers"),
    "batch-string-index": (lambda: ObservationBatch(_FOUR, [["0", "1"]], [[1, 1]]), "integers"),
    "batch-string-sign": (lambda: ObservationBatch(_FOUR, [[0, 1]], [[1, "x"]]), "numbers"),
    "batch-bool-among-ints": (lambda: ObservationBatch(_FOUR, [[True, 2]], [[1, 1]]), "integers"),
    "batch-bool-sign": (lambda: ObservationBatch(_FOUR, [[0, 1]], [[1, True]]), "numbers"),
    "batch-ragged": (lambda: ObservationBatch(_FOUR, [[0, 1], [2]], [[1, 1], [1]]), "pair indices"),
    "model-string": (lambda: MixedMNLModel([["1", "2", "3"]], [1]), "numbers"),
    "model-string-mixture": (lambda: MixedMNLModel([[1, 2, 3]], ["1"]), "numbers"),
    "model-bool-among-ints": (lambda: MixedMNLModel([[True, 2, 3]], [1]), "numbers"),
    "model-ragged": (lambda: MixedMNLModel([[1, 2], [3]], [0.5, 0.5]), "weights"),
    "model-no-components": (lambda: MixedMNLModel(np.ones((0, 5)), []), "component"),
}


class TestCallerArrays:
    @pytest.mark.parametrize("call, words", _REJECTED.values(), ids=_REJECTED.keys())
    def test_rejected(self, call, words):
        with pytest.raises(ValidationError, match=words):
            call()

    def test_ndarray_is_taken_without_a_copy(self):
        edges = np.array([[0, 1], [1, 2]])
        assert checked_array(edges, "edges", integers=True) is edges
        weights = np.array([[0.5, 1.0]]).T
        assert checked_array(weights, "weights") is weights
        with pytest.raises(ValidationError, match="integers"):
            checked_array(edges.astype(float), "edges", integers=True)

    @pytest.mark.parametrize(
        "signs, words",
        [
            (np.array([[1, 2]]), "-1 or \\+1"),
            (np.array([[1, 255]], dtype=np.uint8), "-1 or \\+1"),
            (np.array([[1.0, -2.0]]), "-1 or \\+1"),
            (np.array([[1.0, np.nan]]), "finite"),
            (np.array([[True, False]]), "numbers"),
        ],
    )
    def test_rejected_sign_arrays(self, signs, words):
        with pytest.raises(ValidationError, match=words):
            ObservationBatch(_FOUR, [[0, 1]], signs)

    def test_signs_of_any_number_type_give_the_same_int8(self):
        expected = np.array([[1, -1]], dtype=np.int8)
        for signs in (
            [[1, -1]],
            [[1.0, -1.0]],
            np.array([[1.0, -1.0]]),
            np.array([[1, -1]], dtype=np.int8),
            np.array([[1, -1]]),
        ):
            got = ObservationBatch(_FOUR, [[0, 1]], signs).signs
            assert got.dtype == np.int8
            assert np.array_equal(got, expected)

    def test_numbers_pass(self):
        np.testing.assert_array_equal(checked_array([[1, 2.5]], "weights"), [[1.0, 2.5]])
        for value in (np.float32(0.5), 1, np.int64(1), [1, 2], np.array([1], dtype=np.uint8)):
            assert checked_array(value, "x").dtype == np.float64
        assert checked_array(np.uint8(3), "count", integers=True) == 3
        assert checked_array([np.int32(1), np.int64(2)], "x", integers=True).tolist() == [1, 2]


class TestSampling:
    def test_same_seed_same_batch(self, small_model, small_graph):
        b1 = small_model.sample_batch(small_graph, 3, 500, np.random.default_rng(9))
        b2 = small_model.sample_batch(small_graph, 3, 500, np.random.default_rng(9))
        assert np.array_equal(b1.pair_indices, b2.pair_indices)
        assert np.array_equal(b1.signs, b2.signs)

    def test_rows_strictly_increasing(self, small_model, small_graph):
        b = small_model.sample_batch(small_graph, 4, 200, np.random.default_rng(1))
        assert (np.diff(b.pair_indices, axis=1) > 0).all()
        assert set(np.unique(b.signs)) <= {-1, 1}

    def test_single_pair_frequency(self):
        # One pair with w = (1/3, 2/3): mean outcome 1/3.  Check the
        # sample mean lands within four standard errors.
        g = ComparisonGraph(2, [(0, 1)])
        m = MixedMNLModel([[1.0, 2.0]], [1.0])
        count = 10_000
        batch = m.sample_batch(g, 1, count, np.random.default_rng(7))
        mean = batch.signs.astype(float).mean()
        se = np.sqrt((1.0 - (1.0 / 3.0) ** 2) / count)
        assert abs(mean - 1.0 / 3.0) <= 4 * se

    def test_component_mixing(self, small_graph):
        # Two components with opposite preferences on every pair; the
        # pooled mean outcome collapses toward q1 p + q2 (-p) = 0.2 p.
        w = np.array([[1.0, 2.0, 1.0, 2.0, 1.0, 2.0], [2.0, 1.0, 2.0, 1.0, 2.0, 1.0]])
        m = MixedMNLModel(w, [0.6, 0.4])
        p = m.expected_outcomes(small_graph)
        pooled = p @ m.mixture
        batch = m.sample_batch(small_graph, 15, 20_000, np.random.default_rng(3))
        dense_mean = np.zeros(small_graph.n_pairs)
        np.add.at(dense_mean, batch.pair_indices.ravel(), batch.signs.ravel().astype(float))
        dense_mean /= len(batch)
        assert np.abs(dense_mean - pooled).max() < 0.05

    def test_ell_out_of_range(self, small_model, small_graph):
        with pytest.raises(ValidationError):
            small_model.sample_batch(small_graph, 16, 10, np.random.default_rng(0))
        with pytest.raises(ValidationError):
            small_model.sample_batch(small_graph, 0, 10, np.random.default_rng(0))

    def test_single_observation(self, small_model, small_graph):
        obs = small_model.sample_batch(small_graph, 5, 1, np.random.default_rng(2))[0]
        assert obs.pair_indices.shape == (5,)
        assert (np.diff(obs.pair_indices) > 0).all()
        x = obs.dense(small_graph.n_pairs)
        assert np.abs(x).sum() == 5

    def test_dense_refuses_a_length_at_or_below_the_largest_index(self):
        model, graph = sampled_instance(30, 8.0)
        assert graph.n_pairs == 104
        obs = model.sample_batch(graph, 10, 1, np.random.default_rng(0))[0]
        top = int(obs.pair_indices[-1])
        for n_pairs in (5, top):
            with pytest.raises(ValidationError, match=f"^n_pairs must be >= {top + 1}, got"):
                obs.dense(n_pairs)
        x = obs.dense(top + 1)
        assert np.array_equal(np.flatnonzero(x), obs.pair_indices)
        assert np.array_equal(x[obs.pair_indices], obs.signs)

    def test_batch_validation(self, small_graph):
        # The CLI prints these texts for a bad dataset file.
        unsorted = "^pair indices must be strictly increasing per row$"
        with pytest.raises(ValidationError, match=unsorted):
            ObservationBatch(small_graph, [[0, 0]], [[1, 1]])
        with pytest.raises(ValidationError, match=r"^signs must be -1 or \+1$"):
            ObservationBatch(small_graph, [[0, 1]], [[1, 2]])
        with pytest.raises(ValidationError, match="^pair index out of range$"):
            ObservationBatch(small_graph, [[0, 99]], [[1, 1]])
        with pytest.raises(ValidationError, match=r"^signs must have the pair indices' shape"):
            ObservationBatch(small_graph, [[0, 1]], [[1, 1, 1]])

    def test_pair_indices_are_int32(self, small_model, small_graph):
        sampled = small_model.sample_batch(small_graph, 3, 20, np.random.default_rng(0))
        built = ObservationBatch(small_graph, np.array([[0, 2]], dtype=np.int64), [[1, -1]])
        assert sampled.pair_indices.dtype == np.int32
        assert built.pair_indices.dtype == np.int32

    def test_wide_index_is_rejected_not_wrapped(self):
        # 2**32 and 2**32 + 1 would wrap to the valid int32 indices 0 and 1.
        graph = complete_graph(5)
        assert graph.n_pairs == 10
        idx = np.array([[2**32, 2**32 + 1]], dtype=np.int64)
        with pytest.raises(ValidationError, match="out of range"):
            ObservationBatch(graph, idx, [[1, 1]])

    def test_callers_arrays_are_copied_and_left_writable(self, small_graph):
        idx = np.array([[0, 1], [1, 2]], dtype=np.int32)
        sgn = np.array([[1, -1], [-1, 1]], dtype=np.int8)
        batch = ObservationBatch(small_graph, idx, sgn)
        assert not np.shares_memory(batch.pair_indices, idx)
        assert not np.shares_memory(batch.signs, sgn)
        assert idx.flags.writeable and sgn.flags.writeable
        assert not (batch.pair_indices.flags.writeable or batch.signs.flags.writeable)

    def test_graph_beyond_int32_indices_is_refused(self, monkeypatch, small_model, small_graph):
        # No test can build a graph with 2**31 pairs; lower the limit instead.
        monkeypatch.setattr(model_module, "_MAX_PAIRS", small_graph.n_pairs - 1)
        with pytest.raises(ValidationError, match="pairs are not supported"):
            ObservationBatch(small_graph, [[0, 1]], [[1, 1]])
        with pytest.raises(ValidationError, match="pairs are not supported"):
            small_model.sample_batch(small_graph, 2, 5, np.random.default_rng(0))


def reference_sample(model, graph, ell, count, rng, chunk_floats):
    """Reference sampler that draws each chunk's keys at once.

    Same stream as ``sample_batch`` for the same ``chunk_floats``; it holds
    a whole chunk of keys and their argpartition at once.
    """
    win = (1.0 + model.expected_outcomes(graph)) / 2.0
    components = rng.choice(model.n_components, size=count, p=model.mixture)
    idx = np.empty((count, ell), dtype=np.int64)
    sgn = np.empty((count, ell), dtype=np.int8)
    step = max(1, chunk_floats // graph.n_pairs)
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        keys = rng.random((hi - lo, graph.n_pairs))
        chosen = np.argpartition(keys, ell - 1, axis=1)[:, :ell]
        chosen.sort(axis=1)
        idx[lo:hi] = chosen
        u = rng.random((hi - lo, ell))
        sgn[lo:hi] = np.where(u < win[chosen, components[lo:hi, None]], 1, -1)
    return idx, sgn


def sorted_argpartition(keys, ell):
    """Columns of each row's ell smallest keys, ascending, as the sampler first chose them."""
    chosen = np.argpartition(keys, ell - 1, axis=1)[:, :ell]
    chosen.sort(axis=1)
    return chosen


@pytest.fixture
def argpartition_calls(monkeypatch):
    """Counts np.argpartition calls, that is, _smallest_keys' full-row fallbacks."""
    calls = []
    real = np.argpartition

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "argpartition", spy)
    return calls


def assert_selects_like_argpartition(calls, keys, ell, fallbacks, shape=None):
    """``_smallest_keys`` equals the reference, with ``fallbacks`` argpartition calls.

    Each call is on an array of ``shape``, by default the whole block's.
    """
    expected = sorted_argpartition(keys, ell)
    calls.clear()
    assert np.array_equal(model_module._smallest_keys(keys, ell), expected)
    assert calls == [shape or keys.shape] * fallbacks


def truncation_twins(key, same_float32, bits=7):
    """Distinct keys small < large near ``key`` whose words agree above the low ``bits``.

    With ``same_float32`` both round to one float32; else they are two
    float32 values that differ only in their lowest bit.
    """
    word = np.array([key], np.float32).view(np.uint32) & ~np.uint32((1 << bits) - 1)
    small = float(word.view(np.float32)[0])
    if same_float32:
        large = float(np.nextafter(small, 1.0))
    else:
        large = float((word + np.uint32(1)).view(np.float32)[0])
    return small, large


def sparse_block(rows=6, n=400, ell=10, seed=0):
    """Uniform (rows, n) keys, and tau = (sqrt(ell) + 2)**2 / n.

    A row holds on average (sqrt(ell) + 2)**2 keys below tau.
    """
    tau = (ell**0.5 + 2) ** 2 / n
    return np.random.default_rng(seed).random((rows, n)), tau


def tied_rows(keys, ell):
    """How many rows' ell-th and (ell+1)-th smallest keys agree above the column bits.

    The keys are compared as float32 words after a full sort of the float64
    keys, so independently of the words ``_smallest_keys`` partitions: these
    are the rows it must send to its exact fallback.
    """
    n = keys.shape[1]
    low = np.uint32((1 << (n - 1).bit_length()) - 1)
    kth = np.sort(keys, axis=1)[:, ell - 1 : ell + 1].astype(np.float32).view(np.uint32) & ~low
    return int(np.count_nonzero(kth[:, 0] == kth[:, 1]))


def assert_matches_argpartition(data, max_n, max_rows):
    """``_smallest_keys`` of a drawn block, ell in [1, N], equals the reference."""
    n = data.draw(st.integers(1, max_n))
    ell = data.draw(st.integers(1, n))
    rows = data.draw(st.integers(1, max_rows))
    levels = data.draw(st.sampled_from([None, 2, 7, 1 << 12, 1 << 24]))
    keys = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random((rows, n))
    if levels is not None:
        keys = np.floor(keys * levels) / levels
    chosen = model_module._smallest_keys(keys, ell)
    assert np.array_equal(chosen, sorted_argpartition(keys, ell))


class TestSmallestKeys:
    @pytest.mark.parametrize(
        "rows, n, ell, seed",
        # (6, 400, 10, 0) is the block the fallback tests below alter.  About
        # 0.3% of rows tie at wide's 1,759 pairs and ell 40, and 3% at 9,889:
        # the blocks there of 74 rows or more, and those at ell = N - 1, have
        # 1 to 13 tied rows each; the others have none.
        [
            (74, 1759, 40, 1), (13, 9889, 40, 2), (6, 400, 10, 0), (3, 400, 1, 4), (1, 50, 1, 5),
            (1000, 1759, 40, 10), (1000, 1759, 40, 11), (300, 9889, 40, 12), (300, 9889, 40, 13),
            (5, 1759, 1758, 6), (5, 1759, 1, 7), (5, 9889, 9888, 8), (5, 9889, 1, 9),
        ],
    )
    def test_random_blocks_fall_back_on_their_tied_rows(
        self, argpartition_calls, rows, n, ell, seed
    ):
        # One fallback call, on exactly the rows tied_rows counts.
        keys, _ = sparse_block(rows, n, ell, seed)
        ties = tied_rows(keys, ell)
        assert_selects_like_argpartition(argpartition_calls, keys, ell, min(ties, 1), (ties, n))

    @pytest.mark.parametrize("short", [3, 9])
    def test_short_row_falls_back(self, argpartition_calls, short):
        # Row 2 has only `short` keys below tau, the rest above: its words
        # choose exactly, and only row 4, tied at its 10th key, falls back.
        keys, tau = sparse_block()
        keys[2] = tau + (1.0 - tau) * keys[2]
        keys[2, 7 : 7 + short] = np.linspace(0.1, 0.9, short) * tau
        order = np.argsort(keys[4])
        keys[4, order[10]] = keys[4, order[9]]
        assert_selects_like_argpartition(argpartition_calls, keys, 10, 1, shape=(1, 400))

    def test_tie_at_the_ell_th_key_falls_back(self, argpartition_calls):
        # Row 4's 10th and 11th smallest keys are equal: argpartition picks
        # one of them, and the fallback on that row keeps its choice.
        keys, _ = sparse_block()
        order = np.argsort(keys[4])
        keys[4, order[10]] = keys[4, order[9]]
        assert_selects_like_argpartition(argpartition_calls, keys, 10, 1, shape=(1, 400))

    def test_ties_below_the_ell_th_key_keep_the_candidates(self, argpartition_calls):
        keys, _ = sparse_block()
        order = np.argsort(keys[1])
        keys[1, order[3]] = keys[1, order[2]]
        assert_selects_like_argpartition(argpartition_calls, keys, 10, 0)

    @pytest.mark.parametrize("n, ell", [(104, 10), (60, 60), (1, 1), (300, 300), (2, 1), (2, 2)])
    def test_dense_blocks_take_argpartition(self, argpartition_calls, n, ell):
        # ell = N included: each row's packed words choose exactly, and no
        # argpartition runs
        keys = np.random.default_rng(n).random((5, n))
        assert_selects_like_argpartition(argpartition_calls, keys, ell, 0)

    def test_dense_tie_at_the_ell_th_key_falls_back(self, argpartition_calls):
        # Only the tied row takes the full-row argpartition.
        keys = np.random.default_rng(104).random((5, 104))
        order = np.argsort(keys[3])
        keys[3, order[10]] = keys[3, order[9]]
        assert_selects_like_argpartition(argpartition_calls, keys, 10, 1, shape=(1, 104))

    def test_dense_ties_below_the_ell_th_key_keep_the_threshold(self, argpartition_calls):
        keys = np.random.default_rng(104).random((5, 104))
        order = np.argsort(keys[3])
        keys[3, order[5]] = keys[3, order[4]]
        assert_selects_like_argpartition(argpartition_calls, keys, 10, 0)

    @pytest.mark.parametrize("same_float32", [True, False])
    def test_dense_truncation_tie_at_the_ell_th_key_falls_back(
        self, argpartition_calls, same_float32
    ):
        # Row 2's 10th and 11th smallest keys differ, but their words agree
        # above the 7 column bits, and the smaller key sits in the larger
        # column, where the words' column order would not choose it.  That
        # row alone takes the exact argpartition.
        keys = np.random.default_rng(104).random((5, 104))
        order = np.argsort(keys[2])
        small, large = truncation_twins(keys[2, order[9]], same_float32)
        assert keys[2, order[8]] < small < large < keys[2, order[11]]
        first, second = sorted(order[9:11])
        keys[2, first], keys[2, second] = large, small
        assert_selects_like_argpartition(argpartition_calls, keys, 10, 1, shape=(1, 104))
        chosen = model_module._smallest_keys(keys, 10)[2]
        assert second in chosen and first not in chosen

    @pytest.mark.parametrize("same_float32", [True, False])
    def test_wide_truncation_tie_at_the_ell_th_key_falls_back(
        self, argpartition_calls, same_float32
    ):
        # As above with wide's 1,759 pairs, whose column field is 11 bits.
        keys = np.random.default_rng(1759).random((5, 1759))
        assert tied_rows(keys, 40) == 0
        order = np.argsort(keys[3])
        small, large = truncation_twins(keys[3, order[39]], same_float32, bits=11)
        assert keys[3, order[38]] < small < large < keys[3, order[41]]
        first, second = sorted(order[39:41])
        keys[3, first], keys[3, second] = large, small
        assert_selects_like_argpartition(argpartition_calls, keys, 40, 1, shape=(1, 1759))
        chosen = model_module._smallest_keys(keys, 40)[3]
        assert second in chosen and first not in chosen

    @pytest.mark.parametrize("tie", ["equal run", "same float32", "same high bits"])
    def test_dense_ties_below_the_ell_th_key_keep_the_words(
        self, argpartition_calls, tie
    ):
        keys = np.random.default_rng(104).random((5, 104))
        order = np.argsort(keys[1])
        if tie == "equal run":
            keys[1, order[:9]] = keys[1, order[0]]
        else:
            keys[1, order[4]], keys[1, order[5]] = truncation_twins(
                keys[1, order[4]], tie == "same float32"
            )
            assert keys[1, order[3]] < keys[1, order[4]] < keys[1, order[5]] < keys[1, order[6]]
        assert_selects_like_argpartition(argpartition_calls, keys, 10, 0)

    def test_two_tied_pairs_fall_back(self, argpartition_calls):
        keys = np.random.default_rng(2).random((4, 2))
        keys[1] = 0.25
        assert_selects_like_argpartition(argpartition_calls, keys, 1, 1, shape=(1, 2))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_dense_blocks_match_argpartition(self, data):
        # Keys on a coarse grid tie often, exactly or in their words.
        assert_matches_argpartition(data, max_n=300, max_rows=50)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_wide_blocks_match_argpartition(self, data):
        # N past 1,024 packs its columns into 11 bits of each word.
        assert_matches_argpartition(data, max_n=2000, max_rows=5)


def sampled_instance(n_items, mean_degree, seed=0):
    rng = np.random.default_rng(seed)
    graph = erdos_renyi(n_items, mean_degree, rng)
    return random_uniform_model(n_items, 2, rng, 1.0, 8.0), graph


def digest(batch):
    h = hashlib.sha256(np.ascontiguousarray(batch.pair_indices, dtype="<i8").tobytes())
    h.update(batch.signs.tobytes())
    return h.hexdigest()


class TestSamplerStream:
    @pytest.mark.parametrize(
        "chunk_floats, block_floats, ell, count",
        [
            # 15 pairs: chunks of 9 rows, blocks of 4, so every chunk ends
            # on a partial block and the count on a partial chunk
            (135, 60, 3, 40),
            (135, 60, 3, 0),
            (135, 60, 3, 1),
            (135, 60, 1, 23),
            (135, 60, 15, 23),
            # a block larger than the chunk
            (135, 1000, 4, 23),
            # one-row chunks and blocks
            (1, 1, 2, 5),
        ],
    )
    def test_matches_reference(self, monkeypatch, chunk_floats, block_floats, ell, count):
        graph = complete_graph(6)
        model = random_uniform_model(6, 3, np.random.default_rng(5))
        monkeypatch.setattr(model_module, "_CHUNK_FLOATS", chunk_floats)
        monkeypatch.setattr(model_module, "_BLOCK_FLOATS", block_floats)
        batch = model.sample_batch(graph, ell, count, np.random.default_rng(17))
        idx, sgn = reference_sample(
            model, graph, ell, count, np.random.default_rng(17), chunk_floats
        )
        assert np.array_equal(batch.pair_indices, idx)
        assert np.array_equal(batch.signs, sgn)

    @pytest.mark.parametrize(
        "n_items, mean_degree, n_pairs, ell, count",
        [
            # 1,759 pairs: chunks of 2,384 rows, blocks of 74, neither
            # dividing the count
            pytest.param(300, 12.0, 1759, 40, 5000, id="40-5000"),
            pytest.param(300, 12.0, 1759, 1, 2385, id="1-2385"),
            pytest.param(300, 12.0, 1759, 1759, 3, id="1759-3"),
            # 9,889 pairs, where candidates are sparsest: chunks of 424
            # rows, blocks of 13
            pytest.param(1000, 20.0, 9889, 40, 500, id="9889-pairs-40-500"),
            # Dense blocks of packed words, across a chunk boundary: pilot's
            # 104 pairs at ell 10 (chunks of 40,329 rows, blocks of 1,260),
            # where 5 rows of this draw tie in their words, and 232 pairs
            # at ell 40 (chunks of 18,078 rows), where 14 rows do.
            pytest.param(30, 8.0, 104, 10, 50_000, id="104-pairs-10-50000"),
            pytest.param(60, 8.0, 232, 40, 20_000, id="232-pairs-40-20000"),
        ],
    )
    def test_matches_reference_at_default_sizes(self, n_items, mean_degree, n_pairs, ell, count):
        model, graph = sampled_instance(n_items, mean_degree)
        assert graph.n_pairs == n_pairs
        batch = model.sample_batch(graph, ell, count, np.random.default_rng(8))
        idx, sgn = reference_sample(
            model, graph, ell, count, np.random.default_rng(8), model_module._CHUNK_FLOATS
        )
        assert np.array_equal(batch.pair_indices, idx)
        assert np.array_equal(batch.signs, sgn)

    def test_scratch_memory_does_not_grow_with_the_chunk(self):
        # One chunk of keys at this size, with its argpartition, is 67 MB.
        model, graph = sampled_instance(300, 12.0)
        tracemalloc.start()
        try:
            batch = model.sample_batch(graph, 40, 5000, np.random.default_rng(8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = batch.pair_indices.nbytes + batch.signs.nbytes
        assert peak < output + (8 << 20)

    def test_sampled_indices_are_held_once_at_pilot_shape(self):
        # 200,000 rows of 10 of 104 pairs: the output is 9.5 MB, and one
        # chunk's outcome draws, thresholds and index temporaries about 12 MB
        # more.  A second copy of the 7.6 MB index array would pass the bound.
        model, graph = sampled_instance(30, 8.0)
        assert graph.n_pairs == 104
        tracemalloc.start()
        try:
            batch = model.sample_batch(graph, 10, 200_000, np.random.default_rng(8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = batch.pair_indices.nbytes + batch.signs.nbytes
        assert peak < output + (16 << 20)

    def test_outcome_draws_go_through_a_block_at_pilot_shape(self):
        # The outcome uniforms, thresholds and int8 signs of one chunk would
        # be about 12 MB at this shape; through a block of about 1 MB the
        # sampler's scratch stays well under 8 MB above its 9.5 MB output.
        model, graph = sampled_instance(30, 8.0)
        tracemalloc.start()
        try:
            batch = model.sample_batch(graph, 10, 200_000, np.random.default_rng(8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = batch.pair_indices.nbytes + batch.signs.nbytes
        assert peak < output + (8 << 20)

    @pytest.mark.parametrize(
        "n_items, mean_degree, ell, count, seed, expected",
        [
            pytest.param(
                8, 3.0, 3, 500, 1,
                "ca2d82b253b316c493f614ea39c00a67672538fb089f7600ff557b8348b676da",
                id="9-pairs",
            ),
            pytest.param(
                30, 8.0, 10, 2000, 2,
                "c02267ec48078c647dc50cc9d109ee6cae5b5d6912d4342e3f8572cfaba74a9a",
                id="104-pairs",
            ),
            pytest.param(
                300, 12.0, 40, 3000, 3,
                "496dd621b2cbaae81b031f784f7bbce16dc6c1b9385c7f1fe569d1c0512a5c92",
                id="1759-pairs",
            ),
        ],
    )
    def test_seeded_stream_is_pinned(self, n_items, mean_degree, ell, count, seed, expected):
        # A sampler that draws a different stream (say, Floyd's algorithm)
        # changes every seeded dataset and fit; it must fail here first.
        model, graph = sampled_instance(n_items, mean_degree)
        batch = model.sample_batch(graph, ell, count, np.random.default_rng(seed))
        assert digest(batch) == expected


class TestRankingMixtures:
    def test_single_ranking_marginals(self):
        m = ranking_mixture_marginals([(0, 1, 2)])
        assert m[0, 1] == 1.0 and m[0, 2] == 1.0 and m[1, 2] == 1.0
        assert m[1, 0] == 0.0 and np.all(np.diag(m) == 0.0)

    def test_marginally_identical_mixtures_are_distinct_but_equal(self):
        (rankings_1, m1), (rankings_2, m2) = marginally_identical_mixtures()
        assert set(rankings_1) != set(rankings_2)
        assert np.array_equal(m1, m2)  # exact, not approximate

    def test_known_marginal_values(self):
        (_, m1), _ = marginally_identical_mixtures()
        # Items 0 and 1 are tied, 2 and 3 are tied, and both of the top
        # items always beat both of the bottom items.
        assert m1[0, 1] == 0.5 and m1[2, 3] == 0.5
        for u in (0, 1):
            for v in (2, 3):
                assert m1[u, v] == 1.0 and m1[v, u] == 0.0

    def test_rejects_non_permutation(self):
        with pytest.raises(ValidationError):
            ranking_mixture_marginals([(0, 0, 1)])


def test_random_uniform_model_shapes():
    m = random_uniform_model(12, 3, np.random.default_rng(0))
    assert m.weights.shape == (3, 12)
    assert np.allclose(m.weights.sum(axis=1), 1.0)
    assert np.allclose(m.mixture, 1.0 / 3.0)
    assert m.dynamic_range <= 2.0 + 1e-12
