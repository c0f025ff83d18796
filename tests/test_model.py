import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixmnl import (
    ComparisonGraph,
    MixedMNLModel,
    ObservationBatch,
    ValidationError,
    marginally_identical_mixtures,
    random_uniform_model,
    ranking_mixture_marginals,
)

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

    def test_batch_validation(self, small_graph):
        with pytest.raises(ValidationError):
            ObservationBatch(small_graph, [[0, 0]], [[1, 1]])
        with pytest.raises(ValidationError):
            ObservationBatch(small_graph, [[0, 1]], [[1, 2]])
        with pytest.raises(ValidationError):
            ObservationBatch(small_graph, [[0, 99]], [[1, 1]])


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
