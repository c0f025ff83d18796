import math
import tracemalloc

import numpy as np
import pytest

from mixmnl import (
    MixedMNLModel,
    NumericalError,
    ObservationBatch,
    RankDeficiencyError,
    ValidationError,
    altmin_complete,
    components_from_exact_moments,
    components_from_factors,
    erdos_renyi,
    empirical_second_moment,
    estimate_components,
    exact_second_moment,
    exact_third_moment,
    match_components,
    random_uniform_model,
    rank_centrality,
    split_ranges,
    symmetrize_and_eig,
)
from mixmnl import spectral
from mixmnl.moments import SecondMomentEstimate

from conftest import best_permutation_errors, complete_graph


def exact_estimate(model, graph, **kwargs):
    m2 = exact_second_moment(model, graph)
    m3 = exact_third_moment(model, graph)
    return components_from_exact_moments(m2, m3, model.n_components, **kwargs)


class TestExactMomentPath:
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_recovers_components(self, rank):
        graph = complete_graph(8)
        rng = np.random.default_rng(rank)
        model = random_uniform_model(8, rank, rng)
        est = exact_estimate(model, graph)
        true_p = model.expected_outcomes(graph)
        mix_err, vec_err, _ = best_permutation_errors(
            est.mixture, est.outcome_matrix.T, model.mixture, true_p.T
        )
        assert mix_err <= 1e-6
        assert vec_err <= 1e-6

    @pytest.mark.parametrize("rank", [8, 10])
    def test_recovers_many_components(self, rank):
        # 276 pairs; matched by the assignment solver, since 10! permutations
        # are too many for the exhaustive oracle.
        graph = complete_graph(24)
        model = random_uniform_model(24, rank, np.random.default_rng(rank), low=1.0, high=8.0)
        m2 = exact_second_moment(model, graph)
        m3 = exact_third_moment(model, graph, max_pairs=graph.n_pairs)
        est = components_from_exact_moments(m2, m3, rank)
        match = match_components(
            est.mixture, est.outcome_matrix.T, model.mixture, model.expected_outcomes(graph).T
        )
        assert match.max_mixture_error <= 1e-9
        assert match.max_vector_error <= 1e-9

    def test_mixture_near_simplex(self):
        graph = complete_graph(7)
        model = random_uniform_model(7, 2, np.random.default_rng(3))
        est = exact_estimate(model, graph)
        assert abs(est.mixture.sum() - 1.0) <= 1e-8
        assert (est.mixture > 0).all()
        assert est.diagnostics["mixture_sum_suspect"] is False

    def test_single_component_trivial_mixture(self):
        graph = complete_graph(6)
        model = random_uniform_model(6, 1, np.random.default_rng(4))
        est = exact_estimate(model, graph)
        assert est.mixture[0] == pytest.approx(1.0, abs=1e-9)
        p = model.expected_outcomes(graph)[:, 0]
        np.testing.assert_allclose(est.outcome_matrix[:, 0], p, atol=1e-7)

    def test_rank_deficient_second_moment_raises(self):
        graph = complete_graph(6)
        model = random_uniform_model(6, 1, np.random.default_rng(5))
        m2 = exact_second_moment(model, graph)
        m3 = exact_third_moment(model, graph)
        with pytest.raises(RankDeficiencyError) as info:
            components_from_exact_moments(m2, m3, 2)
        assert info.value.stage == "whitening"

    def test_zero_second_moment_fails_in_named_stage(self):
        graph = complete_graph(5)
        m3 = np.zeros((graph.n_pairs,) * 3)
        with pytest.raises(NumericalError) as info:
            components_from_exact_moments(np.zeros((graph.n_pairs, graph.n_pairs)), m3, 2)
        assert info.value.stage == "whitening"

    def test_readme_snippet(self):
        # the README quickstart's instance, through its exact-moment snippet
        rng = np.random.default_rng(0)
        graph = erdos_renyi(30, 8.0, rng)
        model = random_uniform_model(30, 2, rng, low=1.0, high=8.0)
        exact = components_from_exact_moments(
            exact_second_moment(model, graph),
            exact_third_moment(model, graph, max_pairs=graph.n_pairs),
            n_components=2,
        )
        weights = np.array(
            [rank_centrality(graph, exact.outcome_matrix[:, a]) for a in range(2)]
        )
        match = match_components(exact.mixture, weights, model.mixture, model.weights)
        np.testing.assert_allclose(exact.mixture, [0.5, 0.5], rtol=0, atol=1e-9)
        assert match.max_mixture_error <= 1e-9
        order = list(match.order)
        np.testing.assert_allclose(weights[order], model.weights, rtol=0, atol=1e-9)

    def test_diagnostics_fields(self):
        graph = complete_graph(6)
        model = random_uniform_model(6, 2, np.random.default_rng(6))
        d = exact_estimate(model, graph).diagnostics
        for key in (
            "second_moment_values",
            "incoherence",
            "tensor_condition_number",
            "tensor_used_pinv",
            "decomposition_weights",
            "mixture_sum",
            "mixture_sum_suspect",
        ):
            assert key in d
        assert len(d["second_moment_values"]) == 2


def factored_estimate(model, graph, n_components=None, **kwargs):
    if n_components is None:
        n_components = model.n_components
    return components_from_factors(
        model.expected_outcomes(graph), model.mixture, n_components, **kwargs
    )


class TestFactoredPath:
    @pytest.mark.parametrize("rank", [8, 10, 12])
    def test_recovers_many_components_above_300_pairs(self, rank):
        graph = complete_graph(30)  # 435 pairs
        model = random_uniform_model(30, rank, np.random.default_rng(rank), low=1.0, high=8.0)
        est = factored_estimate(model, graph)
        match = match_components(
            est.mixture, est.outcome_matrix.T, model.mixture, model.expected_outcomes(graph).T
        )
        assert match.max_mixture_error <= 1e-9
        assert match.max_vector_error <= 1e-9

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_basis_follows_dense_whitening_rules(self, rank):
        # Same eigenvalues, same vectors with the same signs, as the dense
        # eigensolve of the exact second moment.
        graph = complete_graph(9)
        model = random_uniform_model(9, rank, np.random.default_rng(50 + rank))
        got = factored_estimate(model, graph).basis
        want = symmetrize_and_eig(exact_second_moment(model, graph), rank)
        np.testing.assert_allclose(got.values, want.values, rtol=1e-12)
        np.testing.assert_allclose(got.vectors, want.vectors, rtol=0, atol=1e-12)

    def test_rank_deficient_model_raises_in_whitening(self):
        graph = complete_graph(6)
        model = random_uniform_model(6, 1, np.random.default_rng(5))
        with pytest.raises(RankDeficiencyError) as info:
            factored_estimate(model, graph, n_components=2)
        assert info.value.stage == "whitening"
        spectrum = info.value.spectrum
        assert spectrum.shape == (graph.n_pairs,)
        assert spectrum[0] > 0.0
        assert (spectrum[1:] == 0.0).all()

    def test_equal_weights_raise_in_whitening(self):
        graph = complete_graph(6)
        model = MixedMNLModel(np.ones((2, 6)), [0.5, 0.5])
        with pytest.raises(RankDeficiencyError) as info:
            factored_estimate(model, graph)
        assert info.value.stage == "whitening"
        np.testing.assert_array_equal(info.value.spectrum, np.zeros(graph.n_pairs))

    @pytest.mark.parametrize("rank", [1, 2])
    def test_spectrum_matches_dense_path(self, rank):
        # Both paths report the same descending, N-long spectrum.
        graph = complete_graph(6)
        model = random_uniform_model(6, rank, np.random.default_rng(5))
        with pytest.raises(RankDeficiencyError) as dense:
            components_from_exact_moments(
                exact_second_moment(model, graph), exact_third_moment(model, graph), rank + 1
            )
        with pytest.raises(RankDeficiencyError) as factored:
            factored_estimate(model, graph, n_components=rank + 1)
        want = dense.value.spectrum
        got = factored.value.spectrum
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * want[0])

    @pytest.mark.parametrize(
        "p, q",
        [
            (np.zeros((6, 2)), np.array([0.5])),  # mixture length
            (np.zeros(6), np.array([1.0])),  # 1-D outcome matrix
            (np.full((6, 2), np.nan), np.array([0.5, 0.5])),
            (np.zeros((6, 2)), np.array([1.5, -0.5])),
        ],
        ids=["mixture-length", "1-d", "non-finite", "negative-mixture"],
    )
    def test_malformed_factors_rejected(self, p, q):
        with pytest.raises(ValidationError):
            components_from_factors(p, q, 2)

    @pytest.mark.parametrize("n_components", [0, 7])
    def test_component_count_checked(self, n_components):
        with pytest.raises(ValidationError):
            components_from_factors(np.ones((6, 2)), np.array([0.5, 0.5]), n_components)

    def test_peak_memory_below_one_pair_matrix(self):
        # n = 300 at mean degree 12 draws 1,759 pairs; one N x N float64
        # array would be 24.8 MB.  At r = 8 the tensor map's N x m products
        # (m = 120) must stay within a third of it.
        graph = erdos_renyi(300, 12.0, np.random.default_rng(0))
        for rank in (2, 8):
            model = random_uniform_model(300, rank, np.random.default_rng(1), low=1.0, high=8.0)
            p = model.expected_outcomes(graph)
            tracemalloc.start()
            try:
                components_from_factors(p, model.mixture, rank)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < graph.n_pairs**2 * 8 / 3, rank


def sampled_instance(n_items, mean_degree, rank, seed, count=20_000, ell=8):
    rng = np.random.default_rng(seed)
    graph = erdos_renyi(n_items, mean_degree, rng)
    model = random_uniform_model(n_items, rank, rng, low=1.0, high=8.0)
    return model.sample_batch(graph, ell, count, np.random.default_rng(seed + 10))


def dense_completion(batch, rank, offdiag=None):
    """The fit's completion of ``offdiag``, by default its second moment."""
    if offdiag is None:
        (lo, hi), _ = split_ranges(len(batch))
        offdiag = empirical_second_moment(batch, lo, hi).matrix
    iterations = max(1, math.ceil(math.log(batch.graph.n_pairs * len(batch))))
    return altmin_complete(offdiag, rank, iterations)


class TestEmpiricalPath:
    @pytest.mark.parametrize(
        "n_items, mean_degree, rank, seed", [(30, 7.0, 2, 0), (40, 8.0, 3, 1), (60, 6.0, 4, 2)]
    )
    def test_whitening_matches_dense_completion(self, n_items, mean_degree, rank, seed):
        # Whitening from the completion's factors equals the dense
        # eigensolve of the symmetrized completed matrix, signs included.
        batch = sampled_instance(n_items, mean_degree, rank, seed)
        got = estimate_components(batch, rank, rng=np.random.default_rng(0)).basis
        want = symmetrize_and_eig(dense_completion(batch, rank).matrix, rank)
        np.testing.assert_allclose(got.values, want.values, rtol=0, atol=1e-12 * want.values[0])
        np.testing.assert_allclose(got.vectors, want.vectors, rtol=0, atol=1e-12)

    def test_indefinite_completion_reports_descending_spectrum(self, monkeypatch):
        # An indefinite rank-2 second moment completes to a matrix with one
        # positive eigenvalue, so the whitening fails.  The error carries
        # all N eigenvalues of its symmetric part, descending, with the
        # zeros padded in sorted place between the signs.
        batch = sampled_instance(30, 7.0, 2, 0)
        n = batch.graph.n_pairs
        factor = np.random.default_rng(1).standard_normal((n, 2))
        hollow = factor @ np.diag([1.0, -3.0]) @ factor.T
        np.fill_diagonal(hollow, 0.0)
        monkeypatch.setattr(
            spectral,
            "empirical_second_moment",
            lambda batch, start, stop: SecondMomentEstimate(hollow, stop - start),
        )
        with pytest.raises(RankDeficiencyError) as info:
            estimate_components(batch, 2, rng=np.random.default_rng(0))
        assert info.value.stage == "whitening"
        spectrum = info.value.spectrum
        assert spectrum.shape == (n,)
        assert (np.diff(spectrum) <= 0).all()
        completed = dense_completion(batch, 2, hollow).matrix
        want = np.linalg.eigvalsh(0.5 * (completed + completed.T))[::-1]
        assert want[0] > 0 > want[-1]
        np.testing.assert_allclose(spectrum, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_negative_semidefinite_completion_rejected_in_whitening(self, monkeypatch):
        # -F F^T completes to a matrix whose symmetric part has two large
        # negative eigenvalues and roundoff for the rest.  The whitening
        # floor scales with the largest magnitude, so the roundoff-sized
        # positive candidates are not kept.
        batch = sampled_instance(30, 7.0, 2, 0)
        for seed in range(5):
            factor = np.random.default_rng(seed).standard_normal((batch.graph.n_pairs, 2))
            hollow = -factor @ factor.T
            np.fill_diagonal(hollow, 0.0)
            monkeypatch.setattr(
                spectral,
                "empirical_second_moment",
                lambda batch, start, stop: SecondMomentEstimate(hollow, stop - start),
            )
            with pytest.raises(RankDeficiencyError) as info:
                estimate_components(batch, 2, rng=np.random.default_rng(0))
            assert info.value.stage == "whitening", seed

    def test_peak_memory_below_two_and_a_half_pair_matrices(self):
        # The second moment and completion's working copy are one N x N
        # array each; the whitening adds no third.  982 pairs here.
        batch = sampled_instance(150, 12.0, 2, 3, count=4000, ell=10)
        tracemalloc.start()
        try:
            estimate_components(batch, 2, rng=np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * batch.graph.n_pairs**2 * 8

    def test_second_moment_freed_before_the_third_moment_stage(self, monkeypatch):
        # The completion keeps only S and V, so on entry to the third-moment
        # stage no N x N array is alive.  982 pairs: the estimate is 7.7 MB.
        batch = sampled_instance(150, 12.0, 2, 3, count=4000, ell=10)
        held = []
        stage = spectral.whitened_third_moment_ls

        def recorded(*args):
            held.append(tracemalloc.get_traced_memory()[0])
            return stage(*args)

        monkeypatch.setattr(spectral, "whitened_third_moment_ls", recorded)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            estimate_components(batch, 2, rng=np.random.default_rng(0))
        finally:
            tracemalloc.stop()
        assert len(held) == 1
        assert held[0] - start < 0.1 * batch.graph.n_pairs**2 * 8

    def test_close_with_many_samples(self):
        # Full pipeline on a generous sample.  A wide dynamic range keeps
        # the signal well above the without-replacement scaling noise.
        graph = complete_graph(6)
        rng = np.random.default_rng(3)
        model = MixedMNLModel(rng.uniform(1.0, 8.0, (2, 6)), [0.3, 0.7])
        batch = model.sample_batch(graph, 5, 400_000, np.random.default_rng(7))
        est = estimate_components(batch, 2, rng=np.random.default_rng(8))
        true_p = model.expected_outcomes(graph)
        mix_err, vec_err, _ = best_permutation_errors(
            est.mixture, est.outcome_matrix.T, model.mixture, true_p.T
        )
        assert mix_err <= 0.1
        assert vec_err <= 0.2

    def test_split_recorded(self):
        graph = complete_graph(6)
        model = random_uniform_model(6, 2, np.random.default_rng(9))
        batch = model.sample_batch(graph, 3, 901, np.random.default_rng(10))
        est = estimate_components(batch, 2, rng=np.random.default_rng(11))
        d = est.diagnostics
        assert d["split"] == {"second": [0, 451], "third": [451, 901]}
        assert "completion" in d

    def test_single_observation_rejected(self):
        graph = complete_graph(6)
        model = random_uniform_model(6, 2, np.random.default_rng(12))
        batch = model.sample_batch(graph, 3, 1, np.random.default_rng(13))
        with pytest.raises(ValidationError):
            estimate_components(batch, 2)

    def test_ell_below_three_refused_before_any_stage(self, monkeypatch):
        # An ell-2 batch carries no third moment; the fit refuses it before
        # estimating the second moment, not after completing and whitening.
        graph = complete_graph(6)
        model = random_uniform_model(6, 2, np.random.default_rng(17))
        batch = model.sample_batch(graph, 2, 200, np.random.default_rng(18))

        def unreachable(*args, **kwargs):
            raise AssertionError("second moment estimated for an ell-2 batch")

        monkeypatch.setattr(spectral, "empirical_second_moment", unreachable)
        with pytest.raises(ValidationError, match="third-moment estimation needs ell >= 3"):
            estimate_components(batch, 2)

    def test_stage_attached_to_numerical_failures(self):
        # Starved of samples and asked for too many components, the run
        # dies inside a named stage rather than with a bare error.
        graph = complete_graph(5)
        model = random_uniform_model(5, 1, np.random.default_rng(14))
        batch = model.sample_batch(graph, 3, 4, np.random.default_rng(15))
        try:
            estimate_components(batch, 4, rng=np.random.default_rng(16))
        except NumericalError as err:
            assert err.stage in {"completion", "whitening", "tensor", "decomposition"}
        else:
            pytest.fail("expected a numerical failure")

    def test_zero_second_moment_fails_in_named_stage(self):
        # The four sign patterns on pairs 0-2 cancel every co-occurrence, so
        # the first half's off-diagonal second moment is exactly zero.
        graph = complete_graph(5)
        signs = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]] * 2
        batch = ObservationBatch(graph, [[0, 1, 2]] * 8, signs)
        with pytest.raises(NumericalError) as info:
            estimate_components(batch, 1, rng=np.random.default_rng(0))
        assert info.value.stage == "completion"
