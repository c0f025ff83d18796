import tracemalloc

import numpy as np
import pytest

from mixmnl import (
    MixedMNLModel,
    ObservationBatch,
    ValidationError,
    empirical_second_moment,
    erdos_renyi,
    exact_second_moment,
    exact_third_moment,
    incoherence_from_basis,
    projected_third_moment,
    split_ranges,
)
from mixmnl.moments import second_moment_spectrum, spectrum_from_factors

from conftest import (
    brute_force_projected_third,
    brute_force_second_moment,
    complete_graph,
)


class TestExactMoments:
    def test_matches_loop_oracle(self, small_model, small_graph):
        m2 = exact_second_moment(small_model, small_graph)
        np.testing.assert_allclose(
            m2, brute_force_second_moment(small_model, small_graph), atol=1e-14
        )

    def test_single_component_outer_product(self, small_graph):
        m = MixedMNLModel(np.random.default_rng(0).uniform(1, 2, (1, 6)), [1.0])
        p = m.expected_outcomes(small_graph)[:, 0]
        np.testing.assert_allclose(
            exact_second_moment(m, small_graph), np.outer(p, p), atol=1e-14
        )

    def test_second_moment_psd(self, small_model, small_graph):
        values = np.linalg.eigvalsh(exact_second_moment(small_model, small_graph))
        assert values.min() >= -1e-10

    def test_third_moment_symmetry(self, small_model, small_graph):
        t = exact_third_moment(small_model, small_graph)
        for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
            np.testing.assert_allclose(t, t.transpose(perm), atol=1e-14)

    def test_third_moment_cap(self, small_model):
        g = complete_graph(15)  # 105 pairs
        m = MixedMNLModel(np.random.default_rng(1).uniform(1, 2, (2, 15)), [0.5, 0.5])
        with pytest.raises(ValidationError):
            exact_third_moment(m, g)
        t = exact_third_moment(m, g, max_pairs=105)
        assert t.shape == (105, 105, 105)

    def test_spectrum_matches_dense_eigensolve(self, small_model, small_graph):
        # The factored route must agree with a dense eigendecomposition.
        values, basis = second_moment_spectrum(small_model, small_graph)
        dense = np.linalg.eigvalsh(exact_second_moment(small_model, small_graph))[::-1]
        np.testing.assert_allclose(values, dense[:2], atol=1e-12)
        np.testing.assert_allclose(basis.T @ basis, np.eye(2), atol=1e-12)


def _cores(k, rng):
    square = rng.standard_normal((k, k))
    signs = np.where(np.arange(k) % 2 == 0, 1.0, -1.0)
    return {
        "psd": square @ square.T,
        "indefinite": square + square.T,
        "rank-deficient": np.diag(np.concatenate([rng.uniform(1, 2, k - 2), [0.0, 0.0]])),
        "indefinite-rank-deficient": np.diag(
            signs * np.concatenate([[0.0], rng.uniform(1, 2, k - 1)])
        ),
        "swap": np.kron([[0.0, 0.5], [0.5, 0.0]], np.eye(k // 2)),
    }


class TestSpectrumFromFactors:
    @pytest.mark.parametrize(
        "core_kind", ["psd", "indefinite", "rank-deficient", "indefinite-rank-deficient", "swap"]
    )
    @pytest.mark.parametrize("n, k", [(30, 4), (12, 6), (5, 8), (4, 4)])
    def test_matches_dense_eigh(self, core_kind, n, k):
        # k > n included: the factor then has more columns than rows.
        rng = np.random.default_rng(n * k)
        factor = rng.standard_normal((n, k))
        core = _cores(k, rng)[core_kind]
        dense = factor @ core @ factor.T
        values, vectors = spectrum_from_factors(factor, core)
        width = min(n, k)
        assert values.shape == (width,) and vectors.shape == (n, width)
        assert (np.diff(values) <= 0).all()
        scale = np.abs(np.linalg.eigvalsh(dense)).max()
        full = np.sort(np.concatenate([values, np.zeros(n - width)]))
        np.testing.assert_allclose(full, np.linalg.eigvalsh(dense), rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(width), rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            (vectors * values) @ vectors.T, dense, rtol=0, atol=1e-12 * scale
        )


class TestSplit:
    def test_even(self):
        assert split_ranges(10) == ((0, 5), (5, 10))

    def test_odd_gives_extra_to_first(self):
        assert split_ranges(7) == ((0, 4), (4, 7))

    def test_too_small(self):
        with pytest.raises(ValidationError):
            split_ranges(1)


class TestEmpiricalSecondMoment:
    def test_symmetric_zero_diagonal(self, small_model, small_graph):
        batch = small_model.sample_batch(small_graph, 3, 500, np.random.default_rng(0))
        est = empirical_second_moment(batch)
        assert np.array_equal(est.matrix, est.matrix.T)
        assert np.all(np.diag(est.matrix) == 0.0)
        assert est.sample_count == 500

    def test_requires_two_pairs_per_observation(self, small_model, small_graph):
        batch = small_model.sample_batch(small_graph, 1, 50, np.random.default_rng(0))
        with pytest.raises(ValidationError):
            empirical_second_moment(batch)

    def test_empty_range_rejected(self, small_model, small_graph):
        batch = small_model.sample_batch(small_graph, 3, 50, np.random.default_rng(0))
        with pytest.raises(ValidationError):
            empirical_second_moment(batch, 10, 10)

    def test_unbiased_against_exact(self, small_model, small_graph):
        # 200k observations of 3 of the 15 pairs: every off-diagonal
        # entry should sit within four standard errors of the exact
        # moment (standard errors from the per-entry co-occurrence rate).
        count = 200_000
        batch = small_model.sample_batch(small_graph, 3, count, np.random.default_rng(11))
        est = empirical_second_moment(batch)
        m2 = exact_second_moment(small_model, small_graph)
        n = small_graph.n_pairs
        scale = n * (n - 1) / (3 * 2)
        from mixmnl import kernels

        co = kernels.sign_outer_products(
            batch.pair_indices, np.abs(batch.signs), n
        )
        second_raw = scale**2 * co / count
        variance = np.maximum(second_raw - m2**2, 0.0)
        se = np.sqrt(variance / count)
        off = ~np.eye(n, dtype=bool)
        assert (np.abs(est.matrix - m2)[off] <= 4.0 * se[off] + 1e-12).all()

    def test_error_shrinks_with_sample_size(self, small_model, small_graph):
        # Monte Carlo error of the estimator decays like 1 / sqrt(count):
        # the log-log slope across three decades should be near -1/2.
        sizes = [2_000, 20_000, 200_000]
        errors = []
        for size in sizes:
            per_seed = []
            for seed in (0, 1, 2):
                batch = small_model.sample_batch(
                    small_graph, 3, size, np.random.default_rng([seed, size])
                )
                est = empirical_second_moment(batch)
                per_seed.append(
                    np.linalg.norm(est.matrix - exact_second_moment(small_model, small_graph))
                )
            errors.append(np.mean(per_seed))
        slope = np.polyfit(np.log(sizes), np.log(errors), 1)[0]
        assert -0.6 <= slope <= -0.4


    def test_peak_memory_at_a_wide_shape(self):
        # n = 150 at mean degree 12 draws 909 pairs, and 15,000 rows of 40
        # pairs touch nearly every pair of pairs.  The integer Gram plus the
        # float64 estimate make 1.25 N x N float64 arrays; a float64 Gram
        # with its near-dense CSR product peaked at 3.3.
        rng = np.random.default_rng(0)
        graph = erdos_renyi(150, 12.0, rng)
        n, ell, count = graph.n_pairs, 40, 15_000
        per = n // ell  # rows of distinct pairs cut from one permutation
        rows = [rng.permutation(n)[: per * ell].reshape(per, ell) for _ in range(count // per + 1)]
        idx = np.sort(np.concatenate(rows)[:count], axis=1)
        batch = ObservationBatch(graph, idx, rng.choice([-1, 1], size=idx.shape))
        tracemalloc.start()
        try:
            est = empirical_second_moment(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.matrix.dtype == np.float64 and est.matrix.flags.c_contiguous
        assert peak < 2.0 * est.matrix.nbytes


class TestProjectedThirdMoment:
    def test_matches_brute_force_per_observation(self, small_model, small_graph):
        rng = np.random.default_rng(5)
        batch = small_model.sample_batch(small_graph, 3, 100, rng)
        basis = rng.standard_normal((small_graph.n_pairs, 2))
        got = projected_third_moment(batch, basis)
        n = small_graph.n_pairs
        scale = n * (n - 1) * (n - 2) / (3 * 2 * 1)
        expected = np.zeros((2, 2, 2))
        for obs in batch:
            expected += brute_force_projected_third(obs, basis)
        expected *= scale / len(batch)
        # The kernel's y^3 - 3 sym(y c2) + 2 c3 expansion cancels, so its
        # rounding scales with the largest entry; a per-entry rtol would fail
        # on entries that cancel to near zero.
        np.testing.assert_allclose(
            got, expected, rtol=0, atol=1e-13 * np.abs(expected).max()
        )

    def test_requires_three_pairs(self, small_model, small_graph):
        batch = small_model.sample_batch(small_graph, 2, 50, np.random.default_rng(0))
        with pytest.raises(ValidationError):
            projected_third_moment(batch, np.ones((small_graph.n_pairs, 1)))

    def test_basis_shape_checked(self, small_model, small_graph):
        batch = small_model.sample_batch(small_graph, 3, 50, np.random.default_rng(0))
        with pytest.raises(ValidationError):
            projected_third_moment(batch, np.ones((3, 1)))


class TestIncoherence:
    def test_single_spike_is_maximally_coherent(self):
        n = 16
        basis = np.zeros((n, 1))
        basis[0, 0] = 1.0
        assert incoherence_from_basis(basis) == pytest.approx(np.sqrt(n))

    def test_flat_matrix_is_incoherent(self):
        n = 16
        basis = np.full((n, 1), 1.0 / np.sqrt(n))
        assert incoherence_from_basis(basis) == pytest.approx(1.0)

    def test_from_basis_matches(self, small_model, small_graph):
        # The factored spectrum's basis against a dense eigensolve of the
        # exact second moment, top two eigenvectors by magnitude.
        m2 = exact_second_moment(small_model, small_graph)
        values, vectors = np.linalg.eigh(m2)
        dense = vectors[:, np.argsort(-np.abs(values))[:2]]
        _, basis = second_moment_spectrum(small_model, small_graph)
        np.testing.assert_allclose(
            incoherence_from_basis(dense), incoherence_from_basis(basis), atol=1e-9
        )
