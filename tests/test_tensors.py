import itertools
import tracemalloc

import numpy as np
import pytest

from mixmnl import (
    DegenerateTensorError,
    ValidationError,
    exact_second_moment,
    exact_third_moment,
    symmetrize_and_eig,
    tensor_power_decomposition,
    whitened_third_moment_ls_exact,
)
from mixmnl import tensors
from mixmnl.tensors import (
    default_restarts,
    whitened_ls_operator,
    whitened_third_moment_ls,
    whitened_third_moment_ls_factored,
)

from conftest import complete_graph
from mixmnl import MixedMNLModel, WhiteningBasis


def symmetrize(tensor):
    """Average over all 6 mode permutations."""
    return sum(tensor.transpose(perm) for perm in itertools.permutations(range(3))) / 6.0


def project_pair_diagonals(tensor):
    """Zero every entry with a repeated index (copy)."""
    t = np.array(tensor, dtype=np.float64)
    idx = np.arange(t.shape[0])
    t[idx, idx, :] = 0.0
    t[:, idx, idx] = 0.0
    t[idx, :, idx] = 0.0
    return t


def brute_force_operator(basis):
    """Entrywise build of the map H -> off-pair-diagonal lift of H.

    For each whitened cell, color H back to pair space, zero every entry
    of the cube with a repeated pair index, and project down again.
    """
    b = basis.coloring_map
    w = basis.whitening_map
    n, r = b.shape
    op = np.zeros((r, r, r, r, r, r))
    for a in range(r):
        for c in range(r):
            for e in range(r):
                h = np.zeros((r, r, r))
                h[a, c, e] = 1.0
                cube = np.einsum("abc,ia,jb,kc->ijk", h, b, b, b)
                cube = project_pair_diagonals(cube)
                op[:, :, :, a, c, e] = np.einsum("ijk,ia,jb,kc->abc", cube, w, w, w)
    return op.reshape(r**3, r**3)


def reference_operator(basis):
    """The whitened masking map on all of R^(r^3), as an (r^3, r^3) matrix.

    Identity, minus the three pair-diagonal planes (C = B2^T W2 on two
    modes, the identity on the third), plus twice the triple diagonal
    W3^T B3, with B_k and W_k the row-wise k-fold products of the coloring
    and whitening maps.
    """
    b = basis.coloring_map
    w = basis.whitening_map
    r = basis.rank
    c4 = (tensors._row_products(b, 2).T @ tensors._row_products(w, 2)).reshape(r, r, r, r)
    eye = np.eye(r)
    six = (
        np.einsum("abAB,cC->ABCabc", c4, eye)
        + np.einsum("bcBC,aA->ABCabc", c4, eye)
        + np.einsum("acAC,bB->ABCabc", c4, eye)
    )
    r3 = r**3
    return (
        np.eye(r3)
        - six.reshape(r3, r3)
        + 2.0 * (tensors._row_products(w, 3).T @ tensors._row_products(b, 3))
    )


def projected(operator, rank):
    """S^T operator S on the symmetric basis S."""
    s = tensors._symmetric_basis(rank)
    return s.T @ operator @ s


def whitening_from_model(model, graph):
    m2 = exact_second_moment(model, graph)
    return symmetrize_and_eig(m2, model.n_components)


def loop_power_decomposition(tensor, rank, n_iterations=50, rng=None):
    """One restart at a time, one power step at a time: the reference.

    Returns values and vectors in deflation-round order.
    """
    t = np.array(tensor, dtype=np.float64)
    r = t.shape[0]
    values = np.empty(rank)
    vectors = np.empty((r, rank))
    for round_ in range(rank):
        best_weight = -np.inf
        best_vector = None
        for _ in range(default_restarts(rank)):
            u = rng.standard_normal(r)
            norm = np.linalg.norm(u)
            if norm == 0.0:
                continue
            u /= norm
            for _ in range(n_iterations):
                v = np.einsum("abc,b,c->a", t, u, u)
                norm = np.linalg.norm(v)
                if norm == 0.0:
                    break
                v /= norm
                moved = np.linalg.norm(v - u)
                u = v
                if moved < 1e-12:
                    break
            weight = float(np.einsum("abc,a,b,c->", t, u, u, u))
            if weight < 0.0:
                weight = -weight
                u = -u
            if weight > best_weight:
                best_weight = weight
                best_vector = u
        values[round_] = best_weight
        vectors[:, round_] = best_vector
        t -= best_weight * np.einsum("a,b,c->abc", best_vector, best_vector, best_vector)
    return values, vectors


class ScriptedRng:
    """Serves ``standard_normal`` draws from a fixed buffer, in order."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=np.float64).ravel()
        self.used = 0

    def standard_normal(self, size):
        count = int(np.prod(size))
        out = self.draws[self.used : self.used + count].reshape(size)
        self.used += count
        return out.copy()


def reference_rhs(third_moment, basis):
    w = basis.whitening_map
    projected = project_pair_diagonals(third_moment)
    return np.einsum("ijk,ia,jb,kc->abc", projected, w, w, w, optimize=True)


class TestOperator:
    @pytest.mark.parametrize("rank", [1, 2, 3, 5])
    def test_gemm_operator_matches_entrywise(self, rank):
        graph = complete_graph(5)  # 10 pairs keep the entrywise build quick at r = 5
        rng = np.random.default_rng(20 + rank)
        model = MixedMNLModel(rng.uniform(1, 2, (rank, 5)), rng.dirichlet(np.ones(rank)))
        basis = whitening_from_model(model, graph)
        want = brute_force_operator(basis)
        got = reference_operator(basis)
        assert got.shape == (rank**3, rank**3)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        block = whitened_ls_operator(basis)
        m = rank * (rank + 1) * (rank + 2) // 6
        assert block.shape == (m, m)
        want = projected(want, rank)
        assert np.abs(block - want).max() <= 1e-12 * np.abs(want).max()

    def test_matches_entrywise_construction(self):
        graph = complete_graph(5)
        model = MixedMNLModel(
            np.random.default_rng(0).uniform(1, 2, (2, 5)), [0.3, 0.7]
        )
        basis = whitening_from_model(model, graph)
        got = reference_operator(basis)
        want = brute_force_operator(basis)
        np.testing.assert_allclose(got, want, atol=1e-10)
        np.testing.assert_allclose(whitened_ls_operator(basis), projected(want, 2), atol=1e-10)

    def test_rank_three(self):
        graph = complete_graph(6)
        model = MixedMNLModel(
            np.random.default_rng(1).uniform(1, 2, (3, 6)), [0.2, 0.3, 0.5]
        )
        basis = whitening_from_model(model, graph)
        want = brute_force_operator(basis)
        np.testing.assert_allclose(reference_operator(basis), want, atol=1e-10)
        np.testing.assert_allclose(whitened_ls_operator(basis), projected(want, 3), atol=1e-10)


class TestExactSolve:
    def test_recovers_full_whitened_third_moment(self):
        # Feeding the population third moment through the least squares
        # fit must return the full whitened contraction: the fit only
        # discards what the repeated-index projection removed.
        graph = complete_graph(6)
        model = MixedMNLModel(
            np.random.default_rng(2).uniform(1, 2, (3, 6)), [0.25, 0.35, 0.4]
        )
        basis = whitening_from_model(model, graph)
        m3 = exact_third_moment(model, graph)
        result = whitened_third_moment_ls_exact(m3, basis)
        w = basis.whitening_map
        want = np.einsum("ijk,ia,jb,kc->abc", m3, w, w, w)
        np.testing.assert_allclose(result.tensor, want, atol=1e-8)
        assert not result.used_pinv
        assert np.isfinite(result.condition_number)

    def test_single_component_scalar(self):
        graph = complete_graph(5)
        model = MixedMNLModel(
            np.random.default_rng(3).uniform(1, 2, (1, 5)), [1.0]
        )
        basis = whitening_from_model(model, graph)
        m3 = exact_third_moment(model, graph)
        result = whitened_third_moment_ls_exact(m3, basis)
        # with q = 1 the whitened tensor collapses to the scalar 1/sqrt(q) = 1
        assert result.tensor.shape == (1, 1, 1)
        assert abs(abs(result.tensor[0, 0, 0]) - 1.0) <= 1e-8

    def test_shape_mismatch_rejected(self):
        graph = complete_graph(5)
        model = MixedMNLModel(
            np.random.default_rng(4).uniform(1, 2, (2, 5)), [0.5, 0.5]
        )
        basis = whitening_from_model(model, graph)
        with pytest.raises(ValidationError):
            whitened_third_moment_ls_exact(np.zeros((3, 3, 3)), basis)


def random_basis(n_pairs, rank, rng):
    vectors, _ = np.linalg.qr(rng.standard_normal((n_pairs, rank)))
    return WhiteningBasis(vectors, np.sort(rng.uniform(0.5, 2.0, rank))[::-1])


class TestSymmetricSolve:
    """The symmetric block and its solve against the full (r^3, r^3) map."""

    RANKS = [1, 2, 3, 4, 5, 8]

    @staticmethod
    def bases(rank):
        """A random orthonormal basis and the exact-moment basis of a model.

        105 pairs keep both maps well conditioned (cond < 3) up to r = 8.
        """
        rng = np.random.default_rng(60 + rank)
        graph = complete_graph(15)
        weights = rng.uniform(1, 4, (rank, graph.n_items))
        model = MixedMNLModel(weights, rng.dirichlet(np.ones(rank)))
        return [random_basis(graph.n_pairs, rank, rng), whitening_from_model(model, graph)]

    @pytest.mark.parametrize("rank", [1, 2, 3, 5, 8])
    def test_block_is_projected_reference(self, rank):
        for basis in self.bases(rank):
            want = projected(reference_operator(basis), rank)
            got = whitened_ls_operator(basis)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("rank", RANKS)
    def test_matches_full_space_solve(self, rank):
        rng = np.random.default_rng(rank)
        for basis in self.bases(rank):
            operator = reference_operator(basis)
            rhs = rng.standard_normal((rank, rank, rank))  # not symmetric
            got = tensors._solve_whitened(whitened_ls_operator(basis), rhs)
            flat = np.linalg.solve(operator, rhs.reshape(-1))
            want = symmetrize(flat.reshape(rank, rank, rank))
            assert not got.used_pinv
            assert np.abs(got.tensor - want).max() <= 1e-12 * np.abs(want).max()
            assert got.condition_number <= np.linalg.cond(operator) * (1.0 + 1e-12)

    @pytest.mark.parametrize("rank", RANKS)
    def test_operator_commutes_with_mode_permutations(self, rank):
        index = np.arange(rank**3).reshape(rank, rank, rank)
        for basis in self.bases(rank):
            operator = reference_operator(basis)
            for perm in itertools.permutations(range(3)):
                p = index.transpose(perm).ravel()
                moved = operator[np.ix_(p, p)]
                assert np.abs(moved - operator).max() <= 1e-13 * np.abs(operator).max()

    @pytest.mark.parametrize("rank", [1, 2, 3, 8])
    def test_symmetric_basis_is_orthonormal(self, rank):
        s = tensors._symmetric_basis(rank)
        m = rank * (rank + 1) * (rank + 2) // 6
        assert s.shape == (rank**3, m)
        assert tensors._symmetric_basis(rank) is s
        assert not s.flags.writeable
        np.testing.assert_allclose(s.T @ s, np.eye(m), atol=1e-14)
        cubes = s.T.reshape(m, rank, rank, rank)
        for perm in itertools.permutations(range(3)):
            np.testing.assert_array_equal(cubes.transpose(0, *(1 + np.array(perm))), cubes)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_pinv_fallback_when_each_component_sits_on_one_pair(self, rank):
        # With outcome vectors e_1, ..., e_r every component's third-moment
        # mass is on the triple diagonal, and the map on symmetric tensors is
        # Z - 3 Z + 2 Z = 0.
        p = np.eye(4)[:, :rank]
        basis = WhiteningBasis(p.copy(), np.ones(rank))
        with pytest.warns(RuntimeWarning, match="ill-conditioned"):
            result = whitened_third_moment_ls_factored(p, np.full(rank, 1.0 / rank), basis)
        assert result.used_pinv
        cond = result.condition_number
        assert not np.isfinite(cond) or cond > 1e12
        assert np.isfinite(result.tensor).all()


class TestCopyFreeRightHandSide:
    @staticmethod
    def captured_rhs(monkeypatch, cube, basis):
        seen = []
        monkeypatch.setattr(tensors, "_solve_whitened", lambda op, rhs: seen.append(rhs))
        whitened_third_moment_ls_exact(cube, basis)
        return seen[0]

    @pytest.mark.parametrize("layout", ["c-order", "transposed"])
    def test_matches_projected_contraction(self, monkeypatch, layout):
        graph = complete_graph(7)
        model = MixedMNLModel(
            np.random.default_rng(30).uniform(1, 2, (3, 7)), [0.2, 0.3, 0.5]
        )
        basis = whitening_from_model(model, graph)
        n = graph.n_pairs
        for seed in range(3):
            cube = np.random.default_rng(seed).standard_normal((n, n, n))
            if layout == "transposed":
                cube = cube.transpose(2, 0, 1)
            before = cube.copy()
            got = self.captured_rhs(monkeypatch, cube, basis)
            want = reference_rhs(cube, basis)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            np.testing.assert_array_equal(cube, before)

    @pytest.mark.parametrize("layout", ["c-order", "transposed"])
    def test_makes_no_cube_sized_copy(self, layout):
        graph = complete_graph(16)  # 120 pairs
        model = MixedMNLModel(
            np.random.default_rng(31).uniform(1, 2, (3, 16)), [0.2, 0.3, 0.5]
        )
        basis = whitening_from_model(model, graph)
        n = graph.n_pairs
        cube = np.random.default_rng(32).standard_normal((n, n, n))
        if layout == "transposed":
            cube = cube.transpose(2, 0, 1)  # the layout exact_third_moment returns
        tracemalloc.start()
        try:
            whitened_third_moment_ls_exact(cube, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cube.nbytes / 4


class TestFactoredRightHandSide:
    @pytest.mark.parametrize(
        "n_items, rank", [(8, 1), (10, 2), (12, 3), (16, 4), (24, 8)]
    )  # 28 to 276 pairs
    def test_matches_dense_inclusion_exclusion(self, monkeypatch, n_items, rank):
        graph = complete_graph(n_items)
        rng = np.random.default_rng(40 + rank)
        model = MixedMNLModel(rng.uniform(1, 8, (rank, n_items)), rng.dirichlet(np.ones(rank)))
        basis = whitening_from_model(model, graph)
        seen = []
        monkeypatch.setattr(tensors, "_solve_whitened", lambda op, rhs: seen.append(rhs))
        whitened_third_moment_ls_exact(
            exact_third_moment(model, graph, max_pairs=graph.n_pairs), basis
        )
        whitened_third_moment_ls_factored(model.expected_outcomes(graph), model.mixture, basis)
        want, got = seen
        assert got.shape == (rank, rank, rank)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_more_model_components_than_basis_rank(self, monkeypatch):
        # The right-hand side projects the whole moment, whatever rank the
        # basis keeps.
        graph = complete_graph(9)
        rng = np.random.default_rng(45)
        model = MixedMNLModel(rng.uniform(1, 8, (4, 9)), rng.dirichlet(np.ones(4)))
        basis = symmetrize_and_eig(exact_second_moment(model, graph), 2)
        seen = []
        monkeypatch.setattr(tensors, "_solve_whitened", lambda op, rhs: seen.append(rhs))
        whitened_third_moment_ls_exact(exact_third_moment(model, graph), basis)
        whitened_third_moment_ls_factored(model.expected_outcomes(graph), model.mixture, basis)
        want, got = seen
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_shape_mismatch_rejected(self):
        graph = complete_graph(5)
        model = MixedMNLModel(np.random.default_rng(46).uniform(1, 2, (2, 5)), [0.5, 0.5])
        basis = whitening_from_model(model, graph)
        p = model.expected_outcomes(graph)
        with pytest.raises(ValidationError):
            whitened_third_moment_ls_factored(p[:-1], model.mixture, basis)
        with pytest.raises(ValidationError):
            whitened_third_moment_ls_factored(p, [1.0], basis)


class TestEmpiricalSolve:
    def test_sample_order_invariant(self):
        graph = complete_graph(6)
        model = MixedMNLModel(
            np.random.default_rng(5).uniform(1, 2, (2, 6)), [0.4, 0.6]
        )
        rng = np.random.default_rng(6)
        batch = model.sample_batch(graph, 3, 400, rng)
        basis = whitening_from_model(model, graph)
        full = whitened_third_moment_ls(batch, basis)
        perm = np.random.default_rng(7).permutation(len(batch))
        from mixmnl import ObservationBatch

        shuffled = ObservationBatch(
            batch.graph, batch.pair_indices[perm], batch.signs[perm]
        )
        again = whitened_third_moment_ls(shuffled, basis)
        np.testing.assert_allclose(full.tensor, again.tensor, atol=1e-8)

    def test_converges_to_exact(self):
        # More samples should pull the fitted tensor toward the
        # population answer.
        graph = complete_graph(6)
        model = MixedMNLModel(
            np.random.default_rng(8).uniform(1, 2, (2, 6)), [0.4, 0.6]
        )
        basis = whitening_from_model(model, graph)
        m3 = exact_third_moment(model, graph)
        want = whitened_third_moment_ls_exact(m3, basis).tensor
        errors = []
        for count in (2_000, 200_000):
            batch = model.sample_batch(graph, 3, count, np.random.default_rng(9))
            got = whitened_third_moment_ls(batch, basis).tensor
            errors.append(np.linalg.norm(got - want))
        assert errors[1] < errors[0] / 3


class TestHelpers:
    def test_symmetrize_fixes_asymmetric_cube(self):
        rng = np.random.default_rng(10)
        t = rng.standard_normal((3, 3, 3))
        s = symmetrize(t)
        for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)]:
            np.testing.assert_allclose(s, s.transpose(perm), atol=1e-14)

    def test_project_pair_diagonals_zeroes_planes(self):
        t = np.ones((4, 4, 4))
        p = project_pair_diagonals(t)
        assert p[0, 0, 1] == 0.0
        assert p[0, 1, 0] == 0.0
        assert p[1, 0, 0] == 0.0
        assert p[0, 0, 0] == 0.0
        assert p[0, 1, 2] == 1.0
        # input untouched
        assert t[0, 0, 0] == 1.0

    def test_default_restarts_grows(self):
        assert default_restarts(1) >= 1
        assert default_restarts(5) > default_restarts(2)


class TestPowerDecomposition:
    @pytest.mark.parametrize("rank", [1, 2, 3, 5])
    def test_recovers_orthogonal_tensor(self, rank):
        rng = np.random.default_rng(rank)
        q, _ = np.linalg.qr(rng.standard_normal((rank, rank)))
        values = np.sort(rng.uniform(0.5, 2.0, rank))[::-1]
        t = np.einsum("a,ia,ja,ka->ijk", values, q, q, q)
        result = tensor_power_decomposition(t, rank, rng=np.random.default_rng(100))
        np.testing.assert_allclose(result.values, values, atol=1e-6)
        for est, true in zip(result.vectors.T, q.T):
            aligned = est if est @ true > 0 else -est
            np.testing.assert_allclose(aligned, true, atol=1e-6)

    def test_negative_weight_flips_vector(self):
        # A strictly negative coefficient comes back positive with the
        # eigenvector negated, since v and -v carry the sign.
        v = np.array([1.0, 0.0])
        u = np.array([0.0, 1.0])
        t = -2.0 * np.einsum("i,j,k->ijk", v, v, v) + 1.0 * np.einsum(
            "i,j,k->ijk", u, u, u
        )
        result = tensor_power_decomposition(t, 2, rng=np.random.default_rng(0))
        np.testing.assert_allclose(np.sort(result.values), [1.0, 2.0], atol=1e-8)
        idx = int(np.argmax(result.values))
        np.testing.assert_allclose(np.abs(result.vectors[:, idx]), v, atol=1e-8)
        assert result.vectors[:, idx] @ v < 0

    def test_values_sorted_descending(self):
        rng = np.random.default_rng(12)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        values = np.array([3.0, 1.0, 2.0, 0.7])
        t = np.einsum("a,ia,ja,ka->ijk", values, q, q, q)
        result = tensor_power_decomposition(t, 4, rng=np.random.default_rng(13))
        assert (np.diff(result.values) <= 0).all()

    def test_zero_tensor_degenerate(self):
        with pytest.raises(DegenerateTensorError):
            tensor_power_decomposition(np.zeros((3, 3, 3)), 2)

    def test_deterministic_given_rng_seed(self):
        rng = np.random.default_rng(14)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        t = np.einsum("a,ia,ja,ka->ijk", np.array([2.0, 1.5, 1.0]), q, q, q)
        a = tensor_power_decomposition(t, 3, rng=np.random.default_rng(5))
        b = tensor_power_decomposition(t, 3, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.vectors, b.vectors)


class TestBatchedPowerMethod:
    @pytest.mark.parametrize("rank", [2, 4, 8, 10])
    def test_matches_loop_reference(self, rank):
        rng = np.random.default_rng(40 + rank)
        q, _ = np.linalg.qr(rng.standard_normal((rank, rank)))
        values = rng.uniform(0.5, 2.0, rank)
        noise = symmetrize(rng.standard_normal((rank, rank, rank)))
        t = np.einsum("a,ia,ja,ka->ijk", values, q, q, q) + 1e-3 * noise
        want_values, want_vectors = loop_power_decomposition(
            t, rank, rng=np.random.default_rng(7)
        )
        got = tensor_power_decomposition(t, rank, rng=np.random.default_rng(7))
        # the per-round winners are distinct, so the sort pairs them up
        order = np.argsort(-want_values)
        scale = want_values.max()
        assert np.abs(got.values - want_values[order]).max() <= 1e-12 * scale
        np.testing.assert_allclose(got.vectors, want_vectors[:, order], atol=1e-10)

    def test_negative_weight_candidate_is_flipped(self):
        # One step takes every start e0 to e1, where T(e1, e1, e1) = -3, so
        # the winner is -e1 with weight 3.
        t = np.zeros((2, 2, 2))
        t[1, 0, 0] = t[0, 1, 0] = t[0, 0, 1] = 1.0
        t[1, 1, 1] = -3.0
        draws = np.tile([1.0, 0.0], (default_restarts(1), 1))
        want_values, want_vectors = loop_power_decomposition(
            t, 1, n_iterations=1, rng=ScriptedRng(draws)
        )
        got = tensor_power_decomposition(t, 1, n_iterations=1, rng=ScriptedRng(draws))
        np.testing.assert_allclose(want_values, [3.0])
        np.testing.assert_allclose(want_vectors[:, 0], [0.0, -1.0])
        np.testing.assert_allclose(got.values, want_values, rtol=1e-12)
        np.testing.assert_allclose(got.vectors, want_vectors, atol=1e-12)

    def test_zero_starts_and_zero_images(self):
        # Zero draws are skipped as starts; a start whose image is zero
        # keeps its iterate and weight 0.  Both must match the loop.
        t = 2.0 * np.einsum("i,j,k->ijk", *[np.array([1.0, 0.0])] * 3)
        restarts = default_restarts(1)
        draws = np.random.default_rng(0).standard_normal((restarts, 2))
        draws[: restarts // 2] = 0.0
        draws[restarts // 2] = [0.0, 1.0]  # T(I, e1, e1) = 0
        draws[restarts // 2 + 1] = [-1.0, 0.0]  # converges to -e0, weight -2
        want_values, want_vectors = loop_power_decomposition(t, 1, rng=ScriptedRng(draws))
        got = tensor_power_decomposition(t, 1, rng=ScriptedRng(draws))
        np.testing.assert_allclose(got.values, want_values, rtol=1e-12)
        np.testing.assert_allclose(got.vectors, want_vectors, atol=1e-12)
        np.testing.assert_allclose(got.vectors[:, 0], [1.0, 0.0], atol=1e-12)

    def test_all_zero_starts_degenerate(self):
        t = np.einsum("i,j,k->ijk", *[np.array([1.0, 0.0])] * 3)
        draws = np.zeros((default_restarts(1), 2))
        with pytest.raises(DegenerateTensorError, match="best -inf"):
            tensor_power_decomposition(t, 1, rng=ScriptedRng(draws))

    def test_draws_one_block_per_round(self):
        t = np.einsum("a,ia,ja,ka->ijk", np.array([2.0, 1.0, 0.5]), *[np.eye(3)] * 3)
        rng = ScriptedRng(np.random.default_rng(1).standard_normal(3 * default_restarts(3) * 3))
        tensor_power_decomposition(t, 3, rng=rng)
        assert rng.used == 3 * default_restarts(3) * 3


def gathered_power_decomposition(tensor, rank, n_iterations=50, rng=None):
    """The batched power method with a gather and a scatter on every step,
    its operand from ``_row_products`` and its norms from
    ``np.linalg.norm``: the bit reference for the loop that steps in place.
    """
    t = np.array(tensor, dtype=np.float64)
    r = t.shape[0]
    restarts = default_restarts(rank)
    values = np.empty(rank)
    vectors = np.empty((r, rank))
    for round_ in range(rank):
        u = rng.standard_normal((restarts, r)).T
        norms = np.linalg.norm(u, axis=0)
        started = norms != 0.0
        u[:, started] /= norms[started]
        active = np.flatnonzero(started)
        for _ in range(n_iterations):
            if active.size == 0:
                break
            ua = u[:, active]
            v = t.reshape(r, r * r) @ tensors._row_products(ua.T, 2).T
            norms = np.linalg.norm(v, axis=0)
            moving = norms != 0.0
            v = v[:, moving] / norms[moving]
            moved = np.linalg.norm(v - ua[:, moving], axis=0)
            active = active[moving]
            u[:, active] = v
            active = active[~(moved < 1e-12)]
        image = t.reshape(r, r * r) @ tensors._row_products(u.T, 2).T
        weights = np.einsum("aR,aR->R", u, image)
        u[:, weights < 0.0] *= -1.0
        weights = np.abs(weights)
        weights[~started | np.isnan(weights)] = -np.inf
        best = int(np.argmax(weights))
        values[round_] = weights[best]
        vectors[:, round_] = u[:, best]
        t -= values[round_] * np.einsum("a,b,c->abc", u[:, best], u[:, best], u[:, best])
    order = np.argsort(-values)
    return values[order], vectors[:, order]


def noisy_orthogonal(rank, seed, noise=1e-3):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((rank, rank)))
    values = rng.uniform(0.5, 2.0, rank)
    return np.einsum("a,ia,ja,ka->ijk", values, q, q, q) + noise * symmetrize(
        rng.standard_normal((rank, rank, rank))
    )


class TestInPlacePowerLoop:
    # The loop steps every column in place while all of them run, and
    # gathers only once some stop; its bits are those of the loop that
    # always gathers.
    @staticmethod
    def column_counts(monkeypatch):
        """Columns of each power step's ``_apply_columns`` call, per round."""
        counts = []
        real = tensors._apply_columns

        def spy(tensor, columns):
            counts.append(columns.shape[1])
            return real(tensor, columns)

        monkeypatch.setattr(tensors, "_apply_columns", spy)
        return counts

    @staticmethod
    def assert_same_bits(t, rank, draws, n_iterations=50):
        got = tensor_power_decomposition(t, rank, n_iterations, rng=ScriptedRng(draws))
        values, vectors = gathered_power_decomposition(
            t, rank, n_iterations, rng=ScriptedRng(draws)
        )
        assert np.array_equal(got.values, values)
        assert np.array_equal(got.vectors, vectors)

    @pytest.mark.parametrize("rank", [2, 4, 8, 10])
    def test_columns_freeze_at_different_steps(self, monkeypatch, rank):
        t = noisy_orthogonal(rank, 60 + rank)
        restarts = default_restarts(rank)
        draws = np.random.default_rng(rank).standard_normal(rank * restarts * rank)
        counts = self.column_counts(monkeypatch)
        self.assert_same_bits(t, rank, draws)
        # Some rounds step every column in place, then gather the rest.
        assert counts[0] == restarts
        assert 0 < min(counts) < restarts

    @pytest.mark.parametrize("rank", [2, 4, 8, 10])
    @pytest.mark.parametrize("unstarted", [False, True])
    def test_some_images_are_zero(self, rank, unstarted):
        # T(I, u, u) = 0 for u orthogonal to e0 when T = 2 e0^3: those
        # starts freeze at the first step, with every column running or
        # with some zero draws never started.
        t = np.zeros((rank,) * 3)
        t[0, 0, 0] = 2.0
        restarts = default_restarts(1)
        draws = np.random.default_rng(rank).standard_normal((restarts, rank))
        draws[::3, 0] = 0.0
        if unstarted:
            draws[1::7] = 0.0
        self.assert_same_bits(t, 1, draws)
        draws[:, 0] = 0.0  # every image is zero
        with pytest.raises(DegenerateTensorError):
            tensor_power_decomposition(t, 1, rng=ScriptedRng(draws))

    @pytest.mark.parametrize("rank", [2, 4, 8, 10])
    def test_every_column_converges_before_the_last_step(self, monkeypatch, rank):
        rng = np.random.default_rng(70 + rank)
        q, _ = np.linalg.qr(rng.standard_normal((rank, rank)))
        t = np.einsum("a,ia,ja,ka->ijk", np.linspace(2.0, 1.0, rank), q, q, q)
        restarts = default_restarts(rank)
        draws = rng.standard_normal(rank * restarts * rank)
        counts = self.column_counts(monkeypatch)
        self.assert_same_bits(t, rank, draws, n_iterations=200)
        # Each round ends with the weights' call on every column; no round
        # ran its 200 steps.
        ends = [i for i, count in enumerate(counts) if count == restarts]
        rounds = [i for i in ends if i + 1 == len(counts) or counts[i + 1] == restarts]
        assert len(rounds) >= rank
        assert len(counts) < rank * 200

    @pytest.mark.parametrize("rank", [1, 2, 8, 10])
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_operand_is_the_row_products(self, rank, layout):
        # Exactly the products u_b u_c of the Khatri-Rao operand; checked on
        # the operand itself, which a stand-in tensor takes in place of the
        # GEMM.
        columns = np.random.default_rng(rank).standard_normal((rank, 37))
        columns = np.asarray(columns, order=layout)
        seen = []

        class Capture:  # stands in for the tensor and takes the operand
            shape = (rank,) * 3

            def reshape(self, *shape):
                return self

            def __matmul__(self, operand):
                seen.append(operand)

        tensors._apply_columns(Capture(), columns)
        [operand] = seen
        assert np.array_equal(operand, tensors._row_products(columns.T, 2).T)
        # The layout of _row_products for the loop's Fortran-order columns.
        assert operand.flags.f_contiguous
