import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse._compressed
from scipy import sparse

from mixmnl import ComparisonGraph, LearnConfig, ObservationBatch, ValidationError, erdos_renyi
from mixmnl import errors, kernels, learn_mixed_mnl, random_uniform_model
from mixmnl import model as model_module


def _random_inputs(rng, count=300, n_pairs=12, ell=4, r=3):
    idx = np.sort(
        np.argsort(rng.random((count, n_pairs)), axis=1)[:, :ell], axis=1
    ).astype(np.int64)
    sgn = rng.choice([-1, 1], size=(count, ell)).astype(np.int8)
    basis = rng.standard_normal((n_pairs, r))
    return idx, sgn, basis


def _dense(idx, sgn, n_pairs):
    count = idx.shape[0]
    x = np.zeros((count, n_pairs))
    rows = np.repeat(np.arange(count), idx.shape[1])
    x[rows, idx.ravel()] = sgn.ravel()
    return x


class TestSignOuterProducts:
    def test_matches_dense_matmul(self):
        # Entries are integer-valued sums, so the sparse product must equal
        # the dense one exactly, for signs and for touch counts alike.
        rng = np.random.default_rng(0)
        for count, n_pairs, ell in ((300, 12, 4), (2000, 60, 10)):
            idx, sgn, _ = _random_inputs(rng, count=count, n_pairs=n_pairs, ell=ell)
            for values in (sgn, np.abs(sgn)):
                x = _dense(idx, values, n_pairs)
                got = kernels.sign_outer_products(idx, values, n_pairs)
                assert np.array_equal(got, x.T @ x)

    @pytest.mark.parametrize("touches, dtype", [(32767, np.int16), (32768, np.int32)])
    def test_accumulation_type_boundary(self, touches, dtype):
        # Pair 0 is in every row, so the largest touch count is the row
        # count; the Gram's (0, 0) entry reaches it and must not wrap.
        rng = np.random.default_rng(touches)
        n_pairs = 8
        others = rng.integers(1, n_pairs, touches)
        idx = np.column_stack([np.zeros(touches, dtype=np.int64), others])
        sgn = rng.choice([-1, 1], size=idx.shape).astype(np.int8)
        for values in (sgn, np.abs(sgn)):
            x = _dense(idx, values, n_pairs)
            got = kernels.sign_outer_products(idx, values, n_pairs)
            assert got.dtype == dtype
            assert np.array_equal(got, x.T @ x)

    def test_index_width_changes_no_bit(self):
        rng = np.random.default_rng(3)
        idx, sgn, basis = _random_inputs(rng, count=500, n_pairs=20, ell=5)
        narrow = idx.astype(np.int32)
        assert np.array_equal(
            kernels.sign_outer_products(narrow, sgn, 20),
            kernels.sign_outer_products(idx, sgn, 20),
        )
        assert np.array_equal(
            kernels._third_moment_sums(narrow, sgn, basis),
            kernels._third_moment_sums(idx, sgn, basis),
        )

    def test_int32_indices_are_used_without_a_copy(self, monkeypatch):
        idx = np.array([[0, 2], [0, 1]], dtype=np.int32)
        calls = _third_moment_calls(monkeypatch)
        kernels._third_moment_sums(idx, np.array([[1, -1], [-1, -1]]), np.ones((3, 2)))
        assert [name for name, _, _ in calls] == ["csr_matvecs", "csc_matvec", "csc_matvecs"]
        for _, indptr, indices in calls:
            assert indptr.dtype == np.int32
            assert np.shares_memory(indices, idx)

    def test_diagonal_counts_touches(self):
        idx = np.array([[0, 2], [0, 1]], dtype=np.int64)
        sgn = np.array([[1, -1], [-1, -1]], dtype=np.int8)
        out = kernels.sign_outer_products(idx, sgn, 3)
        assert out[0, 0] == 2.0 and out[1, 1] == 1.0 and out[2, 2] == 1.0
        assert out[0, 2] == -1.0 and out[0, 1] == 1.0


def _public_gram(idx, values, n_pairs):
    """X^T X from scipy's public sparse product, the reference."""
    x = sparse.csr_matrix(_dense(idx, values, n_pairs).astype(np.int64))
    return (x.T @ x).toarray()


def _public_sign_matrix(idx, sgn, n_pairs):
    """X as a scipy CSR matrix of float64 signs, the reference."""
    count, ell = idx.shape
    indptr = np.arange(0, count * ell + 1, ell)
    return sparse.csr_matrix(
        (sgn.astype(np.float64).ravel(), idx.ravel(), indptr), shape=(count, n_pairs)
    )


def _third_moment_calls(monkeypatch):
    """Records (kernel name, indptr, indices) of each product the third
    moment's core hands to scipy's sparse kernels."""
    calls = []
    for name, arrays in (("csr_matvecs", 3), ("csc_matvec", 2), ("csc_matvecs", 3)):
        real = getattr(kernels._sparsetools, name)

        def spy(*args, real=real, name=name, arrays=arrays):
            calls.append((name, args[arrays], args[arrays + 1]))
            return real(*args)

        monkeypatch.setattr(kernels._sparsetools, name, spy)
    return calls


@pytest.fixture
def matmat_calls(monkeypatch):
    """Records the arguments of each ``csr_matmat`` call the kernels make."""
    calls = []
    real = kernels._sparsetools.csr_matmat

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernels._sparsetools, "csr_matmat", spy)
    return calls


def _one_call_of_one_width(calls, index, values):
    """The single recorded call's output length, after checking its array types.

    Its arguments are n, n, then X^T's, X's and the output's (indptr,
    indices, data), all six index arrays ``index`` and all three data
    arrays ``values``.
    """
    [(_, _, *arrays)] = calls
    assert [a.dtype for a in arrays] == [np.dtype(index), np.dtype(index), np.dtype(values)] * 3
    return arrays[-1].size


class TestOneNumericPass:
    @pytest.mark.parametrize(
        "count, n_pairs, ell, seed, bound",
        [
            (5, 60, 4, 0, None),  # few rows: the bound is far below N^2
            (1, 30, 6, 1, 36),  # one row: the bound, ell^2, is reached
            (300, 12, 4, 2, 144),  # every row of X^T X is full: N^2
            (50, 1, 1, 3, 1),  # a single pair
        ],
    )
    def test_matches_public_product(self, matmat_calls, count, n_pairs, ell, seed, bound):
        rng = np.random.default_rng(seed)
        idx, sgn, _ = _random_inputs(rng, count=count, n_pairs=n_pairs, ell=ell)
        for values in (sgn, np.abs(sgn)):
            matmat_calls.clear()
            got = kernels.sign_outer_products(idx, values, n_pairs)
            assert np.array_equal(got, _public_gram(idx, values, n_pairs))
            assert got.dtype == np.int16 and got.flags.c_contiguous
            size = _one_call_of_one_width(matmat_calls, np.int32, np.int16)
            assert np.count_nonzero(got) <= size
            assert size < n_pairs**2 if bound is None else size == bound
        if count == 1:  # no sum cancels in one row: each entry is +-1
            assert np.count_nonzero(got) == bound

    def test_bound_is_reached_when_rows_share_a_pair(self, matmat_calls):
        # Pair 0 meets 1-4 in two rows: its row of X^T X has 1 + 2 * 2
        # entries, each other pair's 3, all nonzero: 17 in all.
        idx = np.array([[0, 1, 2], [0, 3, 4]])
        sgn = np.array([[1, -1, 1], [-1, 1, 1]], dtype=np.int8)
        got = kernels.sign_outer_products(idx, sgn, 10)
        assert np.array_equal(got, _public_gram(idx, sgn, 10))
        assert _one_call_of_one_width(matmat_calls, np.int32, np.int16) == 17
        assert np.count_nonzero(got) == 17

    def test_int64_index_path(self, monkeypatch, matmat_calls):
        # The index width switches on kernels._INT32_MAX; past it, all six
        # index arrays are int64.
        rng = np.random.default_rng(7)
        idx, sgn, _ = _random_inputs(rng, count=200, n_pairs=15, ell=5)
        monkeypatch.setattr(kernels, "_INT32_MAX", 100)
        got = kernels.sign_outer_products(idx.astype(np.int32), sgn, 15)
        assert np.array_equal(got, _public_gram(idx, sgn, 15))
        assert _one_call_of_one_width(matmat_calls, np.int64, np.int16) == 15**2

    def test_sampled_fit_runs_no_symbolic_pass(self, monkeypatch):
        calls = []
        real = kernels._sparsetools.csr_matmat_maxnnz

        def spy(*args):
            calls.append(args[:2])
            return real(*args)

        # scipy's product calls the symbolic pass through the module or
        # through a name imported from it, depending on the version.
        monkeypatch.setattr(kernels._sparsetools, "csr_matmat_maxnnz", spy)
        monkeypatch.setattr(scipy.sparse._compressed, "csr_matmat_maxnnz", spy, raising=False)
        x = sparse.csr_matrix(np.eye(3))
        x @ x  # the spy sees the public product's symbolic pass
        assert len(calls) == 1
        rng = np.random.default_rng(0)
        graph = erdos_renyi(20, 6.0, rng)
        model = random_uniform_model(20, 2, rng, 1.0, 8.0)
        batch = model.sample_batch(graph, 8, 20_000, np.random.default_rng(1))
        learn_mixed_mnl(batch, LearnConfig(n_components=2, seed=0))
        assert len(calls) == 1

    def test_peak_at_wide_half_shape(self):
        # 30,000 rows of 40 of 1,759 pairs, one half of the wide benchmark.
        # At the product, X's int16 values, X^T's values and int32 indices
        # and the output's N^2 int32 indices and int16 values are live:
        # 28.3 MB measured, as with scipy's public product.  Freeing X and
        # X^T before the dense result is allocated keeps it there; without
        # that the peak is about 34.5 MB.
        rng = np.random.default_rng(0)
        graph = erdos_renyi(300, 12.0, rng)
        model = random_uniform_model(300, 2, rng, 1.0, 8.0)
        batch = model.sample_batch(graph, 40, 30_000, np.random.default_rng(1))
        n, nnz = graph.n_pairs, batch.pair_indices.size
        assert n == 1759
        tracemalloc.start()
        try:
            kernels.sign_outer_products(batch.pair_indices, batch.signs, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * nnz * 2 + nnz * 4 + n * n * (4 + 2) + (1 << 20)


def _spread_rows(count, n_pairs, ell, seed):
    """``count`` strictly increasing rows of ``ell`` distinct pairs, with int8 signs.

    Each row starts at a random pair and steps by n_pairs // ell, modulo
    n_pairs: cheap at benchmark shapes, where sorting random keys is not.
    """
    rng = np.random.default_rng(seed)
    start = rng.integers(0, n_pairs, count)
    idx = np.sort((start[:, None] + np.arange(ell) * (n_pairs // ell)) % n_pairs, axis=1)
    sgn = rng.choice(np.array([-1, 1], dtype=np.int8), size=(count, ell))
    return idx.astype(np.int32), sgn


def _coo_gram(idx, values, n_pairs):
    """X^T X of scipy's public product on X built from coordinates, the reference."""
    rows = np.repeat(np.arange(idx.shape[0]), idx.shape[1])
    x = sparse.csr_matrix(
        (np.ravel(values).astype(np.int64), (rows, np.ravel(idx))), shape=(idx.shape[0], n_pairs)
    )
    return (x.T @ x).toarray()


@pytest.fixture
def symbolic_calls(monkeypatch):
    """Records each call of scipy's symbolic product pass."""
    calls = []
    real = kernels._sparsetools.csr_matmat_maxnnz

    def spy(*args):
        calls.append(args[:2])
        return real(*args)

    # scipy's product calls the symbolic pass through the module or
    # through a name imported from it, depending on the version.
    monkeypatch.setattr(kernels._sparsetools, "csr_matmat_maxnnz", spy)
    monkeypatch.setattr(scipy.sparse._compressed, "csr_matmat_maxnnz", spy, raising=False)
    return calls


class TestRowBlocks:
    @pytest.fixture
    def ten_row_blocks(self, monkeypatch):
        # For 12 pairs and ell = 4: max(40 // 4, ceil(1 * 144 / 16)) = 10.
        monkeypatch.setattr(kernels, "_GRAM_ENTRIES", 40)
        monkeypatch.setattr(kernels, "_GRAM_SCATTER", 1)

    @pytest.mark.parametrize(
        "count, blocks",
        [(1, 1), (10, 1), (11, 2), (31, 4)],
        ids=["one-row", "one-block", "one-row-past", "last-block-partial"],
    )
    def test_bit_identical_across_blocks(self, ten_row_blocks, matmat_calls, count, blocks):
        # Each block adds its exact sums into one result.
        rng = np.random.default_rng(count)
        idx, sgn, _ = _random_inputs(rng, count=count, n_pairs=12, ell=4)
        for values in (sgn, np.abs(sgn)):
            matmat_calls.clear()
            got = kernels.sign_outer_products(idx, values, 12)
            assert np.array_equal(got, _public_gram(idx, values, 12))
            assert got.dtype == np.int16 and got.flags.c_contiguous
            assert len(matmat_calls) == blocks

    def test_accumulation_type_from_all_rows(self, monkeypatch, matmat_calls):
        # Pair 0 is in each of 40,000 rows: two blocks of 20,000 each touch
        # it within int16, but their sum does not, and must not wrap.
        monkeypatch.setattr(kernels, "_GRAM_ENTRIES", 20_000 * 2)
        count, n_pairs = 40_000, 8
        rng = np.random.default_rng(11)
        idx = np.column_stack([np.zeros(count, dtype=np.int64), rng.integers(1, n_pairs, count)])
        sgn = rng.choice([-1, 1], size=idx.shape).astype(np.int8)
        got = kernels.sign_outer_products(idx, sgn, n_pairs)
        assert len(matmat_calls) == 2
        assert got.dtype == np.int32 and got[0, 0] == count
        assert np.array_equal(got, _coo_gram(idx, sgn, n_pairs))

    @pytest.mark.parametrize(
        "count, n_pairs, ell, blocks",
        [
            (100_000, 104, 10, 4),  # pilot's half: 26,214-row blocks
            (30_000, 1759, 40, 1),  # wide's half: 64 N^2 / ell^2 = 123,764 rows
            (25_000, 104, 10, 1),  # cli's half
        ],
        ids=["pilot", "wide", "cli"],
    )
    def test_one_numeric_call_per_block(
        self, matmat_calls, symbolic_calls, count, n_pairs, ell, blocks
    ):
        idx, sgn = _spread_rows(count, n_pairs, ell, seed=count)
        got = kernels.sign_outer_products(idx, sgn, n_pairs)
        assert len(matmat_calls) == blocks and symbolic_calls == []
        out = matmat_calls[0][-3:]
        for _, _, *arrays in matmat_calls:
            dtypes = [a.dtype for a in arrays]
            assert dtypes == [np.dtype(np.int32), np.dtype(np.int32), np.dtype(np.int16)] * 3
            # Every block writes into the arrays sized for the first.
            assert all(a is b for a, b in zip(arrays[-3:], out))
        assert np.array_equal(got, _coo_gram(idx, sgn, n_pairs))

    def test_csr_todense_adds_into_its_output(self):
        # The blocks are summed by csr_todense, which adds each entry into
        # its output rather than storing it; the oldest scipy that
        # pyproject.toml accepts must do the same.
        out = np.full((2, 3), 5, dtype=np.int16)
        indptr = np.array([0, 2, 3], dtype=np.int32)
        indices = np.array([0, 2, 1], dtype=np.int32)
        data = np.array([1, -2, 3], dtype=np.int16)
        kernels._sparsetools.csr_todense(2, 3, indptr, indices, data, out)
        assert np.array_equal(out, [[6, 5, 3], [5, 8, 5]])

    def test_peak_at_pilot_half_shape(self):
        # 100,000 rows of 10 of 104 pairs.  One block's X (int16 values,
        # int32 indptr; the int32 indices are the input's) and X^T (int32
        # indices, int16 values) are live at once, not the whole input's:
        # about 2.2 MB, against 8.4 MB unblocked.  The output is N^2 small.
        count, n_pairs, ell = 100_000, 104, 10
        idx, sgn = _spread_rows(count, n_pairs, ell, seed=4)
        rows = kernels._GRAM_ENTRIES // ell
        tracemalloc.start()
        try:
            kernels.sign_outer_products(idx, sgn, n_pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows * ell * 8 + rows * 4 + n_pairs**2 * (4 + 2 + 2) + (1 << 20)


def _path_graph(n_pairs):
    """A comparison graph of exactly ``n_pairs`` pairs: a path over n_pairs + 1 items."""
    return ComparisonGraph(n_pairs + 1, [(i, i + 1) for i in range(n_pairs)])


def _refusal(idx, sgn, n_pairs):
    """The one ``ValidationError`` text that ``ObservationBatch`` and
    ``sign_outer_products`` both raise on these rows."""
    texts = []
    for build in (
        lambda: ObservationBatch(_path_graph(n_pairs), idx, sgn),
        lambda: kernels.sign_outer_products(idx, sgn, n_pairs),
    ):
        with pytest.raises(ValidationError) as caught:
            build()
        texts.append(str(caught.value))
    batch, kernel = texts
    assert batch == kernel
    return batch


class TestShape:
    # The kernel ravels the indices and signs into X.  Unchecked, 1-D
    # indices raised a raw IndexError, rows of no pairs a ZeroDivisionError,
    # and transposed or flat signs of the same size were scattered against
    # the wrong indices.  The batch and the kernel refuse them alike.
    @pytest.mark.parametrize(
        "idx, sgn, match",
        [
            (np.array([0, 1]), np.ones(2), r"pair indices must be a \(count, ell\) array"),
            (np.arange(12).reshape(2, 2, 3) % 4, np.ones((2, 2, 3)), r"\(count, ell\)"),
            (np.empty((2, 0), dtype=int), np.ones((2, 0)), r"ell >= 1"),
            (np.array([[0, 1, 2], [0, 2, 3]]), np.ones((3, 2)), "signs must have"),
            (np.array([[0, 1, 2], [0, 2, 3]]), np.ones(6), "signs must have"),
        ],
        ids=["1-D", "3-D", "no-columns", "transposed-signs", "flat-signs"],
    )
    def test_refused_by_both_kernels(self, idx, sgn, match):
        assert re.search(match, _refusal(idx, sgn.astype(np.int8), 4))


class TestPairIndexRange:
    # scipy's C loops write through the indices unchecked.  Unrefused, an
    # index of N = 3 corrupted the heap; 5 and 7 were dropped from the Gram
    # or crashed the process; -1 failed inside numpy or corrupted the heap.
    @pytest.mark.parametrize("bad", [-1, 3, 5, 7])
    def test_refused_by_both_kernels(self, bad):
        idx = np.array([[0, 1, 2], [bad, 1, 2]])
        ones = np.ones(idx.shape, dtype=np.int8)
        assert _refusal(idx, ones, 3) == "pair index out of range"

    @pytest.mark.parametrize("n_pairs", [2.9, "3", True])
    def test_non_integer_pair_count_refused(self, n_pairs):
        # Taken through int(), 2.9 was truncated to 2 and '3' read as 3.
        idx = np.array([[0, 1]])
        with pytest.raises(ValidationError, match="n_pairs must be an integer"):
            kernels.sign_outer_products(idx, np.ones(idx.shape, dtype=np.int8), n_pairs)

    def test_both_ends_of_the_range_accepted(self):
        idx = np.array([[0, 1, 2], [0, 1, 2]], dtype=np.int32)
        sgn = np.array([[1, -1, 1], [-1, -1, 1]], dtype=np.int8)
        assert np.array_equal(
            kernels.sign_outer_products(idx, sgn, 3), _public_gram(idx, sgn, 3)
        )
        basis = np.arange(6.0).reshape(3, 2)
        np.testing.assert_allclose(
            kernels._third_moment_sums(idx, sgn, basis),
            _brute_offdiagonal(_dense(idx, sgn, 3), np.ones(2), basis),
            rtol=0,
            atol=1e-12,
        )


def _brute_offdiagonal(x, weights, basis):
    """Per row: zero every entry of x^{x3} with a repeated index, contract with W."""
    n_pairs, r = basis.shape
    expected = np.zeros((r, r, r))
    for row, weight in zip(x, weights):
        cube = np.einsum("i,j,k->ijk", row, row, row)
        for i in range(n_pairs):
            cube[i, i, :] = 0.0
            cube[:, i, i] = 0.0
            cube[i, :, i] = 0.0
        expected += weight * np.einsum("ijk,ia,jb,kc->abc", cube, basis, basis, basis)
    return expected


def _einsum_combine(weighted, y, planes, diagonal, basis):
    """The expansion as the whole (r, r, r) tensor by three einsums, the reference.

    Same inputs as ``kernels._combine``; every entry is formed, not only the
    m distinct ones.
    """
    cross = np.einsum("ka,kb,kc->abc", planes, basis, basis, optimize=True)
    out = np.einsum("ta,tb,tc->abc", weighted, y, y, optimize=True)
    out -= cross + cross.transpose(1, 0, 2) + cross.transpose(1, 2, 0)
    out += 2.0 * np.einsum("k,ka,kb,kc->abc", diagonal, basis, basis, basis, optimize=True)
    return out


class TestOffdiagonalThirdSums:
    def test_matches_brute_force_on_weighted_real_rows(self):
        # Entries that are not +-1 keep squares and cubes apart from |x|
        # and x, and non-unit weights scale each row's contribution.
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 10)) * (rng.random((40, 10)) < 0.5)
        weights = rng.uniform(0.1, 2.0, 40)
        basis = rng.standard_normal((10, 3))
        expected = _brute_offdiagonal(x, weights, basis)
        tol = 1e-13 * np.abs(expected).max()
        csr = sparse.csr_matrix(x)
        for rows, squares, cubes in ((x, x * x, x**3), (csr, csr.multiply(csr), csr.power(3))):
            got = kernels.offdiagonal_third_sums(rows, squares, cubes, weights, basis)
            np.testing.assert_allclose(got, expected, rtol=0, atol=tol)

    def test_sampled_statistic_bit_identical_to_sign_expansion(self):
        # The weighted route with |X| for the squares, X for the cubes and
        # unit weights hands _combine the same partial sums to the bit.
        rng = np.random.default_rng(6)
        for count, n_pairs, ell, r in ((500, 20, 5, 2), (3000, 80, 12, 4), (2000, 60, 10, 8)):
            idx, sgn, basis = _random_inputs(rng, count=count, n_pairs=n_pairs, ell=ell, r=r)
            x = _public_sign_matrix(idx, sgn, n_pairs)
            assert np.array_equal(
                kernels._third_moment_sums(idx, sgn, basis),
                kernels.offdiagonal_third_sums(x, abs(x), x, np.ones(count), basis),
            )


class TestCombine:
    @pytest.mark.parametrize("r", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("count", [1, kernels._BLOCK, kernels._BLOCK + 1])
    def test_matches_einsum_expansion(self, r, count):
        # Random partial sums with non-unit weights; count spans one row,
        # one full block and a block boundary.  The sums run in another
        # order than the einsums, so entries agree to roundoff of the
        # largest entry.
        rng = np.random.default_rng(100 * r + count % 7)
        n_pairs = 12
        y = rng.standard_normal((count, r))
        weighted = y * rng.uniform(0.1, 2.0, count)[:, None]
        planes = rng.standard_normal((n_pairs, r))
        diagonal = rng.standard_normal(n_pairs)
        basis = rng.standard_normal((n_pairs, r))
        expected = _einsum_combine(weighted, y, planes, diagonal, basis)
        got = kernels._combine(weighted, y, planes, diagonal, basis)
        assert got.shape == (r, r, r)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * np.abs(expected).max())
        for axes in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):  # lifted: exactly symmetric
            assert np.array_equal(got, got.transpose(axes))

    def test_memory_at_rank_8(self):
        # 100,000 rows of 10 of 236 pairs at r = 8.  Beyond the one float64
        # copy of the signs and Y = X W, the full term holds one block of
        # Y transposed and its r(r+1)/2 pair products: O(count r + block
        # r^2).  Forming the pair products of all rows at once would take
        # count * 36 floats (28.8 MB) alone.
        rng = np.random.default_rng(8)
        count, n_pairs, ell, r = 100_000, 236, 10, 8
        idx = np.sort(
            np.argsort(rng.random((count, n_pairs)), axis=1)[:, :ell], axis=1
        ).astype(np.int32)
        sgn = rng.choice(np.array([-1, 1], dtype=np.int8), size=(count, ell))
        basis = rng.standard_normal((n_pairs, r))
        tracemalloc.start()
        try:
            kernels._third_moment_sums(idx, sgn, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = kernels._BLOCK * (r + r * (r + 1) // 2) * 8
        assert peak < count * ell * 8 + count * r * 8 + block + (1 << 20)


class TestProjectedThird:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        idx, sgn, basis = _random_inputs(rng, count=50)
        expected = _brute_offdiagonal(_dense(idx, sgn, 12), np.ones(50), basis)
        got = kernels._third_moment_sums(idx, sgn, basis)
        # The expansion y^3 - 3 sym(y c2) + 2 c3 cancels heavily and sums in
        # another order than the brute force, so an entry can differ from
        # it by roundoff of the largest entry, not of its own size.
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * np.abs(expected).max())

    def test_one_float_copy_of_the_signs_at_pilot_half_shape(self):
        # 100,000 rows of 10 of 104 pairs, one half of the pilot benchmark:
        # the float64 sign data is 8 MB, and the statistic holds one copy
        # of it (|X| overwrites X) plus r-wide row products.
        rng = np.random.default_rng(4)
        count, n_pairs, ell = 100_000, 104, 10
        idx = np.sort(
            np.argsort(rng.random((count, n_pairs)), axis=1)[:, :ell], axis=1
        ).astype(np.int32)
        sgn = rng.choice(np.array([-1, 1], dtype=np.int8), size=(count, ell))
        basis = rng.standard_normal((n_pairs, 2))
        tracemalloc.start()
        try:
            kernels._third_moment_sums(idx, sgn, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.0 * count * ell * 8

    def test_single_observation_single_pair_projection(self):
        # One observation touching one pair with +1 and a rank-1 basis
        # aligned with it: the off-diagonal part of a one-hot cube is
        # empty, and the expansion cancels to zero: 1 - 3 + 2.
        idx = np.array([[0, 1, 2]], dtype=np.int64)
        sgn = np.array([[1, -1, -1]], dtype=np.int8)
        basis = np.zeros((5, 1))
        basis[0, 0] = 1.0
        out = kernels._third_moment_sums(idx, sgn, basis)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == pytest.approx(0.0, abs=1e-15)


def _scipy_third_moment_sums(idx, sgn, basis):
    """The statistic from scipy's public sparse products on X, the reference."""
    x = _public_sign_matrix(idx, sgn, basis.shape[0])
    y = x @ basis
    diagonal = np.asarray(x.sum(axis=0)).ravel()
    return kernels._combine(y, y, abs(x).T @ y, diagonal, basis)


class TestRawThirdMoment:
    # The core takes X's three products from its raw CSR arrays, with the
    # kernels scipy's public products run on them.
    @pytest.mark.parametrize("r", [1, 2, 8])
    @pytest.mark.parametrize("width", [np.int32, np.int64])
    def test_bit_identical_to_public_products(self, r, width):
        rng = np.random.default_rng(40 + r)
        idx, sgn, basis = _random_inputs(rng, count=1001, n_pairs=30, ell=6, r=r)
        got = kernels._third_moment_sums(idx.astype(width), sgn, basis)
        assert np.array_equal(got, _scipy_third_moment_sums(idx, sgn, basis))

    def test_odd_half_keeps_its_indices(self, monkeypatch):
        # The third-moment half of 200,001 rows is 99,999 rows, a view of
        # under half of the batch's indices: a scipy matrix copied them
        # (4 MB; a 14.8 MB peak).  Beyond the float64 signs, Y and the
        # ones of the column sums, the core holds under 1 MB.
        rng = np.random.default_rng(4)
        total, n_pairs, ell, r = 200_001, 104, 10, 2
        idx = np.sort(
            np.argsort(rng.random((total, n_pairs)), axis=1)[:, :ell], axis=1
        ).astype(np.int32)
        sgn = rng.choice(np.array([-1, 1], dtype=np.int8), size=(total, ell))
        basis = rng.standard_normal((n_pairs, r))
        half = slice(total // 2 + 1, total)
        count = total - half.start
        calls = _third_moment_calls(monkeypatch)
        want = kernels._third_moment_sums(idx[half], sgn[half], basis)
        assert len(calls) == 3
        assert all(np.shares_memory(indices, idx) for _, _, indices in calls)
        del calls[:]
        monkeypatch.undo()
        tracemalloc.start()
        try:
            got = kernels._third_moment_sums(idx[half], sgn[half], basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert np.array_equal(got, _scipy_third_moment_sums(idx[half], sgn[half], basis))
        assert peak < count * ell * 8 + count * (r + 1) * 8 + (1 << 20)

    def test_float_signs_are_left_unchanged(self):
        # |X| is taken in place on the core's own float copy of the signs.
        rng = np.random.default_rng(9)
        idx, sgn, basis = _random_inputs(rng, count=40)
        signs = sgn.astype(np.float64)
        got = kernels._third_moment_sums(idx, signs, basis)
        assert np.array_equal(signs, sgn)
        assert np.array_equal(got, kernels._third_moment_sums(idx, sgn, basis))


class TestRepeatedPairIndex:
    # The kernel counts each index once per row.  Unrefused, one row of 200
    # copies of pair 0 gave the Gram [[-25536]] (40,000 wrapped in int16).
    @pytest.mark.parametrize(
        "idx",
        [np.zeros((1, 200), dtype=np.int32), np.array([[0, 1, 2], [2, 1, 2]])],
        ids=["200-copies", "one-repeat"],
    )
    def test_refused_by_both_kernels(self, idx):
        ones = np.ones(idx.shape, dtype=np.int8)
        assert _refusal(idx, ones, 3) == "pair indices must be strictly increasing per row"


class TestOneRowRule:
    # Rows the kernel took at the parent without a word, or refused with
    # numpy's own error, and rows it no longer takes (unsorted, a count of
    # 0).  Each is refused with the batch's text.
    @pytest.mark.parametrize(
        "idx, sgn, text",
        [
            ([[0, 1]], np.array([[1, 0.5]]), "signs must be -1 or +1"),
            ([[0, 1]], np.array([[1, 2]]), "signs must be -1 or +1"),
            ([[0, 1]], np.array([[1, 0]], dtype=np.int8), "signs must be -1 or +1"),
            ([[0, 1]], [[1, np.nan]], "signs must be finite (no NaN or inf)"),
            ([[0, 1]], [[1, "x"]], "signs must be numbers"),
            ([[0.5, 1.7]], [[1, 1]], "pair indices must be integers"),
            (np.array([[0.0, 1.0]]), [[1, 1]], "pair indices must be integers"),
            ([["0", "1"]], [[1, 1]], "pair indices must be integers"),
            (np.array([[True, False]]), [[1, 1]], "pair indices must be integers"),
            ([[True, 2]], [[1, 1]], "pair indices must be integers"),
            ([[0, 1], [2]], [[1, 1], [1]], "pair indices must be a rectangular array"),
            ([[1, 0]], [[1, 1]], "pair indices must be strictly increasing per row"),
            ([[0, 2, 1]], [[1, 1, 1]], "pair indices must be strictly increasing per row"),
        ],
        ids=[
            "half-sign", "sign-2", "sign-0", "nan-sign", "string-sign", "float-indices",
            "float-array-indices", "string-indices", "bool-indices", "bool-among-ints",
            "ragged", "unsorted-pair", "unsorted-row",
        ],
    )
    def test_refused_alike_by_batch_and_kernel(self, idx, sgn, text):
        assert _refusal(idx, sgn, 4).startswith(text)

    def test_signs_of_two_are_refused_not_wrapped(self):
        # 20,000 rows [0, 1] with signs of 2: X^T X holds 80,000 on every
        # entry, past int16, yet the touch count that sizes the sums is
        # 20,000.  The kernel returned 14,464 everywhere.
        idx = np.zeros((20_000, 2), dtype=np.int32)
        idx[:, 1] = 1
        with pytest.raises(ValidationError, match=r"signs must be -1 or \+1"):
            kernels.sign_outer_products(idx, np.full(idx.shape, 2, dtype=np.int8), 2)
        ones = np.ones(idx.shape, dtype=np.int8)
        assert np.array_equal(kernels.sign_outer_products(idx, ones, 2), np.full((2, 2), 20_000))

    def test_empty_rows_pass(self):
        idx = np.empty((0, 3), dtype=np.int32)
        got = kernels.sign_outer_products(idx, np.empty((0, 3), dtype=np.int8), 4)
        assert np.array_equal(got, np.zeros((4, 4)))
        assert len(ObservationBatch(_path_graph(4), idx, np.empty((0, 3)))) == 0


class TestCheckedBoundary:
    def test_sampled_fit_runs_neither_row_check(self, monkeypatch):
        # Batch rows passed the rule when the batch was made, so the moment
        # estimators call the kernels' cores: the rule runs only when a
        # batch is built by hand or the public kernel is called.
        calls = []
        real = errors.checked_rows

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(kernels, "checked_rows", spy)
        monkeypatch.setattr(model_module, "checked_rows", spy)
        rng = np.random.default_rng(0)
        graph = erdos_renyi(20, 6.0, rng)
        model = random_uniform_model(20, 2, rng, 1.0, 8.0)
        batch = model.sample_batch(graph, 8, 20_000, np.random.default_rng(1))
        learn_mixed_mnl(batch, LearnConfig(n_components=2, seed=0))
        assert calls == []
        n = graph.n_pairs
        kernels.sign_outer_products(batch.pair_indices, batch.signs, n)
        ObservationBatch(graph, batch.pair_indices, batch.signs)
        assert len(calls) == 2

    def test_sorted_rows_are_not_sorted_again(self, monkeypatch):
        # Strictly increasing rows pass one comparison of neighbours, and
        # other rows are refused: nothing is sorted, nor copied.
        sorts = []
        real = np.sort

        def spy(a, *args, **kwargs):
            sorts.append(a)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(errors.np, "sort", spy)
        idx = np.array([[0, 1, 2], [0, 2, 3]], dtype=np.int32)
        ones = np.ones(idx.shape, dtype=np.int8)
        got_idx, got_signs = errors.checked_rows(idx, ones, 4)
        assert got_idx is idx and got_signs is ones
        unsorted = np.array([[2, 0, 1], [0, 2, 3]], dtype=np.int32)
        with pytest.raises(ValidationError, match="strictly increasing"):
            errors.checked_rows(unsorted, ones, 4)
        assert sorts == []
        assert np.array_equal(unsorted, [[2, 0, 1], [0, 2, 3]])
