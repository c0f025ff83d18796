import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from mixmnl import kernels


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
            kernels.projected_third_moment_sums(narrow, sgn, basis),
            kernels.projected_third_moment_sums(idx, sgn, basis),
        )

    def test_int32_indices_are_used_without_a_copy(self):
        idx = np.array([[0, 2], [0, 1]], dtype=np.int32)
        x = kernels._sign_matrix(idx, np.array([[1, -1], [-1, -1]]), 3)
        assert x.indptr.dtype == np.int32
        assert np.shares_memory(x.indices, idx)

    def test_diagonal_counts_touches(self):
        idx = np.array([[0, 2], [0, 1]], dtype=np.int64)
        sgn = np.array([[1, -1], [-1, -1]], dtype=np.int8)
        out = kernels.sign_outer_products(idx, sgn, 3)
        assert out[0, 0] == 2.0 and out[1, 1] == 1.0 and out[2, 2] == 1.0
        assert out[0, 2] == -1.0 and out[0, 1] == 1.0


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


def _sign_specialized_sums(pair_indices, signs, basis):
    """The sampled statistic expanded for +-1 signs only, the bit-identity reference.

    |X| stands in for the squares and the column sums of X for the cubes;
    there are no weights.
    """
    w = np.ascontiguousarray(basis, dtype=np.float64)
    x = kernels._sign_matrix(np.asarray(pair_indices, dtype=np.int64), signs, w.shape[0])
    y = x @ w
    touched = abs(x).T @ y
    column_sums = np.asarray(x.sum(axis=0)).ravel()
    cross = np.einsum("ka,kb,kc->abc", touched, w, w, optimize=True)
    out = np.einsum("ta,tb,tc->abc", y, y, y, optimize=True)
    out -= cross + cross.transpose(1, 0, 2) + cross.transpose(1, 2, 0)
    out += 2.0 * np.einsum("k,ka,kb,kc->abc", column_sums, w, w, w, optimize=True)
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
        rng = np.random.default_rng(6)
        for count, n_pairs, ell, r in ((500, 20, 5, 2), (3000, 80, 12, 4)):
            idx, sgn, basis = _random_inputs(rng, count=count, n_pairs=n_pairs, ell=ell, r=r)
            assert np.array_equal(
                kernels.projected_third_moment_sums(idx, sgn, basis),
                _sign_specialized_sums(idx, sgn, basis),
            )


class TestProjectedThird:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        idx, sgn, basis = _random_inputs(rng, count=50)
        expected = _brute_offdiagonal(_dense(idx, sgn, 12), np.ones(50), basis)
        got = kernels.projected_third_moment_sums(idx, sgn, basis)
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
            kernels.projected_third_moment_sums(idx, sgn, basis)
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
        out = kernels.projected_third_moment_sums(idx, sgn, basis)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == pytest.approx(0.0, abs=1e-15)
