import numpy as np
import pytest

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

    def test_diagonal_counts_touches(self):
        idx = np.array([[0, 2], [0, 1]], dtype=np.int64)
        sgn = np.array([[1, -1], [-1, -1]], dtype=np.int8)
        out = kernels.sign_outer_products(idx, sgn, 3)
        assert out[0, 0] == 2.0 and out[1, 1] == 1.0 and out[2, 2] == 1.0
        assert out[0, 2] == -1.0 and out[0, 1] == 1.0


class TestProjectedThird:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        idx, sgn, basis = _random_inputs(rng, count=50)
        x = _dense(idx, sgn, 12)
        expected = np.zeros((3, 3, 3))
        for t in range(50):
            cube = np.einsum("i,j,k->ijk", x[t], x[t], x[t])
            for i in range(12):
                cube[i, i, :] = 0.0
                cube[:, i, i] = 0.0
                cube[i, :, i] = 0.0
            expected += np.einsum("ijk,ia,jb,kc->abc", cube, basis, basis, basis)
        got = kernels.projected_third_moment_sums(idx, sgn, basis)
        # The expansion y^3 - 3 sym(y c2) + 2 c3 cancels heavily and sums in
        # another order than the brute force, so an entry can differ from
        # it by roundoff of the largest entry, not of its own size.
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * np.abs(expected).max())

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
