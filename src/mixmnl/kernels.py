"""Accumulation kernels for streaming moment estimation.

Both moment accumulators are products of one sparse matrix: the
(count, n_pairs) CSR sign matrix X whose row t holds observation t's signs
at its pair indices, ``ell`` entries per row.  The second-moment sums are
X^T X; the projected third-moment sums expand into products of X, its
sparsity pattern |X| and its column sums with the basis, so no
per-observation loop, chunking or cubic intermediate is needed.
"""

import numpy as np
from scipy import sparse


def _sign_matrix(pair_indices, values, n_pairs):
    count, ell = pair_indices.shape
    indptr = np.arange(0, count * ell + 1, ell, dtype=np.int64)
    return sparse.csr_matrix(
        (np.asarray(values, dtype=np.float64).ravel(), pair_indices.ravel(), indptr),
        shape=(count, int(n_pairs)),
    )


def sign_outer_products(pair_indices, signs, n_pairs):
    """Sum of outer products of sparse sign vectors.

    ``pair_indices`` is (count, ell) int64 with distinct entries per row and
    ``signs`` the matching sign (or weight) array.  Returns the dense
    (n_pairs, n_pairs) sum of ``x_t x_t^T`` where ``x_t`` is the dense
    vector with ``signs[t]`` scattered into ``pair_indices[t]``, i.e. X^T X.
    Diagonal entries count touches.  For integer inputs every entry is an
    exact integer sum, so the result does not depend on summation order.
    """
    x = _sign_matrix(np.asarray(pair_indices, dtype=np.int64), signs, n_pairs)
    # A CSR product densifies in C order, which the completion's in-place
    # updates rely on; X^T in CSC would give a Fortran-ordered result.
    return (x.T.tocsr() @ x).toarray()


def projected_third_moment_sums(pair_indices, signs, basis):
    """Sum over observations of the projected third-moment statistic.

    For each observation with dense sign vector ``x`` and projection
    ``basis`` W (n_pairs, r) this accumulates the contraction of the
    off-diagonal part of ``x \\otimes x \\otimes x`` with three copies of
    W.  Per observation that is y^{x3} - 3 sym(y \\otimes c2) + 2 c3 with
    y = W^T x, c2 = W^T diag(|x|) W and c3 = sum_k x_k W_k^{x3}; summed over
    observations with Y = X W these become Y^{x3} summed over rows,
    (|X|^T Y) contracted with W twice, and the column sums of X contracted
    with W three times.  Requires ``signs`` in {-1, +1}: the expansion
    substitutes ``x^2 = 1`` and ``x^3 = x`` on observed pairs.
    """
    w = np.ascontiguousarray(basis, dtype=np.float64)
    x = _sign_matrix(np.asarray(pair_indices, dtype=np.int64), signs, w.shape[0])
    y = x @ w
    touched = abs(x).T @ y  # (n_pairs, r): sum of y over observations touching each pair
    column_sums = np.asarray(x.sum(axis=0)).ravel()
    cross = np.einsum("ka,kb,kc->abc", touched, w, w, optimize=True)
    out = np.einsum("ta,tb,tc->abc", y, y, y, optimize=True)
    out -= cross + cross.transpose(1, 0, 2) + cross.transpose(1, 2, 0)
    out += 2.0 * np.einsum("k,ka,kb,kc->abc", column_sums, w, w, w, optimize=True)
    return out
