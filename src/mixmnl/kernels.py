"""Accumulation kernels for moment estimation.

Both moment accumulators are products of one sparse matrix: the
(count, n_pairs) CSR sign matrix X whose row t holds observation t's signs
at its pair indices, ``ell`` entries per row.  Both kernels refuse a pair
index outside [0, n_pairs) before X is built, since scipy's C loops write
through the indices unchecked, and a row that repeats an index once X is
built.  The second-moment sums are X^T X, accumulated in the narrowest
integer type that holds the largest per-pair touch count, so every
partial sum is exact.  They come from one numeric pass of scipy's private
``csr_matmat`` kernel into arrays sized from the touch counts: every
public sparse product first runs a symbolic pass over the same loops
only to size its output.  The third-moment sums are one expansion, which
also gives the exact-moment right-hand side (``offdiagonal_third_sums``:
outcome means as rows, the mixture as weights), with no per-observation
loop or cubic intermediate.  The sampled statistic holds one float64 copy
of the signs: its squares and cubes are |X| and X, so X's values turn
absolute in place once X is used.
"""

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from .errors import ValidationError


_INT32_MAX = np.iinfo(np.int32).max


def _checked_indices(pair_indices, n_pairs):
    """``pair_indices`` as an array; ``ValidationError`` unless each lies in [0, n_pairs)."""
    pair_indices = np.asarray(pair_indices)
    if pair_indices.size and (pair_indices.min() < 0 or pair_indices.max() >= n_pairs):
        raise ValidationError(f"pair indices must lie in [0, {n_pairs})")
    return pair_indices


def _sign_matrix(pair_indices, values, n_pairs, dtype=np.float64):
    """The (count, n_pairs) CSR matrix X with ``dtype`` values.

    ``pair_indices`` may be any integer array, already checked to lie in
    [0, n_pairs).  int32 indices, the width batches hold, go into X
    without a copy, with an int32 indptr whenever count * ell fits; scipy
    converts other widths.  A row that repeats an index raises
    ``ValidationError``: the kernels' sums count each index once per row.
    Rows sorted strictly increasing, as batches hold them, pass scipy's C
    canonical-format check; only other input is sorted, on a copy.
    """
    count, ell = pair_indices.shape
    nnz = count * ell
    indptr = np.arange(0, nnz + 1, ell, dtype=np.int32 if nnz <= _INT32_MAX else np.int64)
    x = sparse.csr_matrix(
        (np.asarray(values, dtype=dtype).ravel(), pair_indices.ravel(), indptr),
        shape=(count, int(n_pairs)),
    )
    if not x.has_canonical_format:
        ordered = np.sort(pair_indices, axis=1)
        if (ordered[:, 1:] == ordered[:, :-1]).any():
            raise ValidationError("pair indices must be distinct within each row")
    return x


def sign_outer_products(pair_indices, signs, n_pairs):
    """Sum of outer products of sparse sign vectors.

    ``pair_indices`` is (count, ell) integer with distinct entries per row
    (a repeat raises ``ValidationError``) and ``signs`` the matching
    integer array of signs or counts in {-1, 0, 1}.
    Returns the dense (n_pairs, n_pairs) sum of ``x_t x_t^T`` where ``x_t``
    is the dense vector with ``signs[t]`` scattered into ``pair_indices[t]``,
    i.e. X^T X.  Diagonal entries count touches.

    Every entry, and every partial sum of the product, is an integer no
    larger in magnitude than the largest per-pair touch count, the most
    times one index occurs in ``pair_indices``.  So X, and the result, are
    int16 when that count is at most 32767, int32 (int64 past that)
    otherwise: the sums are exact and do not depend on summation order.

    The product is one call of scipy's numeric sparse product kernel
    ``csr_matmat`` on X^T and X.  scipy's public ``@`` first runs a
    symbolic pass over the same loops only to size its output, and no
    public sparse product skips it.  Here the touch counts size it: row i
    of X^T X gathers the columns of the touches_i rows of X that hold i,
    each i itself and at most ell - 1 others, so it has at most
    min(n_pairs, (ell - 1) * touches_i + 1) entries, and none when i is
    never touched.  The kernel checks no bound as it writes, so the
    indices are checked first and every index array has one width, int32
    when the bound, nnz(X) and n_pairs fit.  X and X^T are freed before
    the product's first ``Cp[-1]`` entries are made dense by
    ``csr_todense``, the loop behind scipy's ``toarray``.
    """
    n = int(n_pairs)
    pair_indices = _checked_indices(pair_indices, n)
    count, ell = pair_indices.shape
    touches = np.bincount(pair_indices.ravel(), minlength=n)
    largest = touches.max(initial=0)
    dtype = next(t for t in (np.int16, np.int32, np.int64) if largest <= np.iinfo(t).max)
    bound = int(np.minimum(n, (ell - 1) * touches + (touches > 0)).sum())
    index = np.int32 if max(bound, count * ell, n) <= _INT32_MAX else np.int64
    x = _sign_matrix(pair_indices, signs, n, dtype)
    xt = x.tocsc()  # X in CSC holds the CSR arrays of X^T
    operands = []
    for m in (xt, x):
        operands += [m.indptr.astype(index, copy=False), m.indices.astype(index, copy=False), m.data]
    del x, xt
    cp = np.empty(n + 1, dtype=index)
    cj = np.empty(bound, dtype=index)
    cx = np.empty(bound, dtype=dtype)
    _sparsetools.csr_matmat(n, n, *operands, cp, cj, cx)
    del operands
    # C order: np.multiply in empirical_second_moment keeps it, and the
    # fit hands that estimate to the completion as it is, with no copy.
    out = np.zeros((n, n), dtype=dtype)
    nnz = int(cp[-1])
    _sparsetools.csr_todense(n, n, cp, cj[:nnz], cx[:nnz], out)
    return out


def offdiagonal_third_sums(rows, squares, cubes, weights, basis):
    """Weighted sum over rows x_t of offdiag(x_t^{x3}) contracted with W.

    ``rows`` is a (count, n_pairs) matrix X, sparse or dense, ``squares`` and
    ``cubes`` its entrywise powers, ``weights`` the (count,) w and ``basis``
    the (n_pairs, r) W.  With Y = X W the result is the full power minus the
    three pair-diagonal planes plus twice the triple diagonal:

        sum_t w_t y_t^{x3} - 3 sym(sum_k (sum_t w_t x_tk^2 y_t) W_k W_k)
            + 2 sum_k (sum_t w_t x_tk^3) W_k^{x3}.
    """
    y = rows @ basis
    weighted = y * weights[:, None]
    return _combine(weighted, y, squares.T @ weighted, cubes.T @ weights, basis)


def _combine(weighted, y, planes, diagonal, basis):
    """The expansion of ``offdiagonal_third_sums`` from its partial sums.

    ``weighted`` is Y with row t scaled by w_t, ``planes`` the (n_pairs, r)
    sums sum_t w_t x_tk^2 y_t and ``diagonal`` the (n_pairs,) sums
    sum_t w_t x_tk^3.
    """
    cross = np.einsum("ka,kb,kc->abc", planes, basis, basis, optimize=True)
    out = np.einsum("ta,tb,tc->abc", weighted, y, y, optimize=True)
    out -= cross + cross.transpose(1, 0, 2) + cross.transpose(1, 2, 0)
    out += 2.0 * np.einsum("k,ka,kb,kc->abc", diagonal, basis, basis, basis, optimize=True)
    return out


def projected_third_moment_sums(pair_indices, signs, basis):
    """Sum over observations of the projected third-moment statistic.

    For each observation with dense sign vector ``x`` and projection
    ``basis`` W (n_pairs, r) this accumulates the contraction of the
    off-diagonal part of ``x \\otimes x \\otimes x`` with three copies of
    W, the expansion of ``offdiagonal_third_sums`` with unit weights.
    Requires ``signs`` in {-1, +1}: then the cubes of X are X itself and
    its squares |X|.  One float64 copy of the signs is held: Y = X W and
    the column sums of X are taken first, then X's values are made
    absolute in place for the plane sums.
    """
    w = np.ascontiguousarray(basis, dtype=np.float64)
    x = _sign_matrix(_checked_indices(pair_indices, w.shape[0]), signs, w.shape[0])
    y = x @ w
    diagonal = np.asarray(x.sum(axis=0)).ravel()
    np.abs(x.data, out=x.data)
    return _combine(y, y, x.T @ y, diagonal, w)
