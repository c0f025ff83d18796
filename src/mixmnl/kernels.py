"""Accumulation kernels for moment estimation.

Both moment accumulators are products of one sparse matrix: the
(count, n_pairs) CSR sign matrix X whose row t holds observation t's signs
at its pair indices, ``ell`` entries per row.  ``sign_outer_products`` is
a checked boundary over a private core: it takes only rows that
``errors.checked_rows`` passes, the rule ``ObservationBatch`` holds its
rows to, since scipy's C loops write through the indices unchecked.  The
moment estimators call the cores on ``ObservationBatch`` slices, whose
rows already passed that rule.  The second-moment sums are X^T X,
accumulated in the narrowest integer type that holds the largest
per-pair touch count, so every partial sum is exact.  They are summed in
place over blocks of observation rows, each one numeric pass of scipy's
private ``csr_matmat`` kernel: every public sparse product first runs a
symbolic pass over the same loops only to size its output.  A block holds at
least 2^18 / ell rows, so its X (about 1.5 MB) stays in cache while the
pass gathers its rows, and at least 64 N^2 / ell^2, so the block's dense
N^2 output costs at most 1/64 of its ell^2 per-row work.  The pass checks
no bound as it writes; its output arrays are sized once, from the whole
input's touch counts, which bound every block's.  The third-moment sums
are one expansion, which also gives the exact-moment right-hand side
(``offdiagonal_third_sums``: outcome means as rows, the mixture as
weights), with no per-observation loop.  Its result is symmetric, so only
its m = r(r+1)(r+2)/6 distinct entries are computed, each from GEMMs
against the r(r+1)/2 column-pair products of Y = X W (over row blocks) and
of W; no (count, r, r) or r^3-wide intermediate is formed.  The sampled
statistic holds one float64 copy of the signs: its squares and cubes are
|X| and X, so X's values turn absolute in place once X is used.  Its X is
raw CSR arrays, as the Gram's blocks are, and its three products are the
scipy kernels the public products run on them (``csr_matvecs``,
``csc_matvec`` and ``csc_matvecs``).
"""

import functools

import numpy as np
from scipy.sparse import _sparsetools

from .errors import checked_count, checked_rows


_INT32_MAX = np.iinfo(np.int32).max
# Rows of Y per GEMM of the third moment's full term: the block's pair
# products take _BLOCK * r(r+1)/2 floats, 2.4 MB at r = 8.
_BLOCK = 8192
# Rows of X per block of the second-moment Gram: at least _GRAM_ENTRIES / ell,
# about 1.5 MB of int32 indices and int16 values, and at least
# _GRAM_SCATTER * N^2 / ell^2, so the block's N^2 output is a small share
# of its ell^2 per-row work.
_GRAM_ENTRIES = 1 << 18
_GRAM_SCATTER = 64


def sign_outer_products(pair_indices, signs, n_pairs):
    """Sum of outer products of sparse sign vectors.

    ``pair_indices`` (count, ell) and ``signs`` are observation rows:
    integer indices in [0, n_pairs), each row strictly increasing, and
    signs of that shape in {-1, +1}; ``n_pairs`` is an integer >= 0.  Other
    input raises ``ValidationError`` (``errors.checked_count`` and
    ``errors.checked_rows``).
    Returns the dense (n_pairs, n_pairs) sum of ``x_t x_t^T`` where ``x_t``
    is the dense vector with ``signs[t]`` scattered into ``pair_indices[t]``,
    i.e. X^T X.  Diagonal entries count touches.

    Every entry, and every partial sum of the product, is an integer no
    larger in magnitude than the largest per-pair touch count, the most
    times one index occurs in ``pair_indices``.  So X, and the result, are
    int16 when that count is at most 32767, int32 (int64 past that)
    otherwise: the sums are exact and do not depend on summation order.

    The product is summed over blocks of ``max(2^18 // ell, ceil(64 *
    n_pairs^2 / ell^2))`` rows, X_b^T X_b for each block X_b of X: a block's
    X stays in cache while its rows are gathered, and its dense output is a
    small share of its work.  Each block is one call of scipy's numeric
    sparse product kernel ``csr_matmat`` on X_b^T and X_b.  scipy's public
    ``@`` first runs a symbolic pass over the same loops only to size its
    output, and no public sparse product skips it.  Here the touch counts
    size it: row i of X^T X gathers the columns of the touches_i rows of X
    that hold i, each i itself and at most ell - 1 others, so it has at
    most min(n_pairs, (ell - 1) * touches_i + 1) entries, and none when i
    is never touched.  A block touches each pair at most as often as the
    whole input, so that bound, taken once over all rows, sizes one set of
    output arrays that every block reuses.  The kernel checks no bound as
    it writes, so the indices are checked first and every index array has
    one width, int32 when the bound, nnz(X) and n_pairs fit.  X_b and
    X_b^T are freed before the block's first ``Cp[-1]`` entries are added
    into the one dense result by ``csr_todense``, the loop behind scipy's
    ``toarray``, which adds into its output.
    """
    n = checked_count(n_pairs, "n_pairs")
    return _sign_gram(*checked_rows(pair_indices, signs, n), n)


def _sign_gram(pair_indices, signs, n):
    """``sign_outer_products`` unchecked: ``n`` is an int and the rows pass
    ``errors.checked_rows``, as batch rows do.
    """
    count, ell = pair_indices.shape
    rows = max(_GRAM_ENTRIES // ell, -(-_GRAM_SCATTER * n * n // (ell * ell)))
    blocks = range(0, max(count, 1), rows)  # an empty input makes one block, of zeros
    # bincount takes its input as intp: one block at a time keeps that copy small.
    touches = sum(np.bincount(pair_indices[s : s + rows].ravel(), minlength=n) for s in blocks)
    largest = touches.max(initial=0)
    dtype = next(t for t in (np.int16, np.int32, np.int64) if largest <= np.iinfo(t).max)
    bound = int(np.minimum(n, (ell - 1) * touches + (touches > 0)).sum())
    index = np.int32 if max(bound, count * ell, n) <= _INT32_MAX else np.int64
    out = None
    for start in blocks:
        # The block's X, and X^T in CSR, as raw arrays: a scipy matrix would
        # copy indices that are a view of under half of their base.
        block = pair_indices[start : start + rows]
        xp = np.arange(0, block.size + 1, ell, dtype=index)
        xj = block.ravel().astype(index, copy=False)
        xx = np.asarray(signs[start : start + rows], dtype=dtype).ravel()
        tp, tj, tx = np.empty(n + 1, index), np.empty_like(xj), np.empty_like(xx)
        _sparsetools.csr_tocsc(len(block), n, xp, xj, xx, tp, tj, tx)
        # Sized once, after the first block's X: allocated before it, they
        # raised wide's peak RSS by 16 MB (glibc's mmap threshold).
        if out is None:
            cp = np.empty(n + 1, dtype=index)
            cj = np.empty(bound, dtype=index)
            cx = np.empty(bound, dtype=dtype)
        _sparsetools.csr_matmat(n, n, tp, tj, tx, xp, xj, xx, cp, cj, cx)
        del xp, xj, xx, tp, tj, tx
        if out is None:
            # C order: np.multiply in empirical_second_moment keeps it, and
            # the fit hands that estimate to the completion as it is.
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

    The (r, r, r) result is symmetric; ``_combine`` computes its
    m = r(r+1)(r+2)/6 distinct entries in O(count r^2 (r + 1) / 2 +
    n_pairs r^2 (r + 1)) time beyond X W and X's sums, with
    O(count r + block r^2) memory.
    """
    y = rows @ basis
    weighted = y * weights[:, None]
    return _combine(weighted, y, squares.T @ weighted, cubes.T @ weights, basis)


def _combine(weighted, y, planes, diagonal, basis):
    """The expansion of ``offdiagonal_third_sums`` from its partial sums.

    ``weighted`` is Y with row t scaled by w_t, ``planes`` the (n_pairs, r)
    sums sum_t w_t x_tk^2 y_t and ``diagonal`` the (n_pairs,) sums
    sum_t w_t x_tk^3.  Each term is symmetric in its three modes, so only
    the entries a <= b <= c of ``_multisets`` are formed.  With (j, k) over
    the r(r+1)/2 column pairs j <= k, three GEMMs give (pairs, r) products

        F = sum over row blocks of (Y_j * Y_k)^T weighted,
        P = (W_j * W_k)^T planes,   D = (W_j * W_k)^T (W * diagonal),

    and entry (a, b, c) is F[bc, a] - P[bc, a] - P[ac, b] - P[ab, c]
    + 2 D[bc, a].  The m entries are lifted to the symmetric tensor.
    """
    r = basis.shape[1]
    first, second = np.triu_indices(r)
    pair = np.empty((r, r), dtype=np.intp)
    pair[first, second] = pair[second, first] = np.arange(first.size)
    offsets = np.flatnonzero(first == second)
    full = np.zeros((first.size, r))
    products = np.empty((first.size, min(len(y), _BLOCK)))
    for start in range(0, len(y), _BLOCK):
        block = np.ascontiguousarray(y[start : start + _BLOCK].T)  # (r, rows)
        rows = products[:, : block.shape[1]]
        for j, offset in enumerate(offsets):  # pairs (j, j..r-1), in triu order
            np.multiply(block[j], block[j:], out=rows[offset : offset + r - j])
        full += rows @ weighted[start : start + _BLOCK]
    pairs = (basis[:, first] * basis[:, second]).T
    plane = pairs @ planes
    triple = pairs @ (basis * diagonal[:, None])
    (a, b, c), column, _ = _multisets(r)
    bc = pair[b, c]
    entries = full[bc, a] - (plane[bc, a] + plane[pair[a, c], b] + plane[pair[a, b], c])
    entries += 2.0 * triple[bc, a]
    return entries[column].reshape(r, r, r)


@functools.lru_cache(maxsize=4)
def _multisets(r):
    """Index multisets a <= b <= c of an (r, r, r) tensor, in lexicographic order.

    Returns them as a (3, m) array, the multiset of each of the r^3 entries
    in C order, and each multiset's orbit size (its distinct permutations).
    Cached for the last four ranks, and read-only.
    """
    entries = np.sort(np.indices((r, r, r)).reshape(3, -1), axis=0)
    triples, column, orbit = np.unique(
        entries, axis=1, return_inverse=True, return_counts=True
    )
    column = column.ravel()
    for array in (triples, column, orbit):
        array.setflags(write=False)
    return triples, column, orbit


def _third_moment_sums(pair_indices, signs, basis):
    """Sum over observations of the projected third-moment statistic, unchecked.

    For each row, with dense sign vector ``x`` and projection ``basis`` W
    (n_pairs, r), this accumulates the contraction of the off-diagonal
    part of ``x \\otimes x \\otimes x`` with three copies of W, the
    expansion of ``offdiagonal_third_sums`` with unit weights, as the
    symmetric (r, r, r) tensor of its m distinct entries.  The rows must
    pass ``errors.checked_rows``, as batch rows do: with signs in
    {-1, +1} the cubes of X are X itself and its squares |X|.  One float64
    copy of the signs is held: Y = X W and the column sums of X are taken
    first, then X's values are made absolute in place for the plane sums.

    X is held as raw CSR arrays, and its three products are the scipy
    kernels its public products call on them: ``csr_matvecs`` for Y = X W,
    ``csc_matvec`` of X^T with ones for the column sums, and ``csc_matvecs``
    of X^T for |X|^T Y.  A scipy matrix would copy indices that are a view
    of under half of their base, as the third-moment half of an odd count
    is.  The float64 values are a copy, so the caller's signs are untouched.
    """
    w = np.ascontiguousarray(basis, dtype=np.float64)
    (count, ell), (n, r) = pair_indices.shape, w.shape
    index = np.int32 if max(count * ell, n) <= _INT32_MAX else np.int64
    xp = np.arange(0, count * ell + 1, ell, dtype=index)
    xj = pair_indices.ravel().astype(index, copy=False)
    xx = np.array(signs, dtype=np.float64, order="C").ravel()
    y = np.zeros((count, r))
    _sparsetools.csr_matvecs(count, n, r, xp, xj, xx, w.ravel(), y.ravel())
    diagonal = np.zeros(n)
    _sparsetools.csc_matvec(n, count, xp, xj, xx, np.ones(count), diagonal)
    np.abs(xx, out=xx)
    planes = np.zeros((n, r))
    _sparsetools.csc_matvecs(n, count, r, xp, xj, xx, y.ravel(), planes.ravel())
    del xp, xj, xx
    return _combine(y, y, planes, diagonal, w)
