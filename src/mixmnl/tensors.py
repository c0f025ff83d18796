"""Whitened third-moment estimation and orthogonal tensor decomposition.

Observed third-moment information lives only on triples of distinct
pairs.  Rather than completing the missing diagonal planes in the
ambient space, the estimator works in the whitened r-dimensional space:
it solves for the whitened tensor Z whose off-diagonal lift matches the
streaming statistic.  With B the coloring map and W the whitening map
(B^T W = I), the masking map is

    A(Z) = Z - [i=j term] - [j=k term] - [i=k term] + 2 [i=j=k term],

where each pair-diagonal term contracts Z with
C[ab, a'b'] = sum_i B_ia B_ib W_ia' W_ib' on two modes and the identity on
the third, and the triple-diagonal term contracts with
D[abc, a'b'c'] = sum_i B_ia B_ib B_ic W_ia' W_ib' W_ic'.  A commutes with
the six mode permutations (they permute its plane terms and fix the triple
term), so it is block-diagonal over symmetric tensors and their
complement, and the symmetrized solution solves the m x m block S^T A S on
an orthonormal basis S of symmetric tensors, m = r(r+1)(r+2)/6.  That
block is built directly: its triple term is one GEMM over the pair axis of
the (N, m) symmetric row products of W and B, and its three plane terms
agree on symmetric tensors, so one (r^2, r^2) kernel C contracted with S
gives all three.  Memory is O(N (r^2 + m)), and no (r^3, r^3) map is
formed.  The solution estimates the whitened full third moment, whose
exact version admits an orthogonal rank-r decomposition with weights
1/sqrt(q_a).  The robust power method finds it; each deflation round
iterates all of its restarts together as the columns of one (r, restarts)
matrix, one GEMM per step.  While every column runs and moves, the new
iterates replace that matrix; once some stop, a step gathers the running
columns and scatters their new iterates back.  Both give the bits of the
same products and sums: the GEMM's operand and every array that is
reduced keep the layout they have in a gathered step.
"""

import functools
import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import DegenerateTensorError, ValidationError, checked_array, checked_count
from .kernels import _multisets, offdiagonal_third_sums
from .moments import projected_third_moment

_COND_LIMIT = 1e12
# Symmetric bases kept per process; the basis takes r^3 m floats (5 MB at r = 12).
_BASIS_CACHE = 4
_POWER_TOL = 1e-12
_WEIGHT_FLOOR = 1e-12


class TensorLSResult(NamedTuple):
    tensor: np.ndarray  # (r, r, r), symmetric
    condition_number: float
    used_pinv: bool


class TensorEigenpairs(NamedTuple):
    values: np.ndarray  # descending, positive
    vectors: np.ndarray  # (r, rank), unit columns


def _row_products(m, order):
    """Row-wise ``order``-fold Kronecker (Khatri-Rao) power: (N, r) -> (N, r**order).

    Column (a, b, ...) of the result, in C order, holds m[:, a] * m[:, b] * ...
    """
    n, r = m.shape
    out = m
    for _ in range(order - 1):
        out = (out[:, :, None] * m[:, None, :]).reshape(n, -1)
    return out


def _apply_columns(tensor, columns):
    """T(I, u, u) for every column u of an (r, R) matrix, as one GEMM.

    The (r^2, R) operand holds u_b u_c at row (b, c), the products of
    ``_row_products(columns.T, 2).T``.  They are formed along the rows of
    ``columns`` in C order, R at a time, then copied into the operand in
    Fortran order, whatever the layout of ``columns``: the layout
    ``_row_products`` gives for the Fortran-order starts the power method
    draws.  OpenBLAS sums some shapes (r = 4 to 7, and 11) in another
    order for a C-order operand.
    """
    r = tensor.shape[0]
    rows = np.ascontiguousarray(columns)
    products = (rows[:, None, :] * rows[None, :, :]).reshape(r * r, -1)
    return tensor.reshape(r, r * r) @ np.ascontiguousarray(products.T).T


def _column_norms(x):
    """Euclidean norm of each column of ``x``: ``np.linalg.norm(x, axis=0)``
    for real input, without its dispatch."""
    return np.sqrt(np.add.reduce(x * x, axis=0))


def whitened_ls_operator(basis):
    """The whitened masking map on symmetric tensors, as its (m, m) block S^T A S.

    S is the orthonormal symmetric basis (``_symmetric_basis``) and
    m = r(r+1)(r+2)/6.  The triple term S^T D S is (W3 S)^T (B3 S), where
    column (a, b, c) of W3 S is sqrt(orbit) w_a w_b w_c, one N x m product
    per map.  The three plane terms agree on symmetric tensors, so they are
    3 S^T (K x I) S with K = W2^T B2 the (r^2, r^2) pair-diagonal kernel.
    Memory is O(N (r^2 + m)); no (r^3, r^3) array is formed.
    """
    b = basis.coloring_map
    w = basis.whitening_map
    r = basis.rank
    s = _symmetric_basis(r)
    m = s.shape[1]
    triple = _symmetric_products(w).T @ _symmetric_products(b)
    kernel = _row_products(w, 2).T @ _row_products(b, 2)
    planes = (kernel @ s.reshape(r * r, r * m)).reshape(r**3, m)
    return np.eye(m) - 3.0 * (s.T @ planes) + 2.0 * triple


def _symmetric_products(x):
    """X3 S for an (N, r) map X: column (a, b, c) is sqrt(orbit) x_a x_b x_c."""
    (i, j, k), _, orbit = _multisets(x.shape[1])
    out = x[:, i] * np.sqrt(orbit)
    out *= x[:, j]
    out *= x[:, k]
    return out


@functools.lru_cache(maxsize=_BASIS_CACHE)
def _symmetric_basis(r):
    """Orthonormal basis of the symmetric (r, r, r) tensors, as (r^3, m) columns.

    One column per multiset of ``_multisets``, holding 1/sqrt(orbit size)
    on each distinct permutation of it.  Cached per r and read-only.
    """
    _, column, orbit = _multisets(r)
    basis = np.zeros((r**3, orbit.size))
    basis[np.arange(r**3), column] = 1.0 / np.sqrt(orbit[column])
    basis.setflags(write=False)
    return basis


def _solve_whitened(block, rhs):
    """Symmetric part of the solution of A x = ``rhs``, from the block S^T A S.

    The masking map A commutes with the mode permutations, so with S the
    symmetric basis that part is S (S^T A S)^-1 S^T rhs.  The condition
    number, the solve and the pseudo-inverse fallback all run on the
    (m, m) ``block`` from ``whitened_ls_operator``, and the lift S x is
    symmetric by construction.
    """
    r = rhs.shape[0]
    s = _symmetric_basis(r)
    projected = s.T @ rhs.reshape(-1)
    cond = float(np.linalg.cond(block))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        warnings.warn(
            f"whitened tensor system is ill-conditioned (cond={cond:.3e}); "
            "falling back to a pseudo-inverse solve",
            RuntimeWarning,
        )
        x = np.linalg.pinv(block) @ projected
        used_pinv = True
    else:
        x = np.linalg.solve(block, projected)
        used_pinv = False
    tensor = (s @ x).reshape(r, r, r)
    return TensorLSResult(tensor=tensor, condition_number=cond, used_pinv=used_pinv)


def whitened_third_moment_ls(batch, basis, start=0, stop=None):
    """Estimate the whitened third moment from an observation range.

    Builds the masking map's symmetric block for ``basis``, evaluates the
    streaming projected statistic as the right-hand side, and solves on
    symmetric tensors.  ``condition_number`` is the 2-norm condition number of the
    map restricted to symmetric tensors; beyond 1e12 the solve switches to
    a pseudo-inverse with a warning, flagged in ``used_pinv``.
    """
    rhs = projected_third_moment(batch, basis.whitening_map, start, stop)
    return _solve_whitened(whitened_ls_operator(basis), rhs)


def whitened_third_moment_ls_exact(third_moment, basis):
    """Same solve with the right-hand side from a materialized exact tensor.

    The whitened off-diagonal contraction is taken by inclusion-exclusion:
    the full contraction of ``third_moment``, minus the three pair-diagonal
    planes (i=j, j=k, i=k), plus twice the triple diagonal they share.  The
    planes are read as diagonal views, so no copy of the N^3 tensor is made
    and the argument is left unchanged; the tensor need not be symmetric.
    """
    t = checked_array(third_moment, "third_moment")
    n = basis.vectors.shape[0]
    if t.shape != (n, n, n):
        raise ValidationError("third moment shape does not match the basis")
    w = basis.whitening_map
    r = basis.rank
    w2 = _row_products(w, 2)
    # The full contraction is the same map on every mode, so it runs on the
    # axes in memory order (a view, C-contiguous for any transposed layout)
    # and the result is transposed back.
    order = np.argsort(t.strides)[::-1]
    full = (t.transpose(order).reshape(n * n, n) @ w).reshape(n, n, r)  # [i, j, c]
    full = (w.T @ (w.T @ full).reshape(n, r * r)).reshape(r, r, r)  # [a, b, c]
    full = full.transpose(np.argsort(order))
    ij = w2.T @ (np.einsum("iik->ik", t) @ w)  # [(a, b), c]
    jk = w.T @ (np.einsum("ijj->ij", t) @ w2)  # [a, (b, c)]
    ik = w2.T @ (np.einsum("iji->ij", t) @ w)  # [(a, c), b]
    iii = np.einsum("k,ka,kb,kc->abc", np.einsum("iii->i", t), w, w, w, optimize=True)
    rhs = (
        full
        - ij.reshape(r, r, r)
        - jk.reshape(r, r, r)
        - ik.reshape(r, r, r).transpose(0, 2, 1)
        + 2.0 * iii
    )
    return _solve_whitened(whitened_ls_operator(basis), rhs)


def whitened_third_moment_ls_factored(outcome_matrix, mixture, basis):
    """Same solve with the right-hand side from the factors of the exact moment.

    M3 = sum_a q_a p_a^{x3}, so the whitened off-diagonal contraction of
    ``whitened_third_moment_ls_exact`` is ``kernels.offdiagonal_third_sums``,
    the expansion the sampled statistic runs, with the columns p_a of P as
    rows and q as their weights.  It takes O(N r^3) time and no N x N or
    N^3 array.
    """
    p = checked_array(outcome_matrix, "outcome_matrix")
    q = checked_array(mixture, "mixture")
    w = basis.whitening_map
    if p.ndim != 2 or p.shape[0] != w.shape[0] or q.shape != (p.shape[1],):
        raise ValidationError("factors do not match the basis")
    rows = p.T
    rhs = offdiagonal_third_sums(rows, rows * rows, rows**3, q, w)
    return _solve_whitened(whitened_ls_operator(basis), rhs)


def default_restarts(rank):
    """Restarts per deflation round, 20 r log(r + 1) (robust tensor power method)."""
    return max(1, math.ceil(20.0 * rank * math.log(rank + 1)))


def tensor_power_decomposition(tensor, rank, n_iterations=50, rng=None):
    """Orthogonal decomposition by robust power iterations with deflation.

    Each of ``rank`` rounds runs ``default_restarts(rank)`` random unit
    starts for ``n_iterations`` power steps, keeps the candidate with the
    largest weight T(u, u, u) after orienting it positive (the first one on
    ties), and deflates.  A round iterates all of its starts together as
    the columns of one (r, restarts) matrix, one GEMM per step; a column
    stops once it moves less than 1e-12 or its image is zero.  Raises
    ``DegenerateTensorError`` when no candidate carries weight above
    1e-12.  Pairs are returned sorted by descending weight.  ``rank`` in
    [1, r] and ``n_iterations`` >= 1 must be integers; a float or a string
    is refused, not truncated.
    """
    t = checked_array(tensor, "tensor").copy()  # deflated in place
    if t.ndim != 3 or len(set(t.shape)) != 1:
        raise ValidationError("tensor must be cubic")
    r = t.shape[0]
    rank = checked_count(rank, "rank", low=1, high=r)
    n_iterations = checked_count(n_iterations, "n_iterations", low=1)
    if rng is None:
        rng = np.random.default_rng(0)

    restarts = default_restarts(rank)
    values = np.empty(rank)
    vectors = np.empty((r, rank))
    for round_ in range(rank):
        # One column per start, drawn in the order of ``restarts`` draws of r.
        u = rng.standard_normal((restarts, r)).T
        norms = _column_norms(u)
        started = norms != 0.0
        u[:, started] /= norms[started]
        active = np.flatnonzero(started)
        for _ in range(n_iterations):
            if active.size == 0:
                break
            ua = u if active.size == restarts else u[:, active]
            v = _apply_columns(t, ua)
            norms = _column_norms(v)
            if not norms.all():
                moving = norms != 0.0  # a zero image freezes the column as it is
                v, norms, ua = v[:, moving], norms[moving], ua[:, moving]
                active = active[moving]
            v /= norms
            moved = _column_norms(v - ua)
            if v.shape[1] == restarts:
                u = v  # every column moves: no scatter
            else:
                u[:, active] = v
            active = active[~(moved < _POWER_TOL)]
        weights = np.einsum("aR,aR->R", u, _apply_columns(t, u))
        u[:, weights < 0.0] *= -1.0
        weights = np.abs(weights)
        weights[~started | np.isnan(weights)] = -np.inf
        best = int(np.argmax(weights))
        best_weight = float(weights[best])
        if best_weight < _WEIGHT_FLOOR:
            raise DegenerateTensorError(
                f"deflation round {round_}: no direction with weight above "
                f"{_WEIGHT_FLOOR:g} (best {best_weight:.3e})"
            )
        best_vector = u[:, best]
        values[round_] = best_weight
        vectors[:, round_] = best_vector
        t -= best_weight * np.einsum("a,b,c->abc", best_vector, best_vector, best_vector)
    order = np.argsort(-values)
    return TensorEigenpairs(values=values[order], vectors=vectors[:, order])
