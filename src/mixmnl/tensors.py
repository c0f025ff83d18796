"""Whitened third-moment estimation and orthogonal tensor decomposition.

Observed third-moment information lives only on triples of distinct
pairs.  Rather than completing the missing diagonal planes in the
ambient space, the estimator works in the whitened r-dimensional space:
the linear map sending a candidate whitened tensor Z to the whitened
off-diagonal projection of its lift is materialized as an (r^3, r^3)
matrix and solved against the streaming statistic on symmetric tensors.
With B the coloring map and W the whitening map (B^T W = I), the map is

    A(Z) = Z - [i=j term] - [j=k term] - [i=k term] + 2 [i=j=k term],

where each pair-diagonal term contracts Z with
C[ab, a'b'] = sum_i B_ia B_ib W_ia' W_ib' on two modes and the identity on
the third, and the triple-diagonal term contracts with
D[abc, a'b'c'] = sum_i B_ia B_ib B_ic W_ia' W_ib' W_ic'.  Both are GEMMs
over the pair axis of row-wise (Khatri-Rao) products: C = B2^T W2 and
D = B3^T W3, with B_k and W_k of shape (N, r^k).  A commutes with the six
mode permutations (they permute its plane terms and fix the triple term),
so it is block-diagonal over symmetric tensors and their complement.  The
symmetrized solution is therefore the solution of the m x m block on an
orthonormal basis of symmetric tensors, m = r(r+1)(r+2)/6.  It estimates
the whitened full third moment, whose exact version admits an orthogonal
rank-r decomposition with weights 1/sqrt(q_a).  The robust power method
finds it; each deflation round iterates all of its restarts together as
the columns of one (r, restarts) matrix.
"""

import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import DegenerateTensorError, ValidationError
from .kernels import offdiagonal_third_sums
from .moments import projected_third_moment

_COND_LIMIT = 1e12
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
    """T(I, u, u) for every column u of an (r, R) matrix, as one GEMM."""
    r = tensor.shape[0]
    return tensor.reshape(r, r * r) @ _row_products(columns.T, 2).T


def whitened_ls_operator(basis):
    """Materialize the whitened masking map as an (r^3, r^3) matrix.

    The pair-diagonal kernel C and the triple-diagonal kernel D are two
    GEMMs over the pair axis, B2^T W2 and W3^T B3, where B_k and W_k are
    the row-wise k-fold products of the coloring and whitening maps.
    """
    b = basis.coloring_map
    w = basis.whitening_map
    r = basis.rank
    c4 = (_row_products(b, 2).T @ _row_products(w, 2)).reshape(r, r, r, r)
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
        + 2.0 * (_row_products(w, 3).T @ _row_products(b, 3))
    )


def _symmetric_basis(r):
    """Orthonormal basis of the symmetric (r, r, r) tensors, as (r^3, m) columns.

    One column per index multiset a <= b <= c, in lexicographic order,
    holding 1/sqrt(orbit size) on each distinct permutation of it.
    """
    entries = np.sort(np.indices((r, r, r)).reshape(3, -1), axis=0)
    _, column, orbit = np.unique(entries, axis=1, return_inverse=True, return_counts=True)
    column = column.ravel()
    basis = np.zeros((r**3, orbit.size))
    basis[np.arange(r**3), column] = 1.0 / np.sqrt(orbit[column])
    return basis


def _solve_whitened(operator, rhs):
    """Symmetric part of the solution of ``operator`` x = ``rhs``.

    The masking map A commutes with the mode permutations, so with S the
    symmetric basis that part is S (S^T A S)^-1 S^T rhs.  The condition
    number, the solve and the pseudo-inverse fallback all run on the
    (m, m) block S^T A S, and the lift S x is symmetric by construction.
    """
    r = rhs.shape[0]
    s = _symmetric_basis(r)
    block = s.T @ operator @ s
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

    Builds the masking operator for ``basis``, evaluates the streaming
    projected statistic as the right-hand side, and solves on symmetric
    tensors.  ``condition_number`` is the 2-norm condition number of the
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
    t = np.asarray(third_moment, dtype=np.float64)
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
    iii = _row_products(w, 3).T @ np.einsum("iii->i", t)  # [(a, b, c)]
    rhs = (
        full
        - ij.reshape(r, r, r)
        - jk.reshape(r, r, r)
        - ik.reshape(r, r, r).transpose(0, 2, 1)
        + 2.0 * iii.reshape(r, r, r)
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
    p = np.asarray(outcome_matrix, dtype=np.float64)
    q = np.asarray(mixture, dtype=np.float64)
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
    1e-12.  Pairs are returned sorted by descending weight.
    """
    t = np.array(tensor, dtype=np.float64)
    if t.ndim != 3 or len(set(t.shape)) != 1:
        raise ValidationError("tensor must be cubic")
    r = t.shape[0]
    rank = int(rank)
    if not 1 <= rank <= r:
        raise ValidationError("rank must be in [1, r]")
    if n_iterations < 1:
        raise ValidationError("n_iterations must be positive")
    if rng is None:
        rng = np.random.default_rng(0)

    restarts = default_restarts(rank)
    values = np.empty(rank)
    vectors = np.empty((r, rank))
    for round_ in range(rank):
        # One column per start, drawn in the order of ``restarts`` draws of r.
        u = rng.standard_normal((restarts, r)).T
        norms = np.linalg.norm(u, axis=0)
        started = norms != 0.0
        u[:, started] /= norms[started]
        active = np.flatnonzero(started)
        for _ in range(n_iterations):
            if active.size == 0:
                break
            ua = u[:, active]
            v = _apply_columns(t, ua)
            norms = np.linalg.norm(v, axis=0)
            moving = norms != 0.0  # a zero image freezes the column as it is
            v = v[:, moving] / norms[moving]
            moved = np.linalg.norm(v - ua[:, moving], axis=0)
            active = active[moving]
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
