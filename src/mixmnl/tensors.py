"""Whitened third-moment estimation and orthogonal tensor decomposition.

Observed third-moment information lives only on triples of distinct
pairs.  Rather than completing the missing diagonal planes in the
ambient space, the estimator works in the whitened r-dimensional space:
the linear map sending a candidate whitened tensor Z to the whitened
off-diagonal projection of its lift is materialized as an (r^3, r^3)
matrix and inverted against the streaming statistic.  With B the coloring
map and W the whitening map (B^T W = I), the map is

    A(Z) = Z - [i=j term] - [j=k term] - [i=k term] + 2 [i=j=k term],

where each pair-diagonal term contracts Z with
C[ab, a'b'] = sum_i B_ia B_ib W_ia' W_ib' on two modes and the identity on
the third, and the triple-diagonal term contracts with
D[abc, a'b'c'] = sum_i B_ia B_ib B_ic W_ia' W_ib' W_ic'.  The solution,
symmetrized over all 6 mode permutations, estimates the whitened full
third moment, whose exact version admits an orthogonal rank-r
decomposition with weights 1/sqrt(q_a).
"""

import itertools
import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import DegenerateTensorError, ValidationError
from .moments import projected_third_moment

_COND_LIMIT = 1e12
_POWER_TOL = 1e-12
_WEIGHT_FLOOR = 1e-12


class TensorLSResult(NamedTuple):
    tensor: np.ndarray  # (r, r, r), symmetrized
    condition_number: float
    used_pinv: bool


class TensorEigenpairs(NamedTuple):
    values: np.ndarray  # descending, positive
    vectors: np.ndarray  # (r, rank), unit columns


def apply_tensor(tensor, vector):
    """Contraction T(I, u, u) of a cubic tensor with a vector twice."""
    return np.einsum("abc,b,c->a", tensor, vector, vector)


def symmetrize(tensor):
    """Average over all 6 mode permutations."""
    out = np.zeros_like(tensor)
    for perm in itertools.permutations(range(3)):
        out += tensor.transpose(perm)
    return out / 6.0


def project_pair_diagonals(tensor):
    """Zero every entry with a repeated index (copy)."""
    t = np.array(tensor, dtype=np.float64)
    idx = np.arange(t.shape[0])
    t[idx, idx, :] = 0.0
    t[:, idx, idx] = 0.0
    t[idx, :, idx] = 0.0
    return t


def whitened_ls_operator(basis):
    """Materialize the whitened masking map as an (r^3, r^3) matrix."""
    b = basis.coloring_map
    w = basis.whitening_map
    r = basis.rank
    c4 = np.einsum("ia,ib,iA,iB->abAB", b, b, w, w, optimize=True)
    d6 = np.einsum("ia,ib,ic,iA,iB,iC->abcABC", b, b, b, w, w, w, optimize=True)
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
        + 2.0 * d6.transpose(3, 4, 5, 0, 1, 2).reshape(r3, r3)
    )


def _solve_whitened(operator, rhs):
    r = rhs.shape[0]
    cond = float(np.linalg.cond(operator))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        warnings.warn(
            f"whitened tensor system is ill-conditioned (cond={cond:.3e}); "
            "falling back to a pseudo-inverse solve",
            RuntimeWarning,
        )
        flat = np.linalg.pinv(operator) @ rhs.reshape(-1)
        used_pinv = True
    else:
        flat = np.linalg.solve(operator, rhs.reshape(-1))
        used_pinv = False
    tensor = symmetrize(flat.reshape(r, r, r))
    return TensorLSResult(tensor=tensor, condition_number=cond, used_pinv=used_pinv)


def whitened_third_moment_ls(batch, basis, start=0, stop=None):
    """Estimate the whitened third moment from an observation range.

    Builds the masking operator for ``basis``, evaluates the streaming
    projected statistic as the right-hand side, and solves.  Condition
    numbers beyond 1e12 switch to a pseudo-inverse with a warning, flagged
    in the result.
    """
    rhs = projected_third_moment(batch, basis.whitening_map, start, stop)
    return _solve_whitened(whitened_ls_operator(basis), rhs)


def whitened_third_moment_ls_exact(third_moment, basis):
    """Same solve with the right-hand side from a materialized exact tensor."""
    t = np.asarray(third_moment, dtype=np.float64)
    n = basis.vectors.shape[0]
    if t.shape != (n, n, n):
        raise ValidationError("third moment shape does not match the basis")
    w = basis.whitening_map
    rhs = np.einsum("ijk,ia,jb,kc->abc", project_pair_diagonals(t), w, w, w, optimize=True)
    return _solve_whitened(whitened_ls_operator(basis), rhs)


def default_restarts(rank):
    return max(1, math.ceil(20.0 * rank * math.log(rank + 1)))


def tensor_power_decomposition(tensor, rank, restarts=None, n_iterations=50, rng=None):
    """Orthogonal decomposition by robust power iterations with deflation.

    Each of ``rank`` rounds runs ``restarts`` random unit starts for
    ``n_iterations`` power steps (early exit when the iterate moves less
    than 1e-12), keeps the candidate with the largest weight
    T(u, u, u) after orienting it positive, and deflates.  Raises
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
    if restarts is None:
        restarts = default_restarts(rank)
    if restarts < 1 or n_iterations < 1:
        raise ValidationError("restarts and n_iterations must be positive")
    if rng is None:
        rng = np.random.default_rng(0)

    values = np.empty(rank)
    vectors = np.empty((r, rank))
    for round_ in range(rank):
        best_weight = -np.inf
        best_vector = None
        for _ in range(restarts):
            u = rng.standard_normal(r)
            norm = np.linalg.norm(u)
            if norm == 0.0:
                continue
            u /= norm
            for _ in range(n_iterations):
                v = apply_tensor(t, u)
                norm = np.linalg.norm(v)
                if norm == 0.0:
                    break
                v /= norm
                moved = np.linalg.norm(v - u)
                u = v
                if moved < _POWER_TOL:
                    break
            weight = float(np.einsum("abc,a,b,c->", t, u, u, u))
            if weight < 0.0:
                weight = -weight
                u = -u
            if weight > best_weight:
                best_weight = weight
                best_vector = u
        if best_vector is None or best_weight < _WEIGHT_FLOOR:
            raise DegenerateTensorError(
                f"deflation round {round_}: no direction with weight above "
                f"{_WEIGHT_FLOOR:g} (best {best_weight:.3e})"
            )
        values[round_] = best_weight
        vectors[:, round_] = best_vector
        t -= best_weight * np.einsum("a,b,c->abc", best_vector, best_vector, best_vector)
    order = np.argsort(-values)
    return TensorEigenpairs(values=values[order], vectors=vectors[:, order])
