"""Rank-r completion of the masked diagonal by alternating minimization.

The empirical second moment is trustworthy only off the diagonal, so the
full matrix is recovered as the best rank-r fit of the off-diagonal
entries: alternately solve the row-wise least-squares problem

    min_U || offdiag(A) - offdiag(U V^T) ||_F^2

against the current orthonormal basis V, then re-orthonormalize by QR.
Because the mask and the input are symmetric, the objective is
non-increasing across iterations.  The result keeps the completion as
factors: the last unorthonormalized solution S and the basis V it was
regressed against, whose product S V^T is an exact minimizer over its row
space and is formed only when ``matrix`` is read.

The objective recorded after each solve is expanded so that no N x N
product is formed: with S the solution, V the basis it was regressed
against, and A V and V^T V already computed for the solve,

    J = ||A||^2 - 2 <S, A V> + <S^T S, V^T V> - sum_i (s_i . v_i)^2,

clamped at zero, where ||A||^2 is taken once and the last term removes
the diagonal of S V^T.  The terms cancel as the fit converges, so J bottoms
out at a roundoff floor of a few ulps of ||A||^2 (about 1e-16 ||A||^2)
instead of reaching zero.

``altmin_complete`` checks its input and hands it to ``_complete``, which
reads A only for ||A||^2, the ARPACK seed and the products A V.  The fit
calls ``_complete`` directly: its second moment is symmetric, finite and
hollow by construction.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import ArpackError, eigsh

from .errors import NumericalError, RankDeficiencyError, ValidationError
from .errors import checked_array, checked_count

_RIDGE = 1e-12
_TARGET = 1e-8
_TILE = 128


@dataclass
class AltMinResult:
    """Completion as factors, S V^T, plus a convergence report.

    ``solution`` is the last solve's S and ``basis`` the orthonormal V it
    was regressed against, both (N, r).  ``objectives[t]`` is the masked
    squared error after solve t; ``ridge_steps`` lists the solves that
    needed a ridge fallback.
    """

    solution: np.ndarray
    basis: np.ndarray
    objectives: list = field(default_factory=list)
    ridge_steps: list = field(default_factory=list)

    @property
    def matrix(self):
        """The completed (N, N) matrix S V^T, formed on every read."""
        return self.solution @ self.basis.T

    def report(self):
        return {
            "objectives": [float(v) for v in self.objectives],
            "ridge_steps": list(self.ridge_steps),
        }


@dataclass(frozen=True)
class WhiteningBasis:
    """Top eigenpairs of a completed second moment, eigenvalues descending.

    ``whitening_map`` scales columns by 1/sqrt(value) so that contracting
    the second moment on both sides gives the identity; ``coloring_map``
    is its right inverse U diag(sqrt(value)).
    """

    vectors: np.ndarray  # (n_pairs, rank), orthonormal columns
    values: np.ndarray  # (rank,), strictly positive, descending

    @property
    def rank(self):
        return self.values.shape[0]

    @property
    def whitening_map(self):
        return self.vectors / np.sqrt(self.values)[None, :]

    @property
    def coloring_map(self):
        return self.vectors * np.sqrt(self.values)[None, :]


def default_iteration_count(offdiag):
    """ceil(log2(2 ||A||_F / target)) solves, floored at 1."""
    norm = float(np.linalg.norm(offdiag))
    if norm <= _TARGET:
        return 1
    return max(1, math.ceil(math.log2(2.0 * norm / _TARGET)))


def _top_eigenpairs(sym, rank):
    """The ``rank`` largest-magnitude eigenpairs of a symmetric matrix.

    Pairs come back by descending magnitude; they seed the completion.
    ARPACK starts from a fixed seeded vector, so repeated calls are
    bit-identical.  Dense ``eigh`` runs only for rank >= N - 1, where
    ARPACK's Krylov space would be the whole space (and scipy refuses rank
    N).  Solver failures raise ``NumericalError``.
    """
    n = sym.shape[0]
    if rank >= n - 1:
        values, vectors = np.linalg.eigh(sym)
    else:
        start = np.random.default_rng(0).uniform(-1.0, 1.0, n)
        try:
            values, vectors = eigsh(sym, k=rank, which="LM", v0=start)
        except ArpackError as err:
            raise NumericalError(f"eigensolver failed: {err}") from err
    order = np.argsort(-np.abs(values), kind="stable")[:rank]
    return values[order], vectors[:, order]


def _max_asymmetry(a):
    """max |a - a^T|, each upper square tile against its mirrored lower tile.

    Tile a[i:i+128, j:j+128] with j >= i is compared with
    a[j:j+128, i:i+128]^T, so each off-diagonal pair is read once and the
    only temporary is one tile of differences.
    """
    n = a.shape[0]
    worst = 0.0
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            diff = a[i : i + _TILE, j : j + _TILE] - a[j : j + _TILE, i : i + _TILE].T
            worst = max(worst, np.abs(diff, out=diff).max())
    return worst


def altmin_complete(offdiag, rank, n_iterations=None):
    """Alternating least-squares completion of a symmetric off-diagonal matrix.

    The checked boundary of ``_complete``.  ``offdiag`` must be a square,
    finite array, symmetric to 1e-8 of its largest magnitude, with the
    diagonal treated as unobserved (any diagonal values are ignored).  It
    is read, never written: a zero-diagonal C-ordered float64 input is
    used as it is, any other is copied.  ``rank`` in [1, N] and
    ``n_iterations`` >= 1 must be integers; a float or a string is
    refused, not truncated.  ``n_iterations`` defaults to
    ``default_iteration_count`` of the input.
    """
    a = np.ascontiguousarray(checked_array(offdiag, "offdiag"))
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError("offdiag must be square")
    n = a.shape[0]
    rank = checked_count(rank, "rank", low=1, high=n)
    scale = max(a.max(), -a.min())
    if scale > 0 and _max_asymmetry(a) > 1e-8 * scale:
        raise ValidationError("offdiag must be symmetric")
    if np.diagonal(a).any():
        a = a.copy()  # never write to the caller's array
        np.fill_diagonal(a, 0.0)
    if n_iterations is None:
        n_iterations = default_iteration_count(a)
    n_iterations = checked_count(n_iterations, "n_iterations", low=1)
    return _complete(a, rank, n_iterations)


def _complete(a, rank, n_iterations):
    """``altmin_complete`` unchecked: ``a`` is symmetric, finite and hollow.

    ``a`` is C-ordered float64, ``rank`` an int in [1, N] and
    ``n_iterations`` an int >= 1.  Starts from the eigenvectors of the
    ``rank`` largest-magnitude eigenvalues and runs ``n_iterations`` solves.
    Singular row systems fall back to a ridge of 1e-12 and are flagged in
    the result's ``ridge_steps``.
    """
    _, basis = _top_eigenpairs(a, rank)

    # einsum sums in its own loop: BLAS's dot would split the sum by thread
    # count, and the objectives' last digits with it.
    norm_sq = float(np.einsum("ij,ij->", a, a))
    result = AltMinResult(solution=None, basis=None)
    for step in range(n_iterations):
        gram = basis.T @ basis
        rhs = a @ basis  # diagonal of a is zero, so row sums need no correction
        systems = gram[None, :, :] - basis[:, :, None] * basis[:, None, :]
        try:
            solution = np.linalg.solve(systems, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            ridged = systems + _RIDGE * np.eye(rank)
            solution = np.linalg.solve(ridged, rhs[:, :, None])[:, :, 0]
            result.ridge_steps.append(step)
        result.solution, result.basis = solution, basis
        fit = float(np.vdot(solution, rhs))
        norm_fit = float(np.vdot(solution.T @ solution, gram))
        diag_fit = np.einsum("ij,ij->i", solution, basis)
        objective = norm_sq - 2.0 * fit + norm_fit - float(diag_fit @ diag_fit)
        result.objectives.append(max(objective, 0.0))
        basis, _ = np.linalg.qr(solution)
    return result


def numerical_rank(values, n):
    """How many ``values`` exceed the floor n * eps * max |values|.

    ``values`` is the spectrum of a symmetric n x n matrix, the eigenvalues
    not given being 0; values at or below the floor are the roundoff of
    its eigensolve, so they do not count as positive.
    """
    floor = n * np.finfo(float).eps * np.abs(values).max(initial=0.0)
    return int((values > floor).sum())


def whitening_basis(values, vectors, rank):
    """Whitening basis from the spectrum of a symmetric N x N matrix.

    ``values`` are its eigenvalues, every one not given being 0, and the
    (N, k) ``vectors`` their eigenvectors.  Keeps the ``rank`` largest values
    (descending) with their columns, each signed so that its
    largest-magnitude entry is positive.  Raises ``RankDeficiencyError``
    unless ``numerical_rank`` counts at least ``rank`` positive values, so
    that the roundoff of a negative semidefinite matrix is not kept; the
    error carries the spectrum, descending and zero-padded to N.
    """
    n = vectors.shape[0]
    positive = numerical_rank(values, n)
    if positive < rank:
        raise RankDeficiencyError(
            f"only {positive} of the requested {rank} eigenvalues are numerically positive",
            spectrum=np.sort(np.concatenate([values, np.zeros(n - values.size)]))[::-1],
        )
    order = np.argsort(-values, kind="stable")[:rank]
    vectors = vectors[:, order]
    # No solver fixes an eigenvector's sign; make each largest-magnitude
    # entry positive so the basis depends on the matrix alone.
    peaks = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(rank)]
    vectors = vectors * np.where(peaks < 0, -1.0, 1.0)[None, :]
    return WhiteningBasis(vectors=np.ascontiguousarray(vectors), values=values[order])


def symmetrize_and_eig(matrix, rank):
    """Whitening basis from one dense ``eigh`` of (M + M^T) / 2.

    The whole spectrum goes to ``whitening_basis``, which keeps the
    ``rank`` algebraically largest eigenpairs; a negative eigenvalue is
    never kept, but it raises the numerical-rank floor, so a negative
    semidefinite matrix raises instead of whitening with its roundoff.
    O(N^3) time and O(N^2) memory: the dense reference for small N, which
    ``components_from_exact_moments`` uses.
    """
    m = checked_array(matrix, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("matrix must be square")
    rank = checked_count(rank, "rank", low=1, high=m.shape[0])
    values, vectors = np.linalg.eigh(0.5 * (m + m.T))
    return whitening_basis(values, vectors, rank)
