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
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import ArpackError, eigsh

from .errors import NumericalError, RankDeficiencyError, ValidationError

_RIDGE = 1e-12
_TARGET = 1e-8
_SYMMETRY_BLOCK = 128


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


def _top_eigenpairs(sym, rank, which):
    """The ``rank`` eigenpairs of a symmetric matrix that ``which`` ranks first.

    ``which`` is "LM" (largest magnitude) or "LA" (algebraically largest);
    pairs come back in that order, descending.  ARPACK starts from a fixed
    seeded vector, so repeated calls are bit-identical.  Dense ``eigh`` runs
    only for rank >= N - 1, where ARPACK's Krylov space would be the whole
    space (and scipy refuses rank N).  Solver failures raise
    ``NumericalError``.
    """
    n = sym.shape[0]
    if rank >= n - 1:
        values, vectors = np.linalg.eigh(sym)
    else:
        start = np.random.default_rng(0).uniform(-1.0, 1.0, n)
        try:
            values, vectors = eigsh(sym, k=rank, which=which, v0=start)
        except ArpackError as err:
            raise NumericalError(f"eigensolver failed: {err}") from err
    key = np.abs(values) if which == "LM" else values
    order = np.argsort(-key, kind="stable")[:rank]
    return values[order], vectors[:, order]


def _max_asymmetry(a):
    """max |a - a^T|, one block of rows against its columns at a time.

    The differences go through one (block, N) buffer, so no N x N
    temporary is allocated.
    """
    n = a.shape[0]
    buffer = np.empty((min(_SYMMETRY_BLOCK, n), n))
    worst = 0.0
    for lo in range(0, n, _SYMMETRY_BLOCK):
        hi = min(lo + _SYMMETRY_BLOCK, n)
        diff = np.subtract(a[lo:hi], a[:, lo:hi].T, out=buffer[: hi - lo])
        worst = max(worst, np.abs(diff, out=diff).max())
    return worst


def altmin_complete(offdiag, rank, n_iterations=None):
    """Alternating least-squares completion of a symmetric off-diagonal matrix.

    ``offdiag`` is square and symmetric with the diagonal treated as
    unobserved (any diagonal values are ignored).  Starts from the
    eigenvectors of the ``rank`` largest-magnitude eigenvalues and runs
    ``n_iterations`` solves (default scales with log of the input norm).
    Singular row systems fall back to a ridge of 1e-12 and are flagged in
    the result's ``ridge_steps``.
    """
    a = np.array(offdiag, dtype=np.float64, order="C")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError("offdiag must be square")
    if not np.isfinite(a).all():
        raise ValidationError("offdiag must be finite")
    n = a.shape[0]
    rank = int(rank)
    if not 1 <= rank <= n:
        raise ValidationError("rank must be in [1, N]")
    scale = max(a.max(), -a.min())
    if scale > 0 and _max_asymmetry(a) > 1e-8 * scale:
        raise ValidationError("offdiag must be symmetric")
    np.fill_diagonal(a, 0.0)
    if n_iterations is None:
        n_iterations = default_iteration_count(a)
    n_iterations = int(n_iterations)
    if n_iterations < 1:
        raise ValidationError("n_iterations must be at least 1")

    _, basis = _top_eigenpairs(a, rank, "LM")

    norm_sq = float(np.vdot(a, a))
    result = AltMinResult(solution=None, basis=None)
    eye = np.eye(rank)
    for step in range(n_iterations):
        gram = basis.T @ basis
        rhs = a @ basis  # diagonal of a is zero, so row sums need no correction
        systems = gram[None, :, :] - basis[:, :, None] * basis[:, None, :]
        try:
            solution = np.linalg.solve(systems, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            solution = np.linalg.solve(systems + _RIDGE * eye[None, :, :], rhs[:, :, None])[
                :, :, 0
            ]
            result.ridge_steps.append(step)
        result.solution, result.basis = solution, basis
        fit = float(np.vdot(solution, rhs))
        norm_fit = float(np.vdot(solution.T @ solution, gram))
        diag_fit = np.einsum("ij,ij->i", solution, basis)
        objective = norm_sq - 2.0 * fit + norm_fit - float(diag_fit @ diag_fit)
        result.objectives.append(max(objective, 0.0))
        basis, _ = np.linalg.qr(solution)
    return result


def whitening_basis(values, vectors, rank, spectrum):
    """Whitening basis from candidate eigenpairs of a symmetric N x N matrix.

    Keeps the ``rank`` largest ``values`` (descending; candidates beyond
    those given count as 0) with their columns of the (N, k) ``vectors``,
    each signed so that its largest-magnitude entry is positive.  Raises
    ``RankDeficiencyError`` unless all kept values exceed the numerical-rank
    floor N * eps * max |lambda| over the given ``values``, so that the
    roundoff of a negative semidefinite matrix is not kept; the error
    carries the full spectrum, descending and zero-padded to N, which the
    zero-argument callable ``spectrum`` is asked for only then.
    """
    n = vectors.shape[0]
    floor = n * np.finfo(float).eps * np.abs(values).max(initial=0.0)
    order = np.argsort(-values, kind="stable")[:rank]
    values = np.concatenate([values[order], np.zeros(rank - order.size)])
    if values[-1] <= floor:
        full = spectrum()
        raise RankDeficiencyError(
            f"only {int((values > floor).sum())} of the requested {rank} eigenvalues "
            "are numerically positive",
            spectrum=np.sort(np.concatenate([full, np.zeros(n - full.size)]))[::-1],
        )
    vectors = vectors[:, order]
    # No solver fixes an eigenvector's sign; make each largest-magnitude
    # entry positive so the basis depends on the matrix alone.
    peaks = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(rank)]
    vectors = vectors * np.where(peaks < 0, -1.0, 1.0)[None, :]
    return WhiteningBasis(vectors=np.ascontiguousarray(vectors), values=values)


def symmetrize_and_eig(matrix, rank):
    """Whitening basis from the top-rank eigenpairs of (M + M^T) / 2.

    Takes the ``rank`` algebraically largest eigenvalues under the rules of
    ``whitening_basis``.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("matrix must be square")
    rank = int(rank)
    if not 1 <= rank <= m.shape[0]:
        raise ValidationError("rank must be in [1, N]")
    sym = 0.5 * (m + m.T)
    values, vectors = _top_eigenpairs(sym, rank, "LA")
    return whitening_basis(values, vectors, rank, lambda: np.linalg.eigvalsh(sym))
