"""Exact and empirical low-order moments of comparison outcomes.

With ``P`` the (n_pairs, r) matrix of conditional outcome means and ``q``
the mixture, the population moments are ``M2 = P diag(q) P^T`` and
``M3 = sum_a q_a P_a^{x3}``.  Empirical estimators only see a pair's
outcome when the pair lands in an observation, so off-diagonal entries are
rescaled by the inverse probability that 2 (or 3) fixed distinct pairs are
all drawn in one without-replacement subset of size ell.  Diagonal entries
carry no mixture information (signs square to 1) and are dropped.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ValidationError


@dataclass(frozen=True)
class SecondMomentEstimate:
    """Off-diagonal second-moment estimate with its sample count."""

    matrix: np.ndarray  # (n_pairs, n_pairs), symmetric, zero diagonal
    sample_count: int


def split_ranges(count):
    """Halve a batch: first range feeds second moments, second range third.

    Odd counts give the extra observation to the first range.
    """
    count = int(count)
    if count < 2:
        raise ValidationError("need at least 2 observations to split")
    half = (count + 1) // 2
    return (0, half), (half, count)


def _check_range(count, start, stop):
    stop = count if stop is None else int(stop)
    start = int(start)
    if not 0 <= start < stop <= count:
        raise ValidationError(f"empty or invalid observation range [{start}, {stop})")
    return start, stop


def exact_second_moment(model, graph):
    """Population second moment P diag(q) P^T; (n_pairs, n_pairs), PSD."""
    p = model.expected_outcomes(graph)
    return (p * model.mixture[None, :]) @ p.T


def exact_third_moment(model, graph, max_pairs=60):
    """Population third moment as a dense (n_pairs,)^3 tensor.

    Cubic in the number of pairs, so refuses graphs above ``max_pairs``;
    raise the cap explicitly for debug paths that can afford the memory,
    or stay on the streaming statistic.
    """
    n = graph.n_pairs
    if n > max_pairs:
        raise ValidationError(
            f"{n} pairs exceeds max_pairs={max_pairs}; "
            "use the streaming projected statistic instead"
        )
    p = model.expected_outcomes(graph)
    return np.einsum("a,ka,ma,pa->kmp", model.mixture, p, p, p, optimize=True)


def second_moment_spectrum(model, graph):
    """Top r eigenvalues and eigenvectors of the exact second moment.

    Works on the (n_pairs, r) factor P diag(sqrt(q)), so it is exact and
    cheap even when n_pairs is too large for a dense eigensolve.  Returns
    (values descending, vectors) with r columns.
    """
    factor = model.expected_outcomes(graph) * np.sqrt(model.mixture)[None, :]
    u, s, _ = np.linalg.svd(factor, full_matrices=False)
    return s**2, u


def empirical_second_moment(batch, start=0, stop=None):
    """Unbiased off-diagonal second-moment estimate from an observation range.

    Averages the sign outer products, rescales off-diagonal entries by
    N(N-1) / (ell(ell-1)) to undo the subset-inclusion probability, and
    zeroes the diagonal.  Expectation of every off-diagonal entry equals
    the exact second moment.
    """
    start, stop = _check_range(len(batch), start, stop)
    ell = batch.ell
    if ell < 2:
        raise ValidationError("second-moment estimation needs ell >= 2")
    n = batch.graph.n_pairs
    sums = kernels.sign_outer_products(
        batch.pair_indices[start:stop], batch.signs[start:stop], n
    )
    scale = (n * (n - 1)) / (ell * (ell - 1)) / (stop - start)
    matrix = sums * scale
    np.fill_diagonal(matrix, 0.0)
    return SecondMomentEstimate(matrix=matrix, sample_count=stop - start)


def projected_third_moment(batch, basis, start=0, stop=None):
    """Streaming estimate of the whitened off-diagonal third moment.

    ``basis`` is an (n_pairs, r) projection applied to all three tensor
    modes.  Per observation the statistic expands the off-diagonal part of
    the sign vector's third outer power against the basis in
    O(ell * r^3), so the cubic tensor is never materialized.  Off-diagonal
    rescaling is N(N-1)(N-2) / (ell(ell-1)(ell-2)).
    """
    start, stop = _check_range(len(batch), start, stop)
    ell = batch.ell
    if ell < 3:
        raise ValidationError("third-moment estimation needs ell >= 3")
    basis = np.asarray(basis, dtype=np.float64)
    n = batch.graph.n_pairs
    if basis.ndim != 2 or basis.shape[0] != n:
        raise ValidationError("basis must be (n_pairs, r)")
    sums = kernels.projected_third_moment_sums(
        batch.pair_indices[start:stop], batch.signs[start:stop], basis
    )
    scale = (n * (n - 1) * (n - 2)) / (ell * (ell - 1) * (ell - 2)) / (stop - start)
    return sums * scale


def incoherence(matrix, rank):
    """Incoherence sqrt(N / rank) * max row norm of the top-rank eigenbasis.

    Eigenvectors are ranked by eigenvalue magnitude.  Requesting a rank
    beyond the numerical rank only warns; the value is still computed.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("incoherence needs a square matrix")
    scale = np.abs(m).max()
    if scale > 0 and np.abs(m - m.T).max() > 1e-10 * scale:
        raise ValidationError("incoherence needs a symmetric matrix")
    n = m.shape[0]
    rank = int(rank)
    if not 1 <= rank <= n:
        raise ValidationError("rank must be in [1, N]")
    values, vectors = np.linalg.eigh(m)
    order = np.argsort(-np.abs(values))
    values = values[order]
    if np.abs(values[rank - 1]) <= n * np.finfo(float).eps * np.abs(values[0]):
        warnings.warn(
            f"requested rank {rank} exceeds the numerical rank", RuntimeWarning
        )
    basis = vectors[:, order[:rank]]
    return incoherence_from_basis(basis)


def incoherence_from_basis(basis):
    """Incoherence of an explicit (N, rank) orthonormal basis."""
    basis = np.asarray(basis)
    n, rank = basis.shape
    row_norms = np.linalg.norm(basis, axis=1)
    return float(math.sqrt(n / rank) * row_norms.max())
