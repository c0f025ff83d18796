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
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ValidationError, checked_array, checked_count


@dataclass(frozen=True)
class SecondMomentEstimate:
    """Off-diagonal second-moment estimate with its sample count."""

    matrix: np.ndarray  # (n_pairs, n_pairs), symmetric, zero diagonal
    sample_count: int


def split_ranges(count):
    """Halve a batch: first range feeds second moments, second range third.

    Odd counts give the extra observation to the first range.  ``count``
    must be an integer of at least 2; a float is refused, not truncated.
    """
    count = checked_count(count, "observation count", low=2)
    half = (count + 1) // 2
    return (0, half), (half, count)


def check_ell(ell, order):
    """Raise ``ValidationError`` unless rows of ``ell`` pairs give moments of ``order``."""
    if checked_count(ell, "ell") < order:
        name = {2: "second", 3: "third"}[order]
        raise ValidationError(f"{name}-moment estimation needs ell >= {order}")


def _check_range(count, start, stop):
    start = checked_count(start, "start")
    stop = count if stop is None else checked_count(stop, "stop")
    if not start < stop <= count:
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
    if n > checked_count(max_pairs, "max_pairs"):
        raise ValidationError(
            f"{n} pairs exceeds max_pairs={max_pairs}; "
            "use the streaming projected statistic instead"
        )
    p = model.expected_outcomes(graph)
    return np.einsum("a,ka,ma,pa->kmp", model.mixture, p, p, p, optimize=True)


def second_moment_spectrum(model, graph):
    """Top r eigenpairs of the exact second moment P diag(q) P^T.

    Computed from the factors by ``spectrum_from_factors``, so no
    n_pairs x n_pairs array is formed; returns (values descending, vectors).
    """
    return spectrum_from_factors(model.expected_outcomes(graph), np.diag(model.mixture))


def spectrum_from_factors(factor, core):
    """Eigenpairs of F C F^T for an (N, k) factor F and a symmetric (k, k) core C.

    With the thin QR F = Q T, one ``eigh`` of T C T^T gives them in O(N k^2)
    time.  Returns (values descending, vectors) with min(N, k) orthonormal
    columns; the other eigenvalues are 0.  C may be indefinite.
    """
    q, t = np.linalg.qr(factor)
    values, vectors = np.linalg.eigh(t @ core @ t.T)
    return values[::-1], q @ vectors[:, ::-1]


def empirical_second_moment(batch, start=0, stop=None):
    """Unbiased off-diagonal second-moment estimate from an observation range.

    Averages the sign outer products, rescales off-diagonal entries by
    N(N-1) / (ell(ell-1)) to undo the subset-inclusion probability, and
    zeroes the diagonal.  Expectation of every off-diagonal entry equals
    the exact second moment.
    """
    start, stop = _check_range(len(batch), start, stop)
    ell = batch.ell
    check_ell(ell, 2)
    n = batch.graph.n_pairs
    # Batch rows are in range and strictly increasing: the unchecked core.
    sums = kernels._sign_gram(batch.pair_indices[start:stop], batch.signs[start:stop], n)
    scale = (n * (n - 1)) / (ell * (ell - 1)) / (stop - start)
    matrix = np.multiply(sums, scale, dtype=np.float64)
    np.fill_diagonal(matrix, 0.0)
    return SecondMomentEstimate(matrix=matrix, sample_count=stop - start)


def projected_third_moment(batch, basis, start=0, stop=None):
    """Streaming estimate of the whitened off-diagonal third moment.

    ``basis`` is an (n_pairs, r) projection applied to all three tensor
    modes.  The statistic expands the off-diagonal part of each sign
    vector's third outer power against the basis, in O(ell * r +
    r^2 (r + 1) / 2) per observation and O(N * r^3) once: it is symmetric,
    so only its r(r+1)(r+2)/6 distinct entries are computed, and no N^3
    tensor is materialized.  Off-diagonal rescaling is
    N(N-1)(N-2) / (ell(ell-1)(ell-2)).
    """
    start, stop = _check_range(len(batch), start, stop)
    ell = batch.ell
    check_ell(ell, 3)
    basis = checked_array(basis, "basis")
    n = batch.graph.n_pairs
    if basis.ndim != 2 or basis.shape[0] != n:
        raise ValidationError("basis must be (n_pairs, r)")
    sums = kernels._third_moment_sums(
        batch.pair_indices[start:stop], batch.signs[start:stop], basis
    )
    scale = (n * (n - 1) * (n - 2)) / (ell * (ell - 1) * (ell - 2)) / (stop - start)
    return sums * scale


def incoherence_from_basis(basis):
    """Incoherence of an explicit (N, rank) orthonormal basis."""
    basis = checked_array(basis, "basis")
    n, rank = basis.shape
    row_norms = np.linalg.norm(basis, axis=1)
    return float(math.sqrt(n / rank) * row_norms.max())
