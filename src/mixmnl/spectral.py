"""Spectral recovery of mixture proportions and per-pair outcome means.

Method-of-moments phase: split the observations, estimate the off-diagonal
second moment on the first half, complete it to rank r, whiten, estimate
the whitened third moment on the second half, and decompose it into
orthogonal rank-one terms.  For exact moments the decomposition weights
are exactly 1/sqrt(q_a) with the positive-weight convention resolving
every sign, so the conditional outcome means are recovered as

    P_est = U diag(sqrt(sigma)) V diag(lambda),   q_est_a = lambda_a^-2.

The mixture estimate is reported as-is; its deviation from summing to 1 is
a useful noise diagnostic, so nothing is renormalized silently.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import altmin
from .altmin import WhiteningBasis, symmetrize_and_eig, whitening_basis
from .errors import NumericalError, ValidationError, checked_array, checked_count
from .model import component_count
from .moments import (
    check_ell,
    empirical_second_moment,
    incoherence_from_basis,
    spectrum_from_factors,
    split_ranges,
)
from .tensors import (
    tensor_power_decomposition,
    whitened_third_moment_ls,
    whitened_third_moment_ls_exact,
    whitened_third_moment_ls_factored,
)

_MIXTURE_SUM_BAND = 0.5


@dataclass
class MixtureMomentsEstimate:
    """Output of the moment phase: mixture, outcome means, diagnostics."""

    mixture: np.ndarray  # (r,), not renormalized
    outcome_matrix: np.ndarray  # (n_pairs, r), column a estimates component a
    basis: WhiteningBasis
    diagnostics: dict = field(default_factory=dict)


def _staged(stage, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except NumericalError as err:
        err.stage = stage
        raise


def _decompose(basis, ls_result, n_components, rng, **diagnostics):
    """Shared tail of the moment phase: decompose, reconstruct, report.

    Keyword arguments are appended to the diagnostics after the
    decomposition's own entries.
    """
    eigenpairs = _staged(
        "decomposition", tensor_power_decomposition, ls_result.tensor, n_components, rng=rng
    )
    values = eigenpairs.values
    p_hat = (basis.coloring_map @ eigenpairs.vectors) * values[None, :]
    mixture = values**-2.0
    mixture_sum = float(mixture.sum())
    report = {
        "second_moment_values": [float(v) for v in basis.values],
        "incoherence": incoherence_from_basis(basis.vectors),
        "tensor_condition_number": ls_result.condition_number,
        "tensor_used_pinv": ls_result.used_pinv,
        "decomposition_weights": [float(v) for v in values],
        "mixture_sum": mixture_sum,
        "mixture_sum_suspect": bool(abs(mixture_sum - 1.0) > _MIXTURE_SUM_BAND),
        **diagnostics,
    }
    return MixtureMomentsEstimate(
        mixture=mixture, outcome_matrix=p_hat, basis=basis, diagnostics=report
    )


def estimate_components(batch, n_components, rng=None):
    """Moment-phase estimate from an observation batch.

    The batch is split in half (first half second moments, second half
    third moments).  A batch of ell < 3 pairs per row carries no third
    moment and raises ``ValidationError`` before any stage runs, as does
    ``n_components`` above the number of pairs.  Completion runs
    ceil(log(n_pairs * count)) solves of ``altmin._complete``, unchecked:
    the second-moment estimate is the integer Gram X^T X times one finite
    scale with its diagonal zeroed, so it is exactly symmetric, finite,
    hollow, C-ordered float64.  The whitening reads the symmetric part of
    the completion's S V^T from the factors.  ``rng`` seeds the
    power-iteration restarts only; all estimation from the data is
    deterministic.
    """
    n_pairs, count = batch.graph.n_pairs, len(batch)
    n_components = checked_count(n_components, "n_components", low=1, high=n_pairs)
    check_ell(batch.ell, 3)
    (lo2, hi2), (lo3, hi3) = split_ranges(count)
    completion_iterations = max(1, math.ceil(math.log(n_pairs * count)))

    # No name holds the N x N estimate: it is freed when the completion
    # returns, which keeps only S and V, before the third-moment stage.
    completion = _staged(
        "completion",
        altmin._complete,
        empirical_second_moment(batch, lo2, hi2).matrix,
        n_components,
        completion_iterations,
    )
    # (S V^T + V S^T) / 2 = [S V] C [S V]^T with C = [[0, I], [I, 0]] / 2.
    factor = np.hstack([completion.solution, completion.basis])
    core = np.kron([[0.0, 0.5], [0.5, 0.0]], np.eye(n_components))
    values, vectors = spectrum_from_factors(factor, core)
    basis = _staged("whitening", whitening_basis, values, vectors, n_components)
    ls_result = _staged("tensor", whitened_third_moment_ls, batch, basis, lo3, hi3)
    return _decompose(
        basis,
        ls_result,
        n_components,
        rng,
        completion=completion.report(),
        split={"second": [lo2, hi2], "third": [lo3, hi3]},
    )


def components_from_exact_moments(second_moment, third_moment, n_components, rng=None):
    """Moment-phase recovery from exact population moments.

    Bypasses estimation noise: whitens with ``symmetrize_and_eig``, one
    dense O(N^3) ``eigh`` of the second moment (it must have rank at least
    ``n_components``), whitens the exact third moment, and decomposes.  Up
    to component order, the output matches the generating model to solver
    precision.
    """
    n_components = component_count(n_components)
    second_moment = checked_array(second_moment, "second_moment")
    basis = _staged("whitening", symmetrize_and_eig, second_moment, n_components)
    ls_result = _staged("tensor", whitened_third_moment_ls_exact, third_moment, basis)
    return _decompose(basis, ls_result, n_components, rng)


def components_from_factors(outcome_matrix, mixture, n_components, rng=None):
    """Moment-phase recovery from the factors of the exact population moments.

    ``outcome_matrix`` is the (n_pairs, r) matrix P of outcome means and
    ``mixture`` the (r,) proportions q.  M2 = P diag(q) P^T and
    M3 = sum_a q_a p_a^{x3} are never formed: the whitening comes from
    ``spectrum_from_factors(P, diag(q))``, a thin QR of P and an r x r
    eigenproblem, under the rules of ``whitening_basis``, and the
    whitened right-hand side from W^T P and per-pair powers of P.
    With m = r(r+1)(r+2)/6, time is O(n_pairs m^2) and memory
    O(n_pairs (r^2 + m)), so any number of pairs works.  Up to
    component order and roundoff the output is that of
    ``components_from_exact_moments`` on the dense moments.
    """
    p = checked_array(outcome_matrix, "outcome_matrix")
    q = checked_array(mixture, "mixture")
    if p.ndim != 2 or q.shape != (p.shape[1],):
        raise ValidationError("outcome_matrix must be (n_pairs, r) and mixture (r,)")
    if (q < 0).any():
        raise ValidationError("mixture must be nonnegative")
    n_components = checked_count(n_components, "n_components", low=1, high=p.shape[0])
    values, vectors = spectrum_from_factors(p, np.diag(q))
    basis = _staged("whitening", whitening_basis, values, vectors, n_components)
    ls_result = _staged("tensor", whitened_third_moment_ls_factored, p, q, basis)
    return _decompose(basis, ls_result, n_components, rng)
