"""Spectral recovery of mixture proportions and per-pair outcome means.

Method-of-moments phase: split the observations, estimate the off-diagonal
second moment on the first half, complete it to rank r, whiten, estimate
the whitened third moment on the second half, and decompose it into
orthogonal rank-one terms.  For exact moments the decomposition weights
are exactly 1/sqrt(q_a) with the positive-weight convention resolving
every sign, so the conditional outcome means are recovered as

    P_hat = U diag(sqrt(sigma)) V diag(lambda),   q_hat_a = lambda_a^-2.

The mixture estimate is reported as-is; its deviation from summing to 1 is
a useful noise diagnostic, so nothing is renormalized silently.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .altmin import WhiteningBasis, altmin_complete, symmetrize_and_eig
from .errors import NumericalError, ValidationError
from .moments import empirical_second_moment, incoherence_from_basis, split_ranges
from .tensors import (
    tensor_power_decomposition,
    whitened_third_moment_ls,
    whitened_third_moment_ls_exact,
)

_MIXTURE_SUM_BAND = 0.5


@dataclass
class MixtureMomentsEstimate:
    """Output of the moment phase: mixture, outcome means, diagnostics."""

    mixture: np.ndarray  # (r,), not renormalized
    outcome_matrix: np.ndarray  # (n_pairs, r), column a estimates component a
    basis: WhiteningBasis
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_components(self):
        return self.mixture.shape[0]


def _staged(stage, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except NumericalError as err:
        err.stage = stage
        raise


def _reconstruct(basis, eigenpairs):
    values = eigenpairs.values
    p_hat = (basis.coloring_map @ eigenpairs.vectors) * values[None, :]
    mixture = values**-2.0
    return mixture, p_hat


def _decomposition_diagnostics(basis, ls_result, eigenpairs, mixture):
    mixture_sum = float(mixture.sum())
    return {
        "second_moment_values": [float(v) for v in basis.values],
        "incoherence": incoherence_from_basis(basis.vectors),
        "tensor_condition_number": ls_result.condition_number,
        "tensor_used_pinv": ls_result.used_pinv,
        "decomposition_weights": [float(v) for v in eigenpairs.values],
        "mixture_sum": mixture_sum,
        "mixture_sum_suspect": bool(abs(mixture_sum - 1.0) > _MIXTURE_SUM_BAND),
    }


def estimate_components(
    batch,
    n_components,
    completion_iterations=None,
    restarts=None,
    power_iterations=50,
    rng=None,
):
    """Moment-phase estimate from an observation batch.

    The batch is split in half (first half second moments, second half
    third moments).  ``completion_iterations`` defaults to
    ceil(log(n_pairs * count)).  ``rng`` seeds the power-iteration
    restarts only; all estimation from the data is deterministic.
    """
    n_components = int(n_components)
    if n_components < 1:
        raise ValidationError("need at least one component")
    count = len(batch)
    (lo2, hi2), (lo3, hi3) = split_ranges(count)
    n_pairs = batch.graph.n_pairs
    if completion_iterations is None:
        completion_iterations = max(1, math.ceil(math.log(n_pairs * count)))

    second = empirical_second_moment(batch, lo2, hi2)
    completion = _staged(
        "completion", altmin_complete, second.matrix, n_components, completion_iterations
    )
    basis = _staged("whitening", symmetrize_and_eig, completion.matrix, n_components)
    ls_result = _staged("tensor", whitened_third_moment_ls, batch, basis, lo3, hi3)
    eigenpairs = _staged(
        "decomposition",
        tensor_power_decomposition,
        ls_result.tensor,
        n_components,
        restarts=restarts,
        n_iterations=power_iterations,
        rng=rng,
    )
    mixture, p_hat = _reconstruct(basis, eigenpairs)
    diagnostics = _decomposition_diagnostics(basis, ls_result, eigenpairs, mixture)
    diagnostics["completion"] = completion.report()
    diagnostics["split"] = {"second": [lo2, hi2], "third": [lo3, hi3]}
    return MixtureMomentsEstimate(
        mixture=mixture, outcome_matrix=p_hat, basis=basis, diagnostics=diagnostics
    )


def components_from_exact_moments(
    second_moment, third_moment, n_components, restarts=None, power_iterations=50, rng=None
):
    """Moment-phase recovery from exact population moments.

    Bypasses estimation noise: eigendecomposes the second moment directly
    (it must have rank at least ``n_components``), whitens the exact third
    moment, and decomposes.  Up to component order, the output matches the
    generating model to solver precision.
    """
    n_components = int(n_components)
    if n_components < 1:
        raise ValidationError("need at least one component")
    basis = _staged("whitening", symmetrize_and_eig, second_moment, n_components)
    ls_result = _staged(
        "tensor", whitened_third_moment_ls_exact, third_moment, basis
    )
    eigenpairs = _staged(
        "decomposition",
        tensor_power_decomposition,
        ls_result.tensor,
        n_components,
        restarts=restarts,
        n_iterations=power_iterations,
        rng=rng,
    )
    mixture, p_hat = _reconstruct(basis, eigenpairs)
    diagnostics = _decomposition_diagnostics(basis, ls_result, eigenpairs, mixture)
    return MixtureMomentsEstimate(
        mixture=mixture, outcome_matrix=p_hat, basis=basis, diagnostics=diagnostics
    )
