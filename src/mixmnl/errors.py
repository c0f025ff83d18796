"""Exception hierarchy shared across the package, and the checks of caller input.

Two broad classes matter to callers: input problems (``ValidationError``)
and failures of the numerical stages themselves (``NumericalError``).  The
command-line layer maps them to distinct exit codes.  ``checked_array``
checks every array a caller passes, and every float input down to scalars;
``checked_count`` checks every count (items, components, pairs per
observation, samples, ranks, iterations, seeds and dataset headers);
``checked_rows`` checks observation rows, for ``ObservationBatch`` and the
public sign kernel alike.
"""

from itertools import chain

import numpy as np


class MixMNLError(Exception):
    """Base class for all package errors."""


class ValidationError(MixMNLError):
    """Malformed or out-of-contract input."""


class NumericalError(MixMNLError):
    """A numerical stage failed on otherwise well-formed input.

    ``stage`` names the fit stage that failed, once the moment phase or
    Rank Centrality has attached it; it stays None for failures outside
    those stages.
    """

    stage = None


class GraphGenerationError(NumericalError):
    """Random graph generation exhausted its retries.

    Carries the diagnostics of the last rejected graph in ``last_diagnostics``
    so callers can see why candidates kept failing.
    """

    def __init__(self, message, last_diagnostics=None):
        super().__init__(message)
        self.last_diagnostics = last_diagnostics


class RankDeficiencyError(NumericalError):
    """A matrix expected to carry rank-r structure did not.

    ``spectrum`` holds the offending eigenvalues (descending) when available.
    """

    def __init__(self, message, spectrum=None):
        super().__init__(message)
        self.spectrum = spectrum


class DegenerateTensorError(NumericalError):
    """Tensor power iterations found no direction with non-negligible weight."""


def checked_array(values, name, integers=False):
    """``values`` as an array of integers, or of finite float64; else ``ValidationError``.

    An ndarray's kind is read from its dtype.  Other input must not be
    ragged or hold a string or a bool: numpy would fold bools into 1 and 0.
    Numbers come back as float64, a scalar as a 0-d array, and a float64
    ndarray as it is, with no copy.
    """
    wanted, kinds = ("integers", "iu") if integers else ("numbers", "iuf")
    if isinstance(values, np.ndarray):
        array, entries = values, ()
    else:
        try:
            array = np.asarray(values)
        except ValueError as err:  # ragged rows, e.g. [[0, 1], [0]]
            raise ValidationError(f"{name} must be a rectangular array: {err}") from err
        if array.size == 0:  # numpy types empty nesting as float; no entry is wrong
            return array.astype(np.int64 if integers else np.float64)
        entries = [values]
        for _ in range(array.ndim):
            entries = chain.from_iterable(entries)
    if array.dtype.kind not in kinds or not {bool, np.bool_}.isdisjoint(map(type, entries)):
        raise ValidationError(f"{name} must be {wanted}")
    if integers:
        return array
    array = array.astype(np.float64, copy=False)
    if not np.isfinite(array).all():
        raise ValidationError(f"{name} must be finite (no NaN or inf)")
    return array


def checked_count(value, name, low=0, high=None):
    """``value`` as an int in [low, high] (no upper bound if None); else ``ValidationError``.

    Python and numpy integers pass.  A bool, a float (2.0 included), a
    string or None is refused, never truncated.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < low or (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValidationError(f"{name} must be {bounds}, got {value}")
    return value


def checked_rows(pair_indices, signs, n_pairs):
    """Observation rows as ``(pair_indices, signs)`` arrays; else ``ValidationError``.

    The pair indices must be integers (``checked_array``) forming a
    (count, ell) array with ell >= 1, each in [0, n_pairs), each row
    strictly increasing.  The signs must have exactly that shape and every
    entry -1 or +1.  An integer ndarray of signs is compared as it is,
    since ``checked_array`` would copy it to float64; other signs go
    through ``checked_array``.  Integer ndarrays come back uncopied.
    """
    idx = checked_array(pair_indices, "pair indices", integers=True)
    if idx.ndim != 2 or idx.shape[1] < 1:
        raise ValidationError(
            f"pair indices must be a (count, ell) array with ell >= 1, got shape {idx.shape}"
        )
    integer = isinstance(signs, np.ndarray) and signs.dtype.kind in "iu"
    sgn = signs if integer else checked_array(signs, "signs")
    if sgn.shape != idx.shape:
        raise ValidationError(
            f"signs must have the pair indices' shape {idx.shape}, got {sgn.shape}"
        )
    if idx.size and (idx.min() < 0 or idx.max() >= n_pairs):
        raise ValidationError("pair index out of range")
    if not (idx[:, 1:] > idx[:, :-1]).all():
        raise ValidationError("pair indices must be strictly increasing per row")
    if not ((sgn == 1) | (sgn == -1)).all():
        raise ValidationError("signs must be -1 or +1")
    return idx, sgn
