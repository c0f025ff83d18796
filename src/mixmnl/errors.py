"""Exception hierarchy shared across the package, and the check of caller arrays.

Two broad classes matter to callers: input problems (``ValidationError``)
and failures of the numerical stages themselves (``NumericalError``).  The
command-line layer maps them to distinct exit codes.  ``checked_array``
checks the arrays that graphs, batches, models and results files take in.
"""

from itertools import chain

import numpy as np


class MixMNLError(Exception):
    """Base class for all package errors."""


class ValidationError(MixMNLError):
    """Malformed or out-of-contract input."""


class NumericalError(MixMNLError):
    """A numerical stage failed on otherwise well-formed input."""


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
    """``values`` as an array of integers, or of numbers; else ``ValidationError``.

    An ndarray is checked by its dtype alone.  Other input must not be
    ragged or hold a string or a bool: numpy would fold bools into 1 and 0.
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
    return array
