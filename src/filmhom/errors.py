"""Exception taxonomy shared by all modules.

The CLI's exit code for each error class is set in ``cli.main``, and
nowhere else.  Solver non-convergence is not raised: every solve carries
it in ``SolveReport.converged``, and ``cli.main`` gives it an exit code
too.

Every public entry point, options type and config field reads its scalars
and arrays through the readers below, which hold each bound and each array
rule once; a bad value raises a ConfigurationError whose message starts with
the name the reader is given, and a wrong shape its DimensionMismatchError.
"""

import functools
import itertools
import math
import numbers

import numpy as np


class FilmhomError(Exception):
    """Base class for all package errors."""


class ConfigurationError(FilmhomError):
    """Invalid configuration: bad parameters, violated hypotheses, bad files."""


# the builtin types first: isinstance tries them before the slower ABC check
_REAL, _INTEGRAL = (float, int, numbers.Real), (int, numbers.Integral)


def as_integer(value, name, low=1):
    """``value`` as an int >= ``low``.  A real number of integral value
    reads as its int (16.0 is 16); a bool, a string, None, NaN, an infinity
    and a fraction are refused by ``name``."""
    if (isinstance(value, bool) or not isinstance(value, _REAL)
            or not (isinstance(value, _INTEGRAL) or float(value).is_integer())
            or value < low):
        raise ConfigurationError(f"{name} must be an integer >= {low}; got {value!r}")
    return int(value)


def as_real(value, name, above=-math.inf, below=math.inf, closed=False):
    """``value`` as a float in the open interval (above, below), or with
    ``closed`` in [above, below), so always a finite one; a bool, a string,
    None and NaN are refused by ``name``."""
    if (isinstance(value, bool) or not isinstance(value, _REAL)
            or not (above <= value if closed else above < value) or not value < below):
        bracket = "[" if closed else "("
        raise ConfigurationError(f"{name} must be a finite number in "
                                 f"{bracket}{above:g}, {below:g}); got {value!r}")
    return float(value)


# the bounds that are facts of the library, each held by a reader's name:
# a count or a seed, the cells per axis of a grid, a thickness, period or
# tolerance, the exponent p of p-growth, a level t of sup f = 1 and the
# floor min f of a profile
as_count = functools.partial(as_integer, low=0)
as_resolution = functools.partial(as_integer, low=2)
as_positive = functools.partial(as_real, above=0.0)
as_exponent = functools.partial(as_real, above=1.0)
as_level = functools.partial(as_real, above=-1.0, below=1.0)
as_floor = functools.partial(as_real, above=0.0, below=1.0, closed=True)


class DimensionMismatchError(ConfigurationError):
    """Matrix or grid dimensions inconsistent with the declared problem size."""


_REALS = "a rectangular array of real numbers, not of bools or strings"
_BITS = "a mask of bools or of numbers that are 0 or 1"


def _entries(value, name, what, ndmin=0):
    """np.asarray(value), with leading axes of length 1 up to ``ndmin``
    axes, as in np.array.  A ragged list is refused by ``name`` as not
    ``what``, and an array with no axis or an empty one by its shape."""
    try:
        array = np.asarray(value)
    except ValueError:      # numpy refuses a ragged nesting
        raise ConfigurationError(f"{name} must be {what}; got {value!r:.80}") from None
    if array.ndim < ndmin:
        array = array.reshape((1,) * (ndmin - array.ndim) + array.shape)
    if not (array.ndim and array.size):
        raise DimensionMismatchError(f"{name} must have at least one axis and one "
                                     f"entry along each; got shape {array.shape}")
    return array


_SEQUENCES = {list, tuple}


def _holds_bool(value):
    """True where a bool, a numpy bool or a bool array is an entry of
    ``value`` or of the lists and tuples nested in it.  The walk is level by
    level in pure Python: reading ``value`` as an object array instead left
    the ``gamma`` command's peak RSS about 0.07 MB higher."""
    level = [value]
    while True:
        kinds = set(map(type, level))
        if bool in kinds or np.bool_ in kinds or (np.ndarray in kinds and any(
                x.dtype == bool for x in level if type(x) is np.ndarray)):
            return True
        if not kinds & _SEQUENCES:
            return False
        level = list(itertools.chain.from_iterable(
            level if kinds <= _SEQUENCES else (x for x in level if type(x) in _SEQUENCES)))


def as_array(value, name, shape=None, ndmin=0, square=False):
    """``value`` as a float array of finite numbers (``_entries``) of
    ``shape`` (None: a free axis), of one length on every axis if
    ``square``, else refused by ``name``; it may share ``value``'s memory."""
    array = _entries(value, name, _REALS, ndmin)
    # numpy reads a list that mixes bools with numbers as numbers
    if array.dtype.kind not in "iuf" or (
            not isinstance(value, np.ndarray) and _holds_bool(value)):
        raise ConfigurationError(f"{name} must be {_REALS}; got {value!r:.80}")
    if shape is not None and array.shape != shape and (array.ndim != len(shape) or any(
            w not in (None, s) for w, s in zip(shape, array.shape))):
        spec = ", ".join("*" if w is None else str(w) for w in shape)
        raise DimensionMismatchError(f"{name} must have shape ({spec}); got {array.shape}")
    if square and len(set(array.shape)) > 1:
        raise DimensionMismatchError(f"{name} must be an N**dim grid; got shape {array.shape}")
    array = array.astype(float, copy=False)
    # a small matrix entry by entry, at a seventh of a ufunc round trip
    if not (all(map(math.isfinite, array.flat)) if array.size <= 64
            else np.isfinite(array).all()):
        raise ConfigurationError(f"{name} must hold finite numbers; got {value!r:.80}")
    return array


# a matrix F: a 1-d value is one row, a number a 1 x 1 matrix
as_matrix = functools.partial(as_array, ndmin=2)


def as_mask(value, name):
    """``value`` as a bool array with at least one axis and one cell along
    each: bools, or numbers that are exactly 0 or 1.  Anything else, NaN
    and 0.5 included, is refused by ``name``."""
    array = _entries(value, name, _BITS)
    if array.dtype != bool and (array.dtype.kind not in "iuf"
                                or not ((array == 0) | (array == 1)).all()):
        raise ConfigurationError(f"{name} must be {_BITS}; got {value!r:.80}")
    return array.astype(bool, copy=False)


class ResolutionError(FilmhomError):
    """Grid too coarse to resolve the requested microstructure.

    Attributes
    ----------
    required : int
        Minimum number of cells that would satisfy the resolution rule.
    axis : int
        Axis on which the rule failed.
    """

    def __init__(self, message, required=None, axis=None):
        super().__init__(message)
        self.required = required
        self.axis = axis


class StructuralInconsistencyError(FilmhomError):
    """Geometric and energetic kernel verdicts disagree (grid too coarse).

    Carries both verdicts so the caller can see what clashed.
    """

    def __init__(self, message, geometric=None, energetic=None):
        super().__init__(message)
        self.geometric = geometric
        self.energetic = energetic
