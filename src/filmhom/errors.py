"""Exception taxonomy shared by all modules.

Exit-code mapping used by the CLI: configuration errors -> 2, resolution
errors -> 3, quadrature non-convergence -> 4, structural inconsistency -> 5.
Solver non-convergence is not raised: every solve carries it in
``SolveReport.converged``, and the CLI turns any False into exit code 4.

Every public entry point, options type and config field reads its scalars
through the readers below, which hold each bound once; a bad value raises a
ConfigurationError whose message starts with the name the reader is given.
"""

import functools
import math
import numbers


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


def as_real(value, name, above=-math.inf, below=math.inf):
    """``value`` as a float in the open interval (above, below), so always a
    finite one; a bool, a string, None and NaN are refused by ``name``."""
    if (isinstance(value, bool) or not isinstance(value, _REAL)
            or not above < value < below):
        raise ConfigurationError(
            f"{name} must be a finite number in ({above:g}, {below:g}); got {value!r}")
    return float(value)


# the bounds that are facts of the library, each held by a reader's name:
# a count or a seed, the cells per axis of a grid, a thickness, period or
# tolerance, the exponent p of p-growth, and a level t of sup f = 1
as_count = functools.partial(as_integer, low=0)
as_resolution = functools.partial(as_integer, low=2)
as_positive = functools.partial(as_real, above=0.0)
as_exponent = functools.partial(as_real, above=1.0)
as_level = functools.partial(as_real, above=-1.0, below=1.0)


class DimensionMismatchError(ConfigurationError):
    """Matrix or grid dimensions inconsistent with the declared problem size."""


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


class QuadratureError(FilmhomError):
    """Adaptive quadrature failed to meet its tolerance.

    Attributes carry the best estimate and the refinement history so a
    caller can still inspect partial results.
    """

    def __init__(self, message, best_estimate=None, history=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.history = history or []
