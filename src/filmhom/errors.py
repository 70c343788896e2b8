"""Exception taxonomy shared by all modules.

Exit-code mapping used by the CLI: configuration errors -> 2, resolution
errors -> 3, quadrature non-convergence -> 4, structural inconsistency -> 5.
Solver non-convergence is not raised: every solve carries it in
``SolveReport.converged``, and the CLI turns any False into exit code 4.
"""


class FilmhomError(Exception):
    """Base class for all package errors."""


class ConfigurationError(FilmhomError):
    """Invalid configuration: bad parameters, violated hypotheses, bad files."""


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
