"""Numerical homogenization of periodic media with oscillating boundaries and
thin films with fast-oscillating profiles."""

from .cell_solver import (CorrectorField, SolveReport, SolverOptions,
                          minimize_dirichlet, minimize_periodic)
from .energy import EnergyDensity
from .errors import (ConfigurationError, DimensionMismatchError, FilmhomError,
                     QuadratureError, ResolutionError,
                     StructuralInconsistencyError)
from .film import (FilmDensityTable, FilmTableEntry, GammaCheckReport,
                   MembraneResult, QuadratureOptions, direct_min, gamma_check,
                   membrane_min, w_bar, w_tilde)
from .homogenize import (BoundsReport, HomogenizedSample, IntervalInfo,
                         ThresholdReport, bounds_check, kernel, phi_sharp, psi,
                         psi_cylinder_oracle, thresholds, w_hom,
                         w_hom_cube_oracle)
from .profiles import (CellMask, DomainMask, Profile, TorusComponents,
                       load_sampled_profile, oscillating_domain_mask,
                       save_sampled_profile, superlevel_mask, torus_components)

__version__ = "0.1.0"

__all__ = [
    "CellMask", "ConfigurationError", "CorrectorField", "DimensionMismatchError",
    "DomainMask", "EnergyDensity", "FilmDensityTable", "FilmTableEntry",
    "FilmhomError", "GammaCheckReport", "HomogenizedSample",
    "IntervalInfo", "MembraneResult", "BoundsReport", "Profile",
    "QuadratureError", "QuadratureOptions", "ResolutionError", "SolveReport",
    "SolverOptions", "StructuralInconsistencyError",
    "ThresholdReport", "TorusComponents",
    "bounds_check", "direct_min", "gamma_check", "kernel",
    "load_sampled_profile", "membrane_min", "minimize_dirichlet",
    "minimize_periodic", "oscillating_domain_mask", "phi_sharp", "psi",
    "psi_cylinder_oracle", "save_sampled_profile", "superlevel_mask",
    "thresholds", "torus_components", "w_bar", "w_hom", "w_hom_cube_oracle",
    "w_tilde",
]
