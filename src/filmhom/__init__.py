"""Numerical homogenization of periodic media with oscillating boundaries and
thin films with fast-oscillating profiles."""

import os
import sys

# OpenBLAS starts one helper thread per extra core when numpy loads it, and
# each spin-waits for up to about 0.13 s of CPU before it sleeps, more than a
# whole gamma session.  No filmhom kernel gives the pool work (its reductions
# are numpy loops and its matrix products small; docs/solvers.md,
# "Reductions"), so when filmhom is the first to load numpy and no thread
# count was chosen, numpy loads with one BLAS thread.  OpenBLAS reads the
# count only at load, so the variable is removed again once the solver layer
# has loaded numpy: child processes and later readers of the environment see
# it as the user left it.
_ONE_BLAS_THREAD = "numpy" not in sys.modules and not any(
    os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                "OMP_NUM_THREADS"))
if _ONE_BLAS_THREAD:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    from .cell_solver import (CorrectorField, SolveReport, SolverOptions,
                              minimize_dirichlet, minimize_periodic)
finally:
    if _ONE_BLAS_THREAD:
        del os.environ["OPENBLAS_NUM_THREADS"]
from .energy import EnergyDensity
from .errors import (ConfigurationError, DimensionMismatchError, FilmhomError,
                     ResolutionError, StructuralInconsistencyError)
from .film import (FilmTableEntry, GammaCheckReport, MembraneResult, direct_min,
                   gamma_check, membrane_min, w_bar, w_tilde)
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
    "DomainMask", "EnergyDensity", "FilmTableEntry",
    "FilmhomError", "GammaCheckReport", "HomogenizedSample",
    "IntervalInfo", "MembraneResult", "BoundsReport", "Profile",
    "ResolutionError", "SolveReport",
    "SolverOptions", "StructuralInconsistencyError",
    "ThresholdReport", "TorusComponents",
    "bounds_check", "direct_min", "gamma_check", "kernel",
    "load_sampled_profile", "membrane_min", "minimize_dirichlet",
    "minimize_periodic", "oscillating_domain_mask", "phi_sharp", "psi",
    "psi_cylinder_oracle", "save_sampled_profile", "superlevel_mask",
    "thresholds", "torus_components", "w_bar", "w_hom", "w_hom_cube_oracle",
    "w_tilde",
]
