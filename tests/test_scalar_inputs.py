"""Every scalar parameter of every public entry point refuses a bad number
with a ConfigurationError that names the parameter.

The table below lists each callable of ``filmhom.__all__`` that takes a
number, a small valid call of it, and its scalar parameters.  Each bad
value is put in each parameter in turn; the few that are valid there are
listed in VALID and must run without error instead, and a parameter listed
in DELETED must be refused with a TypeError that names it.
"""

import inspect
import math
import re

import numpy as np
import pytest

import filmhom
from filmhom import ConfigurationError, EnergyDensity, Profile, SolverOptions

BAD = {"nan": math.nan, "inf": math.inf, "zero": 0, "minus-one": -1,
       "fraction": 2.5, "bool": True, "text": "8", "none": None}

LINE = Profile.builtin("sin2-stripe", 1)
W2 = EnergyDensity.p_norm_power(2.0, 1, 2)
REPORT = filmhom.thresholds(LINE, 8)


def _cube(G):
    return np.sum(G * G, axis=(0, 1)) ** 1.5


# name -> (callable, keyword arguments of a valid call, scalar parameters)
ENTRY_POINTS = {
    "Profile": (Profile, dict(dim=1, kind="sin2-stripe", floor=0.5), ("dim", "floor")),
    "Profile.constant": (Profile.constant, dict(dim=1), ("dim",)),
    "Profile.builtin": (Profile.builtin, dict(name="sin2-stripe", dim=1, floor=0.5),
                        ("dim", "floor")),
    "Profile.eval_grid": (LINE.eval_grid, dict(n_grid=8), ("n_grid",)),
    "EnergyDensity": (EnergyDensity, dict(kind="p_norm_power", p=2.0, m=1, n=2),
                      ("p", "m", "n")),
    "EnergyDensity.p_norm_power": (EnergyDensity.p_norm_power, dict(p=2.0, m=1, n=2),
                                   ("p", "m", "n")),
    "EnergyDensity.frobenius_power": (EnergyDensity.frobenius_power,
                                      dict(p=2.0, m=1, n=2), ("p", "m", "n")),
    "EnergyDensity.quadratic_form": (EnergyDensity.quadratic_form,
                                     dict(A=np.eye(2), m=1, n=2), ("m", "n")),
    "EnergyDensity.custom": (EnergyDensity.custom,
                             dict(fn=_cube, p=3.0, m=1, n=2),
                             ("p", "m", "n", "gamma", "beta")),
    "SolverOptions": (SolverOptions, {}, ("cg_rtol", "grad_tol", "max_iterations")),
    "superlevel_mask": (filmhom.superlevel_mask, dict(profile=LINE, t=0.5, n_grid=8),
                        ("t", "n_grid")),
    "oscillating_domain_mask": (filmhom.oscillating_domain_mask,
                                dict(profile=LINE, eps=0.25, delta=0.25, grid=(16, 8)),
                                ("eps", "delta")),
    "minimize_dirichlet": (filmhom.minimize_dirichlet,
                           dict(mask=np.ones((4, 4), bool), W=W2, F=[[1.0, 0.0]],
                                box_side=1), ("box_side",)),
    "phi_sharp": (filmhom.phi_sharp, dict(profile=LINE, t=0.5, Fbar=[[1.0]], n_grid=8),
                  ("t", "n_grid", "p")),
    "psi": (filmhom.psi, dict(profile=LINE, t=0.5, F=[[1.0, 0.5]], n_grid=8),
            ("t", "n_grid", "p")),
    "psi_cylinder_oracle": (filmhom.psi_cylinder_oracle,
                            dict(profile=LINE, t=0.5, F=[[1.0, 0.5]], n_grid=8),
                            ("t", "n_grid", "p")),
    "w_hom": (filmhom.w_hom, dict(profile=LINE, t=0.5, F=[[1.0, 0.5]], W=W2, n_grid=8),
              ("t", "n_grid")),
    "w_hom_cube_oracle": (filmhom.w_hom_cube_oracle,
                          dict(profile=LINE, t=0.5, F=[[1.0, 0.5]], W=W2, box_side=1,
                               n_grid=8), ("t", "box_side", "n_grid")),
    "kernel": (filmhom.kernel, dict(profile=LINE, t=0.5, n_grid=8), ("t", "n_grid")),
    "thresholds": (filmhom.thresholds, dict(profile=LINE, n_grid=8), ("n_grid", "m")),
    "bounds_check": (filmhom.bounds_check,
                     dict(profile=LINE, report=REPORT, s=0.5, F_samples=[[[1.0, 0.5]]],
                          n_grid=8), ("s", "n_grid", "p")),
    "w_tilde": (filmhom.w_tilde, dict(profile=LINE, W=W2, t=0.5, Fbar=[[1.0]], n_grid=8),
                ("t", "n_grid")),
    "w_bar": (filmhom.w_bar, dict(profile=LINE, W=W2, Fbar=[[1.0]], n_grid=8),
              ("n_grid", "rel_tol")),
    "membrane_min": (filmhom.membrane_min,
                     dict(omega=None, Fbar=[[1.0]], profile=LINE, W=W2, n_grid=8),
                     ("n_grid", "rel_tol")),
    "direct_min": (filmhom.direct_min,
                   dict(profile=LINE, eps=0.25, delta=0.25, Fbar=[[1.0]], W=W2,
                        vertical_cells=8),
                   ("eps", "delta", "cells_per_delta", "vertical_cells")),
    "gamma_check": (filmhom.gamma_check,
                    dict(profile=LINE, W=W2, Fbar=[[1.0]], eps_schedule=[0.5, 0.25],
                         n_grid=8),
                    ("cells_per_delta", "vertical_cells", "n_grid", "rel_tol")),
}

# the callables of __all__ that take no scalar parameter, and the types
# that only carry results or signal errors
NO_SCALARS = {"minimize_periodic", "torus_components", "load_sampled_profile",
              "save_sampled_profile"}
NOT_ENTRY_POINTS = {
    "BoundsReport", "CorrectorField", "DomainMask", "FilmTableEntry",
    "GammaCheckReport", "HomogenizedSample", "IntervalInfo", "SolveReport", "ThresholdReport", "TorusComponents",
    "ConfigurationError", "DimensionMismatchError", "FilmhomError",
    "ResolutionError", "StructuralInconsistencyError",
}

# (parameter, bad-value id) pairs that are valid there: a level 0, a
# thickness, period, exponent or tolerance of 2.5, a floor of 0 or none,
# and no iteration cap
VALID = {("t", "zero"), ("floor", "zero"), ("floor", "none"),
         ("max_iterations", "none")}
VALID |= {(name, "fraction") for name in ("eps", "delta", "p",
                                          "cg_rtol", "grad_tol", "rel_tol")}

# (entry, parameter) pairs deleted from the signature: nothing read the
# growth constants, so any value there is refused by its name as an
# unexpected keyword, never bound to another parameter
DELETED = {("EnergyDensity.custom", "gamma"), ("EnergyDensity.custom", "beta")}

CASES = [(entry, name, label) for entry, (_, _, names) in ENTRY_POINTS.items()
         for name in names for label in BAD]


def test_table_covers_every_public_callable():
    covered = {entry.split(".")[0] for entry in ENTRY_POINTS}
    assert covered | NO_SCALARS | NOT_ENTRY_POINTS == set(filmhom.__all__)
    for entry, (fn, base, names) in ENTRY_POINTS.items():
        params = inspect.signature(fn).parameters
        deleted = {name for e, name in DELETED if e == entry}
        assert set(base) | set(names) - deleted <= set(params), entry
        assert not deleted & set(params), entry
        # a parameter with a numeric default is a scalar the table must hold
        numeric = {k for k, v in params.items()
                   if isinstance(v.default, (int, float)) and not isinstance(v.default, bool)}
        assert numeric <= set(names), (entry, numeric - set(names))


@pytest.mark.parametrize("entry,name,label", CASES,
                         ids=[f"{e}-{n}-{v}" for e, n, v in CASES])
def test_bad_scalar_refused_by_name(entry, name, label):
    fn, base, _ = ENTRY_POINTS[entry]
    kwargs = {**base, name: BAD[label]}
    if (name, label) in VALID:
        fn(**kwargs)
        return
    with pytest.raises(TypeError if (entry, name) in DELETED
                       else ConfigurationError) as err:
        fn(**kwargs)
    assert re.search(rf"(?<![\w.-]){re.escape(name)}(?!\w)", str(err.value)), str(err.value)
