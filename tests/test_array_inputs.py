"""Every array parameter of every public entry point refuses a bad matrix,
mask, sample array or list of numbers with a ConfigurationError whose
message starts with the parameter's name.

The table below lists each callable of ``filmhom.__all__`` (and the
methods of its types) that takes an array, a small valid call of it, and
its array parameters.  Each bad value is built from the parameter's valid
value and put in that parameter in turn: a NaN, an infinity or a string
for its first entry, a ragged nesting, one column too many, one axis too
many, no entries, bools, and one bool among numbers.  A mask also refuses
0.5, NaN and a 0-d value; one more column or axis, or bools, make a valid
mask.
"""

import inspect
import math
import os
import re

import numpy as np
import pytest

import filmhom
from filmhom import ConfigurationError, EnergyDensity, Profile

LINE = Profile.builtin("sin2-stripe", 1)
W2 = EnergyDensity.p_norm_power(2.0, 1, 2)
REPORT = filmhom.thresholds(LINE, 8)
MASK = [[1, 1], [0, 1]]

# name -> (callable, keyword arguments of a valid call, array parameters)
ENTRY_POINTS = {
    "EnergyDensity.quadratic_form": (EnergyDensity.quadratic_form,
                                     dict(A=np.eye(2).tolist(), m=1, n=2), ("A",)),
    "EnergyDensity.evaluate": (W2.evaluate, dict(F=[[1.0, 0.5]]), ("F",)),
    "EnergyDensity.gradient": (W2.gradient, dict(F=[[1.0, 0.5]]), ("F",)),
    "Profile.sampled": (Profile.sampled, dict(values=[[1.0, 0.5], [0.5, 0.25]]),
                        ("values",)),
    "Profile.eval": (LINE.eval, dict(x=[0.3]), ("x",)),
    "save_sampled_profile": (filmhom.save_sampled_profile,
                             dict(values=[[1.0, 0.5], [0.5, 0.25]], path=os.devnull),
                             ("values",)),
    "torus_components": (filmhom.torus_components, dict(mask=MASK), ("mask",)),
    "oscillating_domain_mask": (filmhom.oscillating_domain_mask,
                                dict(profile=LINE, eps=0.25, delta=0.25, grid=[16, 8],
                                     omega=[[0.0, 1.0]]), ("omega", "grid")),
    "minimize_periodic": (filmhom.minimize_periodic,
                          dict(mask=MASK, W=W2, F=[[1.0, 0.5]]), ("mask", "F")),
    "minimize_dirichlet": (filmhom.minimize_dirichlet,
                           dict(mask=MASK, W=W2, F=[[1.0, 0.5]], box_side=1),
                           ("mask", "F")),
    "phi_sharp": (filmhom.phi_sharp, dict(profile=LINE, t=0.5, Fbar=[[1.0]], n_grid=8),
                  ("Fbar",)),
    "psi": (filmhom.psi, dict(profile=LINE, t=0.5, F=[[1.0, 0.5]], n_grid=8), ("F",)),
    "psi_cylinder_oracle": (filmhom.psi_cylinder_oracle,
                            dict(profile=LINE, t=0.5, F=[[1.0, 0.5]], n_grid=8), ("F",)),
    "w_hom": (filmhom.w_hom, dict(profile=LINE, t=0.5, F=[[1.0, 0.5]], W=W2, n_grid=8),
              ("F",)),
    "w_hom_cube_oracle": (filmhom.w_hom_cube_oracle,
                          dict(profile=LINE, t=0.5, F=[[1.0, 0.5]], W=W2, box_side=1,
                               n_grid=8), ("F",)),
    "bounds_check": (filmhom.bounds_check,
                     dict(profile=LINE, report=REPORT, s=0.5, F_samples=[[[1.0, 0.5]]],
                          n_grid=8), ("F_samples",)),
    "w_tilde": (filmhom.w_tilde, dict(profile=LINE, W=W2, t=0.5, Fbar=[[1.0]], n_grid=8),
                ("Fbar",)),
    "w_bar": (filmhom.w_bar, dict(profile=LINE, W=W2, Fbar=[[1.0]], n_grid=8), ("Fbar",)),
    "membrane_min": (filmhom.membrane_min,
                     dict(omega=[[0.0, 1.0]], Fbar=[[1.0]], profile=LINE, W=W2, n_grid=8),
                     ("omega", "Fbar")),
    "direct_min": (filmhom.direct_min,
                   dict(profile=LINE, eps=0.25, delta=0.25, Fbar=[[1.0]], W=W2,
                        omega=[[0.0, 1.0]], vertical_cells=8), ("Fbar", "omega")),
    "gamma_check": (filmhom.gamma_check,
                    dict(profile=LINE, W=W2, Fbar=[[1.0]], eps_schedule=[0.5, 0.25],
                         omega=[[0.0, 1.0]], n_grid=8), ("Fbar", "omega", "eps_schedule")),
}

# every name under which a public callable takes an array
ARRAY_NAMES = {"F", "Fbar", "A", "mask", "values", "x", "omega", "F_samples",
               "eps_schedule", "grid"}


def _first(value, new):
    """``value`` with its first scalar, depth first, replaced by ``new``."""
    if not isinstance(value, list):
        return new
    return [_first(value[0], new)] + value[1:]


def _innermost(value, change):
    """``value`` with ``change`` applied to every innermost list."""
    if value and isinstance(value[0], list):
        return [_innermost(v, change) for v in value]
    return change(value)


def _more_axes(value):
    value = [value]
    return value if np.ndim(value) >= 3 else [value]


BAD = {
    "nan": lambda v: _first(v, math.nan),
    "inf": lambda v: _first(v, math.inf),
    "text": lambda v: _first(v, "1"),
    "ragged": lambda v: v + [[]],
    "columns": lambda v: _innermost(v, lambda row: row + [0.0]),
    "axes": _more_axes,
    "empty": lambda v: [],
    "bool": lambda v: _innermost(v, lambda row: [bool(x) for x in row]),
    # numpy reads a bool among numbers as a number
    "mixed": lambda v: _first(v, True),
}
MASK_BAD = {
    "half": lambda v: _first(v, 0.5),
    "zero-d": lambda v: np.array(True),
}
# a mask of one more column or axis, or of bools, is a valid mask
MASK_VALID = {"columns", "axes", "bool", "mixed"}

CASES = [(entry, name, label) for entry, (_, _, names) in ENTRY_POINTS.items()
         for name in names
         for label in (set(BAD) - MASK_VALID | set(MASK_BAD) if name == "mask" else BAD)]
CASES.sort()


def _public_callables():
    """(label, callable) of every function of __all__ and every public
    method or constructor of its types."""
    for name in filmhom.__all__:
        obj = getattr(filmhom, name)
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, staticmethod):
                    yield f"{name}.{attr}", member.__func__
                elif inspect.isfunction(member) and not attr.startswith("_"):
                    yield f"{name}.{attr}", member
        elif callable(obj):
            yield name, obj


def test_table_covers_every_array_parameter():
    for label, fn in _public_callables():
        arrays = ARRAY_NAMES & set(inspect.signature(fn).parameters)
        if arrays:
            assert label in ENTRY_POINTS, label
            assert arrays == set(ENTRY_POINTS[label][2]), label


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_valid_call_runs(entry):
    fn, base, _ = ENTRY_POINTS[entry]
    fn(**base)


@pytest.mark.parametrize("entry,name,label", CASES,
                         ids=[f"{e}-{n}-{v}" for e, n, v in CASES])
def test_bad_array_refused_by_name(entry, name, label):
    fn, base, _ = ENTRY_POINTS[entry]
    kwargs = {**base, name: {**BAD, **MASK_BAD}[label](base[name])}
    with pytest.raises(ConfigurationError) as err:
        fn(**kwargs)
    assert re.match(rf"{re.escape(name)}\b", str(err.value)), str(err.value)


@pytest.mark.parametrize("entry,name", [("gamma_check", "eps_schedule"),
                                        ("oscillating_domain_mask", "grid")])
def test_number_for_a_sequence_refused_by_name(entry, name):
    # a number raised a bare TypeError from iterating it
    fn, base, _ = ENTRY_POINTS[entry]
    with pytest.raises(ConfigurationError) as err:
        fn(**{**base, name: base[name][0]})
    assert re.match(rf"{re.escape(name)}\b", str(err.value)), str(err.value)
