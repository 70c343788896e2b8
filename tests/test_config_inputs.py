"""The config refuses a bad field by its dotted name, and only that field.

A field of a wrong type or value raises a ConfigurationError that names
it, never another exception; a field that was refused is not checked
against the others, so it adds no second, false problem.
"""

import copy
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filmhom import ConfigurationError
from filmhom.cli import main
from filmhom.config import SCHEMA, load_config

# valid configs that between them set every key of SCHEMA but profile.path
BASES = [
    {"dims": {"n": 3, "m": 1},
     "profile": {"kind": "sin2-product", "dim": 2, "floor": 0.3},
     "energy": {"kind": "p_norm_power", "p": 2.0},
     "grid": {"N": 16},
     "solver": {"cg_rtol": 1e-10, "grad_tol": 1e-8, "max_iterations": 50},
     "sweep": {"t_values": [0.1, 0.5], "F_probes": [[1.0, 0.0, 0.0]],
               "random_probes": 1, "seed": 2, "probe_scale": 0.5},
     "quadrature": {"rel_tol": 1e-3},
     "thresholds": {"confirm": True},
     "film": {"n_grid": 16},
     "schedule": {"eps": [0.5, 0.25], "cells_per_delta": 4, "vertical_cells": 8},
     "omega": [[0.0, 1.0], [0.0, 2.0]]},
    {"dims": {"n": 3, "m": 1},
     "profile": {"kind": "checkerboard", "dim": 2},
     "energy": {"kind": "quadratic_form", "p": 2.0,
                "matrix": [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
     "sweep": {"t_values": [0.3], "F_probes": [[1.0, 0.5, 0.0]]}},
    {"dims": {"n": 2, "m": 2},
     "profile": {"kind": "sin2-stripe", "dim": 1},
     "energy": {"kind": "frobenius_power", "p": 3.0},
     "sweep": {"F_probes": [[1.0], [0.5]]},
     "schedule": {"eps": [0.25]},
     "omega": [[0.0, 1.0]]},
]

# every dotted key a config may set; omega is a top-level list
KEYS = sorted(f"{section}.{key}" for section, keys in SCHEMA.items() if keys
              for key in keys) + ["omega"]
VALUES = [None, True, 0, -1, 2.5, math.nan, math.inf, "x", "16", [], [1],
          [[1.0, "a"]], [[0.5, 0.25]], {}]


def _set(raw, key, value):
    section, _, field = key.partition(".")
    if field:
        raw.setdefault(section, {})[field] = value
    else:
        raw[section] = value


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(BASES),
       st.lists(st.tuples(st.sampled_from(KEYS), st.sampled_from(VALUES)),
                min_size=1, max_size=3, unique_by=lambda kv: kv[0]))
def test_mutated_config_refused_by_a_mutated_key(base, mutation):
    raw = copy.deepcopy(base)
    for key, value in mutation:
        _set(raw, key, value)
    try:
        load_config(raw)
    except ConfigurationError as err:
        assert any(key in str(err) for key, _ in mutation), (mutation, str(err))


@pytest.mark.parametrize("overrides, problem", [
    ({"dims": {"n": 0}, "profile": {"kind": "sin2-stripe", "dim": 1}},
     "dims.n must be an integer >= 1; got 0"),
    ({"profile": {"kind": "sin2-stripe", "dim": 0}},
     "profile.dim must be an integer >= 1; got 0"),
    ({"dims": {"m": 0}, "energy": {"kind": "quadratic_form",
                                   "matrix": [[1.0, 0.0], [0.0, 1.0]]}},
     "dims.m must be an integer >= 1; got 0"),
    ({"profile": {"kind": "sin2-stripe", "dim": 2, "floor": 1.5}},
     "profile.floor must be a finite number in [0, 1); got 1.5"),
    ({"dims": {"n": "3"}, "omega": [[0.0, 1.0], [0.0, 1.0]]},
     "dims.n must be an integer >= 1; got '3'"),
], ids=["dims.n", "profile.dim", "dims.m", "profile.floor", "dims.n-omega"])
def test_refused_field_adds_no_second_problem(overrides, problem):
    raw = {"profile": {"kind": "sin2-stripe", "dim": 2}, **overrides}
    with pytest.raises(ConfigurationError) as err:
        load_config(raw)
    assert str(err.value) == f"invalid config:\n  {problem}"


@pytest.mark.parametrize("key", ["initial_nodes_per_unit", "max_refinements"])
def test_deleted_quadrature_key_refused_as_unknown(key):
    # the film bracket has no node count or refinement budget to set
    with pytest.raises(ConfigurationError) as err:
        load_config({"profile": {"kind": "sin2-stripe", "dim": 2},
                     "quadrature": {"rel_tol": 1e-3, key: 4}})
    assert str(err.value) == f"invalid config:\n  unknown key quadrature.{key}"


@pytest.mark.parametrize("probes", [3, None, True])
def test_probes_that_are_not_a_list_refused_by_name(tmp_path, capsys, probes):
    # a number, null or a bool escaped load_config as a TypeError (exit 1)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"profile": {"kind": "sin2-stripe", "dim": 2},
                                "sweep": {"t_values": [0.5], "F_probes": probes}}),
                    encoding="utf-8")
    assert main(["phi", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "sweep.F_probes must be a list" in capsys.readouterr().err


def test_probe_entry_count_names_the_field(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"profile": {"kind": "sin2-stripe", "dim": 2},
                                "sweep": {"t_values": [0.5], "F_probes": [[1.0, 0.0]]}}),
                    encoding="utf-8")
    assert main(["psi", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "sweep.F_probes entry [1.0, 0.0] has 2 entries" in capsys.readouterr().err

