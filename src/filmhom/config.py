"""Declarative JSON run configuration for the batch driver.

One JSON file configures all subcommands; every field is validated before
any compute starts, and a key outside the schema, or one that its section's
kind does not read, is reported by its dotted name.  Energies declared in
config are the builtin kinds (black-box custom densities are API-only).  The
canonical serialization of the raw dict is hashed so outputs can state
exactly what produced them.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cell_solver import SolverOptions
from .energy import EnergyDensity
from .errors import ConfigurationError
from .film import QuadratureOptions
from .profiles import Profile, _omega_box, load_sampled_profile

# CPython's built-in SHA-256 gives hashlib's digest without mapping OpenSSL's
# libcrypto (about 3.5 MB resident) into a run that hashes one short string
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256


@dataclass
class RunConfig:
    n: int
    m: int
    profile: Profile
    energy: EnergyDensity
    grid_n: int
    solver: SolverOptions
    t_values: list
    F_probes: list
    random_probes: int
    seed: int
    probe_scale: float
    quad: QuadratureOptions
    confirm_kernel: bool
    film_n_grid: int
    eps_schedule: list
    cells_per_delta: int
    schedule_vertical_cells: int
    omega: tuple
    config_hash: str

    def probe_matrices(self, columns):
        """Materialize F probes as (m, columns) matrices: the explicit ones
        whose flattened length matches, plus the requested random ones,
        drawn from ``seed``."""
        out = []
        want = self.m * columns
        for probe in self.F_probes:
            flat = np.asarray(probe, dtype=float).ravel()
            if flat.size != want:
                raise ConfigurationError(
                    f"F probe {probe} has {flat.size} entries; this command "
                    f"needs m*{columns} = {want}"
                )
            out.append(flat.reshape(self.m, columns))
        if self.random_probes > 0:
            rng = np.random.default_rng(self.seed)
            for _ in range(self.random_probes):
                out.append(rng.uniform(-self.probe_scale, self.probe_scale,
                                       size=(self.m, columns)))
        if not out:
            raise ConfigurationError("no F probes configured")
        return out


def _refuse_unread(section, spec, kind, reads):
    """Refuse by dotted name each key of ``spec`` in the section's schema
    that ``kind`` does not read, past "kind" itself."""
    unread = sorted(set(spec) & SCHEMA[section] - {"kind", *reads})
    if unread:
        names = ", ".join(f"{section}.{k}" for k in unread)
        raise ConfigurationError(f"{names}: not read by {section} kind {kind!r}")


def _build_profile(spec, num, base_dir):
    kind = spec.get("kind")
    if kind is None:
        raise ConfigurationError("profile.kind is required")
    if kind == "sampled":
        _refuse_unread("profile", spec, kind, ("dim", "path"))
        path = spec.get("path")
        if not path:
            raise ConfigurationError("sampled profile needs a 'path'")
        path = Path(path)
        if not path.is_absolute():
            path = Path(base_dir) / path
        return load_sampled_profile(path)
    dim = num["profile.dim"]
    if dim is None:
        raise ConfigurationError("builtin profile needs 'dim'")
    _refuse_unread("profile", spec, kind,
                   ("dim",) if kind == "constant" else ("dim", "floor"))
    return Profile.builtin(kind, dim, floor=num["profile.floor"])


def _build_energy(spec, num, m, n):
    kind = spec.get("kind", "p_norm_power")
    p = num["energy.p"]
    if kind == "p_norm_power":
        W = EnergyDensity.p_norm_power(p, m, n)
    elif kind == "frobenius_power":
        W = EnergyDensity.frobenius_power(p, m, n)
    elif kind == "quadratic_form":
        if p != 2.0:
            raise ConfigurationError(
                f"energy.p of a quadratic_form must be 2 (or left out); got {p}")
        matrix = spec.get("matrix")
        if matrix is None:
            A = np.eye(m * n)
        else:
            A = _float_array(matrix, "energy.matrix")
            if A.size != (m * n) ** 2:
                raise ConfigurationError(
                    f"energy.matrix needs {(m * n) ** 2} entries; got {A.size}")
            A = A.reshape(m * n, m * n)
        W = EnergyDensity.quadratic_form(A, m, n)
    else:
        raise ConfigurationError(
            f"unknown energy kind {kind!r} (config supports the builtin kinds)"
        )
    _refuse_unread("energy", spec, kind,
                   ("p", "matrix") if kind == "quadratic_form" else ("p",))
    return W


# every key a config may set, by section; "omega" is a list, not a section
SCHEMA = {
    "dims": {"n", "m"},
    "profile": {"kind", "dim", "path", "floor"},
    "energy": {"kind", "p", "matrix"},
    "grid": {"N"},
    "solver": {"cg_rtol", "grad_tol", "max_iterations"},
    "sweep": {"t_values", "F_probes", "random_probes", "seed", "probe_scale"},
    "quadrature": {"rel_tol", "initial_nodes_per_unit", "max_refinements"},
    "thresholds": {"confirm"},
    "film": {"n_grid"},
    "schedule": {"eps", "cells_per_delta", "vertical_cells"},
    "omega": None,
}

# keys that once had an effect: still accepted, with a warning
RETIRED = {"film.vertical_cells": "film cell problems solve on the in-plane grid",
           "grid.vertical_cells": "the psi oracle solves on a fixed two-layer cylinder",
           "thresholds.bisect_tol": "thresholds are exact cell values",
           "thresholds.coercivity_floor": "the kernel is certified by comparing "
                                          "two wrap lattices, with no solve",
           "solver.method": "the method follows the density (docs/solvers.md)",
           "energy.gamma": "the kind fixes the growth constants, and no output reads them",
           "energy.beta": "the kind fixes the growth constants, and no output reads them"}


# every scalar numeric field: dotted name -> (type, default, bound).  An int
# must be >= its bound, a float > its bound; None: no bound.
NUMERIC = {
    "dims.n": (int, 3, 2),
    "dims.m": (int, 1, 1),
    "profile.dim": (int, None, None),
    "profile.floor": (float, None, None),
    "energy.p": (float, 2.0, 1.0),
    "grid.N": (int, 64, 2),
    "solver.cg_rtol": (float, SolverOptions.cg_rtol, 0.0),
    "solver.grad_tol": (float, SolverOptions.grad_tol, 0.0),
    "solver.max_iterations": (int, None, 1),
    "sweep.random_probes": (int, 0, 0),
    "sweep.seed": (int, 0, 0),
    "sweep.probe_scale": (float, 1.0, None),
    "quadrature.rel_tol": (float, QuadratureOptions.rel_tol, 0.0),
    "quadrature.initial_nodes_per_unit": (int, QuadratureOptions.initial_nodes_per_unit, 1),
    "quadrature.max_refinements": (int, QuadratureOptions.max_refinements, 1),
    "film.n_grid": (int, 64, 2),
    "schedule.cells_per_delta": (int, 8, None),
    "schedule.vertical_cells": (int, 32, 1),
}


def _as_number(value, kind):
    """value as an int or float, or None when it is not one: booleans,
    strings (even "16"), non-numeric and non-finite values never are
    (json.loads reads the tokens NaN and Infinity), fractional values are no
    int."""
    if isinstance(value, (bool, str)):
        return None
    if kind is int and isinstance(value, int):
        return value
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        return None
    if not math.isfinite(x):
        return None
    if kind is float:
        return x
    return int(x) if x.is_integer() else None


def _float_array(value, name):
    """A nested list of finite numbers as a float array; anything else,
    strings that spell numbers included, raises a ConfigurationError that
    names the field."""
    try:
        array = np.asarray(value)
        # kind "U" holds strings, kind "O" None or integers past 64 bits
        if array.dtype.kind in "biuf":
            array = array.astype(float)
            if np.isfinite(array).all():
                return array
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigurationError(f"{name} must hold finite numbers; got {value!r}")


def _number_list(values, name, problems):
    """A list field of floats; a non-numeric or non-finite entry is reported
    by name."""
    out = [_as_number(v, float) for v in values] if isinstance(values, list) else [None]
    if None in out:
        problems.append(f"{name} entries must be finite numbers; got {values!r}")
        return []
    return out


def _numeric_fields(raw, problems):
    """Every NUMERIC field, parsed and range-checked.  A bad value is
    reported by its dotted name and read as the default."""
    out = {}
    for name, (kind, default, bound) in NUMERIC.items():
        section, key = name.split(".")
        value = raw.get(section, {}).get(key)
        if value is None:
            out[name] = default
            continue
        number = _as_number(value, kind)
        if number is None:
            what = "an integer" if kind is int else "a finite number"
            problems.append(f"{name} must be {what}; got {value!r}")
            number = default
        elif bound is not None and not (number >= bound if kind is int
                                        else number > bound):
            op = ">=" if kind is int else ">"
            problems.append(f"{name} must be {op} {bound:g}; got {number}")
            number = default
        out[name] = number
    return out


def _unknown_keys(raw):
    """One problem per key outside SCHEMA; a non-object section raises."""
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")
    problems = []
    for section, body in raw.items():
        if section not in SCHEMA:
            problems.append(f"unknown key {section}")
            continue
        if SCHEMA[section] is None:
            continue
        if not isinstance(body, dict):
            raise ConfigurationError(f"config section {section} must be an object")
        for key in body:
            name = f"{section}.{key}"
            if name in RETIRED:
                warnings.warn(f"config key {name} is retired and ignored: "
                              f"{RETIRED[name]}", stacklevel=3)
            elif key not in SCHEMA[section]:
                problems.append(f"unknown key {name}")
    return problems


def config_hash(raw):
    """The first 16 hex digits of the SHA-256 of the config's canonical JSON."""
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return sha256(canon.encode("utf-8")).hexdigest()[:16]


def load_config(source, base_dir=None):
    """Parse and validate a config from a path, JSON string, or dict."""
    if isinstance(source, dict):
        raw = source
        base_dir = base_dir or "."
    else:
        path = Path(source)
        if not path.exists():
            raise ConfigurationError(f"config file not found: {source}")
        base_dir = base_dir or path.parent
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as err:
            raise ConfigurationError(f"config is not valid JSON: {err}") from err

    problems = _unknown_keys(raw)
    num = _numeric_fields(raw, problems)
    n, m = num["dims.n"], num["dims.m"]

    try:
        profile = _build_profile(raw.get("profile", {}), num, base_dir)
    except ConfigurationError as err:
        problems.append(str(err))
        profile = None
    if profile is not None and profile.dim != n - 1:
        problems.append(
            f"profile dim {profile.dim} inconsistent with dims.n={n} "
            f"(need dim = n-1 = {n - 1})")

    try:
        energy = _build_energy(raw.get("energy", {}), num, m, n)
    except ConfigurationError as err:
        problems.append(str(err))
        energy = None

    solver = SolverOptions(cg_rtol=num["solver.cg_rtol"],
                           grad_tol=num["solver.grad_tol"],
                           max_iterations=num["solver.max_iterations"])

    sweep = raw.get("sweep", {})
    t_values = _number_list(sweep.get("t_values", []), "sweep.t_values", problems)
    for t in t_values:
        if not (-1.0 < t < 1.0):
            problems.append(f"sweep t value {t} outside (-1, 1)")
    F_probes = sweep.get("F_probes", [])
    for probe in F_probes:
        try:
            _float_array(probe, "sweep.F_probes")
        except ConfigurationError as err:
            problems.append(str(err))

    quad = QuadratureOptions(
        rel_tol=num["quadrature.rel_tol"],
        initial_nodes_per_unit=num["quadrature.initial_nodes_per_unit"],
        max_refinements=num["quadrature.max_refinements"],
    )
    confirm_kernel = raw.get("thresholds", {}).get("confirm", True)
    if not isinstance(confirm_kernel, bool):
        problems.append(f"thresholds.confirm must be true or false; got {confirm_kernel!r}")

    sched = raw.get("schedule", {})
    eps_schedule = _number_list(sched.get("eps", []), "schedule.eps", problems)
    if eps_schedule and any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        problems.append(f"schedule.eps must be strictly decreasing; got {eps_schedule}")
    if any(e <= 0 for e in eps_schedule):
        problems.append("schedule.eps entries must be positive")

    omega = raw.get("omega")
    try:
        omega = _omega_box(None if omega is None else _float_array(omega, "omega"),
                           n - 1)
    except ConfigurationError as err:
        problems.append(str(err))

    if problems:
        raise ConfigurationError("invalid config:\n  " + "\n  ".join(problems))

    return RunConfig(
        n=n, m=m, profile=profile, energy=energy, grid_n=num["grid.N"],
        solver=solver, t_values=t_values, F_probes=F_probes,
        random_probes=num["sweep.random_probes"], seed=num["sweep.seed"],
        probe_scale=num["sweep.probe_scale"], quad=quad,
        confirm_kernel=confirm_kernel,
        film_n_grid=num["film.n_grid"],
        eps_schedule=eps_schedule, cells_per_delta=num["schedule.cells_per_delta"],
        schedule_vertical_cells=num["schedule.vertical_cells"], omega=omega,
        config_hash=config_hash(raw),
    )
