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
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cell_solver import SolverOptions
from .energy import EnergyDensity
from .errors import (ConfigurationError, as_array, as_count, as_exponent,
                     as_floor, as_integer, as_level, as_positive, as_real,
                     as_resolution)
from .film import REL_TOL, _eps_schedule
from .profiles import (BUILTIN_PROFILES, Profile, _omega_box,
                       load_sampled_profile)

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
    rel_tol: float
    confirm_kernel: bool
    film_n_grid: int
    eps_schedule: list
    cells_per_delta: int
    schedule_vertical_cells: int
    omega: tuple
    config_hash: str

    def probe_matrices(self, columns):
        """Materialize F probes as (m, columns) matrices: the explicit ones,
        read arrays whose entry count must match, plus the requested random
        ones, drawn from ``seed``."""
        out = []
        want = self.m * columns
        for probe in self.F_probes:
            if probe.size != want:
                raise ConfigurationError(
                    f"sweep.F_probes entry {probe.tolist()} has {probe.size} entries; "
                    f"this command needs m*{columns} = {want}")
            out.append(probe.reshape(self.m, columns))
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
        raise ConfigurationError(f"{names}: not read by {section}.kind {kind!r}")


def _build_profile(spec, num, base_dir):
    kind = spec.get("kind")
    if kind == "sampled":
        # the file gives the dimension; dims.n is checked against it
        _refuse_unread("profile", spec, kind, ("path",))
        path = spec.get("path")
        if not isinstance(path, str) or not path:
            raise ConfigurationError(
                f"profile.path of profile.kind 'sampled' must name a file; got {path!r}")
        path = Path(path)
        if not path.is_absolute():
            path = Path(base_dir) / path
        return load_sampled_profile(path)
    if kind not in BUILTIN_PROFILES:
        raise ConfigurationError(f"profile.kind must be 'sampled' or one of "
                                 f"{BUILTIN_PROFILES}; got {kind!r}")
    dim = num["profile.dim"]
    if dim is None:
        raise ConfigurationError(f"profile.dim is required by profile.kind {kind!r}")
    _refuse_unread("profile", spec, kind,
                   ("dim",) if kind == "constant" else ("dim", "floor"))
    return Profile.builtin(kind, dim, floor=num.get("profile.floor"))


def _build_energy(spec, num, m, n):
    """The density of the energy section, or None where energy.p, dims.m or
    dims.n was refused (None); the section's own keys are read either way."""
    kind = spec.get("kind", "p_norm_power")
    if kind not in ENERGY_KINDS:
        raise ConfigurationError(
            f"energy.kind must be one of {ENERGY_KINDS} (custom is API-only); got {kind!r}")
    _refuse_unread("energy", spec, kind,
                   ("p", "matrix") if kind == "quadratic_form" else ("p",))
    p, A = num.get("energy.p"), spec.get("matrix")
    if kind == "quadratic_form" and p not in (None, 2.0):
        raise ConfigurationError(
            f"energy.p of energy.kind 'quadratic_form' must be 2 (or left out); got {p}")
    A = None if A is None else as_array(A, "energy.matrix")
    if None in (p, m, n):
        return None
    if kind != "quadratic_form":
        return getattr(EnergyDensity, kind)(p, m, n)
    if A is None:
        A = np.eye(m * n)
    elif A.size != (m * n) ** 2:
        raise ConfigurationError(f"energy.matrix needs (dims.m * dims.n)**2 = "
                                 f"{(m * n) ** 2} entries; got {A.size}")
    try:
        return EnergyDensity.quadratic_form(A.reshape(m * n, m * n), m, n)
    except ConfigurationError as err:      # not symmetric positive definite
        raise ConfigurationError(f"energy.matrix: {err}") from None


ENERGY_KINDS = ("p_norm_power", "frobenius_power", "quadratic_form")

# every key a config may set, by section; "omega" is a list, not a section
SCHEMA = {
    "dims": {"n", "m"},
    "profile": {"kind", "dim", "path", "floor"},
    "energy": {"kind", "p", "matrix"},
    "grid": {"N"},
    "solver": {"cg_rtol", "grad_tol", "max_iterations"},
    "sweep": {"t_values", "F_probes", "random_probes", "seed", "probe_scale"},
    "quadrature": {"rel_tol"},
    "thresholds": {"confirm"},
    "film": {"n_grid"},
    "schedule": {"eps", "cells_per_delta", "vertical_cells"},
    "omega": None,
}

# keys that once had an effect and that the benchmark's generated configs
# still write: accepted, with a warning; any other retired key is unknown
RETIRED = {"film.vertical_cells": "film cell problems solve on the in-plane grid",
           "grid.vertical_cells": "the psi oracle solves on a fixed two-layer cylinder"}


# every scalar numeric field: dotted name -> (the library's reader, default);
# they refuse the NaN and Infinity that json.loads reads, as they refuse "16"
NUMERIC = {
    "dims.n": (as_integer, 3),
    "dims.m": (as_integer, 1),
    "profile.dim": (as_integer, None),
    "profile.floor": (as_floor, None),
    "energy.p": (as_exponent, 2.0),
    "grid.N": (as_resolution, 64),
    "solver.cg_rtol": (as_positive, SolverOptions.cg_rtol),
    "solver.grad_tol": (as_positive, SolverOptions.grad_tol),
    "solver.max_iterations": (as_integer, None),
    "sweep.random_probes": (as_count, 0),
    "sweep.seed": (as_count, 0),
    "sweep.probe_scale": (as_real, 1.0),
    "quadrature.rel_tol": (as_positive, REL_TOL),
    "film.n_grid": (as_resolution, 64),
    "schedule.cells_per_delta": (as_integer, 8),
    "schedule.vertical_cells": (as_integer, 32),
}


def _collect(problems, read, *args, default=None):
    """read(*args); where it refuses a field, by its dotted name, the message
    goes to ``problems`` and ``default`` is returned."""
    try:
        return read(*args)
    except ConfigurationError as err:
        problems.append(str(err))
        return default


def _number_list(values, name, read):
    """A list field, read as a whole by ``read(values, name)``."""
    if not isinstance(values, list):
        raise ConfigurationError(f"{name} must be a list; got {values!r}")
    return read(values, name)


def _numeric_fields(raw, problems):
    """Every NUMERIC field, read by its reader, or its default where it is
    not set; a refused one is reported and left out, so that no other field
    is checked against it."""
    out = {}
    for name, (read, default) in NUMERIC.items():
        section, key = name.split(".")
        value = raw.get(section, {}).get(key)
        try:
            out[name] = default if value is None else read(value, name)
        except ConfigurationError as err:
            problems.append(str(err))
    return out


def _section(num, section):
    """The NUMERIC values of one section, by key: an options type's fields."""
    return {name.split(".")[1]: v for name, v in num.items()
            if name.startswith(section + ".")}


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


def load_config(source):
    """Parse and validate a config from the path of a JSON file, or a dict.

    A sampled profile's relative path is read from the file's directory, or
    for a dict from the working directory."""
    if isinstance(source, dict):
        raw = source
        base_dir = "."
    else:
        path = Path(source)
        if not path.exists():
            raise ConfigurationError(f"config file not found: {source}")
        base_dir = path.parent
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as err:
            raise ConfigurationError(f"config is not valid JSON: {err}") from err

    problems = _unknown_keys(raw)
    num = _numeric_fields(raw, problems)
    n, m = num.get("dims.n"), num.get("dims.m")     # None where refused

    profile = (_collect(problems, _build_profile, raw.get("profile", {}), num, base_dir)
               if "profile.dim" in num else None)
    if profile is not None and n is not None and profile.dim != n - 1:
        problems.append(
            f"profile.dim {profile.dim} inconsistent with dims.n={n} "
            f"(need profile.dim = dims.n - 1 = {n - 1})")

    energy = _collect(problems, _build_energy, raw.get("energy", {}), num, m, n)

    solver = SolverOptions(**_section(num, "solver"))

    sweep = raw.get("sweep", {})
    t_values = _collect(problems, _number_list, sweep.get("t_values", []), "sweep.t_values",
                        lambda ts, name: [as_level(t, name) for t in ts], default=[])
    F_probes = _collect(problems, _number_list, sweep.get("F_probes", []), "sweep.F_probes",
                        lambda probes, name: [as_array(f, name) for f in probes], default=[])

    confirm_kernel = raw.get("thresholds", {}).get("confirm", True)
    if not isinstance(confirm_kernel, bool):
        problems.append(f"thresholds.confirm must be true or false; got {confirm_kernel!r}")

    sched = raw.get("schedule", {})
    eps_schedule = (_collect(problems, _number_list, sched["eps"], "schedule.eps",
                             _eps_schedule, default=[]) if "eps" in sched else [])

    omega = raw.get("omega")
    if omega is not None or n is not None:
        omega = _collect(problems, _omega_box, omega, None if n is None else n - 1)

    if problems:
        raise ConfigurationError("invalid config:\n  " + "\n  ".join(problems))

    return RunConfig(
        n=n, m=m, profile=profile, energy=energy, grid_n=num["grid.N"],
        solver=solver, t_values=t_values, F_probes=F_probes,
        random_probes=num["sweep.random_probes"], seed=num["sweep.seed"],
        probe_scale=num["sweep.probe_scale"], rel_tol=num["quadrature.rel_tol"],
        confirm_kernel=confirm_kernel,
        film_n_grid=num["film.n_grid"],
        eps_schedule=eps_schedule, cells_per_delta=num["schedule.cells_per_delta"],
        schedule_vertical_cells=num["schedule.vertical_cells"], omega=omega,
        config_hash=config_hash(raw),
    )
