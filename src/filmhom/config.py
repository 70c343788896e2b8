"""Declarative JSON run configuration for the batch driver.

One JSON file configures all subcommands; every field is validated before
any compute starts, and a key outside the schema is reported by its dotted
name.  Energies declared in config are the builtin kinds
(black-box custom densities are API-only).  The canonical serialization of
the raw dict is hashed so outputs can state exactly what produced them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cell_solver import SolverOptions
from .energy import EnergyDensity
from .errors import ConfigurationError
from .film import QuadratureOptions
from .profiles import Profile, load_sampled_profile


@dataclass
class RunConfig:
    raw: dict
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
    coercivity_floor: float
    film_n_grid: int
    eps_schedule: list
    cells_per_delta: int
    schedule_vertical_cells: int
    omega: tuple
    config_hash: str

    def probe_matrices(self, columns, rng=None):
        """Materialize F probes as (m, columns) matrices: the explicit ones
        whose flattened length matches, plus the requested random ones."""
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
            rng = rng or np.random.default_rng(self.seed)
            for _ in range(self.random_probes):
                out.append(rng.uniform(-self.probe_scale, self.probe_scale,
                                       size=(self.m, columns)))
        if not out:
            raise ConfigurationError("no F probes configured")
        return out


def _build_profile(spec, base_dir):
    kind = spec.get("kind")
    if kind is None:
        raise ConfigurationError("profile.kind is required")
    if kind == "sampled":
        path = spec.get("path")
        if not path:
            raise ConfigurationError("sampled profile needs a 'path'")
        path = Path(path)
        if not path.is_absolute():
            path = Path(base_dir) / path
        return load_sampled_profile(path)
    dim = spec.get("dim")
    if dim is None:
        raise ConfigurationError("builtin profile needs 'dim'")
    if kind == "constant":
        return Profile.constant(int(dim), float(spec.get("value", 1.0)))
    return Profile.builtin(kind, int(dim), floor=spec.get("floor"))


def _build_energy(spec, m, n):
    kind = spec.get("kind", "p_norm_power")
    p = float(spec.get("p", 2.0))
    if kind == "p_norm_power":
        W = EnergyDensity.p_norm_power(p, m, n)
    elif kind == "frobenius_power":
        W = EnergyDensity.frobenius_power(p, m, n)
    elif kind == "quadratic_form":
        matrix = spec.get("matrix")
        if matrix is None:
            A = np.eye(m * n)
        else:
            A = np.asarray(matrix, dtype=float).reshape(m * n, m * n)
        W = EnergyDensity.quadratic_form(A, m, n)
    else:
        raise ConfigurationError(
            f"unknown energy kind {kind!r} (config supports the builtin kinds)"
        )
    gamma = spec.get("gamma")
    beta = spec.get("beta")
    if gamma is not None or beta is not None:
        g = float(gamma) if gamma is not None else W.gamma
        b = float(beta) if beta is not None else W.beta
        if not (0 < g <= b):
            raise ConfigurationError(
                f"growth constants need 0 < gamma <= beta; got {g}, {b}")
        W = dataclasses.replace(W, gamma=g, beta=b)
    return W


# every key a config may set, by section; "omega" is a list, not a section
SCHEMA = {
    "dims": {"n", "m"},
    "profile": {"kind", "dim", "path", "value", "floor"},
    "energy": {"kind", "p", "matrix", "gamma", "beta"},
    "grid": {"N"},
    "solver": {"cg_rtol", "grad_tol", "max_iterations"},
    "sweep": {"t_values", "F_probes", "random_probes", "seed", "probe_scale"},
    "quadrature": {"rel_tol", "initial_nodes_per_unit", "max_refinements"},
    "thresholds": {"confirm", "coercivity_floor"},
    "film": {"n_grid"},
    "schedule": {"eps", "cells_per_delta", "vertical_cells"},
    "omega": None,
}

# keys that once had an effect: still accepted, with a warning
RETIRED = {"film.vertical_cells": "film cell problems solve on the in-plane grid",
           "grid.vertical_cells": "the psi oracle solves on a fixed two-layer cylinder",
           "thresholds.bisect_tol": "thresholds are exact cell values",
           "solver.method": "quadratic densities use CG, all others the descent"}


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
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


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
    dims = raw.get("dims", {})
    n = int(dims.get("n", 3))
    m = int(dims.get("m", 1))
    if n < 2:
        problems.append(f"dims.n must be >= 2; got {n}")
    if m < 1:
        problems.append(f"dims.m must be >= 1; got {m}")

    try:
        profile = _build_profile(raw.get("profile", {}), base_dir)
    except ConfigurationError as err:
        problems.append(str(err))
        profile = None
    if profile is not None and profile.dim != n - 1:
        problems.append(
            f"profile dim {profile.dim} inconsistent with dims.n={n} "
            f"(need dim = n-1 = {n - 1})")

    try:
        energy = _build_energy(raw.get("energy", {}), m, n)
    except ConfigurationError as err:
        problems.append(str(err))
        energy = None

    grid_n = int(raw.get("grid", {}).get("N", 64))

    sv = raw.get("solver", {})
    solver = SolverOptions(
        cg_rtol=float(sv.get("cg_rtol", 1e-10)),
        grad_tol=float(sv.get("grad_tol", 1e-8)),
        max_iterations=(int(sv["max_iterations"])
                        if sv.get("max_iterations") is not None else None),
    )

    sweep = raw.get("sweep", {})
    t_values = [float(t) for t in sweep.get("t_values", [])]
    for t in t_values:
        if not (-1.0 < t < 1.0):
            problems.append(f"sweep t value {t} outside (-1, 1)")
    F_probes = sweep.get("F_probes", [])
    random_probes = int(sweep.get("random_probes", 0))
    seed = int(sweep.get("seed", 0))
    probe_scale = float(sweep.get("probe_scale", 1.0))

    qd = raw.get("quadrature", {})
    quad = QuadratureOptions(
        rel_tol=float(qd.get("rel_tol", 1e-3)),
        initial_nodes_per_unit=int(qd.get("initial_nodes_per_unit", 8)),
        max_refinements=int(qd.get("max_refinements", 8)),
    )

    th = raw.get("thresholds", {})
    confirm_kernel = bool(th.get("confirm", True))
    coercivity_floor = float(th.get("coercivity_floor", 1e-3))

    film_n_grid = int(raw.get("film", {}).get("n_grid", 64))

    sched = raw.get("schedule", {})
    eps_schedule = [float(e) for e in sched.get("eps", [])]
    if eps_schedule and any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        problems.append(f"schedule.eps must be strictly decreasing; got {eps_schedule}")
    if any(e <= 0 for e in eps_schedule):
        problems.append("schedule.eps entries must be positive")
    cells_per_delta = int(sched.get("cells_per_delta", 8))
    schedule_vertical_cells = int(sched.get("vertical_cells", 32))

    # numeric ranges, by dotted name; `not value > 0` also catches NaN
    for name, value in (("solver.cg_rtol", solver.cg_rtol),
                        ("solver.grad_tol", solver.grad_tol),
                        ("quadrature.rel_tol", quad.rel_tol),
                        ("thresholds.coercivity_floor", coercivity_floor)):
        if not value > 0:
            problems.append(f"{name} must be positive; got {value}")
    for name, value, low in (
            ("grid.N", grid_n, 2), ("film.n_grid", film_n_grid, 2),
            ("solver.max_iterations", solver.max_iterations, 1),
            ("quadrature.initial_nodes_per_unit", quad.initial_nodes_per_unit, 1),
            ("quadrature.max_refinements", quad.max_refinements, 1),
            ("schedule.vertical_cells", schedule_vertical_cells, 1)):
        if value is not None and value < low:
            problems.append(f"{name} must be >= {low}; got {value}")

    omega_raw = raw.get("omega")
    if omega_raw is None:
        omega = tuple((0.0, 1.0) for _ in range(max(n - 1, 1)))
    else:
        omega = tuple((float(lo), float(hi)) for lo, hi in omega_raw)
        if any(hi <= lo for lo, hi in omega):
            problems.append(f"omega intervals must be increasing; got {omega_raw}")
        if len(omega) != n - 1:
            problems.append(
                f"omega lists {len(omega)} intervals; dims.n={n} needs {n - 1}")

    if problems:
        raise ConfigurationError("invalid config:\n  " + "\n  ".join(problems))

    return RunConfig(
        raw=raw, n=n, m=m, profile=profile, energy=energy, grid_n=grid_n,
        solver=solver, t_values=t_values, F_probes=F_probes,
        random_probes=random_probes, seed=seed, probe_scale=probe_scale, quad=quad,
        confirm_kernel=confirm_kernel, coercivity_floor=coercivity_floor,
        film_n_grid=film_n_grid,
        eps_schedule=eps_schedule, cells_per_delta=cells_per_delta,
        schedule_vertical_cells=schedule_vertical_cells, omega=omega,
        config_hash=config_hash(raw),
    )
