"""Thin-film effective density and direct verification of scaled minima.

The film fills omega x (-eps, eps) between the surfaces +-eps f(x/delta).
Every operation here needs min f > 0, read as ``profile.floor``; omega is
d finite (lo, hi) pairs with lo < hi, checked by ``profiles._omega_box``
alone (the unit box when None).

Pipeline: ``w_tilde`` minimizes the cylinder density over the transverse
gradient column in one periodic solve; ``w_bar`` integrates it over the
level t with a composite midpoint rule whose nodes avoid the degeneracy
thresholds exactly; ``membrane_min`` converts that into the limit membrane
minimum for affine boundary data; ``direct_min`` minimizes the raw energy
on the oscillating slab; and ``gamma_check`` compares the scaled slab
minima against the membrane target along a schedule of thicknesses with
delta = eps^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cell_solver import _Grid, _solve_masked, minimize_periodic
from .errors import (ConfigurationError, QuadratureError, ResolutionError,
                     as_integer, as_matrix, as_positive)
from .homogenize import _columns, thresholds
from .profiles import _omega_box, oscillating_domain_mask, superlevel_mask


@dataclass(frozen=True)
class QuadratureOptions:
    rel_tol: float = 1e-3
    initial_nodes_per_unit: int = 8
    max_refinements: int = 8

    def __post_init__(self):
        object.__setattr__(self, "rel_tol", as_positive(self.rel_tol, "rel_tol"))
        for name in ("initial_nodes_per_unit", "max_refinements"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name))


@dataclass
class FilmTableEntry:
    Fbar: np.ndarray
    value: float
    nodes: list
    weights: list
    node_values: list
    node_argmins: list
    refinement_level: int
    converged: bool             # every cylinder solve behind the value converged


@dataclass
class GammaEntry:
    eps: float
    delta: float
    minimum: float
    scaled: float
    gap: float
    converged: bool


@dataclass
class GammaCheckReport:
    target: float
    entries: list
    trend_nonincreasing: bool
    membrane_converged: bool    # every solve behind the target converged
    metadata: dict = field(default_factory=dict)


# -- inner minimization over the transverse column -----------------------------


def _require_film_hypotheses(profile, W):
    if not profile.floor > 0.0:
        raise ConfigurationError("film operations require a strictly positive "
                                 f"profile minimum (got min f = {profile.floor})")
    W.check_convexity()


def w_tilde(profile, W, t, Fbar, *, n_grid=64, solver_opts=None):
    """Minimize the cylinder density over the transverse gradient column.

    The cell energy is jointly convex in the corrector and the column, so
    one periodic solve on the in-plane superlevel mask minimizes over both,
    starting from the column 0 (docs/solvers.md).  An empty superlevel set
    gives value 0 with argmin 0.

    Returns (value, argmin, converged) with argmin of shape (m,); converged
    is False when the solve did not converge.
    """
    _require_film_hypotheses(profile, W)
    F = _columns(Fbar, "Fbar", profile.dim, W, zeros=1)
    occ = superlevel_mask(profile, t, n_grid).occupancy
    value, corr, report = minimize_periodic(occ, W, F, solver_opts,
                                            free_offset=True)
    return value, corr.offset[:, -1].copy(), report.converged


# -- quadrature over the level --------------------------------------------------


def _midpoint_nodes(breakpoints, per_piece):
    nodes, weights = [], []
    for (a, b), n in zip(zip(breakpoints[:-1], breakpoints[1:]), per_piece):
        h = (b - a) / n
        for i in range(n):
            nodes.append(a + (i + 0.5) * h)
            weights.append(h)
    return nodes, weights


def quadrature_breakpoints(profile, n_grid, *, uniform=False):
    # the thresholds are exact cell values, so no integrand jump falls
    # inside a piece, where midpoint refinement would stall
    if uniform:
        return [0.0, 1.0]
    pts = [0.0]
    for t in thresholds(profile, n_grid, confirm=False).thresholds:
        if pts[-1] + 1e-9 < t < 1.0 - 1e-9:
            pts.append(float(t))
    pts.append(1.0)
    return pts


def w_bar(profile, W, Fbar, *, n_grid=64, quad=None, solver_opts=None,
          uniform=False):
    """Integrate the inner-minimized density over the level t in (0, 1).

    Each node takes one joint ``w_tilde`` solve, whose transverse column is
    recorded in ``node_argmins``.  Composite midpoint rule on the pieces cut
    by the detected thresholds (midpoint nodes never hit a threshold); the
    node count doubles per refinement until two successive totals differ by
    at most rel_tol * max(|total|, 1e-9).  A run that exhausts the refinement
    budget raises QuadratureError carrying the best estimate and the full
    node history.  The entry's ``converged`` is False when any cylinder
    solve of any refinement level did not converge.
    """
    _require_film_hypotheses(profile, W)
    quad = quad or QuadratureOptions()
    Fbar = as_matrix(Fbar, "Fbar", (W.m, profile.dim))
    breaks = quadrature_breakpoints(profile, n_grid, uniform=uniform)
    per_piece = [max(2, math.ceil(quad.initial_nodes_per_unit * (b - a)))
                 for a, b in zip(breaks[:-1], breaks[1:])]

    history = []
    prev_total = None
    best = None
    converged = True
    for level in range(quad.max_refinements + 1):
        nodes, weights = _midpoint_nodes(breaks, per_piece)
        vals, mins = [], []
        for t in nodes:
            v, argmin, ok = w_tilde(profile, W, t, Fbar, n_grid=n_grid,
                                    solver_opts=solver_opts)
            vals.append(v)
            mins.append(argmin)
            converged &= ok
        total = float(np.dot(weights, vals))
        history.append({"level": level, "nodes": len(nodes), "estimate": total})
        best = FilmTableEntry(Fbar=Fbar.copy(), value=total, nodes=nodes,
                              weights=weights, node_values=vals,
                              node_argmins=mins, refinement_level=level,
                              converged=converged)
        if prev_total is not None and (
                abs(total - prev_total)
                <= quad.rel_tol * max(abs(total), 1e-9)):
            return best
        prev_total = total
        per_piece = [2 * n for n in per_piece]
    raise QuadratureError(
        f"film quadrature did not converge to rel_tol={quad.rel_tol} within "
        f"{quad.max_refinements} refinements",
        best_estimate=best.value if best else None, history=history)


# -- membrane minimum and direct slab minimization -------------------------------


@dataclass(frozen=True)
class MembraneResult:
    value: float
    omega_area: float
    table_entry: FilmTableEntry


def membrane_min(omega, Fbar, profile, W, *, n_grid=64, quad=None,
                 solver_opts=None):
    """Limit membrane minimum for the affine boundary data x -> Fbar x on a box.

    For affine data and a convex effective density the affine extension is a
    minimizer, so the value is twice the box area times the effective density
    at Fbar (the slab thickness spans (-1, 1)).
    """
    omega = _omega_box(omega, profile.dim)
    area = math.prod(hi - lo for lo, hi in omega)
    entry = w_bar(profile, W, Fbar, n_grid=n_grid, quad=quad,
                  solver_opts=solver_opts)
    return MembraneResult(value=2.0 * area * entry.value, omega_area=area,
                          table_entry=entry)


def direct_min(profile, eps, delta, Fbar, W, *, omega=None, cells_per_delta=8,
               vertical_cells=32, solver_opts=None):
    """Directly minimize the energy on the oscillating slab with affine
    lateral Dirichlet data and free top/bottom boundaries.

    The domain is omega x (-eps, eps) bounded by eps*f(x/delta); the raw
    minimum is returned (the caller divides by eps).

    Returns (value, report).
    """
    _require_film_hypotheses(profile, W)
    eps = as_positive(eps, "eps")
    delta = as_positive(delta, "delta")
    d = profile.dim
    F = _columns(Fbar, "Fbar", d, W, zeros=1)
    cells_per_delta = as_integer(cells_per_delta, "cells_per_delta")
    if cells_per_delta < 4:
        raise ResolutionError(
            f"cells_per_delta={cells_per_delta} under-resolves the oscillation; "
            f"need at least 4", required=4)
    omega = _omega_box(omega, d)
    layers = as_integer(vertical_cells, "vertical_cells")

    in_plane = tuple(int(math.ceil((hi - lo) / delta * cells_per_delta))
                     for lo, hi in omega)
    grid_cells = in_plane + (layers,)
    dm = oscillating_domain_mask(profile, eps, delta, grid_cells, omega=omega)

    # lateral Dirichlet data, free top and bottom
    grid = _Grid(cells=grid_cells, spacings=dm.spacings, kinds="D" * d + "N")
    integral, _, report = _solve_masked(grid, dm.occupancy, W, F, solver_opts)
    return integral, report


def _eps_schedule(values, name):
    """Slab thicknesses: a strictly decreasing list of positive numbers."""
    schedule = [as_positive(e, name) for e in values]
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ConfigurationError(f"{name} must be strictly decreasing; got {schedule}")
    return schedule


def gamma_check(profile, W, Fbar, eps_schedule, *, omega=None, cells_per_delta=8,
                vertical_cells=32, n_grid=64, quad=None, solver_opts=None):
    """Run direct_min along a decreasing schedule with delta = eps^2, divide
    by eps, and compare against the membrane target.

    Gaps are relative to the target (absolute when the target vanishes); the
    trend flag records whether they are non-increasing along the schedule.
    """
    eps_schedule = _eps_schedule(eps_schedule, "eps_schedule")
    cells_per_delta = as_integer(cells_per_delta, "cells_per_delta")
    vertical_cells = as_integer(vertical_cells, "vertical_cells")
    omega = _omega_box(omega, profile.dim)

    membrane = membrane_min(omega, Fbar, profile, W, n_grid=n_grid, quad=quad,
                            solver_opts=solver_opts)
    target = membrane.value

    entries = []
    for eps in eps_schedule:
        delta = eps * eps
        minimum, report = direct_min(
            profile, eps, delta, Fbar, W, omega=omega,
            cells_per_delta=cells_per_delta, vertical_cells=vertical_cells,
            solver_opts=solver_opts)
        scaled = minimum / eps
        if abs(target) > 1e-14:
            gap = abs(scaled - target) / abs(target)
        else:
            gap = abs(scaled)
        entries.append(GammaEntry(eps=eps, delta=delta, minimum=minimum,
                                  scaled=scaled, gap=gap,
                                  converged=report.converged))

    trend = all(b.gap <= a.gap + 1e-12 for a, b in zip(entries[:-1], entries[1:]))
    return GammaCheckReport(target=target, entries=entries,
                            trend_nonincreasing=trend,
                            membrane_converged=membrane.table_entry.converged,
                            metadata={"omega": [list(o) for o in omega],
                                      "cells_per_delta": cells_per_delta,
                                      "vertical_cells": vertical_cells})
