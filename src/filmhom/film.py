"""Thin-film effective density and direct verification of scaled minima.

The film fills omega x (-eps, eps) between the surfaces +-eps f(x/delta).
Every operation here needs min f > 0, read as ``profile.floor``; omega is
d finite (lo, hi) pairs with lo < hi, checked by ``profiles._omega_box``
alone (the unit box when None).

Pipeline: ``w_tilde`` minimizes the cylinder density over the transverse
gradient column in one periodic solve; ``w_bar`` integrates it over the
level t, a non-increasing step function on the grid's level classes, by a
bracket L <= w_bar <= U that it narrows until its half-width meets
``rel_tol``; ``membrane_min`` converts that into the limit membrane
minimum for affine boundary data; ``direct_min`` minimizes the raw energy
on the oscillating slab; and ``gamma_check`` compares the scaled slab
minima against the membrane target along a schedule of thicknesses with
delta = eps^2.  Solver settings are ``opts``, as in the cell layer, and
the bracket's one setting is the float ``rel_tol``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .cell_solver import _Grid, _solve_masked, minimize_periodic
from .errors import (ConfigurationError, ResolutionError, _entries,
                     as_integer, as_matrix, as_positive)
# nothing here calls thresholds any more, but perfbench/spans.py wraps it
# by name in this module, so it stays importable from here
from .homogenize import _columns, thresholds
from .profiles import (_distinct_positive, _omega_box, oscillating_domain_mask,
                       superlevel_mask)


# the default rel_tol of w_bar, membrane_min, gamma_check and the config
REL_TOL = 1e-3


@dataclass
class FilmTableEntry:
    Fbar: np.ndarray
    value: float
    half_width: float           # value - half_width <= w_bar <= value + half_width
    nodes: list
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


def w_tilde(profile, W, t, Fbar, *, n_grid=64, opts=None):
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
    occ = superlevel_mask(profile, t, n_grid)
    value, corr, report = minimize_periodic(occ, W, F, opts, free_offset=True)
    return value, corr.offset[:, -1].copy(), report.converged


# -- the bracket over the level classes ------------------------------------------


def _class_ends(profile, n_grid):
    """0, the distinct values of f on the n_grid grid inside (0, 1), and 1.

    Class k is the level interval [ends[k], ends[k + 1]).  The comparison
    f > t is strict, so on it the mask {f > t} is exactly that of its left
    end: the first class gives the full mask, and a last class from max f
    the empty one.  A value 0 or 1 would bound a class of zero width.
    """
    values = _distinct_positive(profile.eval_grid(n_grid))
    return [0.0, *values[values < 1.0].tolist(), 1.0]


def w_bar(profile, W, Fbar, *, n_grid=64, rel_tol=REL_TOL, opts=None):
    """Integrate the inner-minimized density over the level t in (0, 1).

    On the n_grid grid ``w_tilde`` reads t only through the mask {f > t},
    so it is a step function, constant on each level class (``_class_ends``)
    and non-increasing in t, since a smaller mask sums W >= 0 over fewer
    cells.  A ``custom`` density is assumed to satisfy W >= 0, as p-growth
    requires; it is not checked.  Between two evaluated classes i < j the
    classes left out lie between g_j and g_i, which brackets the integral
    L <= w_bar <= U.  The first and the last class are evaluated, and then,
    while U - L > 2 rel_tol |(L + U) / 2|, the class at the width-median of
    the gap with the largest (g_i - g_j) * width.  Each class is evaluated
    at most once, so the loop always ends.

    The entry's ``value`` is (L + U) / 2 and its ``half_width`` (U - L) / 2,
    certified up to the error of the solves.  ``nodes`` holds the evaluated
    levels, the left ends of their classes, in ascending order; each took
    one joint ``w_tilde`` solve, whose transverse column is recorded in
    ``node_argmins``.  ``refinement_level`` counts the evaluations after the
    two end classes, and ``converged`` is False when any solve did not
    converge.
    """
    _require_film_hypotheses(profile, W)
    rel_tol = as_positive(rel_tol, "rel_tol")
    Fbar = as_matrix(Fbar, "Fbar", (W.m, profile.dim))
    ends = _class_ends(profile, n_grid)
    found = {}      # class -> w_tilde's (value, argmin, converged)
    todo = {0, len(ends) - 2}
    while todo:
        for k in todo:
            found[k] = w_tilde(profile, W, ends[k], Fbar, n_grid=n_grid, opts=opts)
        done = sorted(found)
        lower = upper = widest = 0.0
        todo = set()
        for i, j in zip(done, done[1:] + [None]):
            g_i = found[i][0]
            exact = (ends[i + 1] - ends[i]) * g_i
            lower += exact
            upper += exact
            if j is None or j == i + 1:
                continue
            g_j, gap = found[j][0], ends[j] - ends[i + 1]
            lower += gap * g_j
            upper += gap * g_i
            if (g_i - g_j) * gap > widest:
                widest, split = (g_i - g_j) * gap, (i, j)
        if widest > 0.0 and upper - lower > rel_tol * abs(lower + upper):
            i, j = split
            median = bisect.bisect_right(ends, 0.5 * (ends[i + 1] + ends[j])) - 1
            todo = {min(median, j - 1)}     # a rounded midpoint may reach ends[j]

    return FilmTableEntry(
        Fbar=Fbar.copy(), value=float(0.5 * (lower + upper)),
        half_width=float(0.5 * (upper - lower)), nodes=[ends[k] for k in done],
        node_values=[found[k][0] for k in done],
        node_argmins=[found[k][1] for k in done],
        refinement_level=len(done) - len({0, len(ends) - 2}),
        converged=all(found[k][2] for k in done))


# -- membrane minimum and direct slab minimization -------------------------------


def membrane_min(omega, Fbar, profile, W, *, n_grid=64, rel_tol=REL_TOL,
                 opts=None):
    """Limit membrane minimum for the affine boundary data x -> Fbar x on a box.

    For affine data and a convex effective density the affine extension is a
    minimizer, so the value is twice the box area times the effective density
    at Fbar (the slab thickness spans (-1, 1)).

    Returns (value, entry) with ``entry`` the ``w_bar`` table entry at Fbar.
    """
    omega = _omega_box(omega, profile.dim)
    area = math.prod(hi - lo for lo, hi in omega)
    entry = w_bar(profile, W, Fbar, n_grid=n_grid, rel_tol=rel_tol, opts=opts)
    return 2.0 * area * entry.value, entry


def direct_min(profile, eps, delta, Fbar, W, *, omega=None, cells_per_delta=8,
               vertical_cells=32, opts=None):
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
    integral, _, report = _solve_masked(grid, dm.occupancy, W, F, opts)
    return integral, report


def _eps_schedule(values, name):
    """Slab thicknesses: a strictly decreasing list of positive numbers, at
    least one."""
    _entries(values, name, "a list of thicknesses")   # at least one entry
    schedule = [as_positive(e, name) for e in values]
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ConfigurationError(f"{name} must be strictly decreasing; got {schedule}")
    return schedule


def gamma_check(profile, W, Fbar, eps_schedule, *, omega=None, cells_per_delta=8,
                vertical_cells=32, n_grid=64, rel_tol=REL_TOL, opts=None):
    """Run direct_min along a decreasing schedule with delta = eps^2, divide
    by eps, and compare against the membrane target.

    Gaps are relative to the target (absolute when the target vanishes); the
    trend flag records whether they are non-increasing along the schedule.
    """
    eps_schedule = _eps_schedule(eps_schedule, "eps_schedule")
    cells_per_delta = as_integer(cells_per_delta, "cells_per_delta")
    vertical_cells = as_integer(vertical_cells, "vertical_cells")
    omega = _omega_box(omega, profile.dim)

    target, membrane = membrane_min(omega, Fbar, profile, W, n_grid=n_grid,
                                    rel_tol=rel_tol, opts=opts)

    entries = []
    for eps in eps_schedule:
        delta = eps * eps
        minimum, report = direct_min(
            profile, eps, delta, Fbar, W, omega=omega,
            cells_per_delta=cells_per_delta, vertical_cells=vertical_cells, opts=opts)
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
                            membrane_converged=membrane.converged,
                            metadata={"omega": [list(o) for o in omega],
                                      "cells_per_delta": cells_per_delta,
                                      "vertical_cells": vertical_cells})
