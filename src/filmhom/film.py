"""Thin-film effective density and direct verification of scaled minima.

Pipeline: ``w_tilde`` minimizes the cylinder density over the transverse
gradient column (golden-section per component, bracket expanded on boundary
hits); ``w_bar`` integrates it over the level t with a composite midpoint
rule whose nodes avoid the degeneracy thresholds exactly; ``membrane_min``
converts that into the limit membrane minimum for affine boundary data;
``direct_min`` minimizes the raw energy on the oscillating slab; and
``gamma_check`` compares the scaled slab minima against the membrane target
along a schedule of thicknesses with delta = eps^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cell_solver import _Grid, _solve_masked, minimize_periodic
from .energy import as_matrix
from .errors import (ConfigurationError, QuadratureError, ResolutionError,
                     UnsupportedFeatureError)
from .homogenize import _cylinder_mask, thresholds
from .profiles import oscillating_domain_mask

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class QuadratureOptions:
    rel_tol: float = 1e-3
    initial_nodes_per_unit: int = 8
    max_refinements: int = 8
    abs_floor: float = 1e-9


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

    def to_dict(self):
        return {
            "Fbar": self.Fbar.tolist(),
            "value": self.value,
            "converged": self.converged,
            "refinement_level": self.refinement_level,
            "nodes": list(self.nodes),
            "weights": list(self.weights),
            "node_values": list(self.node_values),
            "node_argmins": [list(a) for a in self.node_argmins],
        }


@dataclass
class FilmDensityTable:
    entries: list
    thresholds: list
    rel_tol: float
    metadata: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "thresholds": list(self.thresholds),
            "rel_tol": self.rel_tol,
            "metadata": dict(self.metadata),
            "entries": [e.to_dict() for e in self.entries],
        }

    def csv_rows(self):
        rows = []
        for e in self.entries:
            rows.append(list(e.Fbar.ravel()) + [e.value, e.refinement_level,
                                                len(e.nodes)])
        return rows


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

    def to_dict(self):
        return {
            "target": self.target,
            "trend_nonincreasing": self.trend_nonincreasing,
            "membrane_converged": self.membrane_converged,
            "metadata": dict(self.metadata),
            "entries": [
                {"eps": e.eps, "delta": e.delta, "minimum": e.minimum,
                 "scaled": e.scaled, "gap": e.gap, "converged": e.converged}
                for e in self.entries
            ],
        }

    def csv_rows(self):
        return [[e.eps, e.delta, e.minimum, e.scaled, e.gap, int(e.converged)]
                for e in self.entries]


# -- scalar minimization ------------------------------------------------------


def _golden_section(fn, lo, hi, xtol):
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    return (c, fc) if fc <= fd else (d, fd)


def _expanding_min(fn, half_width, xtol, max_expand=40):
    """Golden-section on [-B, B]; the bracket doubles whenever the minimizer
    lands at an edge (convexity plus growth guarantee termination)."""
    lo, hi = -half_width, half_width
    x, fx = _golden_section(fn, lo, hi, xtol)
    for _ in range(max_expand):
        width = hi - lo
        if x <= lo + 0.02 * width:
            lo -= width
        elif x >= hi - 0.02 * width:
            hi += width
        else:
            return x, fx
        x, fx = _golden_section(fn, lo, hi, xtol)
    return x, fx


# -- inner minimization over the transverse column -----------------------------


def _require_film_hypotheses(profile, W):
    if profile.min_value <= 0.0:
        raise ConfigurationError(
            "film operations require a strictly positive profile minimum "
            f"(got min f = {profile.min_value})"
        )
    W.check_convexity()


def _cylinder_evaluator(profile, W, t, n_grid, vertical_cells, solver_opts):
    """Warm-started evaluator F -> cylinder cell value at fixed level t, and
    its state; ``state["converged"]`` stays True while every solve converges."""
    _, occ = _cylinder_mask(profile, t, n_grid, vertical_cells)
    if not occ.any():
        return None, None
    state = {"v0": None, "converged": True}

    def value(F):
        val, corr, report = minimize_periodic(occ, W, F, opts=solver_opts,
                                              v0=state["v0"], want_corrector=False)
        state["v0"] = corr.values
        state["converged"] &= report.converged
        return val

    return value, state


def w_tilde(profile, W, t, Fbar, *, n_grid=64, vertical_cells=4, fn_tol=1e-6,
            solver_opts=None, max_sweeps=60):
    """Minimize the cylinder density over the transverse gradient column.

    Golden-section for a single field component, cyclic coordinate descent
    with golden-section per coordinate otherwise.  An empty superlevel set
    gives value 0 with argmin 0 by convention.

    Returns (value, argmin, converged) with argmin of shape (m,); converged
    is False when any cylinder solve of the search did not converge.
    """
    _require_film_hypotheses(profile, W)
    Fbar = as_matrix(Fbar)
    m = Fbar.shape[0]
    if Fbar.shape[1] != profile.dim:
        raise ConfigurationError(
            f"in-plane matrix has {Fbar.shape[1]} columns; profile dim is {profile.dim}"
        )
    W.check_dims(m, profile.dim + 1)
    evaluator, state = _cylinder_evaluator(profile, W, t, n_grid, vertical_cells,
                                           solver_opts)
    if evaluator is None:
        return 0.0, np.zeros(m), True

    half_width = 2.0 * (1.0 + float(np.linalg.norm(Fbar)))

    def with_column(fn_col):
        return np.hstack([Fbar, np.asarray(fn_col, dtype=float).reshape(m, 1)])

    if m == 1:
        x, fx = _expanding_min(lambda s: evaluator(with_column([s])),
                               half_width, fn_tol)
        return fx, np.array([x]), state["converged"]

    fn_col = np.zeros(m)
    fx = evaluator(with_column(fn_col))
    for _ in range(max_sweeps):
        moved = 0.0
        for c in range(m):
            def line(s, c=c):
                trial = fn_col.copy()
                trial[c] = s
                return evaluator(with_column(trial))

            x, fx = _expanding_min(line, max(half_width, abs(fn_col[c]) + 1.0),
                                   fn_tol)
            moved = max(moved, abs(x - fn_col[c]))
            fn_col[c] = x
        if moved <= fn_tol:
            break
    return fx, fn_col, state["converged"]


# -- quadrature over the level --------------------------------------------------


def _midpoint_nodes(breakpoints, per_piece):
    nodes, weights = [], []
    for (a, b), n in zip(zip(breakpoints[:-1], breakpoints[1:]), per_piece):
        h = (b - a) / n
        for i in range(n):
            nodes.append(a + (i + 0.5) * h)
            weights.append(h)
    return nodes, weights


def quadrature_breakpoints(profile, n_grid, *, threshold_report=None, uniform=False,
                           bisect_tol=1e-4):
    # rank bisection is cheap, and a loosely located breakpoint would leave
    # the integrand jump inside a piece where midpoint refinement stalls
    if uniform:
        return [0.0, 1.0], None
    report = threshold_report or thresholds(profile, n_grid, bisect_tol,
                                            confirm=False)
    pts = [0.0]
    for t in report.thresholds:
        if pts[-1] + 1e-9 < t < 1.0 - 1e-9:
            pts.append(float(t))
    pts.append(1.0)
    return pts, report


def w_bar(profile, W, Fbar, *, n_grid=64, vertical_cells=4, quad=None,
          threshold_report=None, solver_opts=None, uniform=False, fn_tol=1e-6):
    """Integrate the inner-minimized density over the level t in (0, 1).

    Composite midpoint rule on the pieces cut by the detected thresholds
    (midpoint nodes never hit a threshold); the node count doubles per
    refinement until two successive totals agree to the relative tolerance.
    A run that exhausts the refinement budget raises QuadratureError carrying
    the best estimate and the full node history.  The entry's ``converged``
    is False when any cylinder solve of any refinement level did not converge.
    """
    _require_film_hypotheses(profile, W)
    quad = quad or QuadratureOptions()
    Fbar = as_matrix(Fbar)
    breaks, report = quadrature_breakpoints(
        profile, n_grid, threshold_report=threshold_report, uniform=uniform)
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
                                    vertical_cells=vertical_cells, fn_tol=fn_tol,
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
                <= quad.rel_tol * max(abs(total), quad.abs_floor)):
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
    wbar_value: float
    omega_area: float
    note: str
    table_entry: FilmTableEntry


def membrane_min(omega, Fbar, profile, W, *, datum="affine", n_grid=64,
                 vertical_cells=4, quad=None, solver_opts=None):
    """Limit membrane minimum for affine boundary data on a box.

    For affine data and a convex effective density the affine extension is a
    minimizer, so the value is twice the box area times the effective density
    at the datum gradient (the slab thickness spans (-1, 1)).  Non-affine
    data are outside v1.
    """
    if datum != "affine":
        raise UnsupportedFeatureError(
            "membrane_min supports affine boundary data only in v1"
        )
    omega = tuple((float(lo), float(hi)) for lo, hi in omega)
    area = math.prod(hi - lo for lo, hi in omega)
    if area <= 0:
        raise ConfigurationError(f"omega box has non-positive volume: {omega}")
    entry = w_bar(profile, W, Fbar, n_grid=n_grid, vertical_cells=vertical_cells,
                  quad=quad, solver_opts=solver_opts)
    value = 2.0 * area * entry.value
    note = ("affine datum: the affine extension minimizes the convex membrane "
            "functional, so the minimum is 2 * |omega| * effective_density(datum)")
    return MembraneResult(value=value, wbar_value=entry.value, omega_area=area,
                          note=note, table_entry=entry)


class _ColumnScaledDensity:
    """Evaluate a density on column-rescaled matrices (used by the scaled
    slab parameterization, where the transverse gradient carries 1/eps)."""

    def __init__(self, base, scales):
        self.base = base
        self.scales = np.asarray(scales, dtype=float)
        self.m = base.m
        self.n = base.n
        self.p = base.p
        self.kind = base.kind
        self.convex = base.convex
        self.label = f"column_scaled({base.label})"

    @property
    def is_quadratic(self):
        return self.base.is_quadratic

    @property
    def uses_smoothing(self):
        return self.base.uses_smoothing

    def check_dims(self, m, n):
        self.base.check_dims(m, n)

    def check_convexity(self, **kw):
        return self.base.check_convexity(**kw)

    def _scale_shape(self, ndim):
        return self.scales.reshape((1, self.n) + (1,) * (ndim - 2))

    def cell_values(self, G):
        return self.base.cell_values(G * self._scale_shape(G.ndim))

    def cell_stress(self, G):
        s = self._scale_shape(G.ndim)
        return self.base.cell_stress(G * s) * s


def direct_min(profile, eps, delta, Fbar, W, *, omega=None, cells_per_delta=8,
               vertical_cells=32, solver_opts=None, parameterization="unscaled"):
    """Directly minimize the energy on the oscillating slab with affine
    lateral Dirichlet data and free top/bottom boundaries.

    Unscaled: the domain is omega x (-eps, eps) bounded by eps*f(x/delta) and
    the raw minimum is returned (the caller divides by eps).  Scaled: the
    domain is omega x (-1, 1) bounded by f(x/delta), the transverse gradient
    carries a factor 1/eps inside the density, and the value approximates the
    unscaled minimum divided by eps.

    Returns (value, report).
    """
    if parameterization not in ("unscaled", "scaled"):
        raise ConfigurationError(f"unknown parameterization {parameterization!r}")
    _require_film_hypotheses(profile, W)
    Fbar = as_matrix(Fbar)
    m = Fbar.shape[0]
    d = profile.dim
    W.check_dims(m, d + 1)
    if cells_per_delta < 4:
        raise ResolutionError(
            f"cells_per_delta={cells_per_delta} under-resolves the oscillation; "
            f"need at least 4", required=4)
    if omega is None:
        omega = tuple((0.0, 1.0) for _ in range(d))
    omega = tuple((float(lo), float(hi)) for lo, hi in omega)

    in_plane = tuple(int(math.ceil((hi - lo) / delta * cells_per_delta))
                     for lo, hi in omega)
    grid_cells = in_plane + (int(vertical_cells),)
    dm = oscillating_domain_mask(profile, eps, delta, grid_cells, omega=omega,
                                 scaled=(parameterization == "scaled"))

    grid = _Grid(cells=grid_cells, spacings=dm.spacings,
                 periodic=(False,) * (d + 1))
    F_off = np.hstack([Fbar, np.zeros((m, 1))])
    density = W
    if parameterization == "scaled":
        scales = np.ones(d + 1)
        scales[-1] = 1.0 / eps
        density = _ColumnScaledDensity(W, scales)

    # lateral Dirichlet data, free top and bottom
    integral, _, report = _solve_masked(grid, dm.occupancy, density, F_off,
                                        solver_opts, dirichlet_axes=tuple(range(d)))
    return integral, report


def gamma_check(profile, W, Fbar, eps_schedule, *, omega=None, cells_per_delta=8,
                vertical_cells=32, n_grid=64, film_vertical_cells=4, quad=None,
                solver_opts=None):
    """Run direct_min along a decreasing schedule with delta = eps^2, divide
    by eps, and compare against the membrane target.

    Gaps are relative to the target (absolute when the target vanishes); the
    trend flag records whether they are non-increasing along the schedule.
    A resolution failure aborts and re-raises with the partial report
    attached as ``partial_report``.
    """
    eps_schedule = [float(e) for e in eps_schedule]
    if any(b >= a for a, b in zip(eps_schedule[:-1], eps_schedule[1:])):
        raise ConfigurationError(
            f"eps schedule must be strictly decreasing; got {eps_schedule}")
    if omega is None:
        omega = tuple((0.0, 1.0) for _ in range(profile.dim))

    membrane = membrane_min(omega, Fbar, profile, W, n_grid=n_grid,
                            vertical_cells=film_vertical_cells, quad=quad,
                            solver_opts=solver_opts)
    target = membrane.value

    entries = []
    for eps in eps_schedule:
        delta = eps * eps
        try:
            minimum, report = direct_min(
                profile, eps, delta, Fbar, W, omega=omega,
                cells_per_delta=cells_per_delta, vertical_cells=vertical_cells,
                solver_opts=solver_opts)
        except ResolutionError as err:
            err.partial_report = GammaCheckReport(
                target=target, entries=entries, trend_nonincreasing=False,
                membrane_converged=membrane.table_entry.converged,
                metadata={"aborted_at_eps": eps})
            raise
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
