"""Homogenized densities of masked periodic media and their degeneracy structure.

The in-plane density ``phi_sharp`` is the periodic cell value of the
column-wise p-norm on a superlevel mask; ``psi`` adds the transverse term
weighted by the superlevel area fraction; ``w_hom`` is the full cylinder
cell value for a general convex integrand.  ``kernel`` and ``thresholds``
compute where and how these densities lose coercivity: the wrap lattice of
the face graph of the superlevel set determines the surviving directions,
and the wrap lattice of its node graph, whose windings the discrete energy
sees, certifies that verdict on the grid without a solve.  Densities are
even in the level: all masks are built from |t|.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cell_solver import SolveReport, minimize_dirichlet, minimize_periodic
from .energy import EnergyDensity
from .errors import (ConfigurationError, DimensionMismatchError,
                     StructuralInconsistencyError, as_array, as_exponent,
                     as_integer, as_level, as_matrix, as_resolution)
# nothing here calls torus_components any more, but perfbench/spans.py
# wraps it by name in this module, so it stays importable from here
from .profiles import (superlevel_mask, torus_components, wrap_lattice,
                       wrap_rank_levels)

ORACLE_LAYERS = 2       # vertical layers of the psi cylinder oracle


@dataclass(frozen=True)
class HomogenizedSample:
    """A homogenized density's value at one point (t, F), the area fraction
    theta of the superlevel mask {f > |t|}, and the report of the solve."""

    value: float
    theta: float
    report: SolveReport


@dataclass(frozen=True)
class IntervalInfo:
    t_lo: float
    t_hi: float
    wrap_rank: int
    kernel_dim: int
    xi: tuple


@dataclass(frozen=True)
class ThresholdReport:
    """Degeneracy thresholds t_1 <= ... <= t_{n-1} and per-interval kernel data."""

    thresholds: tuple
    intervals: tuple
    dim: int
    m: int
    resolution: int


def _columns(F, name, count, W=None, zeros=0):
    """F read by ``name`` as a matrix of ``count`` columns, and of W's m rows
    for a density W of count + ``zeros`` columns; as a read-only float copy
    with ``zeros`` zero columns appended."""
    if W is not None and W.n != count + zeros:
        raise DimensionMismatchError(f"W is declared for {W.m}x{W.n} matrices; this "
                                     f"problem needs {W.m}x{count + zeros}")
    F = as_matrix(F, name, (None if W is None else W.m, count))
    m, n = F.shape
    out = np.zeros((m, n + zeros))
    out[:, :n] = F
    out.flags.writeable = False
    return out


def _sample(profile, t, F, W, n_grid, opts, layers=None):
    """The periodic cell value of W at F on the superlevel mask {f > |t|},
    stacked ``layers`` deep along a new last axis when given."""
    occ = superlevel_mask(profile, t, n_grid)
    theta = float(occ.sum()) / occ.size
    if layers is not None:
        occ = np.repeat(occ[..., np.newaxis], layers, axis=-1)
    value, _, report = minimize_periodic(occ, W, F, opts=opts)
    return HomogenizedSample(value=value, theta=theta, report=report)


def phi_sharp(profile, t, Fbar, n_grid, *, p=2.0, opts=None):
    """In-plane homogenized density: periodic cell value of the column-wise
    p-norm on the superlevel mask {f > |t|}."""
    Fbar = _columns(Fbar, "Fbar", profile.dim)
    W = EnergyDensity.p_norm_power(p=p, m=Fbar.shape[0], n=profile.dim)
    return _sample(profile, t, Fbar, W, n_grid, opts)


def psi(profile, t, F, n_grid, *, p=2.0, opts=None):
    """Split-form density: phi_sharp on the in-plane block plus the area
    fraction times the p-th power of the transverse column norm."""
    F = _columns(F, "F", profile.dim + 1)
    base = phi_sharp(profile, t, F[:, :-1], n_grid, p=p, opts=opts)
    fn = float(np.linalg.norm(F[:, -1]))
    return replace(base, value=base.value + base.theta * fn ** p)


def psi_cylinder_oracle(profile, t, F, n_grid, *, p=2.0, opts=None):
    """Independent route for psi: one periodic solve on the full cylinder
    mask with the affine offset F.  The mask is constant in x_n, so the
    discrete minimum does not depend on the layer count (docs/solvers.md);
    ORACLE_LAYERS = 2 is the fewest at which D_n v is not identically zero,
    so the solver still has to find the vertical invariance itself.  The
    full vertical columns make the node graph wind, so the oracle is
    solved also where psi's in-plane value is exact without a solve; only
    a full mask is not, where both routes give W(F) exactly."""
    F = _columns(F, "F", profile.dim + 1)
    W = EnergyDensity.p_norm_power(p=p, m=F.shape[0], n=profile.dim + 1)
    return _sample(profile, t, F, W, n_grid, opts, layers=ORACLE_LAYERS)


def w_hom(profile, t, F, W, n_grid, *, opts=None):
    """Homogenized density of a convex integrand on the cylinder mask
    {f > |t|} x R.

    The mask does not vary along the last axis, so averaging a corrector
    over vertical translations does not raise the convex energy: some
    minimizer does not depend on x_n.  The solve therefore runs on the
    in-plane grid, and F's last column enters only as a constant offset
    (docs/solvers.md).
    """
    F = _columns(F, "F", profile.dim + 1, W)
    W.check_convexity()
    return _sample(profile, t, F, W, n_grid, opts)


def w_hom_cube_oracle(profile, t, F, W, box_side, n_grid, *, opts=None):
    """Growing-cube oracle: Dirichlet value on the box of side ``box_side``
    (whole periods) with the cylinder mask replicated per period.  The
    sequence over increasing box sides approaches the periodic value from
    above; only the trend is contractual at desk scale.

    Returns (value, report).
    """
    T = as_integer(box_side, "box_side")
    if T > 8:
        raise ConfigurationError(f"box_side must be at most 8 at desk scale; got {box_side}")
    F = _columns(F, "F", profile.dim + 1, W)
    tiled = np.tile(superlevel_mask(profile, t, n_grid), (T,) * profile.dim)
    occ = np.broadcast_to(tiled[..., np.newaxis], tiled.shape + (T * n_grid,))
    return minimize_dirichlet(np.ascontiguousarray(occ), W, F, T, opts=opts)


# -- kernel directions and thresholds -------------------------------------------


def _orthonormal_span(basis, dim):
    """Orthonormal basis of the real span of integer wrap vectors, with a
    deterministic sign convention (first significant entry positive)."""
    if not basis:
        return []
    B = np.array(basis, dtype=float).T
    Q, _ = np.linalg.qr(B)
    out = []
    for j in range(B.shape[1]):
        q = Q[:, j]
        lead = next((x for x in q if abs(x) > 1e-12), 1.0)
        if lead < 0:
            q = -q
        out.append(tuple(float(x) + 0.0 for x in q))
    return out


def kernel(profile, t, n_grid, *, confirm=True):
    """Kernel structure of the in-plane density at level t.

    The wrap lattice of the face graph of the superlevel mask
    (``wrap_lattice``) gives the verdict: a matrix lies in the kernel iff
    it annihilates every spanning direction xi_i, so on m-row matrices the
    kernel dimension is m * (dim - rank).  When ``confirm`` is set, the wrap
    lattice of the node graph certifies it: the discrete cell value of F
    vanishes exactly when F annihilates every node winding
    (docs/kernel_geometry.md), and the face lattice lies in the node
    lattice, so the two verdicts agree iff the ranks are equal.  A higher
    node rank raises StructuralInconsistencyError naming both lattices:
    cells that touch only at nodes, contacts of zero capacity, couple on
    the grid at N=n_grid, so it cannot certify the geometric verdict.

    Returns (k, xi) with k = dim - rank and xi the orthonormal spanning
    directions.
    """
    occ = superlevel_mask(profile, t, n_grid)
    faces = wrap_lattice(occ)
    if confirm:
        nodes = wrap_lattice(occ, nodes=True)
        if len(nodes) > len(faces):
            raise StructuralInconsistencyError(
                f"level {t}: the face lattice {faces} of the superlevel set "
                f"has rank {len(faces)}, but its node lattice {nodes} has rank "
                f"{len(nodes)}; the grid at N={n_grid} cannot certify the "
                f"geometric verdict (coarse grid, or zero-capacity contacts "
                f"that the discrete stencil couples)",
                geometric=f"face lattice {faces}",
                energetic=f"node lattice {nodes}",
            )
    d = profile.dim
    return d - len(faces), _orthonormal_span(list(faces), d)


def thresholds(profile, n_grid, *, m=1, confirm=True):
    """Locate the levels where the wrap rank of the superlevel set drops.

    t_k is the level from which the rank is at most dim - k: an exact cell
    value, found by bisection over the edge levels (``wrap_rank_levels``).
    A rank the full set {f > 0} never exceeds gives t_k = 0.  Kernel bases
    are computed at the midpoints of the intervals between thresholds,
    certified there by ``kernel`` when ``confirm`` is set; levels closer
    than 1/N, the level resolution of the grid, bound no interval of their
    own.
    """
    n_grid, m = as_resolution(n_grid, "n_grid"), as_integer(m, "m")
    d = profile.dim
    rises = wrap_rank_levels(profile, n_grid)
    ts = tuple(rises[d - k] if d - k < len(rises) else 0.0 for k in range(1, d + 1))

    breakpoints = [0.0]
    for t in ts + (1.0,):
        if t - breakpoints[-1] > 1.0 / n_grid:
            breakpoints.append(t)

    intervals = []
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        k, xi = kernel(profile, 0.5 * (lo + hi), n_grid, confirm=confirm)
        intervals.append(IntervalInfo(t_lo=lo, t_hi=hi, wrap_rank=d - k,
                                      kernel_dim=k * m, xi=tuple(xi)))
    return ThresholdReport(thresholds=ts, intervals=tuple(intervals), dim=d,
                           m=m, resolution=n_grid)


@dataclass(frozen=True)
class BoundsReport:
    t_lo: float
    s: float
    alpha_hat: float
    beta_hat: float
    num_samples: int


def bounds_check(profile, report, s, F_samples, n_grid, *, p=2.0, opts=None):
    """Empirical two-sided comparison of psi against the reduced seminorm
    sum_i |F_bar xi_i|^p + |F_n|^p on an interval (t_k, s], at four evenly
    spaced levels up to s.

    ``F_samples`` is a stack of m x (dim + 1) matrices.  Matrices lying in
    the kernel with zero transverse column make the ratio 0/0 and are
    excluded.  Returns fitted constants (min and max ratio).
    """
    s, p = as_level(s, "s"), as_exponent(p, "p")
    samples = as_array(F_samples, "F_samples", (None, None, profile.dim + 1))
    interval = next((iv for iv in report.intervals if iv.t_lo < s <= iv.t_hi), None)
    if interval is None:
        raise ConfigurationError(
            f"s={s} does not lie inside any interval of the threshold report"
        )
    xi = [np.array(x) for x in interval.xi]
    t_samples = [interval.t_lo + (s - interval.t_lo) * (i + 1) / 4 for i in range(4)]
    ratios = []
    for t in t_samples:
        for F in samples:
            denom = sum(float(np.linalg.norm(F[:, :-1] @ x)) ** p for x in xi)
            denom += float(np.linalg.norm(F[:, -1])) ** p
            if denom < 1e-12:
                continue
            val = psi(profile, t, F, n_grid, p=p, opts=opts).value
            ratios.append(val / denom)
    if not ratios:
        raise ConfigurationError(
            "F_samples holds no admissible sample: every matrix lies in the kernel")
    return BoundsReport(t_lo=interval.t_lo, s=float(s),
                        alpha_hat=min(ratios), beta_hat=max(ratios),
                        num_samples=len(ratios))
