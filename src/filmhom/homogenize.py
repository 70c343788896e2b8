"""Homogenized densities of masked periodic media and their degeneracy structure.

The in-plane density ``phi_sharp`` is the periodic cell value of the
column-wise p-norm on a superlevel mask; ``psi`` adds the transverse term
weighted by the superlevel area fraction; ``w_hom`` is the full cylinder
cell value for a general convex integrand.  ``kernel`` and ``thresholds``
compute where and how these densities lose coercivity: the wrap lattice of
the superlevel set determines the surviving directions, and an energetic
confirmation pass guards against under-resolved grids.  Densities are even
in the level: all masks are built from |t|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cell_solver import (SolveReport, _positive_int, minimize_dirichlet,
                          minimize_periodic)
from .energy import EnergyDensity, as_matrix
from .errors import ConfigurationError, StructuralInconsistencyError
# nothing here calls torus_components any more, but perfbench/spans.py
# wraps it by name in this module, so it stays importable from here
from .profiles import (superlevel_mask, torus_components,
                       wrap_lattice, wrap_rank_levels)

KERNEL_VALUE_TOL = 1e-6
COERCIVITY_FLOOR = 1e-3
ORACLE_LAYERS = 2       # vertical layers of the psi cylinder oracle


@dataclass(frozen=True)
class HomogenizedSample:
    """One evaluated point (t, F) of a homogenized density."""

    t: float
    F: np.ndarray
    value: float
    theta: float
    resolution: int
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
    converged: bool         # every confirmation probe solve converged

    def to_dict(self):
        return {
            "thresholds": list(self.thresholds),
            "converged": self.converged,
            "dim": self.dim,
            "m": self.m,
            "resolution": self.resolution,
            "intervals": [
                {
                    "t_lo": iv.t_lo,
                    "t_hi": iv.t_hi,
                    "wrap_rank": iv.wrap_rank,
                    "kernel_dim": iv.kernel_dim,
                    "xi": [list(x) for x in iv.xi],
                }
                for iv in self.intervals
            ],
        }


def _freeze(F):
    F = as_matrix(F).copy()
    F.flags.writeable = False
    return F


def phi_sharp(profile, t, Fbar, n_grid, *, p=2.0, opts=None):
    """In-plane homogenized density: periodic cell value of the column-wise
    p-norm on the superlevel mask {f > |t|}."""
    Fbar = as_matrix(Fbar)
    m = Fbar.shape[0]
    if Fbar.shape[1] != profile.dim:
        raise ConfigurationError(
            f"in-plane matrix has {Fbar.shape[1]} columns; profile dim is {profile.dim}"
        )
    mask = superlevel_mask(profile, t, n_grid)
    W = EnergyDensity.p_norm_power(p=p, m=m, n=profile.dim)
    value, _, report = minimize_periodic(mask.occupancy, W, Fbar, opts=opts)
    return HomogenizedSample(t=float(t), F=_freeze(Fbar), value=value,
                             theta=mask.area_fraction, resolution=n_grid,
                             report=report)


def psi(profile, t, F, n_grid, *, p=2.0, opts=None):
    """Split-form density: phi_sharp on the in-plane block plus the area
    fraction times the p-th power of the transverse column norm."""
    F = as_matrix(F)
    if F.shape[1] != profile.dim + 1:
        raise ConfigurationError(
            f"matrix has {F.shape[1]} columns; expected {profile.dim + 1}"
        )
    base = phi_sharp(profile, t, F[:, :-1], n_grid, p=p, opts=opts)
    fn = float(np.linalg.norm(F[:, -1]))
    value = base.value + base.theta * fn ** p
    return HomogenizedSample(t=float(t), F=_freeze(F), value=value,
                             theta=base.theta, resolution=n_grid,
                             report=base.report)


def psi_cylinder_oracle(profile, t, F, n_grid, *, p=2.0, opts=None):
    """Independent route for psi: one periodic solve on the full cylinder
    mask with the affine offset F.  The mask is constant in x_n, so the
    discrete minimum does not depend on the layer count (docs/solvers.md);
    ORACLE_LAYERS = 2 is the fewest at which D_n v is not identically zero,
    so the solver still has to find the vertical invariance itself.  The
    full vertical columns make the node graph wind, so the oracle is
    solved also where psi's in-plane value is exact without a solve; only
    a full mask is not, where both routes give W(F) exactly."""
    F = as_matrix(F)
    m = F.shape[0]
    d = profile.dim + 1
    if F.shape[1] != d:
        raise ConfigurationError(f"matrix has {F.shape[1]} columns; expected {d}")
    mask2 = superlevel_mask(profile, t, n_grid)
    occ = np.repeat(mask2.occupancy[..., np.newaxis], ORACLE_LAYERS, axis=-1)
    W = EnergyDensity.p_norm_power(p=p, m=m, n=d)
    value, _, report = minimize_periodic(occ, W, F, opts=opts)
    return HomogenizedSample(t=float(t), F=_freeze(F), value=value,
                             theta=mask2.area_fraction, resolution=n_grid,
                             report=report)


def w_hom(profile, t, F, W, n_grid, *, opts=None):
    """Homogenized density of a convex integrand on the cylinder mask
    {f > |t|} x R.

    The mask does not vary along the last axis, so averaging a corrector
    over vertical translations does not raise the convex energy: some
    minimizer does not depend on x_n.  The solve therefore runs on the
    in-plane grid, and F's last column enters only as a constant offset
    (docs/solvers.md).
    """
    F = as_matrix(F)
    d = profile.dim + 1
    if F.shape[1] != d:
        raise ConfigurationError(f"matrix has {F.shape[1]} columns; expected {d}")
    W.check_dims(F.shape[0], d)
    W.check_convexity()
    mask2 = superlevel_mask(profile, t, n_grid)
    value, _, report = minimize_periodic(mask2.occupancy, W, F, opts=opts)
    return HomogenizedSample(t=float(t), F=_freeze(F), value=value,
                             theta=mask2.area_fraction, resolution=n_grid,
                             report=report)


def w_hom_cube_oracle(profile, t, F, W, box_side, n_grid, *, opts=None):
    """Growing-cube oracle: Dirichlet value on the box of side ``box_side``
    (whole periods) with the cylinder mask replicated per period.  The
    sequence over increasing box sides approaches the periodic value from
    above; only the trend is contractual at desk scale.

    Returns (value, report).
    """
    T = _positive_int(box_side, "box_side")
    if T > 8:
        raise ConfigurationError(f"box side must be in 1..8 at desk scale; got {box_side}")
    F = as_matrix(F)
    d = profile.dim + 1
    if F.shape[1] != d:
        raise ConfigurationError(f"matrix has {F.shape[1]} columns; expected {d}")
    W.check_dims(F.shape[0], d)
    mask2 = superlevel_mask(profile, t, n_grid)
    tiled = np.tile(mask2.occupancy, (T,) * profile.dim)
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


def _complement(xi, dim):
    if not xi:
        return [tuple(1.0 if i == j else 0.0 for i in range(dim)) for j in range(dim)]
    X = np.array(xi, dtype=float)
    _, _, vt = np.linalg.svd(X, full_matrices=True)
    comp = vt[len(xi):]
    return [tuple(float(x) for x in row) for row in comp]


def _check_m(m):
    """Reject a field dimension m that is not a positive integer."""
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
        raise ConfigurationError(f"m must be a positive integer; got {m!r}")


def kernel(profile, t, n_grid, *, p=2.0, m=1, opts=None, confirm=True,
           coercivity_floor=COERCIVITY_FLOOR):
    """Kernel structure of the in-plane density at level t.

    Geometric route: the wrap lattice of the superlevel mask
    (``wrap_lattice``, read off its full lines and empty layers where they
    decide it, labelled otherwise); a matrix lies in the kernel iff it
    annihilates every spanning direction xi_i, so the kernel dimension is
    m * (dim - rank).  When ``confirm`` is set, probe solves check the
    energetic verdict: kernel probes must fall below ``KERNEL_VALUE_TOL``,
    spanning-direction probes must stay above ``coercivity_floor``;
    disagreement raises StructuralInconsistencyError (the grid is too
    coarse to trust either verdict).

    A probe whose solve did not converge decides nothing, since its value
    is not a minimum.

    Returns (k, xi, converged) with k = dim - rank, xi the orthonormal
    spanning directions, and converged False when any probe solve did not
    converge.
    """
    _check_m(m)
    mask = superlevel_mask(profile, t, n_grid)
    lattice = wrap_lattice(mask.occupancy)
    d = profile.dim
    xi = _orthonormal_span(list(lattice), d)
    k = d - len(lattice)
    converged = True

    if confirm:
        def probe(direction):
            nonlocal converged
            Fb = np.zeros((m, d))
            Fb[0, :] = direction
            sample = phi_sharp(profile, t, Fb, n_grid, p=p, opts=opts)
            converged &= sample.report.converged
            return sample.value if sample.report.converged else None

        for zeta in _complement(xi, d):
            val = probe(zeta)
            if val is not None and val > KERNEL_VALUE_TOL:
                raise StructuralInconsistencyError(
                    f"level {t}: direction {zeta} is geometrically degenerate "
                    f"(no wrap) but the cell value {val:.3e} exceeds "
                    f"{KERNEL_VALUE_TOL:.1e}; "
                    f"the grid at N={n_grid} cannot certify the geometric verdict "
                    f"(coarse grid, or zero-capacity contacts that the discrete "
                    f"stencil couples)",
                    geometric="kernel", energetic=f"value={val:.3e}",
                )
        for x in xi:
            val = probe(x)
            if val is not None and val < coercivity_floor:
                raise StructuralInconsistencyError(
                    f"level {t}: direction {x} wraps the torus but the cell "
                    f"value {val:.3e} sits below the coercivity floor "
                    f"{coercivity_floor:.1e}; grid N={n_grid} too coarse",
                    geometric="coercive", energetic=f"value={val:.3e}",
                )
    return k, xi, converged


def thresholds(profile, n_grid, *, m=1, p=2.0, opts=None, confirm=True,
               coercivity_floor=COERCIVITY_FLOOR):
    """Locate the levels where the wrap rank of the superlevel set drops.

    t_k is the level from which the rank is at most dim - k: an exact cell
    value, found by bisection over the edge levels (``wrap_rank_levels``).
    A rank the full set {f > 0} never exceeds gives t_k = 0.  Kernel bases
    are computed at the midpoints of the intervals between thresholds;
    levels closer than 1/N, the level resolution of the grid, bound no
    interval of their own.
    """
    _check_m(m)
    d = profile.dim
    rises = wrap_rank_levels(profile, n_grid)
    ts = tuple(rises[d - k] if d - k < len(rises) else 0.0 for k in range(1, d + 1))

    breakpoints = [0.0]
    for t in ts + (1.0,):
        if t - breakpoints[-1] > 1.0 / n_grid:
            breakpoints.append(t)

    intervals = []
    converged = True
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        mid = 0.5 * (lo + hi)
        k, xi, ok = kernel(profile, mid, n_grid, p=p, m=m, opts=opts,
                           confirm=confirm, coercivity_floor=coercivity_floor)
        converged &= ok
        intervals.append(IntervalInfo(t_lo=lo, t_hi=hi, wrap_rank=d - k,
                                      kernel_dim=k * m, xi=tuple(xi)))
    return ThresholdReport(thresholds=ts, intervals=tuple(intervals),
                           dim=d, m=m, resolution=n_grid, converged=converged)


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

    Matrices lying in the kernel with zero transverse column make the ratio
    0/0 and are excluded.  Returns fitted constants (min and max ratio).
    """
    interval = None
    for iv in report.intervals:
        if iv.t_lo < s <= iv.t_hi:
            interval = iv
            break
    if interval is None:
        raise ConfigurationError(
            f"s={s} does not lie inside any interval of the threshold report"
        )
    xi = [np.array(x) for x in interval.xi]
    t_samples = [interval.t_lo + (s - interval.t_lo) * (i + 1) / 4 for i in range(4)]
    ratios = []
    for t in t_samples:
        for F in F_samples:
            F = as_matrix(F)
            denom = sum(float(np.linalg.norm(F[:, :-1] @ x)) ** p for x in xi)
            denom += float(np.linalg.norm(F[:, -1])) ** p
            if denom < 1e-12:
                continue
            val = psi(profile, t, F, n_grid, p=p, opts=opts).value
            ratios.append(val / denom)
    if not ratios:
        raise ConfigurationError("no admissible samples: all matrices fell in the kernel")
    return BoundsReport(t_lo=interval.t_lo, s=float(s),
                        alpha_hat=min(ratios), beta_hat=max(ratios),
                        num_samples=len(ratios))
