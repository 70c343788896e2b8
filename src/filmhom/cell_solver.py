"""Minimization of masked gradient energies on structured grids.

Discretization: node-based fields, cell-centered masks, forward-difference
per-cell gradients.  On a grid with periodic axes, nodes and cells share the
same index set and differences wrap; on non-periodic axes there is one more
node layer than cells, and the two end layers of an axis can be frozen
(Dirichlet).  This lowest-order choice keeps the zero corrector exactly
optimal on full masks and makes grid-aligned stripe correctors exact.

Solvers: quadratic densities are minimized by one preconditioned conjugate
gradient, for periodic cell problems, cylinders and Dirichlet slabs alike.
The operator is applied as vol * D^T (mask * stress(D u)); the
preconditioner inverts the unmasked box Laplacian axis by axis with numpy.fft
(FFT on periodic axes, DST-I on frozen-end axes, DCT-II on free ends) and
keeps only active free nodes; CG stops on the true residual,
||r|| <= cg_rtol ||b|| (docs/solvers.md).  Other densities use monotone
accelerated descent with backtracking, whose tests compare energies cell by
cell.  Cells outside the mask contribute no energy; nodes touching no
occupied cell stay frozen at zero; the remaining constant-per-component null
space is handled by starting from a consistent state and gauge-fixing
afterwards.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .energy import EnergyDensity, as_matrix
from .errors import ConfigurationError, DimensionMismatchError


@dataclass(frozen=True)
class SolverOptions:
    method: str = "auto"            # auto | cg | descent
    cg_rtol: float = 1e-10
    grad_tol: float = 1e-8          # scaled by (1 + |F|^(p-1)) at solve time
    max_iterations: int | None = None   # default: 10 * number of nodes
    record_trace: bool = False


@dataclass
class SolveReport:
    iterations: int
    final_energy: float
    residual: float
    converged: bool
    method: str
    notes: str = ""
    energy_trace: list = field(default_factory=list)


@dataclass(frozen=True)
class CorrectorField:
    """Periodic node values of a cell-problem minimizer, one layer per field
    component, gauge-fixed to zero mean on each connected component of the
    active node set."""

    dim: int
    m: int
    resolution: tuple
    values: np.ndarray


class _SmoothedColumns:
    """Consistent smoothing of a p < 2 column-norm density: both the value and
    the stress come from sqrt(|G_j|^2 + eps^2), shifted so W(0) = 0.  The
    descent solver minimizes this smooth objective; the exact density is used
    only to report the final value (bias O(eps^p) ~ 1e-12)."""

    def __init__(self, base, eps=1e-8):
        self.base = base
        self.eps = eps
        self.m = base.m
        self.n = base.n
        self.p = base.p
        self.kind = base.kind
        self.convex = base.convex
        self.label = f"smoothed({base.label})"
        self.is_quadratic = False
        self.uses_smoothing = True

    def check_dims(self, m, n):
        self.base.check_dims(m, n)

    def cell_values(self, G):
        p, e2 = self.p, self.eps ** 2
        if self.kind == "p_norm_power":
            s2 = np.sum(G * G, axis=0) + e2
            return np.sum(s2 ** (p / 2.0) - self.eps ** p, axis=0)
        s2 = np.sum(G * G, axis=(0, 1)) + e2
        return s2 ** (p / 2.0) - self.eps ** p

    def cell_stress(self, G):
        p, e2 = self.p, self.eps ** 2
        if self.kind == "p_norm_power":
            s2 = np.sum(G * G, axis=0) + e2
            return p * s2[np.newaxis] ** (p / 2.0 - 1.0) * G
        s2 = np.sum(G * G, axis=(0, 1)) + e2
        return p * s2[np.newaxis, np.newaxis] ** (p / 2.0 - 1.0) * G


@dataclass(frozen=True)
class _Grid:
    cells: tuple
    spacings: tuple
    periodic: tuple

    @property
    def dim(self):
        return len(self.cells)

    @property
    def node_shape(self):
        return tuple(c if p else c + 1 for c, p in zip(self.cells, self.periodic))

    @property
    def cell_volume(self):
        return math.prod(self.spacings)

    @property
    def num_nodes(self):
        return math.prod(self.node_shape)


def _along(axis, index):
    """Index tuple selecting ``index`` on ``axis`` of a node/cell array."""
    return (slice(None),) * axis + (index,)


# the stencil windows depend only on the grid; solves reuse them every apply
@functools.lru_cache(maxsize=128)
def _cell_windows(grid, axis):
    lo = (slice(None),) + tuple(slice(0, c) for c in grid.cells)
    hi = (slice(None),) + tuple(
        slice(1, grid.cells[b] + 1) if b == axis else slice(0, grid.cells[b])
        for b in range(grid.dim)
    )
    return lo, hi


@functools.lru_cache(maxsize=128)
def _wrap_windows(grid, axis):
    """(target, source) window pairs along a periodic axis: cell j's forward
    neighbour is node j + 1, and the last cell wraps to node 0."""
    n = grid.cells[axis]
    lo, _ = _cell_windows(grid, axis)

    def at(s):
        return lo[:1 + axis] + (s,) + lo[2 + axis:]

    return ((at(slice(0, n - 1)), at(slice(1, n))),
            (at(slice(n - 1, n)), at(slice(0, 1))))


def _cell_gradient(grid, v):
    """(m, *nodes) -> (m, dim, *cells): forward differences per cell."""
    m = v.shape[0]
    G = np.empty((m, grid.dim) + grid.cells)
    for a in range(grid.dim):
        lo, hi = _cell_windows(grid, a)
        Ga = G[:, a]
        if grid.periodic[a]:
            for cells, nodes in _wrap_windows(grid, a):
                np.subtract(v[nodes], v[cells], out=Ga[cells])
        else:
            np.subtract(v[hi], v[lo], out=Ga)
        Ga /= grid.spacings[a]
    return G


def _cell_gradient_adjoint(grid, P):
    """Adjoint of _cell_gradient: <P, Dv>_cells = <adjoint(P), v>_nodes."""
    m = P.shape[0]
    out = np.zeros((m,) + grid.node_shape)
    for a in range(grid.dim):
        lo, hi = _cell_windows(grid, a)
        Pa = P[:, a] / grid.spacings[a]
        out[lo] -= Pa
        if grid.periodic[a]:
            for cells, nodes in _wrap_windows(grid, a):
                out[nodes] += Pa[cells]
        else:
            out[hi] += Pa
    return out


def _active_node_mask(grid, mask):
    """Nodes touched by at least one occupied cell (the forward stencil of a
    cell uses its base node and the base shifted by one along each axis)."""
    active = np.zeros(grid.node_shape, dtype=bool)
    lo_all = tuple(slice(0, c) for c in grid.cells)
    for a in range(-1, grid.dim):
        buf = np.zeros(grid.node_shape, dtype=bool)
        buf[lo_all] = mask
        if a >= 0:
            if grid.periodic[a]:
                buf = np.roll(buf, 1, axis=a)
            else:
                shifted = np.zeros_like(buf)
                hi = tuple(slice(1, grid.cells[b] + 1) if b == a else slice(0, grid.cells[b])
                           for b in range(grid.dim))
                shifted[hi] = mask
                buf = shifted
        active |= buf
    return active


def _frozen_ends(grid, axes):
    """Nodes on the two end layers of each listed (non-periodic) axis."""
    frozen = np.zeros(grid.node_shape, dtype=bool)
    for a in axes:
        frozen[_along(a, 0)] = True
        frozen[_along(a, -1)] = True
    return frozen


# -- spectral preconditioner -------------------------------------------------------
#
# The real transforms below act in place on w along axis a, through a real
# buffer y and a complex buffer spec of the shapes given in
# _SpectralPreconditioner; each runs one real FFT of about the axis length.

def _dst1(w, a, y, spec, factors):
    """w_k <- sum_j w_j sin(pi j k / L), j, k = 1..L-1, with L = n + 1 (DST-I;
    symmetric, so it is also its own transpose).

    The real FFT of y_j = sin(pi j / L) (w_j + w_{L-j}) + (w_j - w_{L-j}) / 2
    holds the even outputs in its imaginary part and the differences of
    consecutive odd outputs in its real part."""
    plus, minus = factors                   # sin(pi j / L) +- 1/2
    y[_along(a, 0)] = 0.0
    tail = y[_along(a, slice(1, None))]
    np.multiply(w, plus, out=tail)
    w *= minus
    tail += w[_along(a, slice(None, None, -1))]
    np.fft.rfft(y, axis=a, out=spec)
    even = w[_along(a, slice(1, None, 2))]
    np.negative(spec.imag[_along(a, slice(1, even.shape[a] + 1))], out=even)
    odd = w[_along(a, slice(0, None, 2))]
    sums = y[_along(a, slice(0, odd.shape[a]))]
    np.cumsum(spec.real[_along(a, slice(0, odd.shape[a]))], axis=a, out=sums)
    np.subtract(sums, 0.5 * spec.real[_along(a, slice(0, 1))], out=odd)


def _makhoul_order(a, n):
    """(even-index slice, reversed odd-index slice) of Makhoul's reordering:
    v = (w_0, w_2, w_4, ..., w_5, w_3, w_1)."""
    return _along(a, slice(0, None, 2)), _along(a, slice(n - 1 - n % 2, None, -2))


def _dct2(w, a, v, spec, twiddle):
    """w_k <- sum_j w_j cos(pi k (2j + 1) / 2n) (DCT-II), by Makhoul's
    reordering and one real FFT of length n; twiddle_k = exp(i pi k / 2n)."""
    n = w.shape[a]
    evens, odds = _makhoul_order(a, n)
    v[_along(a, slice(0, (n + 1) // 2))] = w[evens]
    v[_along(a, slice((n + 1) // 2, None))] = w[odds]
    np.fft.rfft(v, axis=a, out=spec)
    spec *= twiddle.conj()
    w[_along(a, slice(0, n // 2 + 1))] = spec.real
    np.negative(spec.imag[_along(a, slice((n - 1) // 2, 0, -1))],
                out=w[_along(a, slice(n // 2 + 1, None))])


def _dct2_inverse(w, a, v, spec, twiddle):
    """Exact inverse of _dct2 (the transpose DCT-III up to the row norms,
    which the preconditioner's weights absorb)."""
    n = w.shape[a]
    spec.real[...] = w[_along(a, slice(0, n // 2 + 1))]
    spec.imag[_along(a, 0)] = 0.0
    np.negative(w[_along(a, slice(n - 1, n - n // 2 - 1, -1))],
                out=spec.imag[_along(a, slice(1, None))])
    spec *= twiddle
    np.fft.irfft(spec, n=n, axis=a, out=v)
    evens, odds = _makhoul_order(a, n)
    w[evens] = v[_along(a, slice(0, (n + 1) // 2))]
    w[odds] = v[_along(a, slice((n + 1) // 2, None))]


class _SpectralPreconditioner:
    """z = S (sum_a L_a / h_a^2)^+ r, applied to each field component.

    L_a / h_a^2 is the second difference along axis a on the whole box, mask
    ignored, so the operator is diagonalized axis by axis: the FFT on periodic
    axes, DST-I on the interior nodes of an axis whose end layers are frozen,
    DCT-II on a free non-periodic axis.  A zero symbol (a mean mode) maps to
    zero.  S keeps the active free nodes, so nodes touching no occupied cell
    and frozen nodes stay at zero.  One real and one complex buffer of about
    the field's size serve every axis for the whole solve.  See
    docs/solvers.md.
    """

    def __init__(self, grid, mask, dirichlet_axes):
        self.select = _active_node_mask(grid, mask)
        if dirichlet_axes:
            self.select &= ~_frozen_ends(grid, dirichlet_axes)
        self.window = tuple(slice(1, n - 1) if a in dirichlet_axes else slice(None)
                            for a, n in enumerate(grid.node_shape))
        shape = tuple(n - 2 if a in dirichlet_axes else n
                      for a, n in enumerate(grid.node_shape))
        self.periodic = tuple(a for a in range(grid.dim) if grid.periodic[a])
        spectral = list(shape)
        if self.periodic:
            last = self.periodic[-1]
            spectral[last] = shape[last] // 2 + 1

        def shaped(a, length):
            return shape[:a] + (length,) + shape[a + 1:]

        total = np.zeros(spectral)
        scale = 1.0
        plans = []      # (axis, forward, inverse, real shape, complex shape, factors)
        for a, (n, h) in enumerate(zip(shape, grid.spacings)):
            bcast = (1,) * (grid.dim - 1 - a)
            k = np.arange(spectral[a], dtype=float).reshape((spectral[a],) + bcast)
            if grid.periodic[a]:
                total = total + (2.0 - 2.0 * np.cos(2.0 * np.pi * k / n)) / h ** 2
            elif a in dirichlet_axes:
                total = total + (2.0 - 2.0 * np.cos(np.pi * (k + 1) / (n + 1))) / h ** 2
                scale *= 2.0 / (n + 1)          # the DST-I matrix squares to (n + 1)/2
                sine = np.sin(np.pi * (k + 1) / (n + 1))
                plans.append((a, _dst1, _dst1, shaped(a, n + 1),
                              shaped(a, (n + 1) // 2 + 1), (sine + 0.5, sine - 0.5)))
            else:
                total = total + (2.0 - 2.0 * np.cos(np.pi * k / n)) / h ** 2
                half = np.arange(n // 2 + 1).reshape((n // 2 + 1,) + bcast)
                plans.append((a, _dct2, _dct2_inverse, shaped(a, n),
                              shaped(a, n // 2 + 1), np.exp(0.5j * np.pi * half / n)))
        self.weights = np.divide(scale, total, out=np.zeros(spectral), where=total > 0)

        complex_shapes = [plan[4] for plan in plans]
        if self.periodic:
            complex_shapes.append(tuple(spectral))
        real = np.empty(max((math.prod(plan[3]) for plan in plans), default=0))
        spec = np.empty(max(map(math.prod, complex_shapes)), dtype=complex)

        def view(buf, shp):
            return buf[:math.prod(shp)].reshape(shp)

        self.r2r = [(a, forward, inverse, view(real, rs), view(spec, cs), factors)
                    for a, forward, inverse, rs, cs, factors in plans]
        self.spectrum = view(spec, tuple(spectral)) if self.periodic else None
        self.last_length = shape[self.periodic[-1]] if self.periodic else 0

    def _periodic_solve(self, src, dst):
        """dst <- inverse FFT of (weights * FFT(src)) over the periodic axes."""
        *rest, last = self.periodic
        spec = self.spectrum
        np.fft.rfft(src, axis=last, out=spec)
        for a in rest:
            np.fft.fft(spec, axis=a, out=spec)
        spec *= self.weights
        for a in rest:
            np.fft.ifft(spec, axis=a, out=spec)
        np.fft.irfft(spec, n=self.last_length, axis=last, out=dst)

    def __call__(self, r, out):
        """out <- S P^+ r for every component of r (shape (m, *nodes))."""
        for ri, zi in zip(r, out):
            if not self.r2r:
                self._periodic_solve(ri, zi)
            else:
                w = zi[self.window]
                w[...] = ri[self.window]
                for a, forward, _, y, spec, factors in self.r2r:
                    forward(w, a, y, spec, factors)
                if self.periodic:
                    self._periodic_solve(w, w)
                else:
                    w *= self.weights
                for a, _, inverse, y, spec, factors in self.r2r:
                    inverse(w, a, y, spec, factors)
            zi *= self.select
        return out


# -- internal masked solve -----------------------------------------------------

def _solve_masked(grid, mask, W, F, opts, v0=None, dirichlet_axes=()):
    """Minimize cellvol * sum_{occupied} W(F + Dv) over node fields v.

    Returns (integral, v, report).  The two end node layers of every axis in
    ``dirichlet_axes`` are held at zero.  The reported final_energy is the
    integral.
    """
    opts = opts or SolverOptions()
    m = W.m
    F = as_matrix(F)
    if F.shape != (m, grid.dim):
        raise DimensionMismatchError(
            f"offset matrix has shape {F.shape}; expected ({m}, {grid.dim})"
        )
    W.check_dims(m, grid.dim)

    free = ~_frozen_ends(grid, dirichlet_axes) if dirichlet_axes else None

    def project(arr):
        if free is not None:
            arr *= free
        return arr

    maskf = mask.astype(float)
    Fcells = F.reshape((m, grid.dim) + (1,) * grid.dim)
    vol = grid.cell_volume

    objective = _SmoothedColumns(W) if W.uses_smoothing else W

    def offset_gradient(v):
        G = _cell_gradient(grid, v)
        G += Fcells
        return G

    def cell_energy(v):
        # per-cell energies: the descent compares states cell by cell
        e = objective.cell_values(offset_gradient(v))
        e *= maskf
        e *= vol
        return e

    def energy(v):
        # the exact density: for p < 2 the descent minimizes a smoothed one
        return vol * float(np.sum(W.cell_values(offset_gradient(v)) * maskf))

    def stress_adjoint(P):
        # vol * D^T (mask * P) for a fresh stress field P, frozen nodes
        # projected out; the callers pass stress(G) inline, so G is freed first
        P *= maskf
        out = _cell_gradient_adjoint(grid, P)
        out *= vol
        return project(out)

    def gradient(v):
        return stress_adjoint(objective.cell_stress(offset_gradient(v)))

    if v0 is None:
        v0 = np.zeros((m,) + grid.node_shape)
    else:
        v0 = project(np.array(v0, dtype=float, copy=True))

    maxiter = opts.max_iterations
    if maxiter is None:
        maxiter = 10 * m * grid.num_nodes

    method = opts.method
    if method == "auto":
        method = "cg" if W.is_quadratic else "descent"
    if method == "cg" and not W.is_quadratic:
        raise ConfigurationError(
            f"cg requested but density {W.label!r} is not quadratic"
        )

    notes = []
    if not W.convex:
        warnings.warn(
            "non-convex density: only a local minimum is guaranteed",
            stacklevel=3,
        )
        notes.append("non-convex density; local minimum only")
    if W.uses_smoothing:
        notes.append("p<2 column norms smoothed with eps=1e-8")

    if method == "cg":
        # the stress is linear: gradient(v) = K v + gradient(0)
        def apply_K(u):
            return stress_adjoint(objective.cell_stress(_cell_gradient(grid, u)))

        b = gradient(np.zeros_like(v0))
        np.negative(b, out=b)
        x, iters, rel_res, ok = _preconditioned_cg(
            apply_K, functools.partial(_SpectralPreconditioner, grid, mask, dirichlet_axes),
            b, v0, opts.cg_rtol, maxiter)
        val = energy(x)
        report = SolveReport(iterations=iters, final_energy=val, residual=rel_res,
                             converged=ok, method="cg", notes="; ".join(notes))
        return val, x, report

    Fnorm = float(np.linalg.norm(F))
    gtol = opts.grad_tol * (1.0 + Fnorm ** (W.p - 1.0))
    x, iters, gnorm, ok, trace = _accelerated_descent(
        cell_energy, gradient, v0, gtol, maxiter, record=opts.record_trace)
    val = energy(x)
    report = SolveReport(iterations=iters, final_energy=val, residual=gnorm,
                         converged=ok, method="descent", notes="; ".join(notes),
                         energy_trace=trace)
    return val, x, report


def _preconditioned_cg(apply_K, make_precond, b, x0, rtol, maxiter):
    """Preconditioned CG on K x = b.  ``make_precond()`` returns M, and
    ``M(r, out)`` writes z = M r; M is built only when x0 fails the test.

    The stopping test is on the true residual: ||r|| <= rtol ||b||."""
    x = x0.copy()
    r = b - apply_K(x)
    bnorm = float(np.linalg.norm(b))
    denom = bnorm if bnorm > 0 else 1.0
    rr = float(np.vdot(r, r))
    if math.sqrt(rr) <= rtol * denom:
        return x, 0, math.sqrt(rr) / denom, True
    precond = make_precond()
    z = precond(r, np.zeros_like(r))
    p = z.copy()
    rz = float(np.vdot(r, z))
    it = 0
    while it < maxiter and rz > 0:
        Kp = apply_K(p)
        pKp = float(np.vdot(p, Kp))
        if pKp <= 0:
            # numerically null direction of the semidefinite operator
            break
        alpha = rz / pKp
        x += np.multiply(p, alpha, out=z)
        r -= np.multiply(Kp, alpha, out=Kp)
        rr = float(np.vdot(r, r))
        it += 1
        if math.sqrt(rr) <= rtol * denom:
            break
        precond(r, z)
        rz_new = float(np.vdot(r, z))
        p *= rz_new / rz
        p += z
        rz = rz_new
    rel = math.sqrt(rr) / denom
    return x, it, rel, rel <= rtol


def _accelerated_descent(cell_energy, gradient, x0, gtol, maxiter, record=False):
    """Nesterov-accelerated descent with backtracking; restarts keep the
    accepted energy sequence non-increasing.

    ``cell_energy`` returns per-cell energies.  The Armijo and restart tests
    sum the per-cell differences of two states instead of subtracting two
    rounded totals, so a decrease below the rounding of the total energy
    still counts and the step does not collapse short of the tolerance."""
    x = x0.copy()
    ex = cell_energy(x)
    y = x.copy()
    t = 1.0
    step = 1.0
    trace = [float(np.sum(ex))] if record else []
    it = 0
    while it < maxiter:
        gx = gradient(x)
        gxn = float(np.linalg.norm(gx))
        if gxn <= gtol:
            return x, it, gxn, True, trace
        gy = gradient(y)
        ey = cell_energy(y)
        gyn2 = float(np.vdot(gy, gy))
        while True:
            cand = y - step * gy
            ec = cell_energy(cand)
            if float(np.sum(ec - ey)) <= -0.5 * step * gyn2 or step < 1e-20:
                break
            step *= 0.5
        it += 1
        if float(np.sum(ec - ex)) < 0.0:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = cand + ((t - 1.0) / t_new) * (cand - x)
            x, ex, t = cand, ec, t_new
            step *= 1.25
            if record:
                trace.append(float(np.sum(ex)))
        else:
            # momentum overshoot: restart from the best point
            y = x.copy()
            t = 1.0
            step *= 0.5
            if step < 1e-20:
                break  # no decrease left, even cell by cell
    gxn = float(np.linalg.norm(gradient(x)))
    return x, it, gxn, gxn <= gtol, trace


# -- gauge fixing ----------------------------------------------------------------

def _node_components(grid, mask):
    """Label connected components of the active node set, where nodes are
    linked when they appear in the stencil of a common occupied cell."""
    node_shape = grid.node_shape
    labels = np.full(node_shape, -1, dtype=np.int64)
    occ_idx = np.transpose(np.nonzero(mask))
    if occ_idx.size == 0:
        return labels, 0

    # adjacency: base node of each occupied cell to each shifted node
    def node_of(cell_idx, axis):
        idx = list(cell_idx)
        if axis >= 0:
            idx[axis] += 1
            if grid.periodic[axis] and idx[axis] == node_shape[axis]:
                idx[axis] = 0
        return tuple(idx)

    cell_nodes = {}
    node_cells = {}
    for cell in map(tuple, occ_idx):
        nodes = [node_of(cell, a) for a in range(-1, grid.dim)]
        cell_nodes[cell] = nodes
        for nd in nodes:
            node_cells.setdefault(nd, []).append(cell)

    comp = 0
    for cell in cell_nodes:
        seed = cell_nodes[cell][0]
        if labels[seed] != -1:
            continue
        queue = deque([seed])
        labels[seed] = comp
        while queue:
            nd = queue.popleft()
            for c in node_cells.get(nd, ()):
                for nb in cell_nodes[c]:
                    if labels[nb] == -1:
                        labels[nb] = comp
                        queue.append(nb)
        comp += 1
    return labels, comp


def _gauge_fix(grid, mask, v):
    labels, ncomp = _node_components(grid, mask)
    for c in range(ncomp):
        sel = labels == c
        if not sel.any():
            continue
        for i in range(v.shape[0]):
            v[i][sel] -= v[i][sel].mean()
    return v


# -- public operations ------------------------------------------------------------

def minimize_periodic(mask, W, F, opts=None, v0=None, want_corrector=True):
    """Minimize the mean masked energy over 1-periodic corrector fields.

    Parameters
    ----------
    mask : bool array over the unit-cell grid (any dim 1-3), cell-centered.
    W : EnergyDensity declared for (m, dim) matrices.
    F : m x dim offset matrix (the macroscopic gradient).
    opts : SolverOptions.
    v0 : optional warm-start node field.
    want_corrector : skip component labeling and gauge fixing when False
        (the value is gauge-invariant).

    Returns
    -------
    (value, corrector, report) where value = (1/#cells) * sum over occupied
    cells of W(F + Dv) at the discrete minimizer.  An empty mask gives value
    0 with a zero corrector.  Unconverged solves return the best value found
    with report.converged False; the caller decides.
    """
    mask = np.asarray(mask, dtype=bool)
    d = mask.ndim
    F = as_matrix(F)
    m = F.shape[0]
    grid = _Grid(cells=mask.shape, spacings=tuple(1.0 / c for c in mask.shape),
                 periodic=(True,) * d)
    if not mask.any():
        zero = np.zeros((m,) + grid.node_shape)
        corr = CorrectorField(dim=d, m=m, resolution=grid.node_shape, values=zero)
        report = SolveReport(iterations=0, final_energy=0.0, residual=0.0,
                             converged=True, method="empty")
        return 0.0, corr, report

    integral, v, report = _solve_masked(grid, mask, W, F, opts, v0=v0)
    # unit cell has volume one: the integral is already the cell mean
    if want_corrector:
        v = _gauge_fix(grid, mask, v)
    v.flags.writeable = False
    corr = CorrectorField(dim=d, m=m, resolution=grid.node_shape, values=v)
    return integral, corr, report


def minimize_dirichlet(mask, W, F, box_side, opts=None, v0=None):
    """Minimize the masked energy over fields vanishing on the boundary of a
    box of integer side ``box_side`` (whole periods), normalized by the box
    volume.

    ``mask`` covers the whole box (callers replicate the unit-cell mask).
    Returns (value, report).
    """
    mask = np.asarray(mask, dtype=bool)
    d = mask.ndim
    T = int(box_side)
    if T < 1:
        raise ConfigurationError(f"box side must be a positive integer; got {box_side}")
    grid = _Grid(cells=mask.shape, spacings=tuple(T / c for c in mask.shape),
                 periodic=(False,) * d)
    if not mask.any():
        return 0.0, SolveReport(iterations=0, final_energy=0.0, residual=0.0,
                                converged=True, method="empty")
    integral, _, report = _solve_masked(grid, mask, W, F, opts, v0=v0,
                                        dirichlet_axes=tuple(range(d)))
    value = integral / float(T) ** d
    report.final_energy = value
    return value, report
