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
||r|| <= cg_rtol ||b|| (docs/solvers.md).  Every other density uses
inexact Newton: each step runs the same preconditioned CG on the tangent
operator vol * D^T (mask * DS(G) D), to an Eisenstat-Walker tolerance, and
a line search that reads gradients only; it stops on
||gradient|| <= grad_tol (1 + |F|^(p-1)).  The tangent DS is the quadratic
stress itself, the analytic (for p < 2 smoothed) tangent of the norm
powers, or a directional difference of a custom density's stress, and CG
and Newton share its preconditioner.  The offset may have more columns
than the grid has axes: a field on the grid does not vary along the extra
ones, so a cylinder cell problem solves on its in-plane grid.  Those columns may also
be unknowns, minimized jointly with the field in the same solve (the
transverse column of the film density).  Cells outside the mask
contribute no energy; nodes touching no occupied cell stay frozen at zero;
the remaining constant-per-component null space is handled by starting from
a consistent state and gauge-fixing afterwards, on the node components that
one union-find pass finds (the routine that also labels the torus
components of a mask).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .energy import EnergyDensity, as_matrix
from .errors import ConfigurationError, DimensionMismatchError
from .profiles import torus_union_find


@dataclass(frozen=True)
class SolverOptions:
    cg_rtol: float = 1e-10
    grad_tol: float = 1e-8          # scaled by (1 + |F|^(p-1)) at solve time
    max_iterations: int | None = None   # default: 10 * number of nodes


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    residual: float
    converged: bool
    method: str
    notes: str = ""


@dataclass(frozen=True)
class CorrectorField:
    """Periodic node values of a cell-problem minimizer, one layer per field
    component, gauge-fixed to zero mean on each connected component of the
    active node set, and the full offset matrix F they belong to."""

    dim: int
    m: int
    resolution: tuple
    values: np.ndarray
    offset: np.ndarray


@dataclass(frozen=True)
class _Grid:
    cells: tuple
    spacings: tuple
    periodic: tuple

    @property
    def dim(self):
        return len(self.cells)

    @functools.cached_property
    def node_shape(self):
        return tuple(c if p else c + 1 for c, p in zip(self.cells, self.periodic))

    @property
    def cell_volume(self):
        return math.prod(self.spacings)

    @property
    def num_nodes(self):
        return math.prod(self.node_shape)

    @functools.cached_property
    def stencil(self):
        """Per axis (h, lo, hi, wrap): the spacing, the cell window and its
        forward node window of an (m, *nodes) array, and on a periodic axis
        the (cells, nodes) window pairs of the wrap (cell j's forward
        neighbour is node j + 1, the last cell's is node 0), else None.
        Built once per grid, so the applies of a solve only read it."""
        lo = (slice(None),) + tuple(slice(0, c) for c in self.cells)
        out = []
        for a, (n, h) in enumerate(zip(self.cells, self.spacings)):
            def at(s):
                return lo[:1 + a] + (s,) + lo[2 + a:]
            wrap = None
            if self.periodic[a]:
                wrap = ((at(slice(0, n - 1)), at(slice(1, n))),
                        (at(slice(n - 1, n)), at(slice(0, 1))))
            out.append((h, lo, at(slice(1, n + 1)), wrap))
        return tuple(out)


def _along(axis, index):
    """Index tuple selecting ``index`` on ``axis`` of a node/cell array."""
    return (slice(None),) * axis + (index,)


def _cell_gradient(grid, v, columns=None):
    """(m, *nodes) -> (m, columns, *cells): forward differences per cell,
    zero in the columns past grid.dim (default columns: grid.dim)."""
    stencil = grid.stencil
    d = len(stencil)
    G = np.empty((v.shape[0], columns or d) + grid.cells)
    G[:, d:] = 0.0
    for a, (h, lo, hi, wrap) in enumerate(stencil):
        Ga = G[:, a]
        if wrap:
            for cells, nodes in wrap:
                np.subtract(v[nodes], v[cells], out=Ga[cells])
        else:
            np.subtract(v[hi], v[lo], out=Ga)
        Ga /= h
    return G


def _cell_gradient_adjoint(grid, P):
    """Adjoint of _cell_gradient: <P, Dv>_cells = <adjoint(P), v>_nodes."""
    out = np.zeros((P.shape[0],) + grid.node_shape)
    for a, (h, lo, hi, wrap) in enumerate(grid.stencil):
        Pa = P[:, a] / h
        out[lo] -= Pa
        if wrap:
            for cells, nodes in wrap:
                out[nodes] += Pa[cells]
        else:
            out[hi] += Pa
    return out


def _stencil_nodes(grid, mask):
    """Flat node indices of the forward stencils of the occupied cells: the
    base nodes c, and per axis a the nodes c + e_a (on a periodic axis the
    last cell's forward node wraps to node 0)."""
    cells = np.nonzero(mask)
    base = np.ravel_multi_index(cells, grid.node_shape)
    forward = []
    for a in range(grid.dim):
        idx = list(cells)
        idx[a] = cells[a] + 1
        forward.append(np.ravel_multi_index(idx, grid.node_shape, mode="wrap"))
    return base, forward


def _active_node_mask(grid, mask):
    """Nodes touched by at least one occupied cell."""
    active = np.zeros(grid.num_nodes, dtype=bool)
    base, forward = _stencil_nodes(grid, mask)
    for nodes in [base] + forward:
        active[nodes] = True
    return active.reshape(grid.node_shape)


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
        self.weights = np.divide(scale, total, out=np.zeros(spectral),
                                 where=total > 0)

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

def _solve_masked(grid, mask, W, F, opts, v0=None, dirichlet_axes=(),
                  free_offset=False):
    """Minimize cellvol * sum_{occupied} W(F + Dv) over node fields v.

    F is an m x n float array with n >= grid.dim; Dv is zero in the columns
    past grid.dim, which therefore enter only through F.  With
    ``free_offset`` those columns are unknowns as well: the solve starts from
    their values in F and writes the minimizing ones back into F
    (docs/solvers.md).  Returns (integral, v, report).  The two end node
    layers of every axis in ``dirichlet_axes`` are held at zero.
    """
    opts = opts or SolverOptions()
    m = W.m
    F = as_matrix(F)
    n = F.shape[1]
    d = grid.dim
    if F.shape[0] != m or n < d:
        raise DimensionMismatchError(
            f"offset matrix has shape {F.shape}; expected ({m}, n) with n >= {d}"
        )
    W.check_dims(m, n)

    # one flat unknown: the node field, then the free offset columns
    nv = m * grid.num_nodes
    fixed = d if free_offset else n
    cells = (1,) * d

    def split(x):
        return (x[:nv].reshape((m,) + grid.node_shape),
                x[nv:].reshape((m, n - fixed) + cells))

    free = ~_frozen_ends(grid, dirichlet_axes) if dirichlet_axes else None
    maskf = mask.astype(float)
    base = F.copy()
    base[:, fixed:] = 0.0           # free columns come from the unknown
    Fcells = base.reshape((m, n) + cells)
    vol = grid.cell_volume

    def lift(x):
        # per-cell (Dv | free columns), without the fixed offset
        v, b = split(x)
        G = _cell_gradient(grid, v, n)
        G[:, fixed:] = b
        return G

    def offset_gradient(x):
        G = lift(x)
        G += Fcells
        return G

    def energy(x):
        # the exact density: for p < 2 Newton minimizes a smoothed one
        return vol * float(np.sum(W.cell_values(offset_gradient(x)) * maskf))

    def stress_adjoint(P):
        # the gradient for a fresh stress field P: vol * D^T (mask * P) with
        # frozen nodes projected out, then vol * sum(mask * P) over the cells
        # in the free columns; the callers pass stress(G) inline, so G is
        # freed first
        P *= maskf
        out = _cell_gradient_adjoint(grid, P)
        out *= vol
        if free is not None:
            out *= free
        if not free_offset:
            return out.reshape(-1)
        sums = P[:, d:].sum(axis=tuple(range(2, 2 + d)))
        return np.concatenate([out.reshape(-1), vol * sums.reshape(-1)])

    def gradient(x):
        return stress_adjoint(W.cell_stress(offset_gradient(x)))

    x0 = np.zeros(nv + m * (n - fixed))
    start, _ = split(x0)
    if v0 is not None:
        start[...] = v0
        if free is not None:
            start *= free
    x0[nv:] = F[:, fixed:].reshape(-1)

    maxiter = opts.max_iterations
    if maxiter is None:
        maxiter = 10 * m * grid.num_nodes

    notes = []
    if not W.convex:
        warnings.warn(
            "non-convex density: only a local minimum is guaranteed",
            stacklevel=3,
        )
        notes.append("non-convex density; local minimum only")
    if W.uses_smoothing:
        notes.append("p<2 column norms smoothed with eps=1e-8")

    spectral = None         # built at the first preconditioner, kept for the solve
    axes = tuple(range(2, 2 + d))
    units = np.eye(m * n).reshape((m * n, m, n) + cells)
    cols = np.arange(m * n) % n >= d
    occupied = float(maskf.sum())

    def tangent(G):
        # the Hessian apply at the per-cell gradients G and a builder of its
        # block preconditioner
        DS = W.cell_stress_derivative(G)

        def apply_H(u):
            return stress_adjoint(DS(lift(u)))

        def make_precond():
            # block diagonal, each block close to the inverse of its own
            # diagonal block of H up to one common scale, which leaves CG's
            # iterates alone: on v the spectral inverse of P, on the free
            # columns vol * s times the pseudo-inverse of the symmetric K_bb,
            # s the mean in-plane diagonal of the summed tangent per occupied
            # cell (vol * s * P is the unmasked box operator of H_vv).  K_bb
            # is 0 where a p_norm_power column sits at its exact argmin 0
            nonlocal spectral
            if spectral is None:
                spectral = _SpectralPreconditioner(grid, mask, dirichlet_axes)
            if free_offset:
                # the summed tangent: column k is sum_c mask * DS_c[E_k]
                S = np.stack([np.sum(DS(e) * maskf, axis=axes).ravel()
                              for e in units], axis=1)
                s = float(np.mean(np.diag(S)[~cols])) / occupied
                K_bb_inv = np.linalg.pinv(vol * S[np.ix_(cols, cols)], hermitian=True)
                if s > 0:
                    K_bb_inv *= vol * s

            def precond(r, out):
                spectral(split(r)[0], split(out)[0])
                if free_offset:
                    np.matmul(K_bb_inv, r[nv:], out=out[nv:])
                return out
            return precond
        return apply_H, make_precond

    if W.is_quadratic:
        # the stress is linear: gradient(x) = H x + gradient(0), and the
        # tangent at the offset serves at every x
        rhs = gradient(np.zeros_like(x0))
        np.negative(rhs, out=rhs)
        x, iters, residual, ok = _preconditioned_cg(
            *tangent(Fcells), rhs, x0, opts.cg_rtol, maxiter)
        method = "cg"
    else:
        x, iters, residual, ok, inner = _newton_pcg(
            gradient, lambda x: tangent(offset_gradient(x)), x0,
            _grad_tol(opts, F, W), maxiter)
        method = "newton"
        notes.append(f"{inner} inner PCG iterations")
    val = energy(x)
    v, b = split(x)
    if free_offset:
        F[:, d:] = b.reshape(m, n - d)
    report = SolveReport(iterations=iters, residual=residual, converged=ok,
                         method=method, notes="; ".join(notes))
    return val, v, report


def _grad_tol(opts, F, W):
    """The gradient test of the Newton solves: grad_tol (1 + |F|^(p-1))."""
    return opts.grad_tol * (1.0 + float(np.linalg.norm(F)) ** (W.p - 1.0))


def _preconditioned_cg(apply_K, make_precond, b, x0, rtol, maxiter):
    """Preconditioned CG on K x = b.  ``make_precond()`` returns M, and
    ``M(r, out)`` writes z = M r; M is built only when x0 fails the test.
    ``x0=None`` starts from zero without an apply.

    The stopping test is on the true residual: ||r|| <= rtol ||b||."""
    if x0 is None:
        x, r = np.zeros_like(b), b.copy()
    else:
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


_LINE_SEARCH_TRIALS = 30


def _newton_pcg(gradient, tangent, x0, gtol, maxiter):
    """Inexact Newton: each step solves H d = -g by preconditioned CG, where
    ``tangent(x)`` returns (apply_H, make_precond) at x, then searches along
    d.  Where CG meets non-positive curvature at its first direction (a
    non-convex density) the step is the preconditioned gradient -M g.

    The inner tolerance is Eisenstat & Walker's choice 2,
    eta_k = min(0.5, 0.9 (|g_k| / |g_(k-1)|)^2), eta_0 = 0.5, but never
    below 0.5 gtol / |g_k|: a step needs no more than the stopping test
    asks, and a residual below rounding would drive CG along the null space
    of the constants.  The line search reads gradients only: alpha = 1 is
    accepted once grad(x + alpha d) . d <= 0; otherwise alpha steps back by
    regula falsi on [0, alpha] (Illinois-weighted after the first trial),
    and alpha is accepted when its next value rounds to itself.  The
    stopping test is |g| <= gtol; ``maxiter`` caps the steps and each inner
    CG, and a step that leaves x unchanged ends the solve.  Returns
    (x, steps, |g|, converged, inner CG total)."""
    x = x0.copy()
    g = gradient(x)
    gn = float(np.linalg.norm(g))
    eta, it, inner = 0.5, 0, 0
    while gn > gtol:
        if it == maxiter:
            return x, it, gn, False, inner
        apply_H, make_precond = tangent(x)
        d, cg_its, _, _ = _preconditioned_cg(apply_H, make_precond, -g, None,
                                             max(eta, 0.5 * gtol / gn), maxiter)
        if not cg_its:
            d = make_precond()(-g, np.zeros_like(g))
        inner += cg_its
        slope0 = float(np.vdot(g, d))
        if not slope0 < 0.0:
            return x, it, gn, False, inner      # no descent direction left
        alpha, weight = 1.0, slope0
        for trial in range(_LINE_SEARCH_TRIALS):
            cand = x + alpha * d
            g_new = gradient(cand)
            slope = float(np.vdot(g_new, d))
            if slope <= 0.0:
                break
            if trial:
                weight *= 0.5
            step_back = alpha * weight / (weight - slope)
            if step_back == alpha:
                break           # the line minimum, to rounding
            alpha = step_back
        else:
            return x, it, gn, False, inner
        if np.array_equal(cand, x):
            return x, it, gn, False, inner      # the step is below rounding
        x = cand
        it += 1
        gn_new = float(np.linalg.norm(g_new))
        eta = min(0.5, 0.9 * (gn_new / gn) ** 2)
        g, gn = g_new, gn_new
    return x, it, gn, True, inner


# -- gauge fixing ----------------------------------------------------------------

def _stencil_components(grid, mask):
    """Connected components of the active node set, where nodes are linked
    when they appear in the stencil of a common occupied cell: one
    union-find pass over the edges (c, c + e_a) of every occupied cell c.
    Returns the flat indices of the active nodes and, for each, the
    smallest node index of its component."""
    base, forward = _stencil_nodes(grid, mask)
    roots, _ = torus_union_find(grid.num_nodes, (
        (base, nodes, np.zeros_like(base)) for nodes in forward))
    active = np.unique(np.concatenate([base] + forward))
    return active, roots[active]


def _gauge_fix(grid, mask, v):
    """Shift v to zero mean on each connected component of the active nodes."""
    active, comp = _stencil_components(grid, mask)
    counts = np.bincount(comp)[comp]
    shift = np.zeros(grid.num_nodes)
    for vi in v:
        shift[active] = np.bincount(comp, weights=vi.ravel()[active])[comp] / counts
        vi -= shift.reshape(grid.node_shape)
    return v


# -- public operations ------------------------------------------------------------

def minimize_periodic(mask, W, F, opts=None, v0=None, want_corrector=True,
                      free_offset=False):
    """Minimize the mean masked energy over 1-periodic corrector fields.

    Parameters
    ----------
    mask : bool array over the unit-cell grid (any dim 1-3), cell-centered.
    W : EnergyDensity declared for (m, n) matrices.
    F : m x n offset matrix (the macroscopic gradient), n >= mask.ndim.
        With n > mask.ndim this is the cell problem of the cylinder
        mask x R^(n - mask.ndim), whose correctors do not depend on the
        extra coordinates (docs/solvers.md).
    opts : SolverOptions.
    v0 : optional warm-start node field.
    want_corrector : skip component labeling and gauge fixing when False
        (the value is gauge-invariant).
    free_offset : minimize also over the columns of F past mask.ndim,
        starting from their given values; ``corrector.offset`` holds the
        minimizing F.

    Returns
    -------
    (value, corrector, report) where value = (1/#cells) * sum over occupied
    cells of W(F + Dv) at the discrete minimizer.  An empty mask gives value
    0 with a zero corrector and F unchanged.  Unconverged solves return the
    best value found with report.converged False; the caller decides.
    """
    mask = np.asarray(mask, dtype=bool)
    d = mask.ndim
    F = as_matrix(F).copy()
    m = F.shape[0]
    grid = _Grid(cells=mask.shape, spacings=tuple(1.0 / c for c in mask.shape),
                 periodic=(True,) * d)
    if not mask.any():
        v = np.zeros((m,) + grid.node_shape)
        integral = 0.0
        report = SolveReport(iterations=0, residual=0.0, converged=True,
                             method="empty")
    else:
        integral, v, report = _solve_masked(grid, mask, W, F, opts, v0=v0,
                                            free_offset=free_offset)
        # unit cell has volume one: the integral is already the cell mean
        if want_corrector:
            v = _gauge_fix(grid, mask, v)
    v.flags.writeable = False
    F.flags.writeable = False
    corr = CorrectorField(dim=d, m=m, resolution=grid.node_shape, values=v,
                          offset=F)
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
        return 0.0, SolveReport(iterations=0, residual=0.0, converged=True,
                                method="empty")
    integral, _, report = _solve_masked(grid, mask, W, F, opts, v0=v0,
                                        dirichlet_axes=tuple(range(d)))
    return integral / float(T) ** d, report
