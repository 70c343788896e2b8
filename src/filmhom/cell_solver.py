"""Minimization of masked gradient energies on structured grids.

Discretization: node-based fields, cell-centered masks, forward-difference
per-cell gradients.  The grid names one boundary kind per axis: on a
periodic axis ("P") nodes and cells share the same index set and
differences wrap; on the other axes there is one more node layer than
cells, and the two end layers are either frozen at zero ("D", Dirichlet) or
free ("N").  This lowest-order choice keeps the zero corrector exactly
optimal on full masks and makes grid-aligned stripe correctors exact.

Solvers: each solve reads one _MaskedProblem, which holds its set-up and
gives its energy, gradient and tangent.  Quadratic densities are minimized by
one preconditioned conjugate gradient, for periodic cell problems, cylinders
and Dirichlet slabs alike.  The operator is applied as vol * D^T (mask *
stress(D u)); the preconditioner inverts the unmasked box Laplacian axis by
axis with numpy.fft (FFT on "P" axes, DST-I on "D" axes, DCT-II on "N" axes)
and keeps only active free nodes.  On a 2-d slab of kinds "DN" with one
connected run of occupied cells per cell column (the n = 2 slabs of
direct_min), the preconditioner is instead the exact inverse of the
operator, by block cyclic reduction over the node lines, and CG takes one
iteration.  CG stops on the true residual, ||r|| <= cg_rtol ||b||
(docs/solvers.md).  Every other density uses inexact Newton: each step runs
the same preconditioned CG on the tangent operator vol * D^T (mask * DS(G)
D), to an Eisenstat-Walker tolerance, with the spectral preconditioner
scaled by the tangent's diagonal node by node, and a line search that reads
gradients only and may step past alpha = 1; it stops on ||gradient|| <=
grad_tol (1 + |F|^(p-1)), and its report counts the inner CG iterations
(SolveReport.inner_iterations).  The tangent DS is the quadratic stress
itself, the analytic (for p < 2 smoothed) tangent of the norm powers, or a
directional difference of a custom density's stress.  Every inner product and
norm of both loops is _dot, numpy's own single-threaded loop rather than
BLAS, so the results do not depend on the BLAS thread count.  A periodic cell
problem on a full mask with a convex density is not solved: by Jensen the
zero corrector is its minimizer, so its value is exactly W of the offset
(docs/solvers.md).  Nor is one whose node graph does not wind: for the norm
powers its value is exact, theta W of the offset with its in-plane columns
zeroed (docs/kernel_geometry.md).  A norm-power solve leaves out its pendant
nodes, those of degree 1 in the stencil graph of the occupied cells: each
can zero its one column, which never raises a norm power, so the column is
held at 0 and the node is set from its neighbour after the solve.  The
offset may have more columns than the grid has axes: a field on the grid
does not vary along the extra ones, so a cylinder cell problem solves on its
in-plane grid.  Those columns may also be
unknowns, minimized jointly with the field in the same solve (the transverse
column of the film density); a norm power has them at 0.  Cells outside the
mask contribute no energy; nodes touching no occupied cell stay frozen at
zero; the remaining constant-per-component null space does not change the
value, which is all a cell solve returns, so no gauge is fixed.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatchError, as_integer, as_mask, as_matrix,
                     as_positive)
from .profiles import node_graph_winds


@dataclass(frozen=True)
class SolverOptions:
    cg_rtol: float = 1e-10
    grad_tol: float = 1e-8          # scaled by (1 + |F|^(p-1)) at solve time
    max_iterations: int | None = None   # default: 10 * number of nodes

    def __post_init__(self):
        for name in ("cg_rtol", "grad_tol"):
            object.__setattr__(self, name, as_positive(getattr(self, name), name))
        if self.max_iterations is not None:
            object.__setattr__(self, "max_iterations",
                               as_integer(self.max_iterations, "max_iterations"))


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    residual: float
    converged: bool
    method: str
    notes: str = ""
    inner_iterations: int = 0   # Newton's CG iterations, summed over its steps
    factorizations: int = 0     # blocks the exact line solve inverted


@dataclass(frozen=True)
class CorrectorField:
    """The node field a periodic cell solve ended at, of shape
    (m, *node_shape), and the full offset matrix F it belongs to; both
    read-only.  The field is not gauge-fixed: a constant on any connected
    component of the active nodes leaves the value unchanged.  It is zero
    where the value is exact without a solve (methods "empty", "full",
    "unwound")."""

    values: np.ndarray
    offset: np.ndarray


@dataclass(frozen=True)
class _Grid:
    """A box of cells with one boundary kind per axis in ``kinds``: "P"
    periodic, "D" both end node layers frozen at zero (Dirichlet), "N" free
    ends.  A non-periodic axis has one more node layer than cells."""

    cells: tuple
    spacings: tuple
    kinds: str

    @property
    def dim(self):
        return len(self.cells)

    @functools.cached_property
    def node_shape(self):
        return tuple(c if k == "P" else c + 1 for c, k in zip(self.cells, self.kinds))

    @property
    def cell_volume(self):
        return math.prod(self.spacings)

    @property
    def num_nodes(self):
        return math.prod(self.node_shape)

    @functools.cached_property
    def stencil(self):
        """Per axis (h, lo, forward): the spacing, the cell window of an
        (m, *nodes) array, and the (cells, nodes) window pairs from each cell
        to its forward node, lo and lo shifted by one, or the two pairs of a
        periodic axis's wrap (the last cell's is node 0).  Built once per
        grid, so the applies of a solve only read it."""
        lo = (slice(None),) + tuple(slice(0, c) for c in self.cells)
        out = []
        for a, (n, h) in enumerate(zip(self.cells, self.spacings)):
            def at(s):
                return lo[:1 + a] + (s,) + lo[2 + a:]
            forward = ((lo, at(slice(1, n + 1))),)
            if self.kinds[a] == "P":
                forward = ((at(slice(0, n - 1)), at(slice(1, n))),
                           (at(slice(n - 1, n)), at(slice(0, 1))))
            out.append((h, lo, forward))
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
    for a, (h, _, forward) in enumerate(stencil):
        Ga = G[:, a]
        for cells, nodes in forward:
            np.subtract(v[nodes], v[cells], out=Ga[cells])
        Ga *= 1.0 / h
    return G


def _cell_gradient_adjoint(grid, P):
    """Adjoint of _cell_gradient: <P, Dv>_cells = <adjoint(P), v>_nodes.
    Scales the in-plane columns of P in place by 1/h, so pass a fresh P."""
    out = np.zeros((P.shape[0],) + grid.node_shape)
    for a, (h, lo, forward) in enumerate(grid.stencil):
        Pa = P[:, a]
        Pa *= 1.0 / h
        out[lo] -= Pa
        for cells, nodes in forward:
            out[nodes] += Pa[cells]
    return out


def _stencil_scatter(grid, P, out):
    """out += the sum over the edges (c, c + e_a) of P[:, a] at c on both
    end nodes, for P of shape (k, d, *cells) and out of (k, *nodes): the
    unsigned counterpart of _cell_gradient_adjoint."""
    for a, (_, lo, forward) in enumerate(grid.stencil):
        Pa = P[:, a]
        out[lo] += Pa
        for cells, nodes in forward:
            out[nodes] += Pa[cells]
    return out


def _node_degree(grid, mask):
    """The degree of each node, as a (1, *nodes) array, in the graph whose
    edges (c, a), c occupied, join node c to node c + e_a; a self-loop
    counts twice (docs/solvers.md).  The active nodes, those an occupied
    cell touches, are the nodes of positive degree."""
    occupied = np.broadcast_to(mask, (1, grid.dim) + grid.cells)
    return _stencil_scatter(grid, occupied,
                            np.zeros((1,) + grid.node_shape, dtype=np.uint8))


def _frozen_ends(grid):
    """Nodes on the two end layers of each Dirichlet axis."""
    frozen = np.zeros(grid.node_shape, dtype=bool)
    for a, kind in enumerate(grid.kinds):
        if kind == "D":
            frozen[_along(a, 0)] = True
            frozen[_along(a, -1)] = True
    return frozen


def _pendant_nodes(grid, mask, degree, select):
    """(pendant, columns): the ``select``ed nodes of degree 1 (``degree``
    from _node_degree), as a (1, *nodes) array, and the (d, *cells) mask of
    the one column each of them enters."""
    occupied = mask[np.newaxis]
    pendant = (degree == 1) & select
    columns = np.zeros((grid.dim, 1) + grid.cells, dtype=bool)
    for a, (_, lo, forward) in enumerate(grid.stencil):
        ends = columns[a]
        ends[...] = pendant[lo]
        for cells, nodes in forward:
            ends[cells] |= pendant[nodes]
        ends &= occupied
    return pendant, columns[:, 0]


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


def _dct2(w, a, v, spec, twiddles):
    """w_k <- sum_j w_j cos(pi k (2j + 1) / 2n) (DCT-II), by Makhoul's
    reordering and one real FFT of length n; twiddles is the pair
    (conj(twiddle), twiddle), twiddle_k = exp(i pi k / 2n)."""
    n = w.shape[a]
    evens, odds = _makhoul_order(a, n)
    v[_along(a, slice(0, (n + 1) // 2))] = w[evens]
    v[_along(a, slice((n + 1) // 2, None))] = w[odds]
    np.fft.rfft(v, axis=a, out=spec)
    spec *= twiddles[0]
    w[_along(a, slice(0, n // 2 + 1))] = spec.real
    np.negative(spec.imag[_along(a, slice((n - 1) // 2, 0, -1))],
                out=w[_along(a, slice(n // 2 + 1, None))])


def _dct2_inverse(w, a, v, spec, twiddles):
    """Exact inverse of _dct2 (the transpose DCT-III up to the row norms,
    which the preconditioner's weights absorb)."""
    n = w.shape[a]
    spec.real[...] = w[_along(a, slice(0, n // 2 + 1))]
    spec.imag[_along(a, 0)] = 0.0
    np.negative(w[_along(a, slice(n - 1, n - n // 2 - 1, -1))],
                out=spec.imag[_along(a, slice(1, None))])
    spec *= twiddles[1]
    np.fft.irfft(spec, n=n, axis=a, out=v)
    evens, odds = _makhoul_order(a, n)
    w[evens] = v[_along(a, slice(0, (n + 1) // 2))]
    w[odds] = v[_along(a, slice((n + 1) // 2, None))]


class _SpectralPreconditioner:
    """z = S (sum_a L_a / h_a^2)^+ r, applied to each field component.

    L_a / h_a^2 is the second difference along axis a on the whole box, mask
    ignored, so the operator is diagonalized axis by axis: the FFT on periodic
    axes (the butterfly on a last periodic axis of length 2, which keeps the
    spectrum as two contiguous planes), DST-I on the interior nodes of an
    axis whose end layers are frozen, DCT-II on a free non-periodic axis.  A
    zero symbol (a mean mode) maps to zero.  S keeps the ``select``ed nodes,
    the active free ones, so nodes touching no occupied cell and frozen nodes
    stay at zero.  One real and one complex buffer of about the field's size
    serve every axis for the whole solve.  See docs/solvers.md.
    """

    def __init__(self, grid, select):
        kinds = grid.kinds
        self.select = select
        self.window = tuple(slice(1, n - 1) if k == "D" else slice(None)
                            for k, n in zip(kinds, grid.node_shape))
        shape = tuple(n - 2 if k == "D" else n for k, n in zip(kinds, grid.node_shape))
        self.periodic = tuple(a for a, k in enumerate(kinds) if k == "P")
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
            if kinds[a] == "P":
                total = total + (2.0 - 2.0 * np.cos(2.0 * np.pi * k / n)) / h ** 2
            elif kinds[a] == "D":
                total = total + (2.0 - 2.0 * np.cos(np.pi * (k + 1) / (n + 1))) / h ** 2
                scale *= 2.0 / (n + 1)          # the DST-I matrix squares to (n + 1)/2
                sine = np.sin(np.pi * (k + 1) / (n + 1))
                plans.append((a, _dst1, _dst1, shaped(a, n + 1),
                              shaped(a, (n + 1) // 2 + 1), (sine + 0.5, sine - 0.5)))
            else:
                total = total + (2.0 - 2.0 * np.cos(np.pi * k / n)) / h ** 2
                half = np.arange(n // 2 + 1).reshape((n // 2 + 1,) + bcast)
                twiddle = np.exp(0.5j * np.pi * half / n)
                plans.append((a, _dct2, _dct2_inverse, shaped(a, n),
                              shaped(a, n // 2 + 1), (twiddle.conj(), twiddle)))
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
        self.fft_axes = self.periodic[:-1]
        if self.last_length == 2:
            # the spectrum holds the two planes of the last periodic axis one
            # after the other, so the other axes transform contiguous planes
            last = self.periodic[-1]
            self.spectrum = view(spec, (2,) + shape[:last] + shape[last + 1:])
            self.weights = np.ascontiguousarray(np.moveaxis(self.weights, last, 0))
            self.fft_axes = tuple(a + 1 for a in self.fft_axes)
            self.planes = tuple(_along(last, i) + (...,) for i in (0, 1))

    def _periodic_solve(self, src, dst):
        """dst <- inverse FFT of (weights * FFT(src)) over the periodic axes.

        On a last periodic axis of length 2 the real FFT is the butterfly
        (a + b, a - b) and its inverse ((A + B) * 0.5, (A - B) * 0.5), the
        values that pocketfft computes, bit for bit (docs/solvers.md)."""
        spec = self.spectrum
        if self.last_length == 2:
            a, b = (src[plane] for plane in self.planes)
            np.add(a, b, out=spec.real[0, ...])
            np.subtract(a, b, out=spec.real[1, ...])
            spec.imag[...] = 0.0
        else:
            np.fft.rfft(src, axis=self.periodic[-1], out=spec)
        for a in self.fft_axes:
            np.fft.fft(spec, axis=a, out=spec)
        spec *= self.weights
        for a in self.fft_axes:
            np.fft.ifft(spec, axis=a, out=spec)
        if self.last_length == 2:
            sums, diffs = (dst[plane] for plane in self.planes)
            np.add(spec.real[0, ...], spec.real[1, ...], out=sums)
            np.subtract(spec.real[0, ...], spec.real[1, ...], out=diffs)
            sums *= 0.5
            diffs *= 0.5
        else:
            np.fft.irfft(spec, n=self.last_length, axis=self.periodic[-1], out=dst)

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


# Newton's node scale s is floored at this fraction of its largest value on
# the active free nodes: for p > 2 the tangent vanishes where the gradient
# does, and an unfloored s^(-1/2) would blow up there.  Chosen, with
# _CURVATURE_FRACTION, on the seed sweep of docs/solvers.md.
_SCALE_FLOOR = 0.1


def _tangent_scale(grid, select, diagonal):
    """sigma = s^(-1/2) per field component and node, for Newton's
    preconditioner z = sigma S P^+ (sigma r): s = diag(H) / (vol sum_a 2/h_a^2),
    floored at _SCALE_FLOOR max(s) over the ``select``ed nodes, so that s is
    1 where the tangent is the identity on a full neighbourhood.
    ``diagonal`` (m, d, *cells) holds mask * DS_c[E_ja]_ja, and diag(H) at a
    node sums vol diagonal[j, a] / h_a^2 over the cells c whose edge
    (c, c + e_a) holds it; it is scaled in place.  None when no selected
    entry is positive (then the preconditioner stays unscaled)."""
    for a, h in enumerate(grid.spacings):
        diagonal[:, a] *= 1.0 / h ** 2
    diag = _stencil_scatter(grid, diagonal,
                            np.zeros((diagonal.shape[0],) + grid.node_shape))
    top = float(diag[:, select].max(initial=0.0))
    if not top > 0.0:
        return None
    np.maximum(diag, _SCALE_FLOOR * top, out=diag)
    diag *= 1.0 / sum(2.0 / h ** 2 for h in grid.spacings)
    return 1.0 / np.sqrt(diag, out=diag)


# -- exact line solve ----------------------------------------------------------------

def _line_solvable(grid, mask):
    """The runs [lo, hi) of occupied cells along axis 1 of the cell columns,
    as arrays (lo, hi), when _LineSolver applies, else None: on a grid of
    kinds "DN" (both end layers of axis 0 frozen, axis 1 free), each cell
    column holds one run, which shares a node with the next column's run.
    The active nodes then form one component that touches a frozen layer,
    so the operator is positive definite on the active free nodes."""
    if grid.kinds != "DN":
        return None
    runs = mask[:, 0] + np.count_nonzero(mask[:, 1:] & ~mask[:, :-1], axis=1)
    lo = np.argmax(mask, axis=1)
    hi = mask.shape[1] - np.argmax(mask[:, ::-1], axis=1)
    # cells (i, k) and (i + 1, k') share a node iff k' is k or k - 1
    if np.all(runs == 1) and np.all((lo[:-1] <= hi[1:]) & (lo[1:] < hi[:-1])):
        return lo, hi
    return None


def _distinct(*keys, sizes):
    """Ids of the distinct rows of the key columns, column c in [0,
    sizes[c]), in sorted key order, and any one position of each id (equal
    keys give bit-identical blocks), by a presence table over the rows
    packed in mixed radix, or by a sort if it would be sparse."""
    code, span = np.ravel_multi_index(keys, sizes), math.prod(sizes)
    if span > 8 * len(code) + 256:
        _, where, ids = np.unique(code, return_index=True, return_inverse=True)
        return ids.reshape(-1), where
    rank = np.zeros(span + 1, dtype=np.intp)     # rank[-1] counts, even if span is 0
    rank[code] = 1
    np.cumsum(rank, out=rank)
    ids = rank[code] - 1
    where = np.empty(rank[-1], dtype=np.intp)
    where[ids] = np.arange(len(code))
    return ids, where


def _groups(table, ids, src, dst):
    """(table[r], src[p], dst[p]) per id r, p the positions whose id is r,
    in increasing order; one id takes all of src and dst."""
    if len(table) == 1:
        return [(table[0], src, dst)]
    parts = [ids == r for r in range(len(table))]
    return [(M, src[p], dst[p]) for M, p in zip(table, parts)]


def _refined_solve(A, inv, rhs):
    """A^-1 rhs for stacks of blocks, from the explicit inverse and one step
    of iterative refinement, which brings it to the accuracy of a LAPACK
    solve (the product alone left a 4 times larger error in the solution of
    the eps = 0.125 gamma slab) without factoring A again."""
    X = inv @ rhs
    X += inv @ (rhs - A @ X)
    return X


class _LineSolver:
    """z = K^-1 r by direct elimination, K the masked quadratic operator on
    the active free nodes of a grid that _line_solvable accepts.

    A cell couples only the node lines i and i + 1 along axis 0, so in the
    order (line i, component j, node k along axis 1) K is block tridiagonal:
    line blocks A_i, tridiagonal in k, and couplings B_i from line i to
    i + 1, bidiagonal in k, per pair of components, assembled from the
    tangent and the masked cell volumes.  The two frozen lines are left out,
    columns included; a node outside ``select`` gets an identity row.

    Block cyclic reduction eliminates the even lines of a level and keeps
    the odd ones, whose blocks form the next level:
    A'_k = A_k - B_(k-1)^T U_(k-1) - B_k V_(k+1) and B'_k = -B_k U_(k+1),
    with U_e = A_e^-1 B_e and V_e = A_e^-1 B_(e-1)^T.  A block is keyed by
    what it is built from: a line block by the runs of its two cell
    columns, a coupling by its one column, a reduced block by the ids of
    its parts.  Equal keys give bit-identical blocks, so only the distinct
    ones are formed and inverted, and the sweeps take one matmul per
    distinct A_e^-1, U_e and V_e of a level.  See docs/solvers.md.
    """

    def __init__(self, grid, select, runs, vol_mask, tangent):
        # tangent[l, b, j, a]: the stress component (j, a) of the unit
        # gradient (l, b); a quadratic density has the same one in every cell
        m = tangent.shape[0]
        nx, nz = grid.cells
        hx, hz = grid.spacings
        # d[a, p]: gradient component a of a cell per unit value at its
        # stencil node p = (i, k), (i, k + 1), (i + 1, k)
        d = np.array([[-1.0 / hx, 0.0, 1.0 / hx], [-1.0 / hz, 1.0 / hz, 0.0]])

        def element(p, q, columns):
            # [i, j, l, k]: the entry (p, q) of the element matrices of the
            # cells (c, k), c = columns[i], between components j and l
            e = np.einsum("a,lbja,b->jl", d[:, p], tangent, d[:, q])
            return e[:, :, np.newaxis] * vol_mask[columns, np.newaxis, np.newaxis, :]

        def dense(bands):
            # (blocks, m (nz + 1), m (nz + 1)) from (row, column, band)
            # triples, band of shape (blocks, m, m, k): the entry
            # [r, (j, k + row), (l, k + column)] is band[r, j, l, k]
            out = np.zeros((len(bands[0][-1]), m, nz + 1, m, nz + 1))
            for row, col, band in bands:
                k = np.arange(band.shape[-1])
                out[:, :, k + row, :, k + col] = np.moveaxis(band, -1, 0)
            return out.reshape(-1, m * (nz + 1), m * (nz + 1))

        # the interior line i is node line i + 1, between the cell columns
        # i and i + 1, and couples to line i + 1 through column i + 1.  A
        # one-run column is its run, so the runs key the level-0 blocks
        self.active = select[1:nx]
        column, first = _distinct(*runs, sizes=(nz + 1, nz + 1))
        sizes = (len(first),) * 2
        a_ids, first = _distinct(column[:-1], column[1:], sizes=sizes)
        # the cells right of line i reach it at p = 0 and 1, those left of
        # it at p = 2
        diag = np.zeros((len(first), m, m, nz + 1))
        diag[..., :-1] += element(0, 0, first + 1)
        diag[..., 1:] += element(1, 1, first + 1)
        diag[..., :-1] += element(2, 2, first)
        for j in range(m):
            diag[:, j, j][~self.active[first]] = 1.0
        up = element(0, 1, first + 1)
        A = dense([(0, 0, diag), (0, 1, up), (1, 0, up.swapaxes(1, 2))])
        b_ids, first = _distinct(column[1:-1], sizes=sizes[:1])
        B = dense([(0, 0, element(0, 2, first + 1)),
                   (1, 0, element(1, 2, first + 1))])

        # per level: the groups (A_e^-1, e, e) of the eliminated lines e and
        # (U_e, e, e + 1), (V_e, e, e - 1) of their neighbours, as absolute
        # line numbers
        self.levels, self.factorizations = [], 0
        lines = np.arange(nx - 1)
        while True:
            even, odd = lines[0::2], lines[1::2]
            kept = len(odd)
            e_ids, first = _distinct(a_ids[0::2], sizes=(len(A),))
            A_e = A[a_ids[0::2][first]]
            inv = np.linalg.inv(A_e)
            self.factorizations += len(inv)
            sizes = (len(inv), len(B))
            u_ids, first = _distinct(e_ids[:kept], b_ids[0::2], sizes=sizes)
            ids = e_ids[first]
            U = _refined_solve(A_e[ids], inv[ids], B[b_ids[0::2][first]])
            v_ids, first = _distinct(e_ids[1:], b_ids[1::2], sizes=sizes)
            ids = e_ids[1:][first]
            V = _refined_solve(A_e[ids], inv[ids],
                               B[b_ids[1::2][first]].swapaxes(1, 2))
            self.levels.append((_groups(inv, e_ids, even, even),
                                _groups(U, u_ids, even[:kept], odd)
                                + _groups(V, v_ids, even[1:], odd[:len(v_ids)])))
            if not kept:
                break
            # the kept line j (position 2j + 1) is built from its block, the
            # U of the line before it and the V of the line after it, if any
            # (right holds 1 + the id of that V, or 0)
            right = np.zeros(kept, dtype=np.intp)
            right[:len(v_ids)] = v_ids + 1
            new_a, first = _distinct(a_ids[1::2], u_ids, right,
                                     sizes=(len(A), len(U), len(V) + 1))
            A_next = A[a_ids[1::2][first]]
            A_next -= B[b_ids[0::2][first]].swapaxes(1, 2) @ U[u_ids[first]]
            has = right[first] > 0
            A_next[has] -= B[b_ids[1::2][first[has]]] @ V[right[first[has]] - 1]
            new_b, first = _distinct(b_ids[1::2][:kept - 1], u_ids[1:],
                                     sizes=(len(B), len(U)))
            B = -(B[b_ids[1::2][first]] @ U[u_ids[1:][first]])
            lines, a_ids, b_ids, A = odd, new_a, new_b, A_next
        self.shape = (m,) + grid.node_shape

    def __call__(self, r, out):
        """out <- K^-1 r for flat r and out, fields of shape (m, *nodes)."""
        m, L = self.shape[0], len(self.active)
        y = np.empty((L, m, self.shape[-1]))
        y[...] = r.reshape(self.shape)[:, 1:-1].transpose(1, 0, 2)
        y = y.reshape(L, -1)
        # rows are lines: A^-1 r_e is r_e @ A^-T, U^T r_e is r_e @ U
        for _, couplings in self.levels:
            for M, e, k in couplings:
                y[k] -= y[e] @ M
        for inverses, couplings in reversed(self.levels):
            for M, e, _ in inverses:
                y[e] = y[e] @ M.T
            for M, e, k in couplings:
                y[e] -= y[k] @ M.T
        z = out.reshape(self.shape)
        z[:, 0] = z[:, -1] = 0.0
        z[:, 1:-1] = y.reshape(L, m, -1).transpose(1, 0, 2)
        z[:, 1:-1] *= self.active
        return out


# -- internal masked solve -----------------------------------------------------

class _MaskedProblem:
    """cellvol * sum_{occupied} W(F + Dv) as a function of one flat unknown
    x: the node field v, then, with ``free_offset``, the columns of F past
    grid.dim.  Holds what every apply of one solve reads, built once."""

    def __init__(self, grid, mask, W, F, free_offset):
        self.grid, self.mask, self.W = grid, mask, W
        self.m, self.n = F.shape
        self.d = grid.dim
        self.free_offset = free_offset
        self.nv = self.m * grid.num_nodes
        self.fixed = self.d if free_offset else self.n
        self.cells = (1,) * self.d
        self.maskf = mask.astype(float)
        self.vol = grid.cell_volume
        self.vol_mask = self.vol * self.maskf
        base = F.copy()
        base[:, self.fixed:] = 0.0          # free columns come from the unknown
        self.Fcells = base.reshape((self.m, self.n) + self.cells)
        # a quadratic slab over node lines is solved exactly.  Newton keeps
        # the spectral preconditioner: its tangent vanishes where the
        # gradient does (p > 2), which leaves line blocks singular, and
        # changes every step
        self.runs = (_line_solvable(grid, mask) if W.is_quadratic and not free_offset
                     else None)
        self.factorizations = 0     # of the line solve's blocks
        # the nodes that move: active and not frozen.  A norm power has the
        # column of a pendant node at 0, so that node leaves the solve, its
        # column is held at 0 and field() sets it afterwards.  The adjoint
        # projects onto the moving nodes where some are frozen; elsewhere
        # the others hold 0
        degree = _node_degree(grid, mask)
        self.select = (degree[0] > 0) & ~_frozen_ends(grid)
        self.pendant = self.columns = None
        if W.zeroing_columns_minimizes and self.runs is None:
            pendant, columns = _pendant_nodes(grid, mask, degree, self.select)
            if pendant.any():
                self.pendant, self.columns = pendant, columns
                self.select &= ~pendant[0]
        self.project = self.select if "D" in grid.kinds else None

    @functools.cached_property
    def spectral(self):
        return _SpectralPreconditioner(self.grid, self.select)

    def split(self, x):
        """(node field, free offset columns) views of x."""
        return (x[:self.nv].reshape((self.m,) + self.grid.node_shape),
                x[self.nv:].reshape((self.m, self.n - self.fixed) + self.cells))

    def lift(self, x, offset=True):
        """Per cell (Dv | free columns), plus the fixed offset if ``offset``,
        with the pendant columns at 0.  So the stress and the tangent's image
        are 0 there, and the adjoint leaves the pendant nodes alone."""
        v, b = self.split(x)
        G = _cell_gradient(self.grid, v, self.n)
        G[:, self.fixed:] = b
        if offset:
            G += self.Fcells
        if self.columns is not None:
            np.copyto(G[:, :self.d], 0.0, where=self.columns)
        return G

    def field(self, x):
        """The node field of x, each pendant node set from its neighbour so
        that its column is 0: v(c + e_a) = v(c) - h_a F_a, or, for the base
        of its edge (d = 1), v(c) = v(c + e_a) + h_a F_a."""
        v = self.split(x)[0]
        if self.pendant is None:
            return v
        v, occupied = v.copy(), self.mask[np.newaxis]
        for a, (h, _, forward) in enumerate(self.grid.stencil):
            step = h * self.Fcells[:, a]
            for cells, nodes in forward:
                np.copyto(v[nodes], v[cells] - step,
                          where=self.pendant[nodes] & occupied[cells])
                np.copyto(v[cells], v[nodes] + step,
                          where=self.pendant[cells] & occupied[cells])
        return v

    def energy(self, x):
        """The exact energy at x: for p < 2 Newton minimizes a smoothed one."""
        return self.vol * float(np.sum(self.W.cell_values(self.lift(x)) * self.maskf))

    def adjoint(self, P):
        """The gradient for a fresh stress field P: D^T (vol * mask * P) on
        the moving nodes, then sum(vol * mask * P) over the cells
        in the free columns.  The callers pass stress(G) inline, so G is
        freed first."""
        P *= self.vol_mask
        out = _cell_gradient_adjoint(self.grid, P)
        if self.project is not None:
            out *= self.project
        if not self.free_offset:
            return out.reshape(-1)
        sums = P[:, self.d:].sum(axis=tuple(range(2, 2 + self.d)))
        return np.concatenate([out.reshape(-1), sums.reshape(-1)])

    def gradient(self, x):
        return self.adjoint(self.W.cell_stress(self.lift(x)))

    def tangent(self, G):
        """(Hessian apply, preconditioner builder) at per-cell gradients G."""
        DS = self.W.cell_stress_derivative(G)

        def apply_H(u):
            return self.adjoint(DS(self.lift(u, offset=False)))
        return apply_H, functools.partial(self.precond, DS)

    def precond(self, DS):
        """A block diagonal preconditioner for the tangent DS, each block
        close to the inverse of its own diagonal block of H up to one common
        scale, which leaves CG's iterates alone.  On v: for a quadratic
        density the spectral inverse of P, which is the inverse of
        H_vv / (vol * s), s the mean in-plane diagonal of the summed tangent
        per occupied cell; for Newton sigma S P^+ sigma, sigma the node
        scale of _tangent_scale, which is close to vol H_vv^-1.  On the free
        columns vol * s, or vol, times the pseudo-inverse of the symmetric
        K_bb.  On a line-solvable slab it is the inverse of H itself."""
        grid, m, n, d, maskf = self.grid, self.m, self.n, self.d, self.maskf
        units = np.eye(m * n).reshape((m * n, m, n) + self.cells)
        if self.runs is not None:
            C = np.stack([DS(e) for e in units]).reshape(m, n, m, n)
            lines = _LineSolver(grid, self.select, self.runs, self.vol_mask,
                                C[:, :d, :, :d])
            self.factorizations += lines.factorizations
            return lines
        scaled = not self.W.is_quadratic
        axes = tuple(range(2, 2 + d))
        cols = np.arange(m * n) % n >= d
        # one pass over the unit matrices E_k: the summed tangent, whose
        # column k is sum_c mask * DS_c[E_k], and the per-cell diagonal
        # entries DS_c[E_ja]_ja of the in-plane columns
        S = np.empty((m * n, m * n)) if self.free_offset else None
        diagonal = np.empty((m, d) + grid.cells) if scaled else None
        for k, e in enumerate(units):
            in_plane = scaled and not cols[k]
            if not (self.free_offset or in_plane):
                continue
            T = DS(e)
            if self.free_offset:
                S[:, k] = np.einsum(T, [0, 1, *axes], maskf, axes, [0, 1]).ravel()
            if in_plane:
                j, a = divmod(k, n)
                diagonal[j, a] = T[j, a]
        sigma = None
        if scaled:
            diagonal *= maskf
            if self.columns is not None:
                np.copyto(diagonal, 0.0, where=self.columns)
            sigma = _tangent_scale(grid, self.select, diagonal)
            buffer = np.empty((m,) + grid.node_shape)
        if self.free_offset:
            K_bb_inv = np.linalg.pinv(self.vol * S[np.ix_(cols, cols)], hermitian=True)
            K_bb_inv *= self.vol * (
                1.0 if scaled else float(np.mean(np.diag(S)[~cols]) / maskf.sum()))

        def apply(r, out):
            rv, zv = self.split(r)[0], self.split(out)[0]
            if sigma is None:
                self.spectral(rv, zv)
            else:
                self.spectral(np.multiply(rv, sigma, out=buffer), zv)
                zv *= sigma
            if self.free_offset:
                np.matmul(K_bb_inv, r[self.nv:], out=out[self.nv:])
            return out
        return apply


def _solve_masked(grid, mask, W, F, opts, free_offset=False):
    """Minimize cellvol * sum_{occupied} W(F + Dv) over node fields v.

    F is an m x n float array with n >= grid.dim; Dv is zero in the columns
    past grid.dim, which therefore enter only through F.  With
    ``free_offset`` those columns are unknowns as well: Newton starts them
    from their values in F, CG (a quadratic W) from 0, and the minimizing
    ones are written back into F (docs/solvers.md).  Returns (integral, v,
    report).  The two end node layers of every Dirichlet axis of the grid
    are held at zero.  The callers read mask and F (``_read_cell_problem``);
    a non-finite residual or value is not converged.
    """
    opts = opts or SolverOptions()
    problem = _MaskedProblem(grid, mask, W, F, free_offset)
    m, n, d, nv = problem.m, problem.n, problem.d, problem.nv
    maxiter = 10 * nv if opts.max_iterations is None else opts.max_iterations
    notes = []
    if not W.convex:
        warnings.warn("non-convex density: only a local minimum is guaranteed",
                      stacklevel=3)
        notes.append("non-convex density; local minimum only")
    if W.uses_smoothing:
        notes.append("p<2 column norms smoothed with eps=1e-8")
    size = nv + m * (n - problem.fixed)
    if W.is_quadratic:
        # the stress is linear: gradient(x) = H x + gradient(0), and the
        # tangent at the offset serves at every x
        x, iters, residual, ok = _preconditioned_cg(
            *problem.tangent(problem.Fcells), -problem.gradient(np.zeros(size)),
            opts.cg_rtol, maxiter)
        method, inner = "cg", 0
    else:
        x0 = np.zeros(size)
        x0[nv:] = F[:, problem.fixed:].reshape(-1)
        x, iters, residual, ok, inner = _newton_pcg(
            problem.gradient, lambda x: problem.tangent(problem.lift(x)), x0,
            _grad_tol(opts, F, W), maxiter)
        method = "newton"
    if free_offset:
        F[:, d:] = problem.split(x)[1].reshape(m, n - d)
    value = problem.energy(x)
    if not (math.isfinite(residual) and math.isfinite(value)):
        ok = False
        notes.append(_NON_FINITE)
    report = SolveReport(iterations=iters, residual=residual, converged=ok,
                         method=method, notes="; ".join(notes),
                         inner_iterations=inner,
                         factorizations=problem.factorizations)
    return value, problem.field(x), report


_NON_FINITE = "non-finite residual or value: not converged"


def _read_cell_problem(mask, W, F):
    """(mask, F) read by name: a mask of d axes and W's m x n offset, n >= d."""
    mask = as_mask(mask, "mask")
    F = as_matrix(F, "F", (W.m, W.n))
    if W.n < mask.ndim:
        raise DimensionMismatchError(f"F has {W.n} columns, fewer than mask's {mask.ndim} axes")
    return mask, F


def _dot(a, b):
    """The inner product of two flat vectors in numpy's own single-threaded
    loop, not BLAS: its rounding does not depend on the BLAS thread count,
    and no BLAS helper thread spins between the calls (docs/solvers.md)."""
    return float(np.einsum("i,i->", a, b))


def _grad_tol(opts, F, W):
    """The gradient test of the Newton solves: grad_tol (1 + |F|^(p-1))."""
    return opts.grad_tol * (1.0 + float(np.linalg.norm(F)) ** (W.p - 1.0))


def _preconditioned_cg(apply_K, make_precond, b, rtol, maxiter):
    """Preconditioned CG on K x = b from x = 0: the residual starts as b
    itself, overwritten in place (pass a fresh b), so it costs no apply.
    ``make_precond()`` returns M, and ``M(r, out)`` writes z = M r; M is
    built only when b fails the stopping test, which is on the true
    residual: ||r|| <= rtol ||b||."""
    bb = _dot(b, b)
    x, r, rr = np.zeros_like(b), b, bb
    bnorm = math.sqrt(bb)
    denom = bnorm if bnorm > 0 else 1.0
    if math.sqrt(rr) <= rtol * denom:
        return x, 0, math.sqrt(rr) / denom, True
    precond = make_precond()
    z = precond(r, np.zeros_like(r))
    p = z.copy()
    rz = _dot(r, z)
    it = 0
    while it < maxiter and rz > 0:
        Kp = apply_K(p)
        pKp = _dot(p, Kp)
        if pKp <= 0:
            # numerically null direction of the semidefinite operator
            break
        alpha = rz / pKp
        x += np.multiply(p, alpha, out=z)
        r -= np.multiply(Kp, alpha, out=Kp)
        rr = _dot(r, r)
        it += 1
        if math.sqrt(rr) <= rtol * denom:
            break
        precond(r, z)
        rz_new = _dot(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    rel = math.sqrt(rr) / denom
    return x, it, rel, rel <= rtol


_LINE_SEARCH_TRIALS = 30
# the line search accepts alpha once |phi'(alpha)| <= this * |phi'(0)|
_CURVATURE_FRACTION = 0.1


def _line_search(gradient, x, d, slope0):
    """A point near the minimum of phi(alpha) = f(x + alpha d), phi'(0) =
    slope0 < 0, read from gradients only: alpha = 1 first, doubled while
    phi' < 0 (a unit Newton step on |s|^p only shrinks s by (p - 2)/(p - 1),
    the line minimum is at p - 1), then Illinois regula falsi inside the
    bracket.  A trial is accepted once |phi'(alpha)| <= _CURVATURE_FRACTION
    |phi'(0)|, or when the next alpha rounds to an end of the bracket; when
    the _LINE_SEARCH_TRIALS trials are spent, the last one with phi' <= 0 is.
    Returns (x + alpha d, its gradient), or None when no trial is accepted."""
    want = _CURVATURE_FRACTION * -slope0
    lo, f_lo, hi, f_hi = 0.0, slope0, None, None
    alpha, moved, below = 1.0, None, None
    for _ in range(_LINE_SEARCH_TRIALS):
        cand = x + alpha * d
        g_new = gradient(cand)
        slope = _dot(g_new, d)
        if abs(slope) <= want:
            return cand, g_new
        if slope < 0.0:
            if moved == "lo" and hi is not None:
                f_hi *= 0.5
            lo, f_lo, moved, below = alpha, slope, "lo", (cand, g_new)
            if hi is None:
                alpha *= 2.0
                continue
        else:
            if moved == "hi":
                f_lo *= 0.5
            hi, f_hi, moved = alpha, slope, "hi"
        alpha = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
        if alpha in (lo, hi):
            # the line minimum, to rounding
            return below or (cand, g_new)
    return below


def _newton_pcg(gradient, tangent, x0, gtol, maxiter):
    """Inexact Newton: each step solves H d = -g by preconditioned CG, where
    ``tangent(x)`` returns (apply_H, make_precond) at x, then searches along
    d (_line_search).  Where CG meets non-positive curvature at its first
    direction (a non-convex density) the step is the preconditioned
    gradient -M g.

    The inner tolerance is Eisenstat & Walker's choice 2,
    eta_k = min(0.5, 0.9 (|g_k| / |g_(k-1)|)^2), eta_0 = 0.5, but never
    below 0.5 gtol / |g_k|: a step needs no more than the stopping test
    asks, and a residual below rounding would drive CG along the null space
    of the constants.  The stopping test is |g| <= gtol; ``maxiter`` caps
    the steps and each inner CG, and a line search that accepts no point or
    a step that leaves x unchanged ends the solve.  Returns
    (x, steps, |g|, converged, inner CG total); a non-finite |g| is not
    converged."""
    x = x0.copy()
    g = gradient(x)
    gn = math.sqrt(_dot(g, g))
    eta, it, inner = 0.5, 0, 0
    while not gn <= gtol:
        if it == maxiter or not math.isfinite(gn):
            return x, it, gn, False, inner
        apply_H, make_precond = tangent(x)
        # CG builds M anyway: its tolerance is below 1 while |g| > gtol
        M = make_precond()
        d, cg_its, _, _ = _preconditioned_cg(apply_H, lambda: M, -g,
                                             max(eta, 0.5 * gtol / gn), maxiter)
        if not cg_its:
            d = M(-g, np.zeros_like(g))
        inner += cg_its
        slope0 = _dot(g, d)
        if not slope0 < 0.0:
            return x, it, gn, False, inner      # no descent direction left
        found = _line_search(gradient, x, d, slope0)
        if found is None:
            return x, it, gn, False, inner
        cand, g_new = found
        if np.array_equal(cand, x):
            return x, it, gn, False, inner      # the step is below rounding
        x = cand
        it += 1
        gn_new = math.sqrt(_dot(g_new, g_new))
        eta = min(0.5, 0.9 * (gn_new / gn) ** 2)
        g, gn = g_new, gn_new
    return x, it, gn, True, inner


# -- public operations ------------------------------------------------------------

def minimize_periodic(mask, W, F, opts=None, *, free_offset=False):
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
    free_offset : minimize also over the columns of F past mask.ndim;
        ``corrector.offset`` holds the minimizing F.  Newton (a
        non-quadratic density) starts those columns from their given
        values, CG (a quadratic one) from 0, like the node field; both
        reach the same minimizer.  A norm power (``zeroing_columns_minimizes``)
        has them at 0 on a nonempty mask: they are set to 0, not solved for.

    Two cases are not solved; their report reads 0 iterations.  A full
    mask with a convex density, unless ``free_offset`` is still set: the
    value is exactly W(F) (method "full", docs/solvers.md).  A density
    whose ``zeroing_columns_minimizes`` on a mask whose node graph does not
    wind (``profiles.node_graph_winds``): the value is exactly
    (#occupied/#cells) W(F) with the in-plane columns of F zeroed (method
    "unwound", docs/kernel_geometry.md).

    Returns
    -------
    (value, corrector, report) where value = (1/#cells) * sum over occupied
    cells of W(F + Dv) at the discrete minimizer and ``corrector`` is a
    ``CorrectorField``.  An empty mask gives value 0 with F unchanged.
    Unconverged solves return the best value found with report.converged
    False, and so does a non-finite value; the caller decides.
    """
    mask, F = _read_cell_problem(mask, W, F)
    F = F.copy()
    d = mask.ndim
    empty = not mask.any()
    if free_offset and W.zeroing_columns_minimizes and not empty:
        # zeroing a column never raises a norm power, so 0 is the free
        # columns' minimizer whatever the field
        F[:, d:] = 0.0
        free_offset = False
    method = None       # of a value exact without a solve
    if empty:
        integral, method = 0.0, "empty"
    elif mask.all() and W.convex and not free_offset:
        # periodic differences sum to zero along every axis, so by Jensen
        # no corrector beats v = 0
        integral, method = float(W.cell_values(F[..., np.newaxis])[0]), "full"
    elif W.zeroing_columns_minimizes and not node_graph_winds(mask):
        # v = -F x on a lift of each node component cancels the in-plane
        # columns in every occupied cell, and no field does better
        G = F[..., np.newaxis].copy()
        G[:, :d] = 0.0
        theta = np.count_nonzero(mask) / mask.size
        integral, method = theta * float(W.cell_values(G)[0]), "unwound"
    else:
        grid = _Grid(cells=mask.shape, spacings=tuple(1.0 / c for c in mask.shape),
                     kinds="P" * d)
        integral, v, report = _solve_masked(grid, mask, W, F, opts,
                                            free_offset=free_offset)
        # unit cell has volume one: the integral is already the cell mean
    if method is not None:
        v = np.zeros(F.shape[:1] + mask.shape)     # periodic: the nodes are the cells
        finite = math.isfinite(integral)
        report = SolveReport(iterations=0, residual=0.0, converged=finite,
                             method=method, notes="" if finite else _NON_FINITE)
    v.flags.writeable = False
    F.flags.writeable = False
    return integral, CorrectorField(values=v, offset=F), report


def minimize_dirichlet(mask, W, F, box_side, opts=None):
    """Minimize the masked energy over fields vanishing on the boundary of a
    box of integer side ``box_side`` (whole periods), normalized by the box
    volume.

    ``mask`` covers the whole box (callers replicate the unit-cell mask).
    Returns (value, report).
    """
    mask, F = _read_cell_problem(mask, W, F)
    d = mask.ndim
    T = as_integer(box_side, "box_side")
    grid = _Grid(cells=mask.shape, spacings=tuple(T / c for c in mask.shape),
                 kinds="D" * d)
    if not mask.any():
        return 0.0, SolveReport(iterations=0, residual=0.0, converged=True,
                                method="empty")
    integral, _, report = _solve_masked(grid, mask, W, F, opts)
    return integral / float(T) ** d, report
