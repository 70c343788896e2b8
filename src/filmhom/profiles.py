"""1-periodic profile functions and their discrete superlevel geometry.

A profile is a 1-periodic function f on the unit cell with values in [0, 1]
and sup f = 1 (normalized).  From it we derive cell-centered superlevel
masks {f > |t|}, their connectivity on the periodic torus (including the
lattice of wrap translations, which governs which in-plane directions stay
coercive after homogenization), and occupancy masks of slab domains bounded
by the oscillating surfaces +/- eps*f(x/delta).

Connectivity is one union-find with lift offsets over the runs of occupied
cells along the last axis, so its Python work grows with the number of runs
rather than of cells.  Fully occupied lines and empty cell layers bound the
wrap lattice from both sides, and where the bounds meet they give it
without the union-find.  So the thresholds of the wrap rank, found by
bisection over the levels of the face edges, label a mask only where the
bounds differ.  The same runs, joined where the forward stencils of their
cells share a node, tell whether the node graph winds
(docs/kernel_geometry.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (ConfigurationError, ResolutionError, as_array, as_floor,
                     as_integer, as_level, as_mask, as_positive, as_resolution)

BUILTIN_PROFILES = ("constant", "sin2-stripe", "sin2-product", "checkerboard")

_SUP_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Profile:
    """A 1-periodic height function on the unit cell, normalized to sup = 1.

    ``kind`` is one of the builtin identifiers or ``"sampled"``.  Builtins are
    evaluated analytically after reducing the query point mod 1; sampled
    profiles store a read-only copy of ``values``, cell-centered values in
    [0, 1] with max 1 on a periodic N**dim grid, and evaluate by
    nearest-cell lookup (no interpolation), so derived masks are reproducible
    bit-exactly.  ``floor`` is min f: 1 for ``constant``, the grid minimum
    for ``sampled``, and for the other builtins in [0, 1), by default 0.5
    (0.25 for the checkerboard).  A profile compares and hashes by identity.
    """

    dim: int
    kind: str
    floor: float | None = None
    values: np.ndarray | None = None
    # eval_grid's read-only grids by resolution
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.kind not in (*BUILTIN_PROFILES, "sampled"):
            raise ConfigurationError(f"unknown profile kind {self.kind!r}")
        if self.kind != "sampled" and self.values is not None:
            raise ConfigurationError(f"values: not read by profile kind {self.kind!r}")
        object.__setattr__(self, "dim", as_integer(self.dim, "dim"))
        if self.kind == "sampled":
            values = np.array(as_array(self.values, "values", square=True))    # a copy, made read-only
            values.flags.writeable = False
            object.__setattr__(self, "values", values)
            if values.ndim != self.dim:
                raise ConfigurationError(
                    f"dim must be the {values.ndim} axes of values; got {self.dim}")
            vmin, vmax = float(values.min()), float(values.max())
            if vmin < -_SUP_TOL or vmax > 1.0 + _SUP_TOL:
                raise ConfigurationError(
                    f"values must lie in [0, 1]; got range [{vmin}, {vmax}]")
            if abs(vmax - 1.0) > _SUP_TOL:
                raise ConfigurationError(
                    f"values must be normalized to sup f = 1; max value is {vmax}")
        floor = self.floor
        if self.kind in ("constant", "sampled"):
            low = 1.0 if self.kind == "constant" else vmin
            if floor not in (None, low):
                raise ConfigurationError(f"a {self.kind} profile takes no floor "
                                         f"(min f is {low}); got floor={floor}")
            floor = low
        elif floor is None:
            floor = 0.25 if self.kind == "checkerboard" else 0.5
        else:
            floor = as_floor(floor, "floor")
        object.__setattr__(self, "floor", float(floor))

    # -- constructors -----------------------------------------------------

    @staticmethod
    def constant(dim):
        return Profile(dim=dim, kind="constant")

    @staticmethod
    def builtin(name, dim, floor=None):
        if name not in BUILTIN_PROFILES:
            raise ConfigurationError(
                f"unknown builtin profile {name!r}; known: {BUILTIN_PROFILES}"
            )
        return Profile(dim=dim, kind=name, floor=floor)

    @staticmethod
    def sampled(values):
        """The profile of the N**dim grid of cell values ``values``, max 1."""
        values = as_array(values, "values")     # its axes give the dimension
        return Profile(dim=values.ndim, kind="sampled", values=values)

    # -- evaluation --------------------------------------------------------

    def eval(self, x):
        """Evaluate f at a point x of dim coordinates, reducing mod 1 first
        (exact periodicity)."""
        x = as_array(x, "x", (self.dim,), ndmin=1)
        return float(self._eval_points(x[np.newaxis])[0])

    def eval_grid(self, n_grid):
        """Values of f at the n^dim cell centers ((i + 1/2)/n per axis), n =
        n_grid, as a read-only array computed once per n on this profile."""
        n = as_resolution(n_grid, "n_grid")
        values = self._memo.get(n)
        if values is None:
            centers = (np.arange(n) + 0.5) / n
            grids = np.meshgrid(*([centers] * self.dim), indexing="ij")
            pts = np.stack([g.ravel() for g in grids], axis=-1)
            values = self._eval_points(pts).reshape((n,) * self.dim)
            values.flags.writeable = False
            self._memo[n] = values
        return values

    def _eval_points(self, pts):
        pts = np.mod(pts, 1.0)
        if self.kind == "constant":
            return np.ones(pts.shape[0])
        if self.kind == "sin2-stripe":
            s = np.sin(np.pi * pts[:, 0]) ** 2
            return self.floor + (1.0 - self.floor) * s
        if self.kind == "sin2-product":
            s = np.ones(pts.shape[0])
            for a in range(self.dim):
                s *= np.sin(np.pi * pts[:, a]) ** 2
            return self.floor + (1.0 - self.floor) * s
        if self.kind == "checkerboard":
            parity = np.zeros(pts.shape[0], dtype=int)
            for a in range(self.dim):
                parity += np.floor(2.0 * pts[:, a]).astype(int)
            return np.where(parity % 2 == 0, 1.0, self.floor)
        n = self.values.shape[0]        # sampled
        idx = np.mod(np.floor(pts * n).astype(int), n)
        return self.values[tuple(idx[:, a] for a in range(self.dim))]


# -- sampled profile I/O ----------------------------------------------------
# Text format: first line "dim N", then N^dim whitespace-separated reals in
# row-major order.

def load_sampled_profile(path):
    """Read a profile written by save_sampled_profile: a header line 'dim N'
    of two positive integers, then the N**dim values.  A file that cannot
    be read or parsed raises a ConfigurationError naming the path."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            header = fh.readline().split()
            if len(header) != 2 or not all(h.isdigit() and int(h) > 0 for h in header):
                raise ConfigurationError(
                    f"{path}: first line must be 'dim N', two positive integers; "
                    f"got {header!r}"
                )
            dim, n = int(header[0]), int(header[1])
            data = np.loadtxt(fh, dtype=float).ravel()
    except (OSError, UnicodeDecodeError, ValueError) as err:
        raise ConfigurationError(f"{path}: cannot read sampled profile: {err}") from err
    # the N**dim values after the header, read by the file's name
    return Profile.sampled(as_array(data, str(path), (n ** dim,)).reshape((n,) * dim))


def save_sampled_profile(values, path):
    """Write what ``Profile.sampled`` accepts, in load_sampled_profile's format."""
    values = Profile.sampled(values).values
    n = values.shape[0]
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"{values.ndim} {n}\n")
        for row in values.reshape(-1, n):
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


# -- superlevel masks --------------------------------------------------------

def superlevel_mask(profile, t, n_grid):
    """Discretize {f > |t|} by strict comparison at the n_grid^dim cell
    centers, as a read-only boolean array; its mean is the area fraction.

    The comparison is strict, so for generic t a plateau of f never straddles
    the decision; t exactly at a plateau value is grid-convention dependent.
    """
    occ = profile.eval_grid(n_grid) > abs(as_level(t, "t"))
    occ.flags.writeable = False
    return occ


# -- torus connectivity and wrap lattice -------------------------------------

@dataclass(frozen=True)
class TorusComponents:
    """Connected components of an occupied cell set under face adjacency on
    the periodic torus.

    ``wrap_lattice`` holds primitive, linearly independent integer vectors
    spanning the directions along which some component connects to its own
    periodic translates, in the canonical form of ``_lattice_basis``; their
    count is the wrap rank.  Components are numbered in C order of their
    first cell.
    """

    labels: np.ndarray
    num_components: int
    wrap_lattice: tuple


def torus_components(mask):
    """Label the components of a cell mask on the periodic torus and find
    their wrap lattice.

    The union-find runs over the runs of occupied cells along the last axis,
    not over single cells (``_run_graph``), so its Python work grows with
    the number of runs; docs/kernel_geometry.md shows that this gives the
    components and windings of the cell graph.  It always runs, since the
    labels need it; for the lattice alone, ``wrap_lattice`` is cheaper.
    ``mask`` is any mask that ``as_mask`` reads, such as ``superlevel_mask``'s."""
    occ = as_mask(mask, "mask")
    ids, roots, wraps = _run_components(occ)
    # a root is the run of its component that starts first in C order
    heads = roots == np.arange(roots.size)
    number = np.cumsum(heads) - 1
    labels = np.full(occ.shape, -1, dtype=np.int64)
    labels[occ] = number[roots][ids[occ.ravel()]]
    labels.flags.writeable = False
    basis = _lattice_basis(wraps, occ.ndim)
    return TorusComponents(labels=labels, num_components=int(heads.sum()),
                           wrap_lattice=tuple(basis))


def wrap_lattice(mask, *, nodes=False):
    """The wrap lattice of the face graph of a boolean cell mask, or with
    ``nodes`` of its node graph, in the canonical form of
    ``_lattice_basis``, as in ``torus_components``.

    Either lattice holds e_a for every axis a with a fully occupied line
    and lies in the span of the axes with no empty cell layer
    (``_wrap_bounds``).  Where the two axis sets are equal it is their unit
    vectors; only otherwise does ``torus_union_find`` run over the run
    graph.  The face lattice lies in the node lattice, since cells that
    share a face share its nodes."""
    occ = as_mask(mask, "mask")
    lines, spans = _wrap_bounds(occ)
    if lines == spans:
        return tuple(tuple(int(a == b) for b in range(occ.ndim)) for a in lines)
    return tuple(_lattice_basis(_run_components(occ, nodes)[2], occ.ndim))


def node_graph_winds(mask):
    """Whether the node graph of a boolean cell mask winds around the
    torus: some loop of nodes, each step within the forward stencil
    {c, c + e_a} of an occupied cell c, has a nonzero winding.  Where none
    does, a norm-power cell problem has an exact value with no solve
    (docs/kernel_geometry.md).

    A fully occupied line winds, and an empty cell layer across every axis
    stops every winding (``_wrap_bounds``).  Only where neither decides does
    ``torus_union_find`` run over the run graph of the node adjacency
    (``_run_graph``).  The bounds are read as soon as they decide, the last
    axis first: on the two-layer masks of ``psi_cylinder_oracle`` its
    reduction is the cheapest."""
    occ = as_mask(mask, "mask")
    d = occ.ndim
    if any(occ.all(axis=a).any() for a in reversed(range(d))):
        return True
    if not any(occ.any(axis=tuple(b for b in range(d) if b != a)).all()
               for a in range(d)):
        return False
    return bool(_run_components(occ, nodes=True)[2])


def _wrap_bounds(occ):
    """(lines, spans): the axes a along which some line of cells is fully
    occupied, and the axes with no empty cell layer across them.

    A full line along a closes a loop of winding e_a, in the face graph and
    so in the node graph.  A loop winding along a visits a cell of every
    layer across a in the face graph, and in the node graph steps from node
    layer i to i + 1 within the stencil of an occupied cell of cell layer
    i, for every i; so an empty layer stops every winding along a.  The
    wrap lattice of either graph thus holds e_a for every axis in ``lines``
    and lies in the span of the axes in ``spans``
    (docs/kernel_geometry.md)."""
    d = occ.ndim
    lines = [a for a in range(d) if occ.all(axis=a).any()]
    spans = [a for a in range(d)
             if occ.any(axis=tuple(b for b in range(d) if b != a)).all()]
    return lines, spans


def _distinct_positive(values):
    """The sorted distinct positive values of an array, by sort-and-diff
    (plain np.unique imports numpy.ma)."""
    values = np.sort(values[values > 0], axis=None)
    return values[np.flatnonzero(np.diff(values, prepend=0.0))]


def wrap_rank_levels(profile, n):
    """Levels where the wrap rank of {f > t} on the n-grid rises as t sweeps
    down: entry r is the level L with rank > r below L and rank <= r from L
    on.  Ranks that {f > 0} never exceeds have no entry.

    The face edge (c, c') lies in {f > t} iff t is below its level
    min(f(c), f(c')), so the rank changes only at edge levels, and below
    the edge level L the graph is that of {f >= L}.  The rank of {f >= L}
    does not rise with L, so entry r is the largest positive edge level
    whose rank exceeds r, found by bisection over the sorted distinct edge
    levels (docs/kernel_geometry.md).  Each probe reads its rank off the
    full lines and empty layers of {f >= L} where they decide it
    (``wrap_lattice``), and labels the mask only where they do not.
    """
    values = profile.eval_grid(n)
    levels = _distinct_positive(np.concatenate(
        [np.minimum(values, np.roll(values, -1, axis=a)) for a in range(values.ndim)],
        axis=None))
    ranks = {}      # index into levels -> rank of {f >= levels[index]}

    def rank(i):
        if i not in ranks:
            ranks[i] = len(wrap_lattice(values >= levels[i]))
        return ranks[i]

    rises = []
    while levels.size and rank(0) > len(rises):
        r = len(rises)
        # every index with rank > r precedes every index with rank <= r
        lo = max(i for i, k in ranks.items() if k > r)
        hi = min((i for i, k in ranks.items() if k <= r), default=levels.size)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if rank(mid) > r:
                lo = mid
            else:
                hi = mid
        rises.append(float(levels[lo]))
    return rises


def _run_graph(occ, nodes=False):
    """The runs of occupied cells along the last axis of a periodic grid,
    cut at the row end, and the edges between them of the face graph, or
    with ``nodes`` of the node graph.

    Returns (ids, size, base, edges): ``ids`` is the flat array of run ids,
    each cell holding the id of the run it lies in (any value where
    unoccupied), runs numbered in C order of their first cell; ``size`` is
    the number of runs and ``edges`` the (u, v, step) arrays for
    ``torus_union_find``, steps packed in ``base``.  A row occupied at both
    ends links its last run to its first with step e_last, so a full row
    closes a self-cycle.  The other edges join a row to a neighbouring row:
    cell c to c + o for each offset o of ``_row_offsets``.  Each maximal
    interval on which a row overlaps its neighbour gives one edge, with step
    the wraps that c + o makes; the other edges of the interval close only
    unit squares, of winding zero, or squares through the neighbour row's
    row-end edge, where o shifts along the last axis."""
    shape, d = occ.shape, occ.ndim
    length = shape[-1]

    def starts(rows):
        rows = rows.reshape(-1, length)
        first = rows.copy()
        first[:, 1:] &= ~rows[:, :-1]
        return first.ravel()

    ids = np.cumsum(starts(occ)) - 1
    size = int(ids[-1]) + 1
    base = _wrap_base(size)
    row_end = np.flatnonzero(occ[..., 0] & occ[..., -1]) * length
    us, vs, steps = [ids[row_end + length - 1]], [ids[row_end]], [
        np.full(row_end.size, base ** (d - 1))]
    for offset in _row_offsets(d, nodes):
        near = np.roll(occ, [-s for _, s in offset], axis=[a for a, _ in offset])
        cells = np.flatnonzero(starts(occ & near))
        target, step = cells.copy(), np.zeros(cells.size, dtype=np.int64)
        for a, s in offset:
            stride = math.prod(shape[a + 1:])
            # the step s along axis a crosses the boundary from this end
            cross = (cells // stride) % shape[a] == (shape[a] - 1 if s > 0 else 0)
            target += s * stride
            target -= cross * (s * shape[a] * stride)
            step += cross * (s * base ** a)
        us.append(ids[cells])
        vs.append(ids[target])
        steps.append(step)
    return ids, size, base, tuple(map(np.concatenate, (us, vs, steps)))


def _row_offsets(d, nodes):
    """The offsets o that join cell c to c + o across rows, as (axis, sign)
    pairs: e_a for a < d - 1 in the face graph.  The node graph joins two
    cells whose forward stencils {c, c + e_a} share a node, that is at
    o = +-e_a and +-(e_a - e_b), and adds e_a - e_last for a < d - 1 and
    e_a - e_b for a < b < d - 1 (docs/kernel_geometry.md)."""
    out = [((a, 1),) for a in range(d - 1)]
    if nodes:
        out += [((a, 1), (d - 1, -1)) for a in range(d - 1)]
        out += [((a, 1), (b, -1)) for a in range(d - 1) for b in range(a + 1, d - 1)]
    return out


def _run_components(occ, nodes=False):
    """(run ids, run roots, wrap vectors of the cycles) of a cell mask:
    ``torus_union_find`` over ``_run_graph``."""
    ids, size, base, edges = _run_graph(occ, nodes)
    roots, windings = torus_union_find(size, *edges)
    return ids, roots, {_unpack_wrap(z, base, occ.ndim) for z in windings}


def _wrap_base(size):
    """Radix that packs a wrap vector into one int, axis a at base**a: along
    a forest path of at most ``size`` elements, lift offsets and the
    windings of the cycles they close stay below base/2 per axis."""
    return 1 << (size.bit_length() + 2)


def _unpack_wrap(z, base, dim):
    out = []
    for _ in range(dim):
        out.append((z + base // 2) % base - base // 2)
        z = (z - out[-1]) // base
    return tuple(out)


def torus_union_find(size, us, vs, steps):
    """Union-find with lift offsets over the indices 0..size-1.

    The edge (u, v, step), taken from equal-length integer arrays, says
    that the lift of v lies ``step`` torus wraps (packed as in
    ``_wrap_base``) from the lift of u.  Each element keeps its lift offset
    relative to its parent; an edge inside one tree closes a cycle of
    winding offset(u) + step - offset(v), offsets taken relative to the
    root.  A link hangs the root with the larger index under the other one.

    Returns (roots, windings): roots[i] is the smallest index in the tree of
    i, and windings is the set of packed nonzero windings of the cycles
    that the edges close.
    """
    parent = [-1] * size        # -1 at a root
    offset = [0] * size         # lift(i) - lift(parent[i]), packed

    def find(x):
        o = 0
        while True:
            p = parent[x]
            if p < 0:
                return x, o
            g = parent[p]
            if g >= 0:          # path halving
                offset[x] += offset[p]
                parent[x] = p = g
            o += offset[x]
            x = p

    windings = set()
    for u, v, s in zip(us.tolist(), vs.tolist(), steps.tolist()):
        ru, ou = find(u)
        rv, ov = find(v)
        z = ou + s - ov
        if ru == rv:
            if z:
                windings.add(z)
        elif ru > rv:
            parent[ru], offset[ru] = rv, -z
        else:
            parent[rv], offset[rv] = ru, z

    roots = np.array(parent, dtype=np.int64)
    roots = np.where(roots < 0, np.arange(size), roots)
    while not np.array_equal(roots[roots], roots):
        roots = roots[roots]
    return roots, windings


def _lattice_basis(vectors, dim):
    """Canonical basis of the rational span of integer ``vectors``: the rows
    of its reduced row echelon form, each scaled to a primitive integer
    vector (leading entry positive), so equal spans give equal bases."""
    def eliminate(r, pivot, col):
        # integer row operation that zeroes r[col]; other zeros stay zero
        return [x * pivot[col] - y * r[col] for x, y in zip(r, pivot)]

    rest = [list(v) for v in vectors]
    rows = []
    for col in range(dim):
        pivot = next((r for r in rest if r[col]), None)
        if pivot is not None:
            rest = [eliminate(r, pivot, col) for r in rest]
            rows = [eliminate(r, pivot, col) for r in rows] + [pivot]
    out = []
    for row in rows:
        g = math.gcd(*row) * (1 if next(x for x in row if x) > 0 else -1)
        out.append(tuple(x // g for x in row))
    return out


# -- oscillating slab domains -------------------------------------------------

@dataclass(frozen=True)
class DomainMask:
    """Occupancy of a slab bounded by the oscillating surfaces.

    Cells of omega x (-eps, eps), occupied iff |x_n| < eps * f(x_alpha/delta).
    """

    occupancy: np.ndarray
    spacings: tuple


def _omega_box(omega, d):
    """omega read as d (lo, hi) pairs with lo < hi (``as_array``), d free
    when None; the unit box when omega is None."""
    if omega is None:
        return tuple((0.0, 1.0) for _ in range(d))
    box = as_array(omega, "omega", (d, 2))
    if not (box[:, 0] < box[:, 1]).all():
        raise ConfigurationError(f"omega intervals must be increasing; got {omega!r}")
    return tuple(map(tuple, box.tolist()))


def oscillating_domain_mask(profile, eps, delta, grid, *, omega=None):
    """Build the slab occupancy mask; ``grid`` lists cells per axis, vertical last.

    The in-plane grid must resolve the oscillation: at least 4 cells per
    delta-period on every in-plane axis, otherwise a ResolutionError names
    the required minimum.
    """
    eps = as_positive(eps, "eps")
    delta = as_positive(delta, "delta")
    d = profile.dim
    as_array(grid, "grid", (None,))     # one axis of at least one entry
    grid = tuple(as_integer(g, "grid") for g in grid)
    if len(grid) != d + 1:
        raise ConfigurationError(
            f"grid must give {d + 1} cell counts (in-plane axes then vertical); got {grid}"
        )
    omega = _omega_box(omega, d)

    for a in range(d):
        width = omega[a][1] - omega[a][0]
        required = math.ceil(4.0 * width / delta)
        if grid[a] < required:
            raise ResolutionError(
                f"axis {a}: {grid[a]} cells cannot resolve oscillation period "
                f"delta={delta} over width {width}; need at least {required} "
                f"(4 cells per period)",
                required=required, axis=a,
            )

    spac = (tuple((omega[a][1] - omega[a][0]) / grid[a] for a in range(d))
            + (2.0 * eps / grid[d],))

    axes = [omega[a][0] + (np.arange(grid[a]) + 0.5) * spac[a] for a in range(d)]
    zc = -eps + (np.arange(grid[d]) + 0.5) * spac[d]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    f_vals = profile._eval_points(pts / delta).reshape(grid[:d])

    occ = np.abs(zc).reshape((1,) * d + (grid[d],)) < (eps * f_vals)[..., np.newaxis]
    occ.flags.writeable = False
    return DomainMask(occupancy=occ, spacings=spac)
