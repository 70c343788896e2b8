"""1-periodic profile functions and their discrete superlevel geometry.

A profile is a 1-periodic function f on the unit cell with values in [0, 1]
and sup f = 1 (normalized).  From it we derive cell-centered superlevel
masks {f > |t|}, their connectivity on the periodic torus (including the
lattice of wrap translations, which governs which in-plane directions stay
coercive after homogenization), and occupancy masks of slab domains bounded
by the oscillating surfaces +/- eps*f(x/delta).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ResolutionError

BUILTIN_PROFILES = ("constant", "sin2-stripe", "sin2-product", "checkerboard")

_SUP_TOL = 1e-12


@dataclass(frozen=True)
class Profile:
    """A 1-periodic height function on the unit cell, normalized to sup = 1.

    ``kind`` is one of the builtin identifiers or ``"sampled"``.  Builtins are
    evaluated analytically after reducing the query point mod 1; sampled
    profiles store cell-centered values on a periodic grid and evaluate by
    nearest-cell lookup (no interpolation), so derived masks are reproducible
    bit-exactly.
    """

    dim: int
    kind: str
    floor: float = 0.5
    values: np.ndarray | None = None
    min_value: float = 0.0
    sup_value: float = 1.0

    # -- constructors -----------------------------------------------------

    @staticmethod
    def constant(dim, value=1.0):
        if abs(value - 1.0) > _SUP_TOL:
            raise ConfigurationError(
                f"constant profile must have value 1 (sup f = 1 normalization); got {value}"
            )
        return Profile(dim=dim, kind="constant", floor=1.0, min_value=1.0, sup_value=1.0)

    @staticmethod
    def builtin(name, dim, floor=None):
        if name == "constant":
            return Profile.constant(dim)
        if name not in BUILTIN_PROFILES:
            raise ConfigurationError(
                f"unknown builtin profile {name!r}; known: {BUILTIN_PROFILES}"
            )
        if floor is None:
            floor = 0.25 if name == "checkerboard" else 0.5
        if not (0.0 <= floor < 1.0):
            raise ConfigurationError(f"profile floor must lie in [0, 1); got {floor}")
        if dim < 1:
            raise ConfigurationError(f"profile dim must be >= 1; got {dim}")
        return Profile(dim=dim, kind=name, floor=float(floor),
                       min_value=float(floor), sup_value=1.0)

    @staticmethod
    def sampled(values):
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            raise ConfigurationError("sampled profile has an empty grid")
        dim = values.ndim
        if any(s != values.shape[0] for s in values.shape):
            raise ConfigurationError(
                f"sampled profile grid must be square; got shape {values.shape}"
            )
        vmin = float(values.min())
        vmax = float(values.max())
        if vmin < -_SUP_TOL or vmax > 1.0 + _SUP_TOL:
            raise ConfigurationError(
                f"sampled profile values must lie in [0, 1]; got range [{vmin}, {vmax}]"
            )
        if abs(vmax - 1.0) > _SUP_TOL:
            raise ConfigurationError(
                f"sampled profile must be normalized to sup f = 1; max value is {vmax}"
            )
        values = values.copy()
        values.flags.writeable = False
        return Profile(dim=dim, kind="sampled", values=values,
                       min_value=vmin, sup_value=vmax)

    # -- evaluation --------------------------------------------------------

    def eval(self, x):
        """Evaluate f at a point, reducing mod 1 first (exact periodicity)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.dim,):
            raise ConfigurationError(
                f"query point has shape {x.shape}; profile dim is {self.dim}"
            )
        return float(self._eval_points(x[None, :])[0])

    def eval_grid(self, n):
        """Values of f at the n^dim cell centers ((i + 1/2)/n per axis)."""
        if n < 1:
            raise ConfigurationError(f"grid resolution must be >= 1; got {n}")
        centers = (np.arange(n) + 0.5) / n
        grids = np.meshgrid(*([centers] * self.dim), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        return self._eval_points(pts).reshape((n,) * self.dim)

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
        if self.kind == "sampled":
            if self.values is None or self.values.size == 0:
                raise ConfigurationError("sampled profile has an empty grid")
            n = self.values.shape[0]
            idx = np.mod(np.floor(pts * n).astype(int), n)
            return self.values[tuple(idx[:, a] for a in range(self.dim))]
        raise ConfigurationError(f"unknown profile kind {self.kind!r}")


# -- sampled profile I/O ----------------------------------------------------
# Text format: first line "dim N", then N^dim whitespace-separated reals in
# row-major order.

def load_sampled_profile(path):
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ConfigurationError(
                f"{path}: first line must be 'dim N'; got {header!r}"
            )
        dim, n = int(header[0]), int(header[1])
        data = np.loadtxt(fh, dtype=float).ravel()
    if data.size != n ** dim:
        raise ConfigurationError(
            f"{path}: expected {n ** dim} values for dim={dim}, N={n}; got {data.size}"
        )
    return Profile.sampled(data.reshape((n,) * dim))


def save_sampled_profile(values, path):
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"{values.ndim} {n}\n")
        for row in values.reshape(-1, n):
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


# -- superlevel masks --------------------------------------------------------

@dataclass(frozen=True)
class CellMask:
    """Cell-centered characteristic function of a superlevel set {f > |t|}."""

    dim: int
    resolution: int
    level: float
    occupancy: np.ndarray
    area_fraction: float

    @property
    def num_occupied(self):
        return int(self.occupancy.sum())


def superlevel_mask(profile, t, n):
    """Discretize {f > |t|} on an n^dim grid by strict comparison at cell centers.

    The comparison is strict, so for generic t a plateau of f never straddles
    the decision; t exactly at a plateau value is grid-convention dependent.
    """
    if n < 2:
        raise ConfigurationError(f"mask resolution must be >= 2; got {n}")
    level = abs(float(t))
    if level >= 1.0:
        raise ConfigurationError(f"superlevel threshold must satisfy |t| < 1; got {t}")
    occ = profile.eval_grid(n) > level
    occ.flags.writeable = False
    frac = float(occ.sum()) / occ.size
    return CellMask(dim=profile.dim, resolution=n, level=level,
                    occupancy=occ, area_fraction=frac)


# -- torus connectivity and wrap lattice -------------------------------------

@dataclass(frozen=True)
class TorusComponents:
    """Connected components of an occupied cell set under face adjacency on
    the periodic torus.

    ``wrap_lattice`` holds primitive, linearly independent integer vectors
    spanning the directions along which some component connects to its own
    periodic translates; ``rank`` is their count.
    """

    labels: np.ndarray
    num_components: int
    wrap_lattice: tuple
    rank: int


def torus_components(mask):
    occ = mask.occupancy if isinstance(mask, CellMask) else np.asarray(mask, dtype=bool)
    shape = occ.shape
    d = occ.ndim
    labels = np.full(shape, -1, dtype=np.int64)
    lifts = np.zeros(shape + (d,), dtype=np.int64)
    wraps = set()
    comp = 0
    shape_arr = np.array(shape, dtype=np.int64)

    starts = zip(*np.nonzero(occ))
    for start in starts:
        if labels[start] != -1:
            continue
        labels[start] = comp
        lifts[start] = 0
        queue = deque([start])
        while queue:
            c = queue.popleft()
            lc = lifts[c]
            for a in range(d):
                for step in (1, -1):
                    nb = list(c)
                    nb[a] += step
                    if nb[a] == shape[a]:
                        nb[a] = 0
                    elif nb[a] < 0:
                        nb[a] = shape[a] - 1
                    nb = tuple(nb)
                    if not occ[nb]:
                        continue
                    if labels[nb] == -1:
                        labels[nb] = comp
                        lifts[nb] = lc
                        lifts[nb + (a,)] += step
                        queue.append(nb)
                    else:
                        diff = lc.copy()
                        diff[a] += step
                        diff -= lifts[nb]
                        if diff.any():
                            z = diff // shape_arr
                            wraps.add(tuple(int(w) for w in z))
        comp += 1

    basis = _lattice_basis(wraps, d)
    labels.flags.writeable = False
    return TorusComponents(labels=labels, num_components=comp,
                           wrap_lattice=tuple(basis), rank=len(basis))


def _lattice_basis(vectors, dim):
    """Echelon basis of the integer span of ``vectors``, normalized so each
    generator is primitive with positive leading entry."""
    work = [list(v) for v in sorted(set(vectors)) if any(v)]
    basis = []
    for col in range(dim):
        while True:
            nz = [r for r in work if r[col] != 0]
            if not nz:
                break
            pivot = min(nz, key=lambda r: abs(r[col]))
            clean = True
            for r in work:
                if r is pivot or r[col] == 0:
                    continue
                q = r[col] // pivot[col]
                for j in range(dim):
                    r[j] -= q * pivot[j]
                if r[col] != 0:
                    clean = False
            if clean:
                basis.append(list(pivot))
                work = [r for r in work if r is not pivot and any(r)]
                break
    out = []
    for b in basis:
        g = 0
        for x in b:
            g = math.gcd(g, abs(x))
        b = [x // g for x in b]
        lead = next(x for x in b if x != 0)
        if lead < 0:
            b = [-x for x in b]
        out.append(tuple(b))
    return out


# -- oscillating slab domains -------------------------------------------------

@dataclass(frozen=True)
class DomainMask:
    """Occupancy of a slab bounded by the oscillating surfaces.

    Cells of omega x (-eps, eps), occupied iff |x_n| < eps * f(x_alpha/delta).
    """

    dims: tuple
    occupancy: np.ndarray
    epsilon: float
    delta: float
    omega: tuple
    spacings: tuple
    fraction: float


def oscillating_domain_mask(profile, eps, delta, grid, *, omega=None):
    """Build the slab occupancy mask; ``grid`` lists cells per axis, vertical last.

    The in-plane grid must resolve the oscillation: at least 4 cells per
    delta-period on every in-plane axis, otherwise a ResolutionError names
    the required minimum.
    """
    if eps <= 0 or delta <= 0:
        raise ConfigurationError(f"eps and delta must be positive; got {eps}, {delta}")
    d = profile.dim
    grid = tuple(int(g) for g in grid)
    if len(grid) != d + 1:
        raise ConfigurationError(
            f"grid must give {d + 1} cell counts (in-plane axes then vertical); got {grid}"
        )
    if omega is None:
        omega = tuple((0.0, 1.0) for _ in range(d))
    omega = tuple((float(lo), float(hi)) for lo, hi in omega)

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
    return DomainMask(dims=grid, occupancy=occ, epsilon=float(eps), delta=float(delta),
                      omega=omega, spacings=spac,
                      fraction=float(occ.sum()) / occ.size)
