"""The run-based torus connectivity against a breadth-first reference and
the per-edge union-find it replaced, the node graph over runs against the
per-edge union-find over the stencil edges, the wrap lattice read off full
lines and empty layers against the union-find, and the exactness of the
thresholds that the bisection finds."""

import math
import os
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filmhom
from filmhom import (EnergyDensity, Profile, minimize_dirichlet, minimize_periodic,
                     superlevel_mask, thresholds, torus_components)
from filmhom import homogenize, profiles
from filmhom.cell_solver import _along
from filmhom.errors import ConfigurationError
from filmhom.profiles import (_lattice_basis, _run_components, _unpack_wrap,
                              _wrap_base, node_graph_winds, wrap_lattice,
                              wrap_rank_levels)

from conftest import active_nodes, periodic_grid


def bfs_torus_components(occ):
    """Reference labelling: breadth-first search over face-adjacent occupied
    cells of the periodic grid, tracking each cell's lift in cell units; an
    edge to an already labelled cell whose lift differs closes a cycle, and
    the difference divided by the grid shape is its winding.

    Returns (labels, num_components, wrap vectors), components numbered in
    C order of their first cell."""
    shape = occ.shape
    d = occ.ndim
    labels = np.full(shape, -1, dtype=np.int64)
    lifts = np.zeros(shape + (d,), dtype=np.int64)
    wraps = set()
    comp = 0
    shape_arr = np.array(shape, dtype=np.int64)
    for start in zip(*np.nonzero(occ)):
        if labels[start] != -1:
            continue
        labels[start] = comp
        queue = deque([start])
        while queue:
            c = queue.popleft()
            for a in range(d):
                for step in (1, -1):
                    nb = list(c)
                    nb[a] = (nb[a] + step) % shape[a]
                    nb = tuple(nb)
                    if not occ[nb]:
                        continue
                    lift = lifts[c].copy()
                    lift[a] += step
                    if labels[nb] == -1:
                        labels[nb] = comp
                        lifts[nb] = lift
                        queue.append(nb)
                    elif (lift != lifts[nb]).any():
                        wraps.add(tuple(int(w) for w in (lift - lifts[nb]) // shape_arr))
        comp += 1
    return labels, comp, wraps


def _face_edges(shape, base, ids):
    """The face edges (c, c + e_a) of a periodic grid with ids a * size + c:
    flat indices of both ends and the packed wrap step, base**a on the edges
    that cross the boundary and 0 elsewhere."""
    axis, cells = np.divmod(ids, math.prod(shape))
    stride = np.array([math.prod(shape[a + 1:]) for a in range(len(shape))])[axis]
    n = np.array(shape)[axis]
    cross = (cells // stride) % n == n - 1
    nbrs = cells + stride - cross * (n * stride)
    steps = cross * np.array([base ** a for a in range(len(shape))])[axis]
    return cells, nbrs, steps


def per_edge_union_find(size, cells, nbrs, steps):
    """Reference union-find with lift offsets over single cells, one face
    edge at a time.  Returns (roots, cycles), cycles listing (position,
    packed winding) for each edge that closes a cycle of nonzero winding."""
    parent = [-1] * size
    offset = [0] * size

    def find(x):
        o = 0
        while parent[x] >= 0:
            o += offset[x]
            x = parent[x]
        return x, o

    cycles = []
    for pos, (u, v, s) in enumerate(zip(cells.tolist(), nbrs.tolist(), steps.tolist())):
        ru, ou = find(u)
        rv, ov = find(v)
        z = ou + s - ov
        if ru == rv:
            if z:
                cycles.append((pos, z))
        elif ru > rv:
            parent[ru], offset[ru] = rv, -z
        else:
            parent[rv], offset[rv] = ru, z
    roots = np.array([find(i)[0] for i in range(size)], dtype=np.int64)
    return roots, cycles


def per_edge_torus_components(occ):
    """Reference labelling: the per-edge union-find over every face edge of
    the occupied cells.  Returns (labels, num_components, wrap lattice)."""
    d = occ.ndim
    base = _wrap_base(occ.size)
    ids = np.concatenate([np.flatnonzero(occ & np.roll(occ, -1, axis=a)) + a * occ.size
                          for a in range(d)])
    roots, cycles = per_edge_union_find(occ.size, *_face_edges(occ.shape, base, ids))
    heads = occ.ravel() & (roots == np.arange(occ.size))
    number = np.cumsum(heads) - 1
    labels = np.where(occ, number[roots].reshape(occ.shape), -1)
    basis = _lattice_basis({_unpack_wrap(z, base, d) for _, z in cycles}, d)
    return labels, int(heads.sum()), tuple(basis)


def per_edge_node_graph(occ):
    """Reference node graph: the per-edge union-find over the stencil edges
    (c, c + e_a) of every occupied cell c, over all nodes of the periodic
    grid, with their wrap steps.  Returns (active nodes, wrap lattice)."""
    d = occ.ndim
    base = _wrap_base(occ.size)
    ids = np.concatenate([np.flatnonzero(occ) + a * occ.size for a in range(d)])
    nodes, nbrs, steps = _face_edges(occ.shape, base, ids)
    _, cycles = per_edge_union_find(occ.size, nodes, nbrs, steps)
    active = np.unique(np.concatenate([nodes, nbrs]))
    basis = _lattice_basis({_unpack_wrap(z, base, d) for _, z in cycles}, d)
    return active, tuple(basis)


def sorted_sweep_wrap_rank_levels(profile, n):
    """Reference thresholds: one per-edge union-find pass over the face
    edges in decreasing level min(f(c), f(c')) > 0, recording the level of
    each edge whose winding leaves the span of the windings before it."""
    values = profile.eval_grid(n)
    d = values.ndim
    base = _wrap_base(values.size)
    level = np.concatenate([np.minimum(values, np.roll(values, -1, axis=a))
                            for a in range(d)], axis=None)
    order = np.argsort(level)[::-1][:np.count_nonzero(level > 0)]
    _, cycles = per_edge_union_find(values.size, *_face_edges(values.shape, base, order))
    rises, span = [], []
    for pos, z in cycles:
        wrap = _unpack_wrap(z, base, d)
        if len(_lattice_basis(span + [wrap], d)) > len(span):
            span.append(wrap)
            rises.append(float(level[order[pos]]))
    return rises


@st.composite
def torus_masks(draw):
    d = draw(st.integers(1, 3))
    max_side = 12 if d < 3 else 6
    shape = tuple(draw(st.integers(2, max_side)) for _ in range(d))
    density = draw(st.sampled_from([0.3, 0.5, 0.6, 0.8, 1.0]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return np.random.default_rng(seed).random(shape) < density


@settings(max_examples=300, deadline=None)
@given(torus_masks())
def test_union_find_matches_bfs_reference(occ):
    labels, num, wraps = bfs_torus_components(occ)
    basis = tuple(_lattice_basis(wraps, occ.ndim))
    comps = torus_components(occ)
    assert np.array_equal(comps.labels, labels)
    assert comps.num_components == num
    assert comps.wrap_lattice == basis
    assert comps.rank == len(basis)


@st.composite
def run_masks(draw):
    """Masks whose rows along the last axis are drawn from full rows, empty
    rows, cyclic runs that may wrap past the row end, pairs of such runs and
    random cells, sides from 1 up: so full-row self-cycles, wrapped runs and
    adjacent run pairs that overlap twice on the circle all occur."""
    d = draw(st.integers(1, 3))
    max_side = 9 if d < 3 else 5
    shape = tuple(draw(st.integers(1, max_side)) for _ in range(d))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    length = shape[-1]
    rows = np.zeros((math.prod(shape[:-1]), length), dtype=bool)
    for row in rows:
        kind = rng.integers(0, 5)
        if kind == 0:
            row[:] = True
        elif kind in (1, 2):
            for _ in range(kind):
                start, size = rng.integers(0, length), rng.integers(1, length + 1)
                row[(start + np.arange(size)) % length] = True
        elif kind == 3:
            row[:] = rng.random(length) < 0.5
    return rows.reshape(shape)


@settings(max_examples=400, deadline=None)
@given(run_masks())
def test_run_labelling_matches_per_edge_union_find(occ):
    labels, num, basis = per_edge_torus_components(occ)
    comps = torus_components(occ)
    assert np.array_equal(comps.labels, labels)
    assert comps.num_components == num
    assert comps.wrap_lattice == basis
    assert comps.rank == len(basis)
    assert wrap_lattice(occ) == basis


def _check_node_graph(occ):
    """Active nodes, windings and the winding test over runs against the
    per-edge union-find over the stencil edges."""
    active, basis = per_edge_node_graph(occ)
    assert np.array_equal(np.flatnonzero(active_nodes(periodic_grid(occ), occ)),
                          active)
    assert tuple(_lattice_basis(_run_components(occ, nodes=True)[2], occ.ndim)) == basis
    assert node_graph_winds(occ) == bool(basis)


@settings(max_examples=400, deadline=None)
@given(run_masks())
def test_node_graph_over_runs_matches_per_edge_union_find(occ):
    _check_node_graph(occ)


@st.composite
def layered_masks(draw):
    """``run_masks`` with one drawn cell layer emptied on each of a drawn
    set of axes, so masks with an empty layer on every axis, on some axes
    and on none all occur."""
    occ = draw(run_masks()).copy()
    for a in range(occ.ndim):
        if draw(st.booleans()):
            occ[_along(a, draw(st.integers(0, occ.shape[a] - 1)))] = False
    return occ


@settings(max_examples=400, deadline=None)
@given(layered_masks())
def test_empty_layer_verdict_matches_union_find(occ):
    # a step across node layers i -> i + 1 of axis a needs an occupied cell
    # in cell layer i, so an empty layer on every axis stops every winding
    assert node_graph_winds(occ) == bool(_run_components(occ, nodes=True)[2])


def test_empty_layer_on_some_axes_still_winds(monkeypatch):
    # rows 2 and 3 are empty, but every column holds a cell and no row is
    # full: the staircase winds along the last axis through the shared node
    # (1, 2) of cells (1, 1) and (0, 2), which only the union-find sees
    occ = np.zeros((4, 4), bool)
    occ[[1, 1, 0, 0, 1], [0, 1, 2, 3, 3]] = True
    calls = []
    monkeypatch.setattr(profiles, "_run_components",
                        lambda *a, **k: calls.append(k) or _run_components(*a, **k))
    assert node_graph_winds(occ)
    assert calls == [{"nodes": True}]
    assert _lattice_basis(_run_components(occ, nodes=True)[2], 2) == [(0, 1)]


@pytest.mark.parametrize("shape", [(1,), (2,), (1, 1), (1, 2), (2, 2), (1, 1, 1),
                                   (1, 2, 2), (2, 1, 2), (2, 2, 2)])
def test_node_graph_on_sides_one_and_two(shape):
    # every mask of these shapes: there two stencil offsets can reach the
    # same cell, each with its own wrap step
    size = math.prod(shape)
    for bits in range(1, 2 ** size):
        _check_node_graph(np.array([bits >> i & 1 for i in range(size)], bool).reshape(shape))


def test_checkerboard_node_graph_winds_through_corners():
    # the squares meet only at corners, so the face graph does not wind,
    # but the stencils of (i, j) and (i + 1, j - 1) share the node (i + 1, j)
    occ = superlevel_mask(Profile.builtin("checkerboard", dim=2), 0.5, 32).occupancy
    assert torus_components(occ).rank == 0
    assert node_graph_winds(occ)
    assert _lattice_basis(_run_components(occ, nodes=True)[2], 2) == [(1, -1)]
    W = EnergyDensity.p_norm_power(2.0, 1, 2)
    value, _, report = minimize_periodic(occ, W, [[1.0, 0.5]])
    assert report.method == "cg" and report.iterations > 0 and report.converged
    assert value > 1e-3


@pytest.mark.parametrize("rows, want", [
    # a run wrapping past the row end over a middle run: they overlap
    # twice on the circle, so the pair closes a cycle along the last axis
    ([[1, 1, 0, 0, 1, 1], [0, 1, 1, 1, 1, 0]], ((0, 1),)),
    # the same rows with a gap: one overlap, no cycle along the last axis
    ([[1, 1, 0, 0, 0, 1], [0, 1, 1, 1, 0, 0]], ()),
    ([[1, 1, 1, 1]], ((0, 1),)),
    ([[1]], ((1, 0), (0, 1))),
    ([[0, 0], [0, 0]], ()),
])
def test_run_labelling_known_windings(rows, want):
    occ = np.array(rows, dtype=bool)
    if occ.size > 1:
        # empty rows below, so nothing wraps along axis 0
        occ = np.vstack([occ, np.zeros((4 - len(occ), occ.shape[1]), bool)])
    comps = torus_components(occ)
    assert comps.wrap_lattice == want
    assert comps.wrap_lattice == per_edge_torus_components(occ)[2]


@pytest.mark.parametrize("occ", [np.array(True), np.zeros((3, 0), bool),
                                 np.zeros((0, 4), bool)])
def test_mask_without_cells_on_an_axis_is_rejected_by_name(occ):
    W, F = EnergyDensity.p_norm_power(2.0, 1, 2), [[1.0, 0.5]]
    for fn in (torus_components, wrap_lattice, node_graph_winds,
               lambda occ: minimize_periodic(occ, W, F),
               lambda occ: minimize_dirichlet(occ, W, F, 1)):
        with pytest.raises(ConfigurationError, match="mask"):
            fn(occ)


@st.composite
def bounded_masks(draw):
    """Random masks of d = 1-3, sides 1-6, with a full line along each of
    a drawn set of axes and then an empty cell layer across each of
    another, so that masks whose full lines and empty layers decide the
    wrap lattice and masks where they do not both occur."""
    d = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 6)) for _ in range(d))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    occ = rng.random(shape) < draw(st.sampled_from([0.2, 0.5, 0.8]))
    for a in range(d):
        if draw(st.booleans()):
            line = [draw(st.integers(0, side - 1)) for side in shape]
            line[a] = slice(None)
            occ[tuple(line)] = True
    for a in range(d):
        if draw(st.booleans()):
            occ[_along(a, draw(st.integers(0, shape[a] - 1)))] = False
    return occ


def _check_wrap_lattice(occ):
    lattice = wrap_lattice(occ)
    assert lattice == tuple(_lattice_basis(_run_components(occ)[2], occ.ndim))
    assert lattice == per_edge_torus_components(occ)[2]


@settings(max_examples=400, deadline=None)
@given(bounded_masks())
def test_wrap_lattice_matches_union_find(occ):
    _check_wrap_lattice(occ)


@pytest.mark.parametrize("shape", [(1,), (2,), (1, 1), (1, 2), (2, 2), (1, 1, 1),
                                   (1, 2, 2), (2, 1, 2), (2, 2, 2)])
def test_wrap_lattice_on_sides_one_and_two(shape):
    size = math.prod(shape)
    for bits in range(2 ** size):
        _check_wrap_lattice(np.array([bits >> i & 1 for i in range(size)], bool).reshape(shape))


def _count_labellings(monkeypatch):
    """The labellings of the face or node graph made from here on, one
    entry per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return _run_components(*args, **kwargs)

    monkeypatch.setattr(profiles, "_run_components", counted)
    return calls


@pytest.mark.parametrize("n, confirm", [(64, False), (128, True)])
def test_benchmark_thresholds_label_no_mask(monkeypatch, n, confirm):
    # the film datum (N = 64, unconfirmed) and the cells datum (N = 128,
    # confirmed): above the floor the product islands leave an empty layer
    # on both axes, and below it the mask is full, so full lines and empty
    # layers decide every bisection probe and both lattices of both kernels
    calls = _count_labellings(monkeypatch)
    solves = []
    monkeypatch.setattr(homogenize, "minimize_periodic",
                        lambda *a, **k: solves.append(a) or minimize_periodic(*a, **k))
    rep = thresholds(Profile.builtin("sin2-product", dim=2), n, confirm=confirm)
    assert calls == [] and solves == []
    assert [iv.wrap_rank for iv in rep.intervals] == [2, 0]


def test_diagonal_band_still_takes_the_union_find(monkeypatch):
    # the band winds along (1, -1): no line along an axis is full and no
    # layer is empty, so only the union-find finds its lattice
    i, j = np.indices((8, 8))
    profile = Profile.sampled(np.where((i + j) % 4 < 2, 1.0, 0.4))
    calls = _count_labellings(monkeypatch)
    assert wrap_rank_levels(profile, 8) == [1.0, 0.4]
    assert calls == [(8, 8)]
    assert wrap_lattice(profile.eval_grid(8) >= 1.0) == ((1, -1),)
    assert len(calls) == 2


@pytest.mark.parametrize("dim, generators", [
    (2, [[(1, 1), (0, 1)], [(1, 0), (0, 1)], [(1, -1), (1, 1)], [(3, 2), (-2, 5)]]),
    (2, [[(2, 2)], [(1, 1), (-3, -3)], [(-1, -1)]]),
    (3, [[(1, 2, 0), (0, 1, 1)], [(1, 3, 1), (1, 1, -1)], [(2, 4, 0), (1, 3, 1), (0, 2, 2)]]),
    (3, [[(0, 0, 2)], [(0, 0, -1)], [(0, 0, 1), (0, 0, 5)]]),
])
def test_lattice_basis_depends_only_on_span(dim, generators):
    bases = {tuple(_lattice_basis(g, dim)) for g in generators}
    assert len(bases) == 1
    (basis,) = bases
    for b in basis:
        lead = next(x for x in b if x)
        assert lead > 0 and np.gcd.reduce(np.abs(b)) == 1


def test_lattice_basis_keeps_known_forms():
    assert _lattice_basis({(0, 1)}, 2) == [(0, 1)]
    assert _lattice_basis({(1, 1), (-2, -2)}, 2) == [(1, 1)]
    assert _lattice_basis({(1, 1), (0, 1)}, 2) == [(1, 0), (0, 1)]
    assert _lattice_basis(set(), 3) == []


def _sampled(values):
    values = np.asarray(values, dtype=float)
    return Profile.sampled(values / values.max())


def _threshold_profiles():
    rng = np.random.default_rng(20261018)
    yield Profile.builtin("sin2-product", dim=2), 32
    yield Profile.builtin("sin2-stripe", dim=2), 32
    yield Profile.builtin("checkerboard", dim=2), 16
    yield Profile.builtin("sin2-stripe", dim=1), 24
    yield Profile.builtin("sin2-product", dim=3), 10
    for d, n in ((1, 12), (2, 12), (2, 16), (3, 6)):
        # few distinct values, so ties between cells are common
        yield _sampled(rng.integers(0, 9, size=(n,) * d).astype(float) + 1.0), n
        yield _sampled(rng.random((n,) * d)), n


@pytest.mark.parametrize("profile, n", list(_threshold_profiles()))
def test_thresholds_are_exact_cell_values(profile, n):
    d = profile.dim
    values = profile.eval_grid(n)
    rep = thresholds(profile, n, confirm=False)
    assert list(rep.thresholds) == sorted(rep.thresholds)
    for k, t in enumerate(rep.thresholds, start=1):
        if not 0.0 < t < 1.0:
            continue
        assert t in values
        below = values[values < t]
        lower = float(below.max()) if below.size else 0.0
        assert torus_components(superlevel_mask(profile, t, n).occupancy).rank <= d - k
        assert torus_components(superlevel_mask(profile, lower, n).occupancy).rank > d - k


def test_thresholds_zero_when_the_rank_is_never_reached():
    # isolated peaks on a zero floor: {f > 0} never wraps
    values = np.zeros((8, 8))
    values[2, 2] = 1.0
    values[5, 5] = 0.5
    rep = thresholds(Profile.sampled(values), 8, confirm=False)
    assert rep.thresholds == (0.0, 0.0)
    assert [iv.wrap_rank for iv in rep.intervals] == [0]


@pytest.mark.parametrize("profile, n", list(_threshold_profiles()) + [
    (Profile.builtin("checkerboard", dim=1), 8),
    (Profile.builtin("checkerboard", dim=3), 6),
    (Profile.builtin("sin2-stripe", dim=3), 6),
])
def test_bisected_levels_match_sorted_sweep(profile, n):
    assert wrap_rank_levels(profile, n) == sorted_sweep_wrap_rank_levels(profile, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(2, 7), st.integers(1, 6),
       st.integers(0, 2 ** 32 - 1))
def test_bisected_levels_match_sorted_sweep_with_ties(d, n, distinct, seed):
    if d == 3:
        n = min(n, 5)
    rng = np.random.default_rng(seed)
    # few distinct values and some zeros, so ties and empty levels are common
    values = rng.integers(0, distinct + 1, size=(n,) * d).astype(float)
    values.flat[0] = distinct
    profile = _sampled(values)
    assert wrap_rank_levels(profile, n) == sorted_sweep_wrap_rank_levels(profile, n)


def _numpy_ma_after(call):
    """What a fresh process prints for ``'numpy.ma' in sys.modules`` after
    ``call``: "True" or "False"."""
    code = f"import sys\n{call}\nprint('numpy.ma' in sys.modules)\n"
    src = str(Path(filmhom.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    return done.stdout.strip()


def test_thresholds_leave_numpy_ma_unimported():
    # plain np.unique imports numpy.ma, which costs about 1 MB of resident memory
    assert _numpy_ma_after(
        "from filmhom import Profile, thresholds\n"
        "thresholds(Profile.builtin('sin2-product', dim=2), 32, confirm=False)") == "False"


def test_default_minimize_periodic_leaves_numpy_ma_unimported():
    # the checkerboard's node graph winds, found by the union-find over the
    # run graph, so the call solves with CG
    assert _numpy_ma_after(
        "from filmhom import EnergyDensity, Profile, minimize_periodic, superlevel_mask\n"
        "occ = superlevel_mask(Profile.builtin('checkerboard', dim=2), 0.5, 32).occupancy\n"
        "minimize_periodic(occ, EnergyDensity.p_norm_power(2.0, 1, 2), [[1.0, 0.5]])") == "False"
