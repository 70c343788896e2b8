"""The union-find torus connectivity against a breadth-first reference, and
the exactness of the thresholds it sweeps out."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filmhom import Profile, superlevel_mask, thresholds, torus_components
from filmhom.profiles import _lattice_basis


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
        assert torus_components(superlevel_mask(profile, t, n)).rank <= d - k
        assert torus_components(superlevel_mask(profile, lower, n)).rank > d - k


def test_thresholds_zero_when_the_rank_is_never_reached():
    # isolated peaks on a zero floor: {f > 0} never wraps
    values = np.zeros((8, 8))
    values[2, 2] = 1.0
    values[5, 5] = 0.5
    rep = thresholds(Profile.sampled(values), 8, confirm=False)
    assert rep.thresholds == (0.0, 0.0)
    assert [iv.wrap_rank for iv in rep.intervals] == [0]
