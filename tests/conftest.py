import numpy as np
import pytest

from filmhom import CorrectorField, EnergyDensity, Profile
from filmhom.cell_solver import _Grid, _node_degree, _solve_masked


@pytest.fixture
def product2():
    return Profile.builtin("sin2-product", dim=2)


@pytest.fixture
def stripe2():
    return Profile.builtin("sin2-stripe", dim=2)


@pytest.fixture
def stripe1():
    return Profile.builtin("sin2-stripe", dim=1)


@pytest.fixture
def checker2():
    return Profile.builtin("checkerboard", dim=2)


@pytest.fixture
def flat2():
    return Profile.constant(2)


@pytest.fixture
def W2():
    return EnergyDensity.p_norm_power(2.0, 1, 2)


@pytest.fixture
def W3():
    return EnergyDensity.p_norm_power(2.0, 1, 3)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def stripe_mask(n, lo=0.25, hi=0.75):
    """Occupied iff the first coordinate's cell center lies in (lo, hi)."""
    centers = (np.arange(n) + 0.5) / n
    band = (centers > lo) & (centers < hi)
    return band[:, None] & np.ones(n, bool)[None, :]


def periodic_grid(mask):
    """The periodic grid of a unit-cell mask, as ``minimize_periodic``
    builds it: its nodes are the cells."""
    return _Grid(cells=mask.shape, spacings=tuple(1.0 / c for c in mask.shape),
                 kinds="P" * mask.ndim)


def active_nodes(grid, mask):
    """The nodes some occupied cell touches: those of positive degree."""
    return _node_degree(grid, mask)[0] > 0


def forced_periodic_solve(mask, W, F, opts=None, free_offset=False):
    """``_solve_masked`` on the periodic grid of ``mask``: the solve that
    ``minimize_periodic`` skips where its value is exact without one (a full
    mask, or a node graph that does not wind), kept as the independent
    reference for those values.  Returns (value, corrector, report) like
    ``minimize_periodic``; under ``free_offset`` the corrector's offset
    holds the minimizing F."""
    mask = np.asarray(mask, dtype=bool)
    F = np.array(F, dtype=float, ndmin=2)
    value, v, report = _solve_masked(periodic_grid(mask), mask, W, F, opts,
                                     free_offset=free_offset)
    return value, CorrectorField(values=v, offset=F), report
