"""The joint solve over corrector and transverse column against a nested
search reference, and the exact argmin it finds where symmetry pins it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filmhom import (EnergyDensity, Profile, SolverOptions, minimize_periodic,
                     superlevel_mask, w_bar, w_tilde)
from filmhom.profiles import node_graph_winds

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
XTOL = 1e-6
# the nested search is solved ten times tighter than the agreement it is
# held to: its coordinate descent stops on a sweep's move, and with coupled
# columns a move below XTOL still leaves it about XTOL from the argmin
REF_XTOL = XTOL / 10
# Newton's default stop leaves up to about 1e-12 in a p = 3 value on islands,
# where w_tilde is exactly 0 (docs/kernel_geometry.md); the reference's
# solves stop a hundred times tighter in the gradient, below 1e-15 there
REF_OPTS = SolverOptions(grad_tol=1e-10)


# -- reference: golden-section over the column, coordinate descent for m > 1 --


def golden_section(fn, lo, hi, xtol):
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    return (c, fc) if fc <= fd else (d, fd)


def expanding_min(fn, half_width, xtol, max_expand=40):
    """Golden-section on [-B, B]; the bracket doubles whenever the minimizer
    lands at an edge (convexity plus growth guarantee termination)."""
    lo, hi = -half_width, half_width
    x, fx = golden_section(fn, lo, hi, xtol)
    for _ in range(max_expand):
        width = hi - lo
        if x <= lo + 0.02 * width:
            lo -= width
        elif x >= hi - 0.02 * width:
            hi += width
        else:
            return x, fx
        x, fx = golden_section(fn, lo, hi, xtol)
    return x, fx


def reference_w_tilde(profile, W, t, Fbar, n_grid, xtol=REF_XTOL, max_sweeps=60):
    """The minimum over the column b of the fixed-column value V(b), each V
    a cylinder solve.  For a quadratic W, V is exactly quadratic in b (a
    Schur complement), so its fit through 1 + 2m + m(m-1)/2 columns at unit
    spacing gives the argmin -H^-1 g.  Otherwise a nested search:
    golden-section over each column entry, cyclic over the entries.  Each
    V is solved: asking for the corrector keeps the exact value of a mask
    whose node graph does not wind (docs/kernel_geometry.md) out of the
    reference."""
    Fbar = np.asarray(Fbar, dtype=float)
    m = Fbar.shape[0]
    occ = superlevel_mask(profile, t, n_grid).occupancy

    def value(col):
        F = np.hstack([Fbar, np.reshape(col, (m, 1))])
        val, _, report = minimize_periodic(occ, W, F, opts=REF_OPTS)
        assert report.converged
        return val

    if W.is_quadratic:
        return quadratic_argmin(value, m)
    half_width = 2.0 * (1.0 + float(np.linalg.norm(Fbar)))
    col = np.zeros(m)
    for _ in range(max_sweeps):
        moved = 0.0
        for c in range(m):
            def line(s, c=c):
                trial = col.copy()
                trial[c] = s
                return value(trial)

            x, fx = expanding_min(line, max(half_width, abs(col[c]) + 1.0), xtol)
            moved = max(moved, abs(x - col[c]))
            col[c] = x
        if m == 1 or moved <= xtol:
            return fx, col
    return fx, col


def quadratic_argmin(value, m):
    """(value at the argmin, argmin) of a quadratic V(b) on R^m, from its
    values at 0, at +-e_i and at e_i + e_j (i < j)."""
    e = np.eye(m)
    v0 = value(np.zeros(m))
    plus = [value(e[i]) for i in range(m)]
    minus = [value(-e[i]) for i in range(m)]
    g = np.array([(p - q) / 2.0 for p, q in zip(plus, minus)])
    H = np.diag([p - 2.0 * v0 + q for p, q in zip(plus, minus)])
    for i in range(m):
        for j in range(i + 1, m):
            H[i, j] = H[j, i] = value(e[i] + e[j]) - plus[i] - plus[j] + v0
    argmin = -np.linalg.solve(H, g)
    return value(argmin), argmin


# -- joint solve against the reference -------------------------------------------------


def seeded_spd(seed, size):
    M = np.random.default_rng(seed).normal(size=(size, size))
    return M @ M.T + 0.5 * np.eye(size)


@st.composite
def film_problems(draw):
    m = draw(st.sampled_from([1, 2]))
    profile = Profile.builtin(
        draw(st.sampled_from(["sin2-stripe", "sin2-product", "checkerboard"])), dim=2)
    t = draw(st.sampled_from([0.2, 0.4, 0.6, 0.8]))
    if draw(st.booleans()):
        W = EnergyDensity.quadratic_form(
            seeded_spd(draw(st.integers(0, 2 ** 32 - 1)), 3 * m), m, 3)
    else:
        W = EnergyDensity.p_norm_power(3.0, m, 3)
    Fbar = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * m, max_size=2 * m))
    return profile, W, t, np.reshape(Fbar, (m, 2))


@settings(max_examples=16, deadline=None)
@given(film_problems())
def test_joint_w_tilde_matches_nested_search(problem):
    profile, W, t, Fbar = problem
    value, argmin, converged = w_tilde(profile, W, t, Fbar, n_grid=8)
    ref_value, ref_argmin = reference_w_tilde(profile, W, t, Fbar, 8)
    assert converged
    assert value == pytest.approx(ref_value, rel=1e-8, abs=1e-12)
    if W.is_quadratic:
        assert np.abs(argmin - ref_argmin).max() <= XTOL
    else:
        # p_norm_power is even in the column, so 0 is the exact argmin; the
        # energy rises only like |b|^3 there, so the search, comparing
        # values, resolves it only to about the cube root of their rounding
        assert argmin.tolist() == [0.0] * W.m
        assert np.abs(ref_argmin).max() <= 1e-4


def test_joint_w_tilde_coupled_column_off_zero(stripe2):
    # a form coupling both columns of each component to the transverse one
    # moves the argmin well away from zero, for m = 1 and m = 2
    for m in (1, 2):
        W = EnergyDensity.quadratic_form(seeded_spd(11 + m, 3 * m), m, 3)
        Fbar = np.tile([[1.0, 0.5]], (m, 1))
        value, argmin, converged = w_tilde(stripe2, W, 0.6, Fbar, n_grid=16)
        ref_value, ref_argmin = reference_w_tilde(stripe2, W, 0.6, Fbar, 16)
        assert converged
        assert np.abs(ref_argmin).max() > 0.05
        assert value == pytest.approx(ref_value, rel=1e-8)
        assert np.abs(argmin - ref_argmin).max() <= XTOL


# -- the symmetric optimum is found exactly --------------------------------------------


@pytest.mark.parametrize("kind", ["p_norm_power", "frobenius_power"])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_symmetric_argmin_is_exactly_zero(product2, checker2, kind, p):
    # W is even in the transverse column, so the column's gradient vanishes
    # identically at 0 and the joint solve never leaves it.  Every mask here
    # winds, so every value is solved: where the node graph does not wind,
    # w_tilde writes the zero column without a solve
    W = getattr(EnergyDensity, kind)(p, 1, 3)
    for profile, t in ((product2, 0.3), (checker2, 0.6)):
        assert node_graph_winds(superlevel_mask(profile, t, 16).occupancy)
        _, argmin, converged = w_tilde(profile, W, t, [[1.0, 0.5]], n_grid=16)
        assert converged
        assert argmin.tolist() == [0.0]
    entry = w_bar(checker2, W, [[1.0, 0.0]], n_grid=16)
    assert entry.converged
    assert all(node_graph_winds(superlevel_mask(checker2, t, 16).occupancy)
               for t in entry.nodes)
    assert all(a.tolist() == [0.0] for a in entry.node_argmins)
