import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from filmhom import (ConfigurationError, DimensionMismatchError, EnergyDensity,
                     Profile, SolveReport, SolverOptions, minimize_dirichlet,
                     minimize_periodic)
import filmhom.cell_solver as cell_solver
from filmhom.cell_solver import (_cell_gradient, _cell_gradient_adjoint, _Grid,
                                 _MaskedProblem, _solve_masked)
from filmhom.profiles import superlevel_mask

from conftest import (active_nodes, forced_periodic_solve, periodic_grid,
                      stripe_mask)


def reference_mean_energy(mask, W, F, v):
    """Cell-by-cell evaluation of the discrete energy through the public
    density only: the oracle side of the brute-force checks."""
    F = np.asarray(F, dtype=float)
    m = v.shape[0]
    d = mask.ndim
    total = 0.0
    for idx in np.ndindex(*mask.shape):
        if not mask[idx]:
            continue
        G = np.empty((m, d))
        for a in range(d):
            nb = list(idx)
            nb[a] = (nb[a] + 1) % mask.shape[a]
            G[:, a] = (v[(slice(None),) + tuple(nb)] - v[(slice(None),) + idx]) \
                * mask.shape[a]
        total += W.evaluate(F + G)
    return total / mask.size


def brute_force_quadratic_minimum(mask, W, F):
    """Assemble the quadratic form by probing the reference energy with unit
    vectors and solve the stationarity system densely (lstsq handles the
    constant-per-component null space)."""
    m = W.m
    shape = (m,) + mask.shape
    nvars = int(np.prod(shape))

    def energy(flat):
        return reference_mean_energy(mask, W, F, flat.reshape(shape))

    e0 = energy(np.zeros(nvars))
    eye = np.eye(nvars)
    e_plus = np.array([energy(eye[i]) for i in range(nvars)])
    e_minus = np.array([energy(-eye[i]) for i in range(nvars)])
    b = (e_plus - e_minus) / 2.0
    K = np.empty((nvars, nvars))
    for i in range(nvars):
        for j in range(i, nvars):
            eij = energy(eye[i] + eye[j])
            K[i, j] = K[j, i] = eij - e_plus[i] - e_plus[j] + e0
    sol, *_ = np.linalg.lstsq(K, -b, rcond=None)
    return energy(sol)


def test_gradient_adjoint_identity(rng):
    grid = _Grid(cells=(4, 5, 3), spacings=(0.25, 0.1, 2.0), kinds="PNP")
    v = rng.standard_normal((2,) + grid.node_shape)
    P = rng.standard_normal((2, 3) + grid.cells)
    lhs = np.vdot(P, _cell_gradient(grid, v))
    rhs = np.vdot(_cell_gradient_adjoint(grid, P), v)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_full_mask_zero_corrector(W2):
    value, corr, report = minimize_periodic(np.ones((16, 16), bool), W2,
                                            [[1.3, -0.4]])
    assert value == W2.evaluate([[1.3, -0.4]])
    assert np.abs(corr.values).max() == 0.0
    assert report.converged


def test_empty_mask(W2):
    value, corr, report = minimize_periodic(np.zeros((8, 8), bool), W2,
                                            [[1.0, 1.0]])
    assert value == 0.0
    assert report.converged


def test_stripe_corrector_analytic_value(W2):
    # corrector cancels the cross-stripe column; the wrapping column keeps
    # theta * |F_2|^2 = 0.5
    value, corr, report = minimize_periodic(stripe_mask(64), W2, [[1.0, 1.0]])
    assert report.converged
    assert value == pytest.approx(0.5, abs=1e-8)


def test_cg_matches_brute_force_on_random_masks(rng):
    W = EnergyDensity.p_norm_power(2.0, 1, 2)
    for _ in range(3):
        mask = rng.uniform(size=(4, 4)) < 0.6
        if not mask.any():
            continue
        F = rng.uniform(-1, 1, size=(1, 2))
        value, _, report = minimize_periodic(mask, W, F)
        assert report.converged
        ref = brute_force_quadratic_minimum(mask, W, F)
        assert value == pytest.approx(ref, rel=1e-8, abs=1e-10)


def test_quadratic_form_matches_brute_force(rng):
    A = np.diag([1.0, 2.0, 0.5, 3.0])
    A[0, 3] = A[3, 0] = 0.25
    W = EnergyDensity.quadratic_form(A, 2, 2)
    mask = rng.uniform(size=(3, 3)) < 0.7
    mask[0, 0] = True
    F = rng.uniform(-1, 1, size=(2, 2))
    value, _, report = minimize_periodic(mask, W, F)
    assert report.converged
    ref = brute_force_quadratic_minimum(mask, W, F)
    assert value == pytest.approx(ref, rel=1e-8, abs=1e-10)


def test_newton_matches_scipy_p4(rng):
    W = EnergyDensity.p_norm_power(4.0, 1, 2)
    mask = stripe_mask(6, 1.0 / 6, 4.0 / 6)
    F = np.array([[0.8, 0.5]])
    value, _, report = minimize_periodic(mask, W, F)
    assert report.converged

    shape = (1,) + mask.shape
    res = scipy.optimize.minimize(
        lambda flat: reference_mean_energy(mask, W, F, flat.reshape(shape)),
        np.zeros(int(np.prod(shape))), method="BFGS",
        options={"gtol": 1e-10, "maxiter": 2000})
    assert value == pytest.approx(res.fun, rel=1e-6, abs=1e-8)


def test_value_agrees_with_reference_energy(rng, W2):
    mask = rng.uniform(size=(5, 5)) < 0.7
    mask[2, 2] = True
    F = np.array([[0.3, -0.9]])
    value, corr, report = minimize_periodic(mask, W2, F)
    assert report.converged
    again = reference_mean_energy(mask, W2, F, np.asarray(corr.values))
    assert value == pytest.approx(again, rel=1e-12, abs=1e-14)


def test_translation_invariance(W2, rng):
    mask = stripe_mask(16)
    F = np.array([[0.7, 0.2]])
    base, _, _ = minimize_periodic(mask, W2, F)
    for shift in ((3, 0), (0, 5), (7, 2)):
        rolled = np.roll(mask, shift, axis=(0, 1))
        val, _, _ = minimize_periodic(rolled, W2, F)
        assert val == pytest.approx(base, abs=1e-10)


def test_value_convex_in_F(W2, rng):
    mask = stripe_mask(12)
    for _ in range(5):
        F = rng.uniform(-1, 1, size=(1, 2))
        G = rng.uniform(-1, 1, size=(1, 2))
        vF, _, _ = minimize_periodic(mask, W2, F)
        vG, _, _ = minimize_periodic(mask, W2, G)
        vM, _, _ = minimize_periodic(mask, W2, (F + G) / 2)
        assert vM <= (vF + vG) / 2 + 1e-8


def test_value_p_homogeneous(rng):
    W = EnergyDensity.p_norm_power(2.0, 1, 2)
    mask = stripe_mask(12)
    F = np.array([[0.9, 0.4]])
    v1, _, _ = minimize_periodic(mask, W, F)
    for lam in (2.0, -1.5, 0.3):
        v2, _, _ = minimize_periodic(mask, W, lam * F)
        assert v2 == pytest.approx(abs(lam) ** 2 * v1, rel=1e-8)


def test_zero_corrector_upper_bound(rng, W2):
    for _ in range(5):
        mask = rng.uniform(size=(8, 8)) < 0.5
        if not mask.any():
            continue
        F = rng.uniform(-1, 1, size=(1, 2))
        value, _, _ = minimize_periodic(mask, W2, F)
        theta = mask.mean()
        assert value <= theta * W2.evaluate(F) + 1e-12


def test_value_nonincreasing_under_mask_shrink(stripe2, W2):
    # nested masks from rising levels: the value can only drop
    from filmhom import superlevel_mask
    F = np.array([[0.6, 0.8]])
    values = []
    for t in (0.1, 0.55, 0.7, 0.85):
        mask = superlevel_mask(stripe2, t, 32)
        v, _, _ = minimize_periodic(mask, W2, F)
        values.append(v)
    assert all(b <= a + 1e-8 for a, b in zip(values, values[1:]))


def test_corrector_stays_zero_on_inactive_nodes(W2):
    # stripes wind along their rows, so they are solved; nodes that no
    # occupied cell reaches keep the zero they start from
    one = stripe_mask(16)
    two = stripe_mask(16, 0.1, 0.3) | stripe_mask(16, 0.6, 0.8)
    for mask in (one, two):
        _, corr, report = minimize_periodic(mask, W2, [[1.0, 0.0]])
        assert report.method == "cg"
        v = np.asarray(corr.values)
        active = active_nodes(periodic_grid(mask), mask)
        assert np.abs(v[0][~active]).max() == 0.0


def test_nonconvergence_reported(W2, checker2):
    # checkerboard squares coupled at their corners wind along (1, -1), so
    # they are solved, and one preconditioned iteration does not settle
    # them (a stripe would be solved exactly in one)
    from filmhom import superlevel_mask
    mask = superlevel_mask(checker2, 0.5, 32)
    opts = SolverOptions(max_iterations=1)
    value, _, report = minimize_periodic(mask, W2, [[1.0, 0.5]], opts=opts)
    assert not report.converged
    assert np.isfinite(value)


def test_p_below_two_smoothed(rng):
    W = EnergyDensity.p_norm_power(1.5, 1, 2)
    value, _, report = minimize_periodic(stripe_mask(16), W, [[1.0, 1.0]],
                                         opts=SolverOptions(max_iterations=5000))
    assert "smoothed" in report.notes
    # theta * W(0, 1): the corrector removes the cross-stripe column
    assert value == pytest.approx(0.5, abs=1e-6)


def test_dirichlet_full_mask_identity(W2):
    value, report = minimize_dirichlet(np.ones((8, 8), bool), W2, [[1.1, -0.7]], 1)
    assert report.converged
    assert value == pytest.approx(W2.evaluate([[1.1, -0.7]]), abs=1e-12)


def test_dirichlet_stripe_decreasing_in_box_side(W2):
    n = 16
    base = stripe_mask(n)[:, 0]
    values = []
    for T in (1, 2, 4):
        tiled = np.tile(base, T)[:, None] & np.ones(T * n, bool)[None, :]
        v, report = minimize_dirichlet(tiled, W2, [[1.0, 0.0]], T)
        assert report.converged
        values.append(v)
    assert values[2] <= values[1] <= values[0]
    # derived cushion: the box value decays toward the periodic value 0
    assert values[2] <= 1.3 * 0.0 + 0.05


def test_dirichlet_empty_mask(W2):
    value, report = minimize_dirichlet(np.zeros((8, 8), bool), W2, [[1.0, 0.0]], 2)
    assert value == 0.0
    assert report.converged


@pytest.mark.parametrize("box_side", [2.5, True, "2", 0, float("nan")])
def test_dirichlet_rejects_non_integral_box_side(W2, box_side):
    # int() would truncate 2.5 to the side-2 box and solve that
    with pytest.raises(ConfigurationError, match="box_side"):
        minimize_dirichlet(np.ones((4, 4), bool), W2, [[1.0, 0.0]], box_side)


def test_dirichlet_accepts_integral_float_box_side(W2):
    assert (minimize_dirichlet(np.ones((4, 4), bool), W2, [[1.0, 0.0]], 2.0)
            == minimize_dirichlet(np.ones((4, 4), bool), W2, [[1.0, 0.0]], 2))


@pytest.mark.parametrize("mask", [np.zeros((4, 4), bool), np.ones((4, 4), bool),
                                  superlevel_mask(Profile.builtin("sin2-product", 2),
                                                  0.7, 4)],
                         ids=["empty", "full", "islands"])
def test_offset_checked_before_short_paths(W2, mask):
    # an empty mask and islands that do not wind are not solved; the offset
    # is checked all the same
    F = [[1.0, 2.0, 3.0, 4.0, 5.0]]
    with pytest.raises(DimensionMismatchError):
        minimize_periodic(mask, W2, F)
    with pytest.raises(DimensionMismatchError):
        minimize_dirichlet(mask, W2, F, 1)


def test_offset_narrower_than_the_mask_refused(W2):
    # W and F for 1x2 matrices on a cell of three axes
    with pytest.raises(DimensionMismatchError, match="F has 2 columns, fewer than mask's 3 axes"):
        minimize_periodic(np.ones((4, 4, 4), bool), W2, [[1.0, 0.0]])


def test_nonconvex_custom_density_warns():
    # double-well in the first entry: allowed here, warned, local minimum only
    def well(G):
        return (G[0, 0] ** 2 - 1.0) ** 2 + G[0, 1] ** 2

    W = EnergyDensity.custom(well, p=4.0, m=1, n=2,
                             convex=False)
    with pytest.warns(UserWarning, match="non-convex"):
        value, _, report = minimize_periodic(stripe_mask(8), W, [[0.0, 0.0]])
    assert "local minimum" in report.notes
    assert np.isfinite(value)


def test_nonconvex_custom_density_reaches_local_minimum():
    # away from F = 0 the tangent of the double well is indefinite, and the
    # inner CG meets negative curvature at its first direction; Newton then
    # steps along the preconditioned gradient.  The corrector takes the
    # first entry into a well bottom on the stripe, leaving the mean of
    # F[0, 1]^2 over the occupied half
    def well(G):
        return (G[0, 0] ** 2 - 1.0) ** 2 + G[0, 1] ** 2

    W = EnergyDensity.custom(well, p=4.0, m=1, n=2,
                             convex=False)
    with pytest.warns(UserWarning, match="non-convex"):
        value, _, report = minimize_periodic(stripe_mask(8), W, [[0.3, 0.2]])
    assert report.method == "newton" and report.converged
    assert value == pytest.approx(0.02, abs=1e-9)


def test_newton_builds_one_preconditioner_per_step(monkeypatch):
    # on the double well CG stops at its first direction on some steps, and
    # the preconditioned gradient step reuses the preconditioner CG built
    builds = []
    precond = _MaskedProblem.precond

    def counted(self, DS):
        builds.append(1)
        return precond(self, DS)

    monkeypatch.setattr(_MaskedProblem, "precond", counted)
    W = EnergyDensity.custom(lambda G: (G[0, 0] ** 2 - 1.0) ** 2 + G[0, 1] ** 2,
                             p=4.0, m=1, n=2, convex=False)
    with pytest.warns(UserWarning, match="non-convex"):
        _, _, report = minimize_periodic(stripe_mask(8), W, [[0.3, 0.2]])
    assert report.converged
    assert len(builds) == report.iterations == 7


def test_cold_cg_applies_the_operator_once_per_iteration(monkeypatch):
    # CG starts from x = 0, whose residual is the rhs itself: one adjoint
    # for the rhs and one per iteration, no apply at the start.  The value
    # is pinned to the bit, since r = b - K 0 = b leaves every iterate as
    # it is.  The islands do not wind, so the solve is forced.  Their 36
    # pendant nodes leave the solve: it took 26 iterations with them
    calls = []

    def counted(grid, P):
        calls.append(1)
        return _cell_gradient_adjoint(grid, P)

    monkeypatch.setattr(cell_solver, "_cell_gradient_adjoint", counted)
    W = EnergyDensity.p_norm_power(2.0, 1, 3)
    occ = superlevel_mask(Profile.builtin("sin2-product", dim=2), 0.6, 32)
    value, _, report = forced_periodic_solve(occ, W, [[1.0, 0.5, 0.2]])
    assert report.method == "cg" and report.converged
    assert len(calls) == report.iterations + 1 == 16
    assert value == 0.016406250000000004


def test_one_dimensional_periodic_solves():
    W1 = EnergyDensity.p_norm_power(2.0, 1, 1)
    full = np.ones(16, bool)
    v, _, rep = minimize_periodic(full, W1, [[1.5]])
    assert rep.converged and v == 2.25
    # a non-wrapping interval: the sawtooth corrector cancels the gradient
    centers = (np.arange(16) + 0.5) / 16
    interval = (centers > 0.25) & (centers < 0.75)
    v, _, rep = minimize_periodic(interval, W1, [[1.5]])
    assert rep.converged and v == pytest.approx(0.0, abs=1e-12)


def test_three_dimensional_periodic_solve(W2):
    W = EnergyDensity.p_norm_power(2.0, 1, 3)
    mask = np.ones((6, 6, 6), bool)
    mask[2:4, 2:4, :] = False
    F = np.array([[0.0, 0.0, 1.0]])
    v, _, rep = minimize_periodic(mask, W, F)
    assert rep.converged
    # the pillar hole does not obstruct the vertical direction
    assert v == pytest.approx(mask.mean(), abs=1e-10)


def _cubic(m, n):
    return EnergyDensity.custom(lambda G: np.sum(G * G, axis=(0, 1)) ** 1.5,
                                p=3.0, m=m, n=n)


_FULL_DENSITIES = {
    **{f"{kind}-{p}": (lambda m, n, kind=kind, p=p:
                       getattr(EnergyDensity, kind)(p, m, n))
       for kind in ("p_norm_power", "frobenius_power") for p in (2.0, 3.0, 1.5)},
    "quadratic_form": lambda m, n: EnergyDensity.quadratic_form(
        np.diag(np.arange(1.0, m * n + 1)), m, n),
    "custom": _cubic,
}


def _over_densities_and_shapes(test):
    """Run ``test`` for every density, offset mode, m and dimension."""
    test = pytest.mark.parametrize("shape", [(8,), (6, 6), (4, 4, 4)],
                                   ids=["1d", "2d", "3d"])(test)
    test = pytest.mark.parametrize("m", [1, 2])(test)
    return pytest.mark.parametrize("density, free_offset", [
        (name, free) for name in sorted(_FULL_DENSITIES) for free in (False, True)
        # the free column of the other densities need not minimize at zero
        if not free or "_power-" in name])(test)


@_over_densities_and_shapes
def test_full_mask_value_is_exact_without_a_solve(density, free_offset, m, shape):
    # periodic differences sum to zero along every axis, so by Jensen no
    # corrector beats v = 0: the value is W(F), with the free columns
    # zeroed for the norm powers, which no other column beats
    d = len(shape)
    W = _FULL_DENSITIES[density](m, d + 1)
    occ = np.ones(shape, bool)
    F = np.random.default_rng(m).uniform(-1, 1, (m, d + 1))
    value, corr, report = minimize_periodic(occ, W, F, free_offset=free_offset)
    G = F.copy()
    if free_offset:
        G[:, d:] = 0.0
    assert value == W.evaluate(G)
    assert report == SolveReport(0, 0.0, True, "full")
    assert not np.any(corr.values) and corr.values.shape == (m,) + shape
    assert np.array_equal(corr.offset, G)
    solved, _, forced = forced_periodic_solve(occ, W, F, free_offset=free_offset)
    assert forced.converged
    assert value == pytest.approx(solved, abs=1e-12)


@_over_densities_and_shapes
def test_empty_mask_value_is_exact_without_a_solve(density, free_offset, m, shape):
    # no occupied cell carries energy, so the value is 0 whatever the
    # field; F comes back as given, the free columns included, since no
    # offset does better than another
    d = len(shape)
    W = _FULL_DENSITIES[density](m, d + 1)
    occ = np.zeros(shape, bool)
    F = np.random.default_rng(m).uniform(-1, 1, (m, d + 1))
    value, corr, report = minimize_periodic(occ, W, F, free_offset=free_offset)
    assert value == 0.0
    assert report == SolveReport(0, 0.0, True, "empty")
    assert not np.any(corr.values) and corr.values.shape == (m,) + shape
    assert not corr.values.flags.writeable and not corr.offset.flags.writeable
    assert np.array_equal(corr.offset, F)
    solved, _, forced = forced_periodic_solve(occ, W, F, free_offset=free_offset)
    assert forced.converged
    assert solved == 0.0


def _nonconvex_custom(m, n):
    return EnergyDensity.custom(lambda G: (G[0, 0] ** 2 - 1.0) ** 2
                                + np.sum(G * G, axis=(0, 1)),
                                p=4.0, m=m, n=n,
                                convex=False)


@pytest.mark.parametrize("density, free_offset", [
    (_nonconvex_custom, False),
    (_FULL_DENSITIES["quadratic_form"], True),
    (_cubic, True),
], ids=["nonconvex-custom", "quadratic_form-free", "custom-free"])
def test_full_mask_keeps_solving_where_jensen_does_not_settle_it(density, free_offset):
    # a non-convex density may do better than v = 0, and the free column of
    # a density other than a norm power need not minimize at zero
    W = density(1, 3)
    with warnings.catch_warnings():
        # the non-convex density warns that it finds a local minimum only
        warnings.simplefilter("ignore", UserWarning)
        value, _, report = minimize_periodic(np.ones((6, 6), bool), W,
                                             [[0.3, 0.2, 0.5]],
                                             free_offset=free_offset)
    assert report.method in ("cg", "newton") and report.converged
    assert np.isfinite(value)


def _unwound_masks():
    # masks whose node graph does not wind: islands in 1-3 dimensions
    yield superlevel_mask(Profile.builtin("sin2-stripe", dim=1), 0.7, 16)
    yield superlevel_mask(Profile.builtin("sin2-product", dim=2), 0.6, 16)
    yield superlevel_mask(Profile.builtin("sin2-product", dim=3), 0.6, 8)


@pytest.mark.parametrize("kind", ["p_norm_power", "frobenius_power"])
@pytest.mark.parametrize("p", [2.0, 3.0, 1.5])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("free_offset", [False, True])
def test_unwound_value_matches_forced_solve(kind, p, m, free_offset):
    # without a winding, v = -F x on each node component's lift cancels the
    # in-plane columns, so the exact value is theta W(F) with those columns
    # (and the free ones) zeroed; the forced solve is its reference
    for occ in _unwound_masks():
        d = occ.ndim
        W = getattr(EnergyDensity, kind)(p, m, d + 1)
        F = np.random.default_rng(m).uniform(-1, 1, (m, d + 1))
        exact, ce, re = minimize_periodic(occ, W, F, free_offset=free_offset)
        solved, cs, rs = forced_periodic_solve(occ, W, F, free_offset=free_offset)
        assert re == SolveReport(iterations=0, residual=0.0, converged=True,
                                 method="unwound")
        assert rs.method in ("cg", "newton") and rs.converged
        assert not np.any(ce.values)
        assert exact == pytest.approx(solved, abs=1e-10)
        assert exact <= solved + 1e-15
        G = F.copy()
        G[:, :d] = 0.0
        if free_offset:
            G[:, d:] = 0.0
            assert not np.any(ce.offset[:, d:])
            assert np.abs(cs.offset[:, d:]).max() < 1e-3
        else:
            assert np.array_equal(ce.offset, F)
        assert exact == occ.mean() * W.evaluate(G)


@pytest.mark.parametrize("W", [
    EnergyDensity.quadratic_form(np.diag([1.0, 2.0, 3.0]), 1, 3),
    EnergyDensity.custom(lambda G: np.sum(G * G, axis=(0, 1)) ** 1.5,
                         p=3.0, m=1, n=3),
], ids=["quadratic_form", "custom"])
def test_other_densities_keep_solving_without_a_winding(W):
    occ = superlevel_mask(Profile.builtin("sin2-product", dim=2), 0.6, 16)
    value, _, report = minimize_periodic(occ, W, [[1.0, 0.5, 0.2]])
    assert report.method in ("cg", "newton") and report.iterations > 0
    assert report.converged and np.isfinite(value)


_CORNERS = superlevel_mask(Profile.builtin("checkerboard", 2), 0.5, 16)
_BRANCHES = {
    "empty": (np.zeros((6, 6), bool), 2.0),
    "full": (np.ones((6, 6), bool), 2.0),
    "unwound": (superlevel_mask(Profile.builtin("sin2-product", 2), 0.6, 16), 2.0),
    "cg": (_CORNERS, 2.0),
    "newton": (_CORNERS, 3.0),
}


@pytest.mark.parametrize("free_offset", [False, True])
@pytest.mark.parametrize("method", sorted(_BRANCHES))
def test_result_contract_on_every_branch(method, free_offset):
    # every branch returns the node field's full shape (the benchmark trace
    # counts corr.values.size as unknowns), read-only, and the offset that
    # the value belongs to: the given F, with the free columns minimized
    # under free_offset
    occ, p = _BRANCHES[method]
    m, d = 2, occ.ndim
    W = EnergyDensity.p_norm_power(p, m, d + 1)
    F = np.random.default_rng(7).uniform(-1, 1, (m, d + 1))
    value, corr, report = minimize_periodic(occ, W, F, free_offset=free_offset)
    assert report.method == method and report.converged
    assert report.factorizations == 0
    assert (report.inner_iterations > 0) == (method == "newton")
    grid = periodic_grid(occ)
    assert corr.values.shape == (m,) + grid.node_shape
    assert not corr.values.flags.writeable and not corr.offset.flags.writeable
    assert np.array_equal(corr.offset[:, :d], F[:, :d])
    if not free_offset or method == "empty":
        assert np.array_equal(corr.offset, F)
    G = _cell_gradient(grid, np.asarray(corr.values), d + 1)
    G += corr.offset.reshape((m, d + 1) + (1,) * d)
    at_field = float(np.sum(W.cell_values(G) * occ)) / occ.size
    if method == "unwound":
        # the field is zero, not the minimizer: the value is theta W of the
        # offset with its in-plane columns zeroed
        at_field = occ.mean() * W.evaluate(np.hstack([np.zeros((m, d)),
                                                     corr.offset[:, d:]]))
    assert value == pytest.approx(at_field, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("kind", ["p_norm_power", "frobenius_power"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("m", [1, 2])
def test_norm_power_free_columns_are_the_fixed_solve(kind, p, m):
    # zeroing a column never raises a norm power, so the free columns are
    # fixed at 0 and the result is, bit for bit, that of the solve with
    # those columns given as 0; an empty mask leaves F as it is.  With the
    # in-plane columns of F at 0 as well, a p = 3 tangent is 0 in every
    # cell, so the node scale would have no positive entry: F = 0 and the
    # gradient is zero
    cases = ((_CORNERS, "newton" if p != 2.0 else "cg"),
             (_BRANCHES["unwound"][0], "unwound"),
             (_BRANCHES["full"][0], "full"),
             (_BRANCHES["empty"][0], "empty"))
    for (occ, method), plane in itertools.product(cases, (1.0, 0.0)):
        d = occ.ndim
        W = getattr(EnergyDensity, kind)(p, m, d + 1)
        F = np.random.default_rng(m).uniform(-1, 1, (m, d + 1))
        F[:, :d] *= plane
        fixed = F.copy()
        if method != "empty":
            fixed[:, d:] = 0.0
        value, corr, report = minimize_periodic(occ, W, F, free_offset=True)
        want, want_corr, want_report = minimize_periodic(occ, W, fixed)
        assert report.method == method and report.converged
        assert np.float64(value).tobytes() == np.float64(want).tobytes()
        assert report == want_report
        assert np.array_equal(corr.values, want_corr.values)
        assert np.array_equal(corr.offset, fixed)
        if not plane:
            assert value == 0.0


_B = np.random.default_rng(5).uniform(-1.0, 1.0, (6, 6))
_QUADRATIC = EnergyDensity.quadratic_form(_B @ _B.T + np.eye(6), 2, 3)


@pytest.mark.parametrize("W", [EnergyDensity.p_norm_power(3.0, 2, 3), _QUADRATIC],
                         ids=["p3", "quadratic_form"])
@pytest.mark.parametrize("cells, kinds, free_offset", [
    ((4, 3), "PP", True), ((4, 3), "DN", False), ((3, 3, 2), "DDD", False)])
def test_masked_problem_gradient_and_tangent_match_differences(W, cells, kinds,
                                                               free_offset):
    # the assembled gradient, with the sums over the free columns and the
    # frozen nodes projected out, against central differences of the
    # energy, and the Hessian apply against differences of that gradient
    rng = np.random.default_rng(len(kinds))
    grid = _Grid(cells=cells, spacings=tuple(1.0 / c for c in cells), kinds=kinds)
    mask = rng.random(cells) < 0.7
    problem = _MaskedProblem(grid, mask, W, rng.uniform(-1.0, 1.0, (2, 3)),
                             free_offset)
    size = problem.nv + 2 * (3 - problem.fixed)
    assert (size > problem.nv) == free_offset
    x, u = rng.uniform(-1.0, 1.0, (2, size))
    h = 1e-6
    want = np.array([(problem.energy(x + h * e) - problem.energy(x - h * e)) / (2 * h)
                     for e in np.eye(size)])
    if "D" in kinds:
        want[:problem.nv][np.tile(~problem.select.ravel(), 2)] = 0.0
    g = problem.gradient(x)
    assert np.allclose(g, want, rtol=1e-6, atol=1e-7 * np.abs(want).max())
    apply_H, _ = problem.tangent(problem.lift(x))
    want = (problem.gradient(x + h * u) - problem.gradient(x - h * u)) / (2 * h)
    Hu = apply_H(u)
    assert np.allclose(Hu, want, rtol=1e-6, atol=1e-7 * np.abs(want).max())


@st.composite
def pendant_problems(draw):
    """A random masked norm-power problem on a grid of kinds P/D/N, axes of
    length 1 (self-loops) and 2 (parallel edges) included."""
    d = draw(st.integers(1, 3))
    cells = tuple(draw(st.lists(st.integers(1, 5 if d < 3 else 3), min_size=d,
                                max_size=d)))
    kinds = "".join(draw(st.lists(st.sampled_from("PDN"), min_size=d, max_size=d)))
    mask = np.array(draw(st.lists(st.booleans(), min_size=math.prod(cells),
                                  max_size=math.prod(cells)))).reshape(cells)
    m, n = draw(st.integers(1, 2)), d + draw(st.integers(0, 1))
    W = getattr(EnergyDensity, draw(st.sampled_from(["p_norm_power", "frobenius_power"])))(
        draw(st.sampled_from([1.5, 2.0, 3.0, 4.0])), m, n)
    F = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=m * n,
                               max_size=m * n))).reshape(m, n)
    grid = _Grid(cells=cells, spacings=tuple(1.0 / c for c in cells), kinds=kinds)
    return grid, mask, W, F, n > d and draw(st.booleans())


def _line_problem(kinds, mask, p):
    cells = (len(mask),)
    return (_Grid(cells=cells, spacings=(1.0 / cells[0],), kinds=kinds),
            np.array(mask, bool), EnergyDensity.p_norm_power(p, 1, 2),
            np.array([[0.7, -0.4]]), False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pendant_problems())
# d = 1: a run whose two ends are pendant, the base of its edge at one end,
# and an isolated cell, both ends of one edge pendant
@example(_line_problem("N", [0, 1, 1, 1, 0], 3.0))
@example(_line_problem("P", [0, 0, 1, 0, 0], 1.5))
def test_pendant_elimination_matches_the_full_problem(problem):
    # the solve without its pendant nodes against the same solve with them,
    # both at a tight tolerance: the same value, a returned field whose
    # energy is that value, and the same cell gradients.  For p > 2 the full
    # problem's tangent vanishes along the pendant columns, so its field
    # there is settled only to about grad_tol^(1/(p-1))
    grid, mask, W, F, free_offset = problem
    assume(_MaskedProblem(grid, mask, W, F, free_offset).pendant is not None)
    opts = SolverOptions(grad_tol=1e-12, cg_rtol=1e-13)
    fields = []
    for eliminate in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            if not eliminate:
                patch.setattr(cell_solver, "_pendant_nodes", lambda grid, *_: (
                    np.zeros((1,) + grid.node_shape, bool), None))
            Fs = F.copy()
            value, v, report = _solve_masked(grid, mask, W, Fs, opts, free_offset)
        assert report.converged
        G = _cell_gradient(grid, v, W.n) + Fs.reshape(Fs.shape + (1,) * grid.dim)
        energy = grid.cell_volume * sum(W.evaluate(G[(...,) + c])
                                        for c in zip(*np.nonzero(mask)))
        assert energy == pytest.approx(value, rel=1e-12, abs=1e-14)
        fields.append((value, G[..., mask]))
    (value, G), (reference, G_ref) = fields
    assert value == pytest.approx(reference, rel=1e-12, abs=1e-14)
    tol = 1e-9 if W.p <= 2.0 else 10.0 * opts.grad_tol ** (1.0 / (W.p - 1.0))
    assert np.abs(G - G_ref).max(initial=0.0) <= tol


@pytest.mark.parametrize("cells, kinds, mask, want", [
    ((1,), "P", [[1]], []),                 # a self-loop: degree 2
    ((2,), "P", [[1, 1]], []),              # two parallel edges
    ((2,), "P", [[1, 0]], [0, 1]),          # one edge, both ends pendant
    ((3,), "D", [[1, 0, 0]], [1]),          # a frozen end is never pendant
    ((3,), "N", [[1, 0, 0]], [0, 1]),
    ((1, 3), "PN", [[1, 0, 0]], [1]),       # self-loops along axis 0
    ((2, 2), "PP", [[1, 0], [0, 0]], [1, 2]),
])
def test_pendant_nodes_of_small_graphs(cells, kinds, mask, want):
    grid = _Grid(cells=cells, spacings=tuple(1.0 / c for c in cells), kinds=kinds)
    mask = np.array(mask, bool).reshape(cells)
    degree = cell_solver._node_degree(grid, mask)
    select = (degree[0] > 0) & ~cell_solver._frozen_ends(grid)
    pendant, columns = cell_solver._pendant_nodes(grid, mask, degree, select)
    assert np.flatnonzero(pendant).tolist() == want
    assert columns.any() == bool(want)
