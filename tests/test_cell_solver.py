import numpy as np
import pytest
import scipy.optimize

from filmhom import (EnergyDensity, SolverOptions, minimize_dirichlet,
                     minimize_periodic)
from filmhom.cell_solver import (_active_node_mask, _cell_gradient,
                                 _cell_gradient_adjoint, _Grid,
                                 _stencil_components)

from conftest import stripe_mask


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
    grid = _Grid(cells=(4, 5, 3), spacings=(0.25, 0.1, 2.0),
                 periodic=(True, False, True))
    v = rng.standard_normal((2,) + grid.node_shape)
    P = rng.standard_normal((2, 3) + grid.cells)
    lhs = np.vdot(P, _cell_gradient(grid, v))
    rhs = np.vdot(_cell_gradient_adjoint(grid, P), v)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_full_mask_zero_corrector(W2):
    value, corr, report = minimize_periodic(np.ones((16, 16), bool), W2,
                                            [[1.3, -0.4]])
    assert value == pytest.approx(W2.evaluate([[1.3, -0.4]]), abs=1e-12)
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
        v, _, _ = minimize_periodic(mask.occupancy, W2, F)
        values.append(v)
    assert all(b <= a + 1e-8 for a, b in zip(values, values[1:]))


def test_corrector_gauge_and_frozen_nodes(W2):
    one = stripe_mask(16)
    two = stripe_mask(16, 0.1, 0.3) | stripe_mask(16, 0.6, 0.8)
    for mask, stripes in ((one, 1), (two, 2)):
        _, corr, _ = minimize_periodic(mask, W2, [[1.0, 0.0]])
        v = np.asarray(corr.values)
        grid = _Grid(cells=mask.shape, spacings=(1 / 16, 1 / 16),
                     periodic=(True, True))
        active = _active_node_mask(grid, mask)
        assert np.abs(v[0][~active]).max() == 0.0
        nodes, comp = _stencil_components(grid, mask)
        assert np.array_equal(nodes, np.flatnonzero(active))
        assert len(set(comp)) == stripes
        for c in set(comp):
            assert abs(v[0].ravel()[nodes[comp == c]].mean()) < 1e-12


def test_nonconvergence_reported(W2, product2):
    # product islands need about 25 preconditioned iterations (a stripe
    # would be solved exactly in one)
    from filmhom import superlevel_mask
    mask = superlevel_mask(product2, 0.7, 32).occupancy
    opts = SolverOptions(max_iterations=1)
    value, _, report = minimize_periodic(mask, W2, [[1.0, 1.0]], opts=opts)
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


def test_nonconvex_custom_density_warns():
    # double-well in the first entry: allowed here, warned, local minimum only
    def well(F):
        return float((F[0, 0] ** 2 - 1.0) ** 2 + F[0, 1] ** 2)

    W = EnergyDensity.custom(well, p=4.0, m=1, n=2, gamma=1e-3, beta=10.0,
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
    def well(F):
        return float((F[0, 0] ** 2 - 1.0) ** 2 + F[0, 1] ** 2)

    W = EnergyDensity.custom(well, p=4.0, m=1, n=2, gamma=1e-3, beta=10.0,
                             convex=False)
    with pytest.warns(UserWarning, match="non-convex"):
        value, _, report = minimize_periodic(stripe_mask(8), W, [[0.3, 0.2]])
    assert report.method == "newton" and report.converged
    assert value == pytest.approx(0.02, abs=1e-9)


def test_one_dimensional_periodic_solves():
    W1 = EnergyDensity.p_norm_power(2.0, 1, 1)
    full = np.ones(16, bool)
    v, _, rep = minimize_periodic(full, W1, [[1.5]])
    assert rep.converged and v == pytest.approx(2.25, abs=1e-12)
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
