"""The inexact Newton solve of the non-quadratic cell problems: its
tangent, its agreement with an independent gradient-only descent on every
solve path, and which densities take it."""

import math

import numpy as np
import pytest

from conftest import stripe_mask
from filmhom import EnergyDensity, Profile
from filmhom import cell_solver
from filmhom.cell_solver import minimize_periodic
from filmhom.film import w_tilde
from filmhom.homogenize import psi, w_hom, w_hom_cube_oracle
from filmhom.profiles import superlevel_mask

KINDS = ["p_norm_power", "frobenius_power"]


def reference_descent(gradient, x0, gtol, maxiter):
    """Nesterov-accelerated gradient descent with backtracking and gradient
    restarts, the reference minimizer of the Newton tests; it evaluates no
    energy, only gradients.

    A step from y is accepted once grad(cand) . grad(y) >= 0: the derivative
    along the line is still <= 0 at the candidate (for a quadratic this is
    Armijo with c = 1/2), otherwise the step halves.  Momentum restarts when
    grad(y) . (cand - x) > 0.  Returns (x, iterations, |g|, converged)."""
    x = x0.copy()
    gx = gradient(x)
    y, gy = x, gx
    t = 1.0
    step = 1.0
    it = 0
    while it < maxiter:
        gxn = float(np.linalg.norm(gx))
        if gxn <= gtol:
            return x, it, gxn, True
        if gy is None:
            gy = gradient(y)
        while True:
            cand = y - step * gy
            gc = gradient(cand)
            if float(np.vdot(gc, gy)) >= 0.0:
                break
            step *= 0.5
            if step < 1e-20:
                return x, it, gxn, False  # no descent left along -grad(y)
        it += 1
        moved = cand - x
        if float(np.vdot(gy, moved)) > 0.0:
            # momentum points uphill: restart from the candidate
            y, gy, t = cand, gc, 1.0
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y, gy = cand + ((t - 1.0) / t_new) * moved, None
            t = t_new
        x, gx = cand, gc
        step *= 1.25
    gxn = float(np.linalg.norm(gx))
    return x, it, gxn, gxn <= gtol


def _cells_with_zeros(rng, m, n):
    """Random per-cell matrices, shape (m, n, 4, 3), with a zero column in
    some cells and an all-zero cell."""
    G = rng.uniform(-1, 1, (m, n, 4, 3))
    G[:, 0, 1, :] = 0.0
    G[:, 2, 2, 1] = 0.0
    G[:, :, 3, 2] = 0.0
    return G


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", [3.0, 4.0])
@pytest.mark.parametrize("m", [1, 2])
def test_stress_derivative_matches_central_differences(rng, kind, p, m):
    n = 3
    W = getattr(EnergyDensity, kind)(p, m, n)
    G = _cells_with_zeros(rng, m, n)
    DS = W.cell_stress_derivative(G)
    h = 1e-7          # at a zero column the difference is off by about h |H|^2
    for _ in range(4):
        H = rng.uniform(-1, 1, G.shape)
        fd = (W.cell_stress(G + h * H) - W.cell_stress(G - h * H)) / (2 * h)
        assert np.allclose(DS(H), fd, rtol=1e-6, atol=1e-6)
    # at a zero cell the tangent vanishes for p > 2 (no 0 * inf)
    assert np.all(DS(H)[:, :, 3, 2] == 0.0)
    assert np.all(np.isfinite(DS(H)))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", [3.0, 4.0])
@pytest.mark.parametrize("m", [1, 2])
def test_stress_derivative_symmetric(rng, kind, p, m):
    W = getattr(EnergyDensity, kind)(p, m, 3)
    G = _cells_with_zeros(rng, m, 3)
    DS = W.cell_stress_derivative(G)
    H1, H2 = rng.uniform(-1, 1, (2,) + G.shape)
    # per cell, <H1, DS H2> = <H2, DS H1>
    lhs = np.sum(H1 * DS(H2), axis=(0, 1))
    rhs = np.sum(H2 * DS(H1), axis=(0, 1))
    assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-14)


def _cube_norm_grad(G):
    return 3.0 * np.sqrt(np.sum(G * G, axis=(0, 1))) * G


def _custom_cube_norm(grad):
    """W(F) = |F|^3 as a custom density, with or without its gradient."""
    return EnergyDensity.custom(lambda G: np.sum(G * G, axis=(0, 1)) ** 1.5,
                                p=3.0, m=1, n=3, grad=grad)


@pytest.mark.parametrize("W", [
    EnergyDensity.quadratic_form(np.diag([1.0, 2.0, 3.0]), 1, 3),
    EnergyDensity.p_norm_power(2.0, 1, 3),
    _custom_cube_norm(_cube_norm_grad),
    _custom_cube_norm(None),
], ids=["quadratic_form", "p_norm2", "custom_grad", "custom_fd"])
def test_other_tangents_match_central_differences(rng, W):
    # a quadratic density is its own tangent; a custom one is a one-sided
    # difference of its stress, accurate to about the difference step
    # (1e-6 relative) with an analytic gradient, and to about the
    # gradient's rounding over that step (1e-10 / 1e-6) without one
    G = rng.uniform(-1, 1, (1, 3, 4, 3))
    G[:, :, 3, 2] = 0.0
    DS = W.cell_stress_derivative(G)
    if W.is_quadratic:
        assert DS == W.cell_stress
    h = 1e-4
    for _ in range(4):
        H = rng.uniform(-1, 1, G.shape)
        fd = (W.cell_stress(G + h * H) - W.cell_stress(G - h * H)) / (2 * h)
        assert np.allclose(DS(H), fd, rtol=1e-3, atol=1e-3)
    # linear in H up to the difference error, and 0 where H is
    H[:, :, 0, 0] = 0.0
    assert np.allclose(DS(2.0 * H), 2.0 * DS(H), rtol=1e-3, atol=1e-3)
    assert np.all(DS(H)[:, :, 0, 0] == 0.0)


def test_custom_density_newton_matches_builtin(checker2):
    # the custom |F|^3 without a gradient: the stress is a central
    # difference of the values and the tangent a difference of the stress,
    # yet Newton reaches the builtin's minimum
    F = np.array([[0.5, -0.7, 0.9]])
    a = w_hom(checker2, 0.6, F, _custom_cube_norm(None), 16)
    b = w_hom(checker2, 0.6, F, EnergyDensity.frobenius_power(3.0, 1, 3), 16)
    assert a.report.method == b.report.method == "newton"
    assert a.report.converged and b.report.converged
    assert a.value == pytest.approx(b.value, abs=1e-9)


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("grad", [None, _cube_norm_grad], ids=["fd", "grad"])
def test_batched_custom_twin_matches_builtin(checker2, n, grad):
    # the batched custom |F|^3 evaluates the builtin's arithmetic on the
    # whole stack; its difference stress and tangent land on the same
    # minimum to rounding
    F = np.array([[1.0, 0.5, 0.2]])
    a = w_hom(checker2, 0.5, F, _custom_cube_norm(grad), n)
    b = w_hom(checker2, 0.5, F, EnergyDensity.frobenius_power(3.0, 1, 3), n)
    assert a.report.converged and b.report.converged
    assert a.value == pytest.approx(b.value, rel=1e-12)


def _route_through_descent(patch, calls):
    """Route the Newton solves through reference_descent, recording each
    in ``calls``."""
    def descent(gradient, tangent, x0, gtol, maxiter):
        calls.append(gtol)
        return (*reference_descent(gradient, x0, gtol, maxiter), 0)

    patch.setattr(cell_solver, "_newton_pcg", descent)


def _both(monkeypatch, solve):
    """(solve(), solve() with the Newton solves routed through the
    gradient-only reference descent)."""
    newton = solve()
    calls = []
    with monkeypatch.context() as patch:
        _route_through_descent(patch, calls)
        reference = solve()
    assert calls
    return newton, reference


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("profile", ["sin2-stripe", "checkerboard"])
def test_newton_matches_descent_periodic(monkeypatch, kind, profile):
    prof = Profile.builtin(profile, dim=2)
    W = getattr(EnergyDensity, kind)(3.0, 1, 3)
    F = np.array([[0.5, -0.7, 0.9]])
    a, b = _both(monkeypatch, lambda: w_hom(prof, 0.6, F, W, 16))
    assert a.report.method == "newton"
    assert a.report.converged and b.report.converged
    assert a.report.inner_iterations > 0
    assert a.value == pytest.approx(b.value, abs=1e-9)


@pytest.mark.parametrize("kind", KINDS)
def test_newton_matches_descent_dirichlet(monkeypatch, checker2, kind):
    W = getattr(EnergyDensity, kind)(3.0, 1, 3)
    F = np.array([[0.5, -0.7, 0.9]])
    (a, ra), (b, rb) = _both(
        monkeypatch, lambda: w_hom_cube_oracle(checker2, 0.6, F, W, 1, 8))
    assert ra.method == "newton"
    assert ra.converged and rb.converged
    assert a == pytest.approx(b, abs=1e-9)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m", [1, 2])
def test_newton_matches_descent_free_offset(monkeypatch, checker2, kind, m):
    # the checkerboard's node graph winds through its corner contacts, so
    # the column is solved for (on product islands it is exactly 0 unsolved)
    W = getattr(EnergyDensity, kind)(3.0, m, 3)
    Fbar = np.random.default_rng(m).uniform(-1, 1, (m, 2))
    a, b = _both(monkeypatch, lambda: w_tilde(checker2, W, 0.6, Fbar, n_grid=16))
    assert a[2] and b[2]
    assert a[0] == pytest.approx(b[0], abs=1e-9)
    # W is even in the column, so the argmin is exactly 0 on both
    assert np.all(a[1] == 0.0) and np.all(b[1] == 0.0)


def test_custom_free_column_alone_keeps_unscaled_preconditioner(checker2):
    # flat in the in-plane columns near 0, so the tangent of those columns
    # is 0 in every cell and the node scale has no positive entry: the
    # field block stays unscaled while the free column goes to its argmin 1
    def fn(G):
        plane = np.sqrt(np.sum(G[:, :2] ** 2, axis=(0, 1)))
        return np.maximum(plane - 1.0, 0.0) ** 2 + np.sum((G[:, 2:] - 1.0) ** 2, axis=(0, 1))

    W = EnergyDensity.custom(fn, p=2.0, m=1, n=3)
    occ = superlevel_mask(checker2, 0.5, 16)
    value, corr, report = minimize_periodic(occ, W, [[0.0, 0.0, 0.5]],
                                            free_offset=True)
    assert report.method == "newton" and report.converged and report.iterations > 0
    assert value == pytest.approx(0.0, abs=1e-12)
    assert corr.offset[0, -1] == pytest.approx(1.0, abs=1e-4)


def test_custom_free_column_from_nonzero_start(monkeypatch, checker2):
    # the custom |F|^3 keeps its free column an unknown: a start away from
    # the argmin exercises the column block of the preconditioner, rebuilt
    # from the tangent at every step
    occ = superlevel_mask(checker2, 0.6, 16)
    F = np.random.default_rng(1).uniform(-1, 1, (1, 3))
    (a, ca, ra), (b, cb, rb) = _both(monkeypatch, lambda: minimize_periodic(
        occ, _custom_cube_norm(_cube_norm_grad), F, free_offset=True))
    assert ra.method == "newton" and ra.converged and rb.converged
    assert ra.inner_iterations > 0
    assert a == pytest.approx(b, abs=1e-9)
    assert 0.0 < np.abs(ca.offset[:, -1]).max() < 1e-3


@pytest.mark.parametrize("make,method", [
    (lambda: EnergyDensity.p_norm_power(3.0, 1, 2), "newton"),
    (lambda: EnergyDensity.frobenius_power(4.0, 1, 2), "newton"),
    (lambda: EnergyDensity.p_norm_power(1.5, 1, 2), "newton"),
    (lambda: EnergyDensity.frobenius_power(1.5, 1, 2), "newton"),
    (lambda: EnergyDensity.custom(lambda G: np.sum(G * G, axis=(0, 1)) ** 1.5,
                                  p=3.0, m=1, n=2), "newton"),
    (lambda: EnergyDensity.p_norm_power(2.0, 1, 2), "cg"),
], ids=["p_norm3", "frobenius4", "p_norm1.5", "frobenius1.5", "custom3", "p_norm2"])
def test_method_follows_density(make, method):
    # CG where the stress is linear, Newton for every other density: p < 2
    # runs on the smoothed tangent, which grows like eps^(p-2) at zero
    # columns, and custom densities on a difference of their stress
    mask = np.random.default_rng(3).uniform(size=(6, 6)) < 0.6
    _, _, report = minimize_periodic(
        mask, make(), [[0.8, 0.5]], opts=cell_solver.SolverOptions(max_iterations=5))
    assert report.method == method


def test_newton_step_cap_reports_nonconvergence(checker2):
    W = EnergyDensity.p_norm_power(3.0, 1, 3)
    F = np.array([[1.0, 0.5, 0.2]])
    sample = w_hom(checker2, 0.5, F, W, 16,
                   opts=cell_solver.SolverOptions(max_iterations=1))
    assert sample.report.method == "newton"
    assert sample.report.iterations == 1
    assert sample.report.converged is False


def test_newton_last_step_not_oversolved(stripe2):
    # one of the 60 random probes: the forcing asked its third inner CG for
    # a residual of 1.8e-18, below rounding; CG then ran along the null
    # space of the constants, the field grew to 1e12 and lost its digits,
    # and the solve stalled at |g| = 3.8e-3.  The tolerance floor
    # 0.5 gtol / |g| ends it in three steps.
    W = EnergyDensity.frobenius_power(3.0, 1, 3)
    F = np.array([[-0.1674587140150674, -0.996395292786362, 0.5880621215510085]])
    sample = w_hom(stripe2, 0.5694597540465792, F, W, 24)
    assert sample.report.method == "newton"
    assert sample.report.converged
    assert sample.report.iterations <= 5


def test_benchmark_whom_setting_work_counters(monkeypatch, checker2):
    # the nontrivial solves of the benchmark's whom step: w_hom and the split
    # psi at t = 0.5 for F = (1, 0.5, 0.2) and the seed-0 random probe.  With
    # the unscaled preconditioner and alpha <= 1 they took 1089 inner CG
    # iterations; the tangent-scaled one and the line search past alpha = 1
    # took 407, and with the pendant nodes eliminated they take 119
    W = EnergyDensity.p_norm_power(3.0, 1, 3)
    probes = [np.array([[1.0, 0.5, 0.2]]),
              np.random.default_rng(0).uniform(-1.0, 1.0, (1, 3))]

    def solves():
        return [solve for F in probes
                for solve in (w_hom(checker2, 0.5, F, W, 32),
                              psi(checker2, 0.5, F, 32, p=3.0))]

    newton, reference = _both(monkeypatch, solves)
    assert all(s.report.method == "newton" and s.report.converged for s in newton)
    assert sum(s.report.inner_iterations for s in newton) <= 150
    for a, b in zip(newton, reference):
        assert b.report.converged
        assert a.value == pytest.approx(b.value, abs=1e-9)


def test_line_search_steps_past_one_on_a_pure_power():
    # phi(x) = sum |x_i - c_i|^3: the Newton step halves every x_i - c_i,
    # and the line minimum is at alpha = p - 1 = 2, the exact minimizer.  A
    # search that stops at alpha = 1 gains only a factor 4 in |g| per step
    c = np.linspace(-1.0, 2.0, 7)
    evaluated = []

    def gradient(x):
        evaluated.append(x.copy())
        s = x - c
        return 3.0 * np.abs(s) * s

    def tangent(x):
        curvature = 6.0 * np.abs(x - c)
        return (lambda u: curvature * u,
                lambda: lambda r, out: np.divide(r, curvature, out=out))

    x0 = np.full(7, 5.0)
    x, steps, gn, converged, inner = cell_solver._newton_pcg(
        gradient, tangent, x0, 1e-10, 50)
    assert converged and steps == 1 and inner == 1
    # the trials of the one step: the unit step, then alpha = 2
    assert np.allclose(evaluated[1], (x0 + c) / 2, rtol=0.0, atol=1e-12)
    assert np.allclose(evaluated[2], c, rtol=0.0, atol=1e-12)
    assert np.array_equal(x, evaluated[2])


def _identity_tangent(scale=1.0):
    """tangent(x) of the Hessian scale * I, preconditioned by the identity."""
    return lambda x: (lambda u: scale * u,
                      lambda: lambda r, out: np.positive(r, out=out))


def test_line_search_takes_the_last_descent_point_at_a_rounded_bracket():
    # phi' = -1 before alpha = 1.5 and 1e20 after: regula falsi in [1, 2]
    # rounds to alpha = 1, the last trial with phi' < 0
    evaluated = []

    def gradient(y):
        evaluated.append(y.copy())
        return np.array([-1.0 if y[0] < 1.5 else 1e20])

    cand, g = cell_solver._line_search(gradient, np.zeros(1), np.ones(1), -1.0)
    assert len(evaluated) == 2
    assert cand[0] == 1.0 and g[0] == -1.0


def test_line_search_spends_its_trials_on_a_sign_flipping_gradient():
    # phi' alternates -1, +1, ...: no trial is accepted, no bracket rounds,
    # and the last trial with phi' < 0 is returned
    evaluated = []

    def gradient(y):
        evaluated.append(y.copy())
        return np.array([1.0 if len(evaluated) % 2 == 0 else -1.0])

    cand, g = cell_solver._line_search(gradient, np.zeros(1), np.ones(1), -1.0)
    assert len(evaluated) == cell_solver._LINE_SEARCH_TRIALS
    assert np.array_equal(cand, evaluated[-2]) and g[0] == -1.0


def test_newton_stops_without_a_descent_direction():
    # M = -I makes r . M r < 0: CG takes no step, and the fallback -M g is
    # an ascent direction
    def tangent(x):
        return (lambda u: u, lambda: lambda r, out: np.negative(r, out=out))

    x0 = np.array([1.0, -2.0])
    x, steps, gn, converged, inner = cell_solver._newton_pcg(
        lambda y: y.copy(), tangent, x0, 1e-10, 50)
    assert not converged and (steps, inner) == (0, 0)
    assert np.array_equal(x, x0) and gn == pytest.approx(math.sqrt(5.0))


def test_newton_stops_when_the_line_search_accepts_no_point(monkeypatch):
    monkeypatch.setattr(cell_solver, "_line_search", lambda *args: None)
    x0 = np.array([1.0, -2.0])
    x, steps, gn, converged, inner = cell_solver._newton_pcg(
        lambda y: y.copy(), _identity_tangent(), x0, 1e-10, 50)
    assert not converged and (steps, inner) == (0, 1)
    assert np.array_equal(x, x0)


def test_newton_stops_at_a_step_below_rounding():
    # a tangent 1e30 times too stiff: the Newton step -g / 1e30 leaves x = 1
    # unchanged, at every trial of the line search
    x0 = np.ones(1)
    x, steps, gn, converged, inner = cell_solver._newton_pcg(
        lambda y: y.copy(), _identity_tangent(1e30), x0, 1e-10, 50)
    assert not converged and (steps, inner) == (0, 1)
    assert np.array_equal(x, x0) and gn == 1.0


def _pendant_stripe(n):
    """The stripe of rows 1/6 < x < 4/6 with one pendant cell below it."""
    mask = stripe_mask(n, 1.0 / 6, 4.0 / 6)
    mask[np.nonzero(mask[:, 0])[0][-1] + 1, 0] = True
    return mask


@pytest.mark.parametrize("mask", [
    np.random.default_rng(3).uniform(size=(6, 6)) < 0.6,
    _pendant_stripe(6), _pendant_stripe(8), _pendant_stripe(12),
], ids=["random6", "stripe6", "stripe8", "stripe12"])
def test_p15_small_masks_converge(monkeypatch, mask):
    # the gradient descent stopped unconverged at its default cap on these
    # masks (residuals 7.4e-5 to 4.5e-4); Newton converges, at the value the
    # descent reaches with a far larger cap
    W = EnergyDensity.p_norm_power(1.5, 1, 2)
    F = [[0.8, 0.5]]
    value, _, report = minimize_periodic(mask, W, F)
    assert report.method == "newton" and report.converged
    calls = []
    with monkeypatch.context() as patch:
        _route_through_descent(patch, calls)
        reference, _, ref_report = minimize_periodic(
            mask, W, F, opts=cell_solver.SolverOptions(max_iterations=200000))
    assert calls and ref_report.converged
    assert value == pytest.approx(reference, abs=1e-10)


def _square(G):
    return np.sum(G * G, axis=(0, 1))


def _stress_nan_past(G):
    """2 G, and NaN in the cells where |G| > 1.5."""
    big = np.sqrt(np.sum(G * G, axis=(0, 1))) > 1.5
    return np.where(big, np.nan, 2.0 * G)


def test_non_finite_gradient_is_not_converged(checker2):
    # a NaN |g| ended `while |g| > gtol` at once, read as converged
    mask = superlevel_mask(checker2, 0.5, 16)
    W = EnergyDensity.custom(_square, p=2.0, m=1, n=2,
                             grad=_stress_nan_past)
    value, _, report = minimize_periodic(mask, W, [[2.0, 0.5]])
    assert value == 2.125 and report.iterations == 0 and math.isnan(report.residual)
    assert not report.converged and "non-finite" in report.notes
    W3 = EnergyDensity.custom(_square, p=2.0, m=1, n=3,
                              grad=_stress_nan_past)
    sample = w_hom(checker2, 0.5, [[2.0, 0.5, 0.2]], W3, 16)
    assert sample.value == pytest.approx(2.145)
    assert not sample.report.converged and "non-finite" in sample.report.notes


def test_non_finite_exact_value_is_not_converged():
    # the full-mask branch takes W(F) with no solve; a NaN there is no value
    W = EnergyDensity.custom(lambda G: np.where(_square(G) > 1.0, np.nan, _square(G)),
                             p=2.0, m=1, n=2, convex=True)
    value, _, report = minimize_periodic(np.ones((4, 4), bool), W, [[2.0, 0.5]])
    assert report.method == "full" and math.isnan(value)
    assert not report.converged and "non-finite" in report.notes
    value, _, report = minimize_periodic(np.ones((4, 4), bool), W, [[0.5, 0.5]])
    assert report.converged and report.notes == "" and value == 0.5
