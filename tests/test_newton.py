"""The inexact Newton solve of the p > 2 cell problems: its tangent, its
agreement with the gradient-only descent on every solve path, and which
densities take it."""

import numpy as np
import pytest

from filmhom import ConfigurationError, EnergyDensity, Profile
from filmhom import cell_solver
from filmhom.cell_solver import minimize_periodic
from filmhom.film import w_tilde
from filmhom.homogenize import w_hom, w_hom_cube_oracle
from filmhom.profiles import superlevel_mask

KINDS = ["p_norm_power", "frobenius_power"]


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


def test_stress_derivative_only_for_norm_powers(rng):
    G = rng.uniform(-1, 1, (1, 3, 5))
    Wq = EnergyDensity.quadratic_form(np.diag([1.0, 2.0, 3.0]), 1, 3)
    Wc = EnergyDensity.custom(lambda F: float(np.sum(F ** 4)), p=4.0, m=1, n=3,
                              gamma=0.1, beta=10.0)
    for W in (Wq, Wc):
        with pytest.raises(ConfigurationError):
            W.cell_stress_derivative(G)


def _both(monkeypatch, solve):
    """(solve(), solve() with the p > 2 solves routed through the
    gradient-only descent)."""
    newton = solve()
    calls = []

    def descent(gradient, tangent, x0, gtol, maxiter):
        calls.append(gtol)
        return (*cell_solver._accelerated_descent(gradient, x0, gtol, maxiter), 0)

    with monkeypatch.context() as patch:
        patch.setattr(cell_solver, "_newton_pcg", descent)
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
    assert "inner PCG iterations" in a.report.notes
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
def test_newton_matches_descent_free_offset(monkeypatch, product2, kind, m):
    W = getattr(EnergyDensity, kind)(3.0, m, 3)
    Fbar = np.random.default_rng(m).uniform(-1, 1, (m, 2))
    a, b = _both(monkeypatch, lambda: w_tilde(product2, W, 0.6, Fbar, n_grid=16))
    assert a[2] and b[2]
    assert a[0] == pytest.approx(b[0], abs=1e-9)
    # W is even in the column, so the argmin is exactly 0 on both
    assert np.all(a[1] == 0.0) and np.all(b[1] == 0.0)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m", [1, 2])
def test_newton_free_column_from_nonzero_start(monkeypatch, checker2, kind, m):
    # a start away from the argmin exercises the column block of the
    # preconditioner, rebuilt from the tangent at every step
    occ = superlevel_mask(checker2, 0.6, 16).occupancy
    W = getattr(EnergyDensity, kind)(3.0, m, 3)
    F = np.random.default_rng(m).uniform(-1, 1, (m, 3))
    (a, ca, ra), (b, cb, rb) = _both(monkeypatch, lambda: minimize_periodic(
        occ, W, F, want_corrector=False, free_offset=True))
    assert ra.method == "newton" and ra.converged and rb.converged
    assert a == pytest.approx(b, abs=1e-9)
    assert np.abs(ca.offset[:, -1]).max() < 1e-3


@pytest.mark.parametrize("make,method", [
    (lambda: EnergyDensity.p_norm_power(3.0, 1, 2), "newton"),
    (lambda: EnergyDensity.frobenius_power(4.0, 1, 2), "newton"),
    (lambda: EnergyDensity.p_norm_power(1.5, 1, 2), "descent"),
    (lambda: EnergyDensity.frobenius_power(1.5, 1, 2), "descent"),
    (lambda: EnergyDensity.custom(lambda F: float(np.sum(F * F) ** 1.5), p=3.0,
                                  m=1, n=2, gamma=0.1, beta=10.0), "descent"),
    (lambda: EnergyDensity.p_norm_power(2.0, 1, 2), "cg"),
], ids=["p_norm3", "frobenius4", "p_norm1.5", "frobenius1.5", "custom3", "p_norm2"])
def test_method_follows_density(make, method):
    # Newton for the norm powers with p > 2; the descent for p < 2, whose
    # smoothed tangent grows like eps^(p-2) at zero columns, and for custom
    # densities, which have no analytic tangent
    mask = np.random.default_rng(3).uniform(size=(6, 6)) < 0.6
    _, _, report = minimize_periodic(
        mask, make(), [[0.8, 0.5]], want_corrector=False,
        opts=cell_solver.SolverOptions(max_iterations=5))
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
