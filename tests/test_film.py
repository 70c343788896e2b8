import json

import numpy as np
import pytest
import scipy.integrate

from filmhom import (ConfigurationError, EnergyDensity, Profile,
                     QuadratureOptions, UnsupportedFeatureError, direct_min,
                     gamma_check, membrane_min, w_bar, w_hom, w_tilde)


def stripe_theta(t):
    if t <= 0.5:
        return 1.0
    return 1.0 - (2.0 / np.pi) * np.arcsin(np.sqrt(2.0 * t - 1.0))


# -- w_tilde ---------------------------------------------------------------


def test_wtilde_flat_minimizes_transverse(W3):
    value, argmin, converged = w_tilde(Profile.constant(2), W3, 0.4,
                                       [[0.7, -0.2]], n_grid=16)
    assert converged
    assert value == pytest.approx(0.7 ** 2 + 0.2 ** 2, abs=1e-6)
    assert abs(argmin[0]) < 1e-5


def test_wtilde_kernel_interval_vanishes(product2, W3):
    value, argmin, converged = w_tilde(product2, W3, 0.75, [[1.0, 1.0]],
                                       n_grid=32)
    assert converged
    assert value <= 1e-6
    assert abs(argmin[0]) < 1e-4


def test_wtilde_stripe_value(stripe2, W3):
    value, _, converged = w_tilde(stripe2, W3, 0.75, [[1.0, 1.0]], n_grid=64)
    assert converged
    assert value == pytest.approx(stripe_theta(0.75), rel=0.02)


def test_wtilde_rejects_zero_floor(W3):
    prof = Profile.builtin("sin2-product", dim=2, floor=0.0)
    with pytest.raises(ConfigurationError):
        w_tilde(prof, W3, 0.3, [[1.0, 0.0]], n_grid=8)


def test_wtilde_multicomponent_coordinate_descent():
    W = EnergyDensity.p_norm_power(2.0, 2, 3)
    value, argmin, converged = w_tilde(Profile.constant(2), W, 0.2,
                                       [[1.0, 0.0], [0.0, 1.0]], n_grid=8)
    assert converged
    assert value == pytest.approx(2.0, abs=1e-5)
    assert np.abs(argmin).max() < 1e-4


# -- w_bar ------------------------------------------------------------------


def test_wbar_flat(W3):
    entry = w_bar(Profile.constant(2), W3, [[1.0, 1.0]], n_grid=16)
    assert entry.value == pytest.approx(2.0, abs=1e-6)


def test_wbar_product(product2, W3):
    entry = w_bar(product2, W3, [[1.0, 0.0]], n_grid=32)
    assert entry.value == pytest.approx(0.5, rel=0.01)


def test_wbar_stripe_against_scalar_quadrature(stripe2, W3):
    # independent oracle: 1d quadrature of the closed-form theta(t)
    tail, _ = scipy.integrate.quad(stripe_theta, 0.5, 1.0)
    expected = 0.5 + tail
    assert expected == pytest.approx(0.75, abs=1e-9)
    entry = w_bar(stripe2, W3, [[0.0, 1.0]], n_grid=64)
    assert entry.value == pytest.approx(expected, rel=0.01)


def test_wbar_zero_matrix_is_zero(product2, W3):
    entry = w_bar(product2, W3, [[0.0, 0.0]], n_grid=16)
    assert entry.value == pytest.approx(0.0, abs=1e-10)


def test_wbar_uniform_vs_refined(product2, W3):
    # at the default film resolution the center-sampling bias of the
    # discrete threshold is well below the quadrature tolerance
    quad = QuadratureOptions(rel_tol=1e-3, max_refinements=10)
    refined = w_bar(product2, W3, [[1.0, 0.0]], n_grid=64, quad=quad)
    uniform = w_bar(product2, W3, [[1.0, 0.0]], n_grid=64, quad=quad,
                    uniform=True)
    rel = abs(refined.value - uniform.value) / max(abs(refined.value), 1e-12)
    assert rel <= 2 * quad.rel_tol


def test_wbar_convex_on_segments(product2, W3):
    a = w_bar(product2, W3, [[1.0, 0.0]], n_grid=16).value
    b = w_bar(product2, W3, [[0.0, 1.0]], n_grid=16).value
    mid = w_bar(product2, W3, [[0.5, 0.5]], n_grid=16).value
    assert mid <= 0.5 * (a + b) + 2e-3


def test_wbar_jensen_direction(stripe2, W3):
    entry = w_bar(stripe2, W3, [[0.6, 0.8]], n_grid=24)
    rhs = sum(w * w_hom(stripe2, t, [[0.6, 0.8, 0.0]], W3, 24,
                        vertical_cells=4).value
              for t, w in zip(entry.nodes, entry.weights))
    assert entry.value <= rhs + 1e-9


def test_wbar_budget_exhaustion_carries_best_estimate(product2, W3):
    from filmhom import QuadratureError
    quad = QuadratureOptions(rel_tol=1e-3, max_refinements=0)
    with pytest.raises(QuadratureError) as err:
        w_bar(product2, W3, [[1.0, 0.0]], n_grid=16, quad=quad)
    assert err.value.best_estimate == pytest.approx(0.5, rel=0.05)
    assert len(err.value.history) == 1


def test_wbar_serialization_roundtrip(product2, W3):
    entry = w_bar(product2, W3, [[1.0, 0.0]], n_grid=16)
    payload = json.loads(json.dumps(entry.to_dict()))
    assert payload["value"] == pytest.approx(entry.value)
    assert len(payload["nodes"]) == len(entry.nodes)


# -- membrane minimum ----------------------------------------------------------


def test_membrane_flat_box(W3):
    res = membrane_min(((0.0, 1.0), (0.0, 1.0)), [[1.0, 1.0]],
                       Profile.constant(2), W3, n_grid=16)
    assert res.value == pytest.approx(4.0, abs=1e-5)


def test_membrane_product_rectangle(product2, W3):
    res = membrane_min(((0.0, 2.0), (0.0, 1.0)), [[1.0, 0.0]], product2, W3,
                       n_grid=32)
    assert res.value == pytest.approx(2.0, rel=0.01)


def test_membrane_zero_datum(product2, W3):
    res = membrane_min(((0.0, 1.0), (0.0, 1.0)), [[0.0, 0.0]], product2, W3,
                       n_grid=16)
    assert res.value == pytest.approx(0.0, abs=1e-9)


def test_membrane_rejects_non_affine(product2, W3):
    with pytest.raises(UnsupportedFeatureError):
        membrane_min(((0.0, 1.0), (0.0, 1.0)), [[1.0, 0.0]], product2, W3,
                     datum="bubble", n_grid=8)


# -- direct slab minimization ----------------------------------------------------


def test_direct_min_flat_slab_exact(W2):
    # flat geometry: the affine field is the discrete minimizer
    flat1 = Profile.constant(1)
    eps = 0.25
    value, report = direct_min(flat1, eps, 0.25, [[1.0]], W2,
                               cells_per_delta=8, vertical_cells=8)
    assert report.converged
    assert value == pytest.approx(2 * eps * 1.0, abs=1e-12)


def test_direct_min_zero_datum(stripe1, W2):
    value, _ = direct_min(stripe1, 0.25, 0.0625, [[0.0]], W2,
                          cells_per_delta=4, vertical_cells=8)
    assert value == pytest.approx(0.0, abs=1e-14)


def test_direct_min_scaling_consistency(stripe1, W2):
    eps, delta = 0.25, 0.0625
    unscaled, _ = direct_min(stripe1, eps, delta, [[1.0]], W2,
                             cells_per_delta=4, vertical_cells=8)
    scaled, _ = direct_min(stripe1, eps, delta, [[1.0]], W2,
                           cells_per_delta=4, vertical_cells=8,
                           parameterization="scaled")
    assert unscaled == pytest.approx(eps * scaled, rel=1e-8)


def test_direct_min_resolution_rule(stripe1, W2):
    from filmhom import ResolutionError
    with pytest.raises(ResolutionError):
        direct_min(stripe1, 0.25, 0.0625, [[1.0]], W2, cells_per_delta=2,
                   vertical_cells=8)


# -- gamma check ------------------------------------------------------------------


def test_gamma_flat_profile_exact(W2):
    flat1 = Profile.constant(1)
    report = gamma_check(flat1, W2, [[1.0]], [0.5, 0.25],
                         cells_per_delta=4, vertical_cells=8, n_grid=16)
    assert report.target == pytest.approx(2.0, abs=1e-9)
    for entry in report.entries:
        assert entry.gap <= 1e-6
    assert report.trend_nonincreasing


def test_gamma_stripe_small_schedule(stripe1, W2):
    report = gamma_check(stripe1, W2, [[1.0]], [0.25, 0.125],
                         cells_per_delta=8, vertical_cells=16, n_grid=32)
    assert report.trend_nonincreasing
    assert report.entries[-1].gap < 0.1
    assert all(e.converged for e in report.entries)


def test_gamma_schedule_must_decrease(stripe1, W2):
    with pytest.raises(ConfigurationError):
        gamma_check(stripe1, W2, [[1.0]], [0.125, 0.25], n_grid=16)


def test_gamma_resolution_abort_carries_partial(stripe1, W2):
    from filmhom import ResolutionError
    with pytest.raises(ResolutionError) as err:
        gamma_check(stripe1, W2, [[1.0]], [0.25, 0.125], cells_per_delta=3,
                    vertical_cells=8, n_grid=16)
    assert hasattr(err.value, "partial_report")


def test_gamma_serialization(stripe1, W2):
    report = gamma_check(stripe1, W2, [[1.0]], [0.5, 0.25],
                         cells_per_delta=4, vertical_cells=8, n_grid=16)
    payload = json.loads(json.dumps(report.to_dict()))
    assert len(payload["entries"]) == 2
    rows = report.csv_rows()
    assert len(rows) == 2 and len(rows[0]) == 6
