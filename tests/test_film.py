import json

import numpy as np
import pytest
import scipy.integrate

from filmhom import (ConfigurationError, EnergyDensity, Profile, SolverOptions,
                     direct_min, gamma_check, membrane_min, minimize_periodic, oscillating_domain_mask,
                     StructuralInconsistencyError, superlevel_mask, thresholds,
                     w_bar, w_hom, w_tilde)
from filmhom import cell_solver, cli, film, profiles


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


def test_wtilde_one_layer_matches_two_layer_cylinder(stripe2):
    # coupling the transverse column to the in-plane column along the stripe
    # moves the argmin off zero; solves on a genuine two-layer cylinder must
    # give w_tilde's value at its argmin and nothing lower around it
    A = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.5], [0.0, 0.5, 1.0]])
    W = EnergyDensity.quadratic_form(A, 1, 3)
    value, argmin, converged = w_tilde(stripe2, W, 0.6, [[1.0, 0.5]], n_grid=16)
    assert converged
    assert abs(argmin[0]) > 0.1
    occ = superlevel_mask(stripe2, 0.6, 16)
    two = np.broadcast_to(occ[..., np.newaxis], occ.shape + (2,)).copy()

    def cylinder(s):
        val, _, report = minimize_periodic(two, W, [[1.0, 0.5, s]])
        assert report.converged
        return val

    assert cylinder(argmin[0]) == pytest.approx(value, abs=1e-9)
    for ds in (-1e-2, -1e-3, 1e-3, 1e-2):
        assert cylinder(argmin[0] + ds) >= value - 1e-9


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


def test_wtilde_accepts_a_directly_built_builtin(stripe2, W3):
    # its floor is its minimum 0.5, as for Profile.builtin; a second
    # field for the minimum read 0.0 here, and the film refused it
    prof = Profile(dim=2, kind="sin2-stripe")
    assert prof.floor == 0.5
    value, argmin, converged = w_tilde(prof, W3, 0.6, [[1.0, 0.5]], n_grid=16)
    want = w_tilde(stripe2, W3, 0.6, [[1.0, 0.5]], n_grid=16)
    assert converged and value == want[0] and np.array_equal(argmin, want[1])


def test_wtilde_multicomponent():
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


def test_wbar_benchmark_film_solves_nothing(monkeypatch, product2, W3):
    # the benchmark's film datum: below min f the mask is full, and above it
    # the product islands leave an empty layer on both axes, so every node
    # value is exact without a solve or a node-graph labelling
    calls = {"solves": 0, "node_graphs": 0}

    def counted(fn, key, when=lambda kwargs: True):
        def wrapper(*args, **kwargs):
            calls[key] += when(kwargs)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cell_solver, "_solve_masked",
                        counted(cell_solver._solve_masked, "solves"))
    monkeypatch.setattr(profiles, "_run_components",
                        counted(profiles._run_components, "node_graphs",
                                lambda kwargs: kwargs.get("nodes", False)))
    entry = w_bar(product2, W3, [[1.0, 0.0]], n_grid=64)
    assert calls == {"solves": 0, "node_graphs": 0}
    # the values the solves gave, bit for bit
    assert entry.value.hex() == (0.5003873314167326).hex()
    assert (np.array(entry.node_values).tobytes()
            == np.array([1.0] + [0.0] * 10).tobytes())
    assert not np.any(entry.node_argmins)


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


def test_wbar_coarse_vs_fine_tolerance(product2, W3):
    coarse = w_bar(product2, W3, [[1.0, 0.0]], n_grid=64, rel_tol=1e-3)
    fine = w_bar(product2, W3, [[1.0, 0.0]], n_grid=64, rel_tol=1e-6)
    rel = abs(coarse.value - fine.value) / max(abs(coarse.value), 1e-12)
    assert rel <= 2 * 1e-3


def test_wbar_convex_on_segments(product2, W3):
    a = w_bar(product2, W3, [[1.0, 0.0]], n_grid=16).value
    b = w_bar(product2, W3, [[0.0, 1.0]], n_grid=16).value
    mid = w_bar(product2, W3, [[0.5, 0.5]], n_grid=16).value
    assert mid <= 0.5 * (a + b) + 2e-3


def test_wbar_jensen_direction(stripe2, W3):
    # minimizing over the transverse column lowers the density at column 0
    entry = w_bar(stripe2, W3, [[0.6, 0.8]], n_grid=24)
    for t, value in zip(entry.nodes, entry.node_values):
        assert value <= w_hom(stripe2, t, [[0.6, 0.8, 0.0]], W3, 24).value + 1e-9


def test_wbar_rough_profile_ends_exact(W3):
    # a rough 8 x 8 sampled profile has at most 65 level classes, so even at
    # rel_tol 1e-12 the bracket closes before it runs out of classes
    values = np.random.default_rng(3).uniform(0.3, 1.0, size=(8, 8))
    values[0, 0] = 1.0
    entry = w_bar(Profile.sampled(values), W3, [[1.0, 0.0]], n_grid=8, rel_tol=1e-12)
    assert entry.converged and entry.value > 0.0
    assert entry.half_width == 0.0 and len(entry.nodes) <= 65


def _sampled(seed, n):
    values = np.random.default_rng(seed).uniform(0.2, 1.0, size=(n, n))
    values[0, 0] = 1.0
    return Profile.sampled(values)


_FORM = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.5]])
DENSITIES = {"p_norm_power-1.5": EnergyDensity.p_norm_power(1.5, 1, 3),
             "p_norm_power-2": EnergyDensity.p_norm_power(2.0, 1, 3),
             "p_norm_power-3": EnergyDensity.p_norm_power(3.0, 1, 3),
             "frobenius_power": EnergyDensity.frobenius_power(3.0, 1, 3),
             "quadratic_form": EnergyDensity.quadratic_form(_FORM, 1, 3)}
BRACKET_CASES = (
    [(name, "sampled-8", 8) for name in DENSITIES]
    + [("p_norm_power-2", f"sampled-{n}", n) for n in (12, 16)]
    + [(name, kind, 16) for name in DENSITIES
       for kind in ("sin2-product", "sin2-stripe", "checkerboard")])


@pytest.mark.parametrize("density,profile,n_grid", BRACKET_CASES,
                         ids=[f"{d}-{p}" for d, p, _ in BRACKET_CASES])
def test_wbar_bracket_holds_the_exact_step_sum(density, profile, n_grid):
    # the exact step sum evaluates every level class at its left end; the
    # bracket must hold it up to the solve tolerance, at rel_tol half-width
    W = DENSITIES[density]
    prof = (_sampled(n_grid, n_grid) if profile.startswith("sampled")
            else Profile.builtin(profile, 2))
    F = [[1.0, 0.5]]
    entry = w_bar(prof, W, F, n_grid=n_grid)
    levels = sorted(set(prof.eval_grid(n_grid).ravel().tolist()) - {1.0})
    ends = [0.0, *levels, 1.0]
    exact = sum((b - a) * w_tilde(prof, W, a, F, n_grid=n_grid)[0]
                for a, b in zip(ends, ends[1:]))
    assert entry.converged
    assert abs(exact - entry.value) <= entry.half_width + 1e-9
    assert entry.half_width <= film.REL_TOL * abs(entry.value)


def test_old_settings_keywords_refused_by_name(product2, W3):
    # the bracket's tolerance is the float rel_tol, and the solver settings
    # are opts, as in the cell layer
    with pytest.raises(TypeError, match="'quad'"):
        w_bar(product2, W3, [[1.0, 0.0]], n_grid=8, quad=1e-3)
    with pytest.raises(TypeError, match="'solver_opts'"):
        gamma_check(product2, W3, [[1.0, 0.0]], [0.5], solver_opts=SolverOptions())


def test_wbar_serialization_roundtrip(product2, W3):
    entry = w_bar(product2, W3, [[1.0, 0.0]], n_grid=16)
    payload = json.loads(cli._json(entry, []))
    assert payload["value"] == pytest.approx(entry.value)
    assert len(payload["nodes"]) == len(entry.nodes)


# -- membrane minimum ----------------------------------------------------------


def test_membrane_flat_box(W3):
    value, _ = membrane_min(((0.0, 1.0), (0.0, 1.0)), [[1.0, 1.0]],
                            Profile.constant(2), W3, n_grid=16)
    assert value == pytest.approx(4.0, abs=1e-5)


def test_membrane_product_rectangle(product2, W3):
    value, entry = membrane_min(((0.0, 2.0), (0.0, 1.0)), [[1.0, 0.0]], product2, W3,
                                n_grid=32)
    assert value == pytest.approx(2.0, rel=0.01)
    # twice the area of omega times w_bar at Fbar
    assert value == 2.0 * 2.0 * entry.value and entry.converged


def test_membrane_zero_datum(product2, W3):
    value, _ = membrane_min(((0.0, 1.0), (0.0, 1.0)), [[0.0, 0.0]], product2, W3,
                            n_grid=16)
    assert value == pytest.approx(0.0, abs=1e-9)


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


def test_direct_min_resolution_rule(stripe1, W2):
    from filmhom import ResolutionError
    with pytest.raises(ResolutionError):
        direct_min(stripe1, 0.25, 0.0625, [[1.0]], W2, cells_per_delta=2,
                   vertical_cells=8)


@pytest.mark.parametrize("cells_per_delta", [2.5, True, "8", None, float("nan")])
def test_direct_min_refuses_a_non_integral_cells_per_delta_by_name(stripe1, W2,
                                                                   cells_per_delta):
    # 2.5 and True raised a ResolutionError that called the grid
    # under-resolved, "8" and None a TypeError from the comparison
    with pytest.raises(ConfigurationError, match="^cells_per_delta must be an integer >= 1"):
        direct_min(stripe1, 0.25, 0.0625, [[1.0]], W2,
                   cells_per_delta=cells_per_delta, vertical_cells=8)


@pytest.mark.parametrize("kwargs,name", [
    ({"omega": ((0.0, 0.0),)}, "omega"),
    ({"omega": ((1.0, 0.0),)}, "omega"),
    ({"omega": ((0.0, 1.0), (0.0, 1.0))}, "omega"),
    ({"vertical_cells": 0}, "vertical_cells"),
    ({"vertical_cells": -3}, "vertical_cells"),
    ({"vertical_cells": 2.5}, "vertical_cells"),
    ({"vertical_cells": True}, "vertical_cells"),
    ({"vertical_cells": "8"}, "vertical_cells"),
    ({"omega": ((0.0, float("nan")),)}, "omega"),
    ({"omega": ((0.0, float("inf")),)}, "omega"),
    ({"omega": ((0.0, 1.0, 2.0),)}, "omega"),
    ({"omega": ((0.0,),)}, "omega"),
    ({"omega": (0.0, 1.0)}, "omega"),
])
def test_direct_min_rejects_bad_box_by_name(stripe1, W2, kwargs, name):
    # these raised ZeroDivisionError, or a ResolutionError asking for
    # "at least -64" cells, or ran on a truncated layer count (2.5 on 2
    # layers, True on 1); a NaN or infinite bound raised a bare ValueError
    # or OverflowError, and a non-pair one from tuple unpacking
    with pytest.raises(ConfigurationError, match=name):
        direct_min(stripe1, 0.25, 0.0625, [[1.0]], W2, **kwargs)


@pytest.mark.parametrize("name", ["eps", "delta"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                   0.0, -0.25, True, "0.25"],
                         ids=["nan", "inf", "-inf", "zero", "negative", "bool", "text"])
@pytest.mark.parametrize("build", ["direct_min", "oscillating_domain_mask"])
def test_slab_refuses_bad_eps_and_delta_by_name(stripe1, W2, build, value, name):
    # direct_min worked out its cell count first, so a NaN delta raised a bare
    # ValueError and an infinite or zero one ZeroDivisionError; the mask
    # took eps=inf or eps=True
    args = {"eps": 0.25, "delta": 0.0625, name: value}
    with pytest.raises(ConfigurationError, match=f"^{name} must be"):
        if build == "direct_min":
            direct_min(stripe1, args["eps"], args["delta"], [[1.0]], W2)
        else:
            oscillating_domain_mask(stripe1, args["eps"], args["delta"], (64, 8))


def test_membrane_rejects_reversed_axes(product2, W3):
    # two reversed axes have a positive product of widths
    with pytest.raises(ConfigurationError, match="omega"):
        membrane_min(((1.0, 0.0), (1.0, 0.0)), [[1.0, 0.0]], product2, W3)


@pytest.mark.parametrize("omega", [
    ((0.0, float("nan")),), ((0.0, float("inf")),), ((0.0, 1.0, 2.0),),
    ((0.0,),), (0.0, 1.0),
], ids=["nan", "inf", "triple", "single", "flat"])
def test_membrane_and_gamma_refuse_bad_omega_by_name(stripe1, W2, omega):
    # membrane_min returned NaN or inf for the first two, and both raised
    # from tuple unpacking for the others
    with pytest.raises(ConfigurationError, match="omega"):
        membrane_min(omega, [[1.0]], stripe1, W2)
    with pytest.raises(ConfigurationError, match="omega"):
        gamma_check(stripe1, W2, [[1.0]], [0.25], omega=omega)


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


def test_gamma_zero_datum_gap_is_absolute(stripe1, W2):
    # Fbar = 0 has the target 0, so each gap is |scaled| rather than relative
    report = gamma_check(stripe1, W2, [[0.0]], [0.5, 0.25],
                         cells_per_delta=4, vertical_cells=8, n_grid=16)
    assert report.target == 0.0
    assert all(e.gap == abs(e.scaled) for e in report.entries)


def test_gamma_schedule_must_decrease(stripe1, W2):
    with pytest.raises(ConfigurationError):
        gamma_check(stripe1, W2, [[1.0]], [0.125, 0.25], n_grid=16)


def test_gamma_resolution_error_aborts(stripe1, W2):
    from filmhom import ResolutionError
    with pytest.raises(ResolutionError):
        gamma_check(stripe1, W2, [[1.0]], [0.25, 0.125], cells_per_delta=3,
                    vertical_cells=8, n_grid=16)


def test_gamma_serialization(tmp_path, stripe1, W2):
    report = gamma_check(stripe1, W2, [[1.0]], [0.5, 0.25],
                         cells_per_delta=4, vertical_cells=8, n_grid=16)
    payload = json.loads(cli._json(report, []))
    assert len(payload["entries"]) == 2
    # the CSV rows are built by the gamma command: run it on the same problem
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "dims": {"n": 2, "m": 1}, "profile": {"kind": "sin2-stripe", "dim": 1},
        "sweep": {"F_probes": [[1.0]]}, "film": {"n_grid": 16},
        "schedule": {"eps": [0.5, 0.25], "cells_per_delta": 4,
                     "vertical_cells": 8}}), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["gamma", "--config", str(config), "--out", str(out)]) == 0
    written = json.loads((out / "gamma.json").read_text(encoding="utf-8"))
    assert {k: v for k, v in written.items() if k != "_meta"} == \
        {k: v for k, v in payload.items() if k != "_meta"}
    lines = (out / "gamma.csv").read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
    assert len(rows) == 2 and len(rows[0]) == 6


def test_thresholds_keeps_no_raised_error(checker2):
    # the checkerboard's corner contacts give the node lattice a higher rank
    for _ in range(2):
        with pytest.raises(StructuralInconsistencyError):
            thresholds(checker2, 16)
    assert thresholds(checker2, 16, confirm=False).thresholds
