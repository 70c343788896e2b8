"""Acceptance suite: one test per exit criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
All tolerances are fixed here; nothing is deferred to later calibration.
"""

import json
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.optimize

from filmhom import (EnergyDensity, Profile, gamma_check, kernel,
                     minimize_periodic, phi_sharp, psi, psi_cylinder_oracle,
                     superlevel_mask, thresholds, w_bar, w_hom,
                     w_hom_cube_oracle)
from filmhom.cli import main


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} FAIL: {desc}")
        raise
    print(f"\nACCEPTANCE {num} PASS: {desc}")


def rel_or_zero(a, b, zero_floor=1e-6):
    if max(abs(a), abs(b)) < zero_floor:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def test_criterion_1_product_structure():
    with criterion(1, "sin2-product: thresholds 0.5/0.5, full-mask density, "
                      "kernel k=2 with coherent verdicts"):
        prof = Profile.builtin("sin2-product", dim=2)
        n = 128
        rep = thresholds(prof, n)
        tol = 2.0 / n
        assert abs(rep.thresholds[0] - 0.5) <= tol
        assert abs(rep.thresholds[1] - 0.5) <= tol

        sample = phi_sharp(prof, 0.3, [[1.0, 1.0]], n)
        assert abs(sample.value - 2.0) <= 1e-8

        k, xi = kernel(prof, 0.7, n)  # confirmation must not raise
        assert k == 2 and xi == []


def test_criterion_2_stripe_structure():
    with criterion(2, "sin2-stripe: thresholds 0.5/1.0, xi=(0,1), "
                      "phi(0.75,(1,1)) within 2% of theta"):
        prof = Profile.builtin("sin2-stripe", dim=2)
        n = 128
        rep = thresholds(prof, n)
        tol = 2.0 / n
        assert abs(rep.thresholds[0] - 0.5) <= tol
        assert abs(rep.thresholds[1] - 1.0) <= tol

        xi = np.array(rep.intervals[-1].xi[0])
        angle = np.arccos(np.clip(abs(float(xi @ [0.0, 1.0])), -1, 1))
        assert angle <= 1e-6

        sample = phi_sharp(prof, 0.75, [[1.0, 1.0]], n)
        theta = 1.0 - (2.0 / np.pi) * np.arcsin(np.sqrt(2 * 0.75 - 1))
        assert abs(sample.value - theta) <= 0.02 * theta


def test_criterion_3_split_vs_cylinder_oracle():
    with criterion(3, "split form vs cylinder oracle: 10 random samples, "
                      "|psi - cylinder| <= 1e-6 at p=2, N=64"):
        rng = np.random.default_rng(493)
        profiles = [Profile.builtin("sin2-product", dim=2),
                    Profile.builtin("sin2-stripe", dim=2),
                    Profile.builtin("checkerboard", dim=2)]
        worst = 0.0
        for i in range(10):
            prof = profiles[i % 3]
            t = float(rng.uniform(0.05, 0.9))
            if abs(t - 0.25) < 0.02:
                t += 0.05  # keep clear of the checkerboard plateau level
            F = rng.uniform(-1, 1, size=(1, 3))
            split = psi(prof, t, F, 64)
            assert split.report.converged
            cyl = psi_cylinder_oracle(prof, t, F, 64)
            assert cyl.report.converged
            worst = max(worst, abs(split.value - cyl.value))
        assert worst <= 1e-6
        print(f"  max |psi - cylinder| = {worst:.3e}", end="")


def test_criterion_4_structural_properties():
    with criterion(4, "structural suite: t-monotone, p-homogeneous, convex "
                      "in F, zero-corrector bound, full-mask identity"):
        rng = np.random.default_rng(11)
        stripe = Profile.builtin("sin2-stripe", dim=2)
        W2 = EnergyDensity.p_norm_power(2.0, 1, 2)

        # monotone in t over a grid, several probes
        for _ in range(3):
            F = rng.uniform(-1, 1, size=(1, 2))
            vals = [phi_sharp(stripe, t, F, 32).value
                    for t in np.linspace(0.05, 0.95, 8)]
            assert all(b <= a + 1e-8 for a, b in zip(vals, vals[1:]))

        # p-homogeneity, 20 probes
        mask = superlevel_mask(stripe, 0.6, 16)
        for _ in range(20):
            F = rng.uniform(-1, 1, size=(1, 2))
            lam = float(rng.uniform(0.2, 3.0)) * rng.choice([-1.0, 1.0])
            v1, _, _ = minimize_periodic(mask, W2, F)
            v2, _, _ = minimize_periodic(mask, W2, lam * F)
            if v1 > 1e-12:
                assert abs(v2 - lam ** 2 * v1) <= 1e-8 * max(v2, lam ** 2 * v1)

        # convexity in F, 20 probes
        for _ in range(20):
            F = rng.uniform(-1, 1, size=(1, 2))
            G = rng.uniform(-1, 1, size=(1, 2))
            vF, _, _ = minimize_periodic(mask, W2, F)
            vG, _, _ = minimize_periodic(mask, W2, G)
            vM, _, _ = minimize_periodic(mask, W2, (F + G) / 2)
            assert vM <= (vF + vG) / 2 + 1e-8

        # zero-corrector upper bound, 20 random masks
        for _ in range(20):
            rmask = rng.uniform(size=(16, 16)) < rng.uniform(0.2, 0.9)
            if not rmask.any():
                continue
            F = rng.uniform(-1, 1, size=(1, 2))
            val, _, _ = minimize_periodic(rmask, W2, F)
            assert val <= rmask.mean() * W2.evaluate(F) + 1e-12

        # full-mask identity for w_hom, 20 probes over two density kinds
        prod = Profile.builtin("sin2-product", dim=2)
        W3 = EnergyDensity.p_norm_power(2.0, 1, 3)
        Wq = EnergyDensity.quadratic_form(np.diag([1.0, 2.0, 0.5]), 1, 3)
        for i in range(20):
            F = rng.uniform(-1, 1, size=(1, 3))
            W = W3 if i % 2 == 0 else Wq
            s = w_hom(prod, 0.2, F, W, 8)
            assert abs(s.value - W.evaluate(F)) <= 1e-10


def test_criterion_5_grid_refinement_stability():
    with criterion(5, "phi at N=64 vs N=128 within 3% on stripe and product "
                      "at t in {0.3, 0.75}"):
        for name in ("sin2-stripe", "sin2-product"):
            prof = Profile.builtin(name, dim=2)
            for t in (0.3, 0.75):
                a = phi_sharp(prof, t, [[1.0, 1.0]], 64).value
                b = phi_sharp(prof, t, [[1.0, 1.0]], 128).value
                assert rel_or_zero(a, b) <= 0.03, (name, t, a, b)


def test_criterion_6_film_density():
    with criterion(6, "film density: flat = transverse-minimized density "
                      "(1e-6), product (1,0) = 0.5 (1%), quadrature stable"):
        W3 = EnergyDensity.p_norm_power(2.0, 1, 3)

        flat = Profile.constant(2)
        Fbar = np.array([[0.8, -0.6]])
        entry = w_bar(flat, W3, Fbar, n_grid=16)
        direct = scipy.optimize.minimize_scalar(
            lambda s: W3.evaluate(np.hstack([Fbar, [[s]]])),
            bounds=(-5, 5), method="bounded",
            options={"xatol": 1e-10})
        assert abs(entry.value - direct.fun) <= 1e-6

        prod = Profile.builtin("sin2-product", dim=2)
        entry = w_bar(prod, W3, [[1.0, 0.0]], n_grid=64)
        assert abs(entry.value - 0.5) <= 0.01 * 0.5
        print(f"  film value {entry.value:.6f}", end="")

        coarse = w_bar(prod, W3, [[1.0, 0.0]], n_grid=64, rel_tol=1e-3)
        fine = w_bar(prod, W3, [[1.0, 0.0]], n_grid=64, rel_tol=1e-6)
        assert rel_or_zero(coarse.value, fine.value) <= 2 * 1e-3


def test_criterion_7_gamma_convergence_of_minima():
    with criterion(7, "scaled slab minima: n=2 stripe gaps non-increasing, "
                      "final <= 10%; n=3 product trend"):
        W2 = EnergyDensity.p_norm_power(2.0, 1, 2)
        stripe1 = Profile.builtin("sin2-stripe", dim=1)
        rep = gamma_check(stripe1, W2, [[1.0]], [0.25, 0.125, 0.0625],
                          cells_per_delta=8, vertical_cells=32, n_grid=64)
        gaps = [e.gap for e in rep.entries]
        assert all(e.converged for e in rep.entries)
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 0.10
        print(f"  n=2 gaps: {['%.4f' % g for g in gaps]}", end="")

        W3 = EnergyDensity.p_norm_power(2.0, 1, 3)
        prod = Profile.builtin("sin2-product", dim=2)
        rep3 = gamma_check(prod, W3, [[1.0, 0.0]], [0.5, 0.25],
                           cells_per_delta=8, vertical_cells=16, n_grid=32)
        gaps3 = [e.gap for e in rep3.entries]
        assert rep3.trend_nonincreasing
        print(f" | n=3 gaps: {['%.4f' % g for g in gaps3]}", end="")


def test_criterion_8_growing_cube_oracle():
    with criterion(8, "growing-cube oracle on the stripe at t=0.75: "
                      "non-increasing over T in {1,2,4}, coercive probe "
                      "within 30% of the periodic value"):
        stripe = Profile.builtin("sin2-stripe", dim=2)
        W3 = EnergyDensity.p_norm_power(2.0, 1, 3)
        n = 16

        degenerate = np.array([[1.0, 0.0, 0.0]])
        vals_d = [w_hom_cube_oracle(stripe, 0.75, degenerate, W3, T, n)[0]
                  for T in (1, 2, 4)]
        assert vals_d[2] <= vals_d[1] <= vals_d[0]

        coercive = np.array([[0.0, 1.0, 1.0]])
        vals_c = [w_hom_cube_oracle(stripe, 0.75, coercive, W3, T, n)[0]
                  for T in (1, 2, 4)]
        assert vals_c[2] <= vals_c[1] <= vals_c[0]
        periodic = w_hom(stripe, 0.75, coercive, W3, n).value
        assert vals_c[2] <= 1.3 * periodic
        assert all(v >= periodic - 1e-10 for v in vals_c)
        print(f"  degenerate probe: {['%.4f' % v for v in vals_d]}, "
              f"coercive probe: {['%.4f' % v for v in vals_c]} "
              f"(periodic {periodic:.4f})", end="")


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "reruns with --reproducible are byte-identical"):
        cfg = {
            "dims": {"n": 3, "m": 1},
            "profile": {"kind": "sin2-product", "dim": 2},
            "energy": {"kind": "p_norm_power", "p": 2.0},
            "grid": {"N": 32},
            "sweep": {"t_values": [0.2, 0.7], "F_probes": [[1.0, 0.5, 0.0]],
                      "random_probes": 3, "seed": 12345},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        pairs = []
        # psi and whom alone take --oracle
        for cmd, flags, files in (("psi", ["--oracle"], ["psi.csv", "psi_summary.json"]),
                                  ("mask", [], ["theta.csv", "components.json"]),
                                  ("thresholds", [], ["thresholds.json"])):
            out1 = tmp_path / f"{cmd}_1"
            out2 = tmp_path / f"{cmd}_2"
            assert main([cmd, "--config", str(cfg_path), "--out", str(out1),
                         "--reproducible", *flags]) == 0
            assert main([cmd, "--config", str(cfg_path), "--out", str(out2),
                         "--reproducible", *flags]) == 0
            pairs.extend((out1 / f, out2 / f) for f in files)
        for a, b in pairs:
            assert a.read_bytes() == b.read_bytes(), (a, b)
