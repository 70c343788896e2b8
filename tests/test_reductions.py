"""The solve loops reduce without BLAS, so their sums do not depend on the
BLAS thread count (docs/solvers.md, "Reductions")."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import filmhom
from filmhom import EnergyDensity, Profile
from filmhom.cell_solver import minimize_periodic
from filmhom.film import direct_min
from filmhom.homogenize import w_hom
from filmhom.profiles import superlevel_mask

GAMMA_CONFIG = {
    "dims": {"n": 2, "m": 1},
    "profile": {"kind": "sin2-stripe", "dim": 1},
    "energy": {"kind": "p_norm_power", "p": 2.0},
    "sweep": {"F_probes": [[1.0]]},
    "film": {"n_grid": 16},
    "schedule": {"eps": [0.25, 0.125], "cells_per_delta": 8,
                 "vertical_cells": 32},
}


def _gamma_run(tmp_path, cfg, threads):
    # the thread count of OpenBLAS is fixed when numpy loads, so each count
    # needs its own process
    out = tmp_path / f"threads-{threads}"
    src = str(Path(filmhom.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "filmhom", "gamma", "--config",
                    str(cfg), "--out", str(out), "--reproducible"],
                   env=env, check=True, capture_output=True)
    return out


def test_gamma_outputs_identical_across_blas_threads(tmp_path):
    # the eps = 0.125 slab (513 x 33 nodes) is large enough for OpenBLAS to
    # split a ddot over two threads, which changed its rounding
    cfg = tmp_path / "gamma.json"
    cfg.write_text(json.dumps(GAMMA_CONFIG), encoding="utf-8")
    one, two = (_gamma_run(tmp_path, cfg, k) for k in (1, 2))
    for name in ("gamma.json", "gamma.csv"):
        assert (one / name).read_bytes() == (two / name).read_bytes()


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.skipif(not Path("/proc/self/task").is_dir() or (os.cpu_count() or 1) < 2,
                    reason="counts OS threads through /proc on a multi-core machine")
@pytest.mark.parametrize("chosen, threads", [({}, 1), ({"OMP_NUM_THREADS": "2"}, 2)])
def test_filmhom_loads_numpy_with_one_blas_thread_unless_chosen(chosen, threads):
    # with no count chosen, OpenBLAS starts no spinning helper thread, and the
    # variable that told it so is gone from the environment again
    src = str(Path(filmhom.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(chosen, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import os, filmhom.cli; "
             "print(len(os.listdir('/proc/self/task')), "
             "os.environ.get('OPENBLAS_NUM_THREADS'))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout.split() == [str(threads), "None"]


def _no_large_blas_reductions(monkeypatch):
    def guard(original):
        def reduce(*args, **kwargs):
            if max(np.size(a) for a in args) > 1000:
                raise AssertionError(f"{original.__name__} on a solve-sized vector")
            return original(*args, **kwargs)
        return reduce
    monkeypatch.setattr(np, "vdot", guard(np.vdot))
    monkeypatch.setattr(np.linalg, "norm", guard(np.linalg.norm))


def test_cg_loop_takes_no_blas_reduction(monkeypatch):
    _no_large_blas_reductions(monkeypatch)
    W = EnergyDensity.p_norm_power(2.0, 1, 2)
    stripe = Profile.builtin("sin2-stripe", dim=1)
    # a 128 x 32 cell slab: 129 x 33 nodes
    _, report = direct_min(stripe, 0.25, 0.0625, [[1.0]], W)
    assert report.method == "cg" and report.converged and report.iterations > 0


def test_newton_loop_takes_no_blas_reduction(monkeypatch, checker2):
    # the column norms give a diagonal tangent; the Frobenius norm couples
    # the columns of a cell, the other branch of the tangent
    _no_large_blas_reductions(monkeypatch)
    for kind in ("p_norm_power", "frobenius_power"):
        W = getattr(EnergyDensity, kind)(3.0, 1, 3)
        # 48 x 48 periodic nodes
        report = w_hom(checker2, 0.5, [[1.0, 0.5, 0.2]], W, 48).report
        assert report.method == "newton" and report.converged and report.iterations > 0


def test_joint_newton_loop_takes_no_blas_reduction(monkeypatch, checker2):
    # the custom |F|^3 keeps its free column an unknown, from a nonzero
    # start, so the column block of the preconditioner is rebuilt at every
    # step
    _no_large_blas_reductions(monkeypatch)
    W = EnergyDensity.custom(lambda G: np.sum(G * G, axis=(0, 1)) ** 1.5,
                             p=3.0, m=1, n=3,
                             grad=lambda G: 3.0 * np.sqrt(np.sum(G * G, axis=(0, 1))) * G)
    occ = superlevel_mask(checker2, 0.5, 48)
    _, corr, report = minimize_periodic(occ, W, [[1.0, 0.5, 0.2]],
                                        free_offset=True)
    assert report.method == "newton" and report.converged and report.iterations > 0
    assert abs(corr.offset[0, -1]) < 1e-3
