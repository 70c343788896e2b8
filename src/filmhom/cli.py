"""Batch driver: every computation as a subcommand producing CSV/JSON files.

Subcommands: mask, phi, psi, thresholds, whom, film, gamma.
Common flags: --config PATH, --out DIR, --jobs K, --reproducible, --oracle.

Exit codes: 0 success, 2 config error, 3 resolution error, 4 solver or
quadrature non-convergence, 5 structural inconsistency (kernel confirmation
failure).  CSV uses ',' separator and 12 significant digits; with
--reproducible the header comment carries the config hash instead of a
timestamp and reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import film as film_mod
from . import homogenize as hom
from .config import load_config
from .errors import (ConfigurationError, QuadratureError, ResolutionError,
                     StructuralInconsistencyError, UnsupportedFeatureError)
from .profiles import superlevel_mask, torus_components

MONOTONE_TOL = 1e-8


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def _write_csv(path, columns, rows, comments):
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path, payload, comments):
    payload = dict(payload)
    payload["_meta"] = {k: v for k, v in (c.split("=", 1) for c in comments)}
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _comments(cfg, args):
    if args.reproducible:
        return [f"config_hash={cfg.config_hash}", "reproducible=true"]
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return [f"generated={stamp}", f"config_hash={cfg.config_hash}"]


def _parallel(jobs, fn, items):
    if jobs <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _flat_names(m, cols):
    return [f"F{i}{j}" for i in range(m) for j in range(cols)]


# -- subcommands -----------------------------------------------------------


def cmd_mask(cfg, args, out):
    if not cfg.t_values:
        raise ConfigurationError("mask command needs sweep.t_values")

    def one(t):
        mask = superlevel_mask(cfg.profile, t, cfg.grid_n)
        comps = torus_components(mask)
        return mask, comps

    results = _parallel(args.jobs, one, cfg.t_values)
    comments = _comments(cfg, args)
    rows = []
    detail = []
    for t, (mask, comps) in zip(cfg.t_values, results):
        rows.append([t, mask.area_fraction, comps.num_components, comps.rank])
        detail.append({
            "t": t,
            "theta": mask.area_fraction,
            "num_components": comps.num_components,
            "wrap_rank": comps.rank,
            "wrap_lattice": [list(v) for v in comps.wrap_lattice],
        })
    _write_csv(out / "theta.csv", ["t", "theta", "num_components", "wrap_rank"],
               rows, comments)
    _write_json(out / "components.json", {"resolution": cfg.grid_n,
                                          "levels": detail}, comments)
    for i, (t, (mask, _)) in enumerate(zip(cfg.t_values, results)):
        with (out / f"mask_{i:03d}.txt").open("w", encoding="utf-8") as fh:
            fh.write(f"{mask.dim} {mask.resolution}\n")
            flat = mask.occupancy.astype(int).reshape(-1, mask.resolution)
            for row in flat:
                fh.write(" ".join(str(v) for v in row) + "\n")
    return True


def _density_sweep(cfg, args, out, name, evaluate, columns_extra, extra_fn):
    if not cfg.t_values:
        raise ConfigurationError(f"{name} command needs sweep.t_values")
    cols = cfg.n - 1 if name == "phi" else cfg.n
    probes = cfg.probe_matrices(cols)
    entries = [(t, F) for F in probes for t in cfg.t_values]
    results = _parallel(args.jobs, evaluate, entries)

    comments = _comments(cfg, args)
    columns = (["t"] + _flat_names(cfg.m, cols)
               + ["value", "theta", "converged", "iterations", "N"]
               + columns_extra)
    rows = []
    all_converged = True
    per_probe_values = {}
    for (t, F), res in zip(entries, results):
        sample = res[0]
        rows.append([t] + list(F.ravel())
                    + [sample.value, sample.theta, sample.report.converged,
                       sample.report.iterations, sample.resolution]
                    + list(res[1:]))
        all_converged &= sample.report.converged
        per_probe_values.setdefault(tuple(F.ravel()), []).append((t, sample.value))

    monotone = {}
    for key, pairs in per_probe_values.items():
        ordered = sorted(pairs, key=lambda p: abs(p[0]))
        vals = [v for _, v in ordered]
        monotone[str([float(x) for x in key])] = all(
            b <= a + MONOTONE_TOL for a, b in zip(vals, vals[1:]))

    _write_csv(out / f"{name}.csv", columns, rows, comments)
    summary = {
        "monotone_in_t": monotone,
        "all_converged": all_converged,
        "num_rows": len(rows),
    }
    summary.update(extra_fn(results))
    _write_json(out / f"{name}_summary.json", summary, comments)
    return all_converged


def cmd_phi(cfg, args, out):
    def evaluate(entry):
        t, F = entry
        return (hom.phi_sharp(cfg.profile, t, F, cfg.grid_n,
                              p=cfg.energy.p, opts=cfg.solver),)

    return _density_sweep(cfg, args, out, "phi", evaluate, [], lambda r: {})


def cmd_psi(cfg, args, out):
    oracle = args.oracle

    def evaluate(entry):
        t, F = entry
        sample = hom.psi(cfg.profile, t, F, cfg.grid_n,
                         p=cfg.energy.p, opts=cfg.solver)
        if not oracle:
            return (sample,)
        ref = hom.psi_cylinder_oracle(cfg.profile, t, F, cfg.grid_n,
                                      p=cfg.energy.p, opts=cfg.solver,
                                      vertical_cells=cfg.vertical_cells)
        return (sample, ref, abs(sample.value - ref))

    extra_cols = ["cylinder_oracle", "oracle_abs_err"] if oracle else []

    def extra(results):
        if not oracle:
            return {}
        return {"max_oracle_abs_err": max(r[2] for r in results)}

    return _density_sweep(cfg, args, out, "psi", evaluate, extra_cols, extra)


def cmd_whom(cfg, args, out):
    oracle = args.oracle and cfg.energy.kind == "p_norm_power"

    def evaluate(entry):
        t, F = entry
        sample = hom.w_hom(cfg.profile, t, F, cfg.energy, cfg.grid_n,
                           opts=cfg.solver, vertical_cells=cfg.vertical_cells)
        if not oracle:
            return (sample,)
        ref = hom.psi(cfg.profile, t, F, cfg.grid_n,
                      p=cfg.energy.p, opts=cfg.solver).value
        return (sample, ref, abs(sample.value - ref))

    extra_cols = ["split_oracle", "oracle_abs_err"] if oracle else []

    def extra(results):
        if not oracle:
            return {}
        return {"max_oracle_abs_err": max(r[2] for r in results)}

    return _density_sweep(cfg, args, out, "whom", evaluate, extra_cols, extra)


def cmd_thresholds(cfg, args, out):
    report = hom.thresholds(cfg.profile, cfg.grid_n, cfg.bisect_tol,
                            m=cfg.m, p=cfg.energy.p, opts=cfg.solver,
                            confirm=cfg.confirm_kernel,
                            coercivity_floor=cfg.coercivity_floor)
    _write_json(out / "thresholds.json", report.to_dict(), _comments(cfg, args))
    return True


def cmd_film(cfg, args, out):
    probes = cfg.probe_matrices(cfg.n - 1)
    report = hom.thresholds(cfg.profile, cfg.film_n_grid, 1e-4, m=cfg.m,
                            confirm=False)

    def one(F):
        return film_mod.w_bar(cfg.profile, cfg.energy, F,
                              n_grid=cfg.film_n_grid,
                              vertical_cells=cfg.film_vertical_cells,
                              quad=cfg.quad, threshold_report=report,
                              solver_opts=cfg.solver)

    entries = _parallel(args.jobs, one, probes)
    table = film_mod.FilmDensityTable(
        entries=entries, thresholds=list(report.thresholds),
        rel_tol=cfg.quad.rel_tol,
        metadata={"n_grid": cfg.film_n_grid,
                  "vertical_cells": cfg.film_vertical_cells,
                  "config_hash": cfg.config_hash})
    comments = _comments(cfg, args)
    _write_json(out / "film.json", table.to_dict(), comments)
    columns = _flat_names(cfg.m, cfg.n - 1) + ["value", "refinement_level", "nodes"]
    _write_csv(out / "film.csv", columns, table.csv_rows(), comments)
    return all(e.converged for e in entries)


def cmd_gamma(cfg, args, out):
    if not cfg.eps_schedule:
        raise ConfigurationError("gamma command needs schedule.eps")
    probes = cfg.probe_matrices(cfg.n - 1)
    if len(probes) != 1:
        raise ConfigurationError(
            "gamma command runs one boundary datum; configure exactly one F probe")
    report = film_mod.gamma_check(
        cfg.profile, cfg.energy, probes[0], cfg.eps_schedule, omega=cfg.omega,
        cells_per_delta=cfg.cells_per_delta,
        vertical_cells=cfg.schedule_vertical_cells, n_grid=cfg.film_n_grid,
        film_vertical_cells=cfg.film_vertical_cells, quad=cfg.quad,
        solver_opts=cfg.solver)
    comments = _comments(cfg, args)
    _write_json(out / "gamma.json", report.to_dict(), comments)
    _write_csv(out / "gamma.csv",
               ["eps", "delta", "minimum", "scaled", "gap", "converged"],
               report.csv_rows(), comments)
    return report.membrane_converged and all(e.converged for e in report.entries)


COMMANDS = {
    "mask": cmd_mask,
    "phi": cmd_phi,
    "psi": cmd_psi,
    "thresholds": cmd_thresholds,
    "whom": cmd_whom,
    "film": cmd_film,
    "gamma": cmd_gamma,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="filmhom",
        description="effective densities of oscillating-boundary media and thin films")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--jobs", type=int, default=1, help="worker pool size")
        sp.add_argument("--reproducible", action="store_true",
                        help="byte-stable outputs (config hash, no timestamps)")
        sp.add_argument("--oracle", action="store_true",
                        help="populate independent-oracle columns where available")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigurationError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        converged = COMMANDS[args.command](cfg, args, out)
    except (ConfigurationError, UnsupportedFeatureError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ResolutionError as err:
        print(f"resolution error: {err}", file=sys.stderr)
        return 3
    except QuadratureError as err:
        print(f"quadrature did not converge: {err}", file=sys.stderr)
        return 4
    except StructuralInconsistencyError as err:
        print(f"structural inconsistency: {err}", file=sys.stderr)
        return 5
    if not converged:
        print("warning: some solves did not converge", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
