"""Batch driver: every computation as a subcommand producing CSV/JSON files.

Subcommands: mask, phi, psi, thresholds, whom, film, gamma.
Common flags: --config PATH, --out DIR, --reproducible; psi and whom alone
take --oracle.  phi and psi refuse any energy.kind but p_norm_power.  Every
command runs serially on one thread.  --jobs K is retired: it is still
parsed (K must be an integer >= 1), warns when K > 1, and is ignored.

Exit codes, set in main alone: 0 success, 2 config error (also a --config
that cannot be read and an --out that cannot be written), 3 resolution error,
4 solver non-convergence, 5 structural inconsistency (the node lattice of a
superlevel set outranks its face lattice, so the grid cannot certify the
kernel; thresholds makes no solve and never exits 4).  CSV uses ','
separator and 12 significant digits; with --reproducible the header
comment carries the config hash instead of a timestamp and reruns are
byte-identical.  The output layout lives here alone: each command returns
its files as {name: text}, which main alone writes under --out; a JSON file
holds its result dataclass's own fields, and each CSV row is built next to
its column names.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import film as film_mod
from . import homogenize as hom
from .config import load_config
from .errors import (ConfigurationError, ResolutionError,
                     StructuralInconsistencyError, as_integer)
from .profiles import superlevel_mask, torus_components

MONOTONE_TOL = 1e-8


def _fmt(value):
    """A CSV cell: every cell is a bool, an int or a float."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _csv(columns, rows, comments):
    lines = [f"# {line}" for line in comments] + [",".join(columns)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _fields(obj):
    """json.dumps's hook: an array as nested lists, a result dataclass by its
    own fields (the encoder recurses into them)."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _json(payload, comments):
    """A dict or a result dataclass as JSON text, with ``_meta`` from the
    header comments."""
    payload = dict(payload) if isinstance(payload, dict) else _fields(payload)
    payload["_meta"] = {k: v for k, v in (c.split("=", 1) for c in comments)}
    return json.dumps(payload, sort_keys=True, indent=1, default=_fields) + "\n"


def _comments(cfg, args):
    if args.reproducible:
        return [f"config_hash={cfg.config_hash}", "reproducible=true"]
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return [f"generated={stamp}", f"config_hash={cfg.config_hash}"]


def _flat_names(m, cols):
    return [f"F{i}{j}" for i in range(m) for j in range(cols)]


def _jobs(text):
    """argparse type of --jobs: ``as_integer`` of the text, as an int if it is one."""
    try:
        value = int(text)
    except ValueError:
        value = text
    try:
        return as_integer(value, "--jobs")
    except ConfigurationError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


# -- subcommands -----------------------------------------------------------


def cmd_mask(cfg, args, comments):
    if not cfg.t_values:
        raise ConfigurationError("mask command needs sweep.t_values")

    rows, detail, files = [], [], {}
    for i, t in enumerate(cfg.t_values):
        mask = superlevel_mask(cfg.profile, t, cfg.grid_n)
        comps = torus_components(mask)
        theta = float(mask.sum()) / mask.size
        rank = len(comps.wrap_lattice)
        rows.append([t, theta, comps.num_components, rank])
        detail.append({
            "t": t,
            "theta": theta,
            "num_components": comps.num_components,
            "wrap_rank": rank,
            "wrap_lattice": [list(v) for v in comps.wrap_lattice],
        })
        # "ndim side", then rows of space-separated 0/1 digits, from one byte buffer
        side = mask.shape[0]
        text = np.full((mask.size // side, 2 * side), ord(" "), dtype=np.uint8)
        text[:, 0::2] = mask.reshape(-1, side).view(np.uint8) + ord("0")
        text[:, -1] = ord("\n")
        files[f"mask_{i:03d}.txt"] = f"{mask.ndim} {side}\n" + text.tobytes().decode()
    files["theta.csv"] = _csv(["t", "theta", "num_components", "wrap_rank"], rows,
                              comments)
    files["components.json"] = _json({"resolution": cfg.grid_n, "levels": detail},
                                     comments)
    return files, True


def _density_sweep(cfg, comments, name, evaluate, oracle_column=None):
    """Evaluate (t, F) -> (sample, oracle sample or None) over the sweep.

    With an oracle, each row also carries its value and the absolute gap, and
    an unconverged oracle solve counts as unconverged like the sample's own.
    """
    if not cfg.t_values:
        raise ConfigurationError(f"{name} command needs sweep.t_values")
    # the split form psi = phi# + theta |F_n|^p needs a column-separable W
    if name in ("phi", "psi") and cfg.energy.kind != "p_norm_power":
        raise ConfigurationError(f"{name} evaluates p_norm_power only; "
                                 f"energy.kind is {cfg.energy.kind!r}")
    cols = cfg.n - 1 if name == "phi" else cfg.n
    probes = cfg.probe_matrices(cols)
    entries = [(t, F) for F in probes for t in cfg.t_values]
    results = [evaluate(t, F) for t, F in entries]

    columns = (["t"] + _flat_names(cfg.m, cols)
               + ["value", "theta", "converged", "iterations", "N"]
               + ([oracle_column, "oracle_abs_err"] if oracle_column else []))
    rows = []
    all_converged = True
    oracle_errs = []
    per_probe_values = {}
    for (t, F), (sample, ref) in zip(entries, results):
        row = [t] + list(F.ravel()) + [sample.value, sample.theta,
                                       sample.report.converged,
                                       sample.report.iterations, cfg.grid_n]
        all_converged &= sample.report.converged
        if ref is not None:
            oracle_errs.append(abs(sample.value - ref.value))
            row += [ref.value, oracle_errs[-1]]
            all_converged &= ref.report.converged
        rows.append(row)
        per_probe_values.setdefault(tuple(F.ravel()), []).append((t, sample.value))

    monotone = {}
    for key, pairs in per_probe_values.items():
        ordered = sorted(pairs, key=lambda p: abs(p[0]))
        vals = [v for _, v in ordered]
        monotone[str([float(x) for x in key])] = all(
            b <= a + MONOTONE_TOL for a, b in zip(vals, vals[1:]))

    summary = {
        "monotone_in_t": monotone,
        "all_converged": all_converged,
        "num_rows": len(rows),
    }
    if oracle_errs:
        summary["max_oracle_abs_err"] = max(oracle_errs)
    return {f"{name}.csv": _csv(columns, rows, comments),
            f"{name}_summary.json": _json(summary, comments)}, all_converged


def cmd_phi(cfg, args, comments):
    def evaluate(t, F):
        return hom.phi_sharp(cfg.profile, t, F, cfg.grid_n,
                             p=cfg.energy.p, opts=cfg.solver), None

    return _density_sweep(cfg, comments, "phi", evaluate)


def cmd_psi(cfg, args, comments):
    oracle = args.oracle

    def evaluate(t, F):
        sample = hom.psi(cfg.profile, t, F, cfg.grid_n,
                         p=cfg.energy.p, opts=cfg.solver)
        if not oracle:
            return sample, None
        return sample, hom.psi_cylinder_oracle(cfg.profile, t, F, cfg.grid_n,
                                               p=cfg.energy.p, opts=cfg.solver)

    return _density_sweep(cfg, comments, "psi", evaluate,
                          "cylinder_oracle" if oracle else None)


def cmd_whom(cfg, args, comments):
    oracle = args.oracle
    # the split-form oracle psi is the cell value of a p_norm_power only
    if oracle and cfg.energy.kind != "p_norm_power":
        raise ConfigurationError(f"whom --oracle evaluates p_norm_power only; "
                                 f"energy.kind is {cfg.energy.kind!r}")

    def evaluate(t, F):
        sample = hom.w_hom(cfg.profile, t, F, cfg.energy, cfg.grid_n,
                           opts=cfg.solver)
        if not oracle:
            return sample, None
        return sample, hom.psi(cfg.profile, t, F, cfg.grid_n,
                               p=cfg.energy.p, opts=cfg.solver)

    return _density_sweep(cfg, comments, "whom", evaluate,
                          "split_oracle" if oracle else None)


def cmd_thresholds(cfg, args, comments):
    report = hom.thresholds(cfg.profile, cfg.grid_n, m=cfg.m,
                            confirm=cfg.confirm_kernel)
    return {"thresholds.json": _json(report, comments)}, True


def cmd_film(cfg, args, comments):
    probes = cfg.probe_matrices(cfg.n - 1)
    report = hom.thresholds(cfg.profile, cfg.film_n_grid, confirm=False)

    entries = [film_mod.w_bar(cfg.profile, cfg.energy, F, n_grid=cfg.film_n_grid,
                              rel_tol=cfg.rel_tol, opts=cfg.solver) for F in probes]
    table = {"entries": entries, "thresholds": report.thresholds,
             "rel_tol": cfg.rel_tol,
             "metadata": {"n_grid": cfg.film_n_grid, "config_hash": cfg.config_hash}}
    columns = _flat_names(cfg.m, cfg.n - 1) + ["value", "refinement_level", "nodes"]
    rows = [list(e.Fbar.ravel()) + [e.value, e.refinement_level, len(e.nodes)]
            for e in entries]
    return {"film.json": _json(table, comments),
            "film.csv": _csv(columns, rows, comments)}, all(e.converged for e in entries)


def cmd_gamma(cfg, args, comments):
    if not cfg.eps_schedule:
        raise ConfigurationError("gamma command needs schedule.eps")
    probes = cfg.probe_matrices(cfg.n - 1)
    if len(probes) != 1:
        raise ConfigurationError(
            f"sweep.F_probes, sweep.random_probes: gamma runs one affine boundary "
            f"gradient; configure exactly one F probe, not {len(probes)}")
    report = film_mod.gamma_check(
        cfg.profile, cfg.energy, probes[0], cfg.eps_schedule, omega=cfg.omega,
        cells_per_delta=cfg.cells_per_delta,
        vertical_cells=cfg.schedule_vertical_cells, n_grid=cfg.film_n_grid,
        rel_tol=cfg.rel_tol, opts=cfg.solver)
    columns = ["eps", "delta", "minimum", "scaled", "gap", "converged"]
    rows = [[e.eps, e.delta, e.minimum, e.scaled, e.gap, int(e.converged)]
            for e in report.entries]
    return ({"gamma.json": _json(report, comments),
             "gamma.csv": _csv(columns, rows, comments)},
            report.membrane_converged and all(e.converged for e in report.entries))


COMMANDS = {
    "mask": cmd_mask,
    "phi": cmd_phi,
    "psi": cmd_psi,
    "thresholds": cmd_thresholds,
    "whom": cmd_whom,
    "film": cmd_film,
    "gamma": cmd_gamma,
}


# built once per process: the seven subparsers take about 2 ms to build,
# a visible share of a small subcommand
@functools.cache
def _parser():
    parser = argparse.ArgumentParser(
        prog="filmhom",
        description="effective densities of oscillating-boundary media and thin films")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--jobs", type=_jobs, default=1,
                        help="retired and ignored: filmhom runs serially "
                             "(still accepted, at least 1)")
        sp.add_argument("--reproducible", action="store_true",
                        help="byte-stable outputs (config hash, no timestamps)")
        if name in ("psi", "whom"):
            sp.add_argument("--oracle", action="store_true",
                            help="add the independent oracle's column")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.jobs > 1:
        warnings.warn("option --jobs is retired and ignored: filmhom runs "
                      "every command serially", stacklevel=2)

    try:
        cfg = load_config(args.config)
        files, converged = COMMANDS[args.command](cfg, args, _comments(cfg, args))
        # --out is made only now, so a refused run leaves no directory behind
        out = target = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
            for name, text in files.items():
                target = out / name
                target.write_text(text, encoding="utf-8", newline="\n")
        except OSError as err:
            raise ConfigurationError(f"--out {out}: cannot write {target}: "
                                     f"{err.strerror or err}") from err
    except ConfigurationError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ResolutionError as err:
        print(f"resolution error: {err}", file=sys.stderr)
        return 3
    except StructuralInconsistencyError as err:
        print(f"structural inconsistency: {err}", file=sys.stderr)
        return 5
    if not converged:
        print("warning: some solves did not converge", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
