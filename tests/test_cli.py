import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import filmhom
from filmhom import (Profile, gamma_check, save_sampled_profile,
                     superlevel_mask, thresholds, w_bar)
from filmhom.cli import _write_json, main
from filmhom.config import config_hash, load_config


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "dims": {"n": 3, "m": 1},
        "profile": {"kind": "sin2-product", "dim": 2},
        "energy": {"kind": "p_norm_power", "p": 2.0},
        "grid": {"N": 32},
        "sweep": {"t_values": [0.1, 0.3, 0.7], "F_probes": [[1.0, 0.0, 0.0]]},
        "film": {"n_grid": 16},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def read_lines(path):
    return Path(path).read_text(encoding="utf-8")


def test_mask_command_theta_table(tmp_path):
    cfg = write_config(tmp_path, sweep={"t_values": [0.1, 0.3, 0.7],
                                        "F_probes": []})
    out = tmp_path / "out"
    assert main(["mask", "--config", str(cfg), "--out", str(out),
                 "--reproducible"]) == 0
    body = read_lines(out / "theta.csv")
    rows = [line for line in body.splitlines() if not line.startswith("#")]
    assert rows[0] == "t,theta,num_components,wrap_rank"
    # f >= 1/2 everywhere, so theta = 1 below the threshold
    assert rows[1].startswith("0.1,1,")
    assert rows[2].startswith("0.3,1,")
    comps = json.loads(read_lines(out / "components.json"))
    assert comps["levels"][2]["wrap_rank"] == 0


def test_mask_constant_profile(tmp_path):
    cfg = write_config(tmp_path, profile={"kind": "constant", "dim": 2},
                       sweep={"t_values": [0.2, 0.8], "F_probes": []})
    out = tmp_path / "out"
    assert main(["mask", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [line for line in read_lines(out / "theta.csv").splitlines()
            if not line.startswith("#")]
    assert all(line.split(",")[1] == "1" for line in rows[1:])


def test_sampled_path_is_read_from_the_config_file_directory(tmp_path,
                                                             monkeypatch):
    # a relative path in a config file is read from the file's directory,
    # and in a dict from the working directory
    values = np.ones((4, 4))
    (tmp_path / "conf").mkdir()
    save_sampled_profile(values, tmp_path / "conf" / "prof.txt")
    cfg = write_config(tmp_path / "conf", profile={"kind": "sampled",
                                                   "path": "prof.txt"})
    monkeypatch.chdir(tmp_path)
    assert load_config(cfg).profile.values.shape == (4, 4)
    raw = json.loads(read_lines(cfg))
    with pytest.raises(filmhom.ConfigurationError, match="prof.txt"):
        load_config(raw)
    monkeypatch.chdir(tmp_path / "conf")
    assert load_config(raw).profile.values.shape == (4, 4)


def test_mask_sampled_profile_round_trip(tmp_path, stripe2):
    values = stripe2.eval_grid(32)
    values = values / values.max()
    prof_path = tmp_path / "prof.txt"
    save_sampled_profile(values, prof_path)
    cfg = write_config(tmp_path, profile={"kind": "sampled",
                                          "path": str(prof_path)},
                       sweep={"t_values": [0.6], "F_probes": []})
    out = tmp_path / "out"
    assert main(["mask", "--config", str(cfg), "--out", str(out)]) == 0
    saved = np.loadtxt(out / "mask_000.txt", skiprows=1).astype(bool)
    direct = superlevel_mask(Profile.sampled(values), 0.6, 32)
    assert np.array_equal(saved, direct)


@pytest.mark.parametrize("body,named", [
    ("2 x\n1 1\n1 1\n", "prof.txt"),
    ("2 2\n1 nan\n0.5 0.5\n", "finite"),
], ids=["header-text", "nan-entry"])
def test_malformed_sampled_profile_file_exits_2(tmp_path, capsys, body, named):
    prof_path = tmp_path / "prof.txt"
    prof_path.write_text(body, encoding="utf-8")
    cfg = write_config(tmp_path, profile={"kind": "sampled",
                                          "path": str(prof_path)})
    assert main(["mask", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert named in capsys.readouterr().err


def test_phi_full_mask_row_reproduces_density(tmp_path):
    cfg = write_config(tmp_path, sweep={"t_values": [0.2],
                                        "F_probes": [[1.0, 1.0]]})
    out = tmp_path / "out"
    assert main(["phi", "--config", str(cfg), "--out", str(out),
                 "--reproducible"]) == 0
    rows = [line for line in read_lines(out / "phi.csv").splitlines()
            if not line.startswith("#")]
    value = float(rows[1].split(",")[3])
    assert value == pytest.approx(2.0, abs=1e-10)
    summary = json.loads(read_lines(out / "phi_summary.json"))
    assert all(summary["monotone_in_t"].values())


def test_psi_oracle_column(tmp_path):
    cfg = write_config(tmp_path, sweep={"t_values": [0.3, 0.7],
                                        "F_probes": [[1.0, 0.5, 0.5]]})
    out = tmp_path / "out"
    assert main(["psi", "--config", str(cfg), "--out", str(out),
                 "--reproducible", "--oracle"]) == 0
    header = [line for line in read_lines(out / "psi.csv").splitlines()
              if not line.startswith("#")][0]
    assert header.endswith("cylinder_oracle,oracle_abs_err")
    summary = json.loads(read_lines(out / "psi_summary.json"))
    assert summary["max_oracle_abs_err"] <= 1e-6


def test_whom_split_oracle(tmp_path):
    cfg = write_config(tmp_path, sweep={"t_values": [0.3, 0.7],
                                        "F_probes": [[1.0, 0.5, 0.5]]})
    out = tmp_path / "out"
    assert main(["whom", "--config", str(cfg), "--out", str(out),
                 "--oracle"]) == 0
    summary = json.loads(read_lines(out / "whom_summary.json"))
    assert summary["max_oracle_abs_err"] <= 1e-6


def test_whom_oracle_off_p_norm_power_warns_and_adds_no_column(tmp_path):
    # the split-form oracle psi is the cell value of a p_norm_power only
    cfg = write_config(tmp_path, energy={"kind": "frobenius_power", "p": 2.0},
                       grid={"N": 16},
                       sweep={"t_values": [0.7], "F_probes": [[1.0, 0.5, 0.5]]})
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="--oracle.*frobenius_power"):
        assert main(["whom", "--config", str(cfg), "--out", str(out),
                     "--oracle"]) == 0
    header = [line for line in read_lines(out / "whom.csv").splitlines()
              if not line.startswith("#")][0]
    assert "oracle" not in header
    assert "max_oracle_abs_err" not in json.loads(
        read_lines(out / "whom_summary.json"))


@pytest.mark.parametrize("command", ["mask", "phi", "thresholds", "film", "gamma"])
def test_oracle_flag_refused_off_psi_and_whom(tmp_path, capsys, command):
    # only psi and whom have an oracle column
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--oracle"])
    assert exc.value.code == 2
    assert "--oracle" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["phi", "psi"])
@pytest.mark.parametrize("energy", [
    {"kind": "quadratic_form", "matrix": np.diag([5.0, 1.0, 1.0]).tolist()},
    {"kind": "frobenius_power", "p": 2.0},
], ids=["quadratic_form", "frobenius_power"])
def test_split_form_commands_refuse_another_density(tmp_path, capsys, command, energy):
    # phi and psi evaluate the split form of p_norm_power whatever the config
    # says, so another density is refused by energy.kind, not replaced
    cfg = write_config(tmp_path, energy=energy,
                       sweep={"t_values": [0.3], "F_probes": [[1.0, 0.5, 0.5]]})
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "energy.kind" in err and energy["kind"] in err


def test_thresholds_command(tmp_path):
    cfg = write_config(tmp_path, grid={"N": 64})
    out = tmp_path / "out"
    assert main(["thresholds", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads(read_lines(out / "thresholds.json"))
    assert abs(rep["thresholds"][0] - 0.5) <= 2 / 64
    assert abs(rep["thresholds"][1] - 0.5) <= 2 / 64


def test_thresholds_stripe_json(tmp_path):
    cfg = write_config(tmp_path, profile={"kind": "sin2-stripe", "dim": 2},
                       grid={"N": 64})
    out = tmp_path / "out"
    assert main(["thresholds", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads(read_lines(out / "thresholds.json"))
    assert abs(rep["thresholds"][0] - 0.5) <= 2 / 64
    assert abs(rep["thresholds"][1] - 1.0) <= 2 / 64
    assert rep["intervals"][-1]["xi"] == [[0.0, 1.0]]


def test_film_command_flat(tmp_path):
    cfg = write_config(tmp_path, profile={"kind": "constant", "dim": 2},
                       sweep={"t_values": [], "F_probes": [[1.0, 1.0]]})
    out = tmp_path / "out"
    assert main(["film", "--config", str(cfg), "--out", str(out)]) == 0
    table = json.loads(read_lines(out / "film.json"))
    assert table["entries"][0]["value"] == pytest.approx(2.0, abs=1e-5)


def test_gamma_command(tmp_path):
    cfg = write_config(
        tmp_path,
        dims={"n": 2, "m": 1},
        profile={"kind": "sin2-stripe", "dim": 1},
        sweep={"t_values": [], "F_probes": [[1.0]]},
        film={"n_grid": 32},
        schedule={"eps": [0.25, 0.125], "cells_per_delta": 8,
                  "vertical_cells": 16})
    out = tmp_path / "out"
    assert main(["gamma", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads(read_lines(out / "gamma.json"))
    assert rep["trend_nonincreasing"] is True
    assert len(rep["entries"]) == 2


REPRODUCIBLE_RUNS = {
    "psi": (dict(sweep={"t_values": [0.2, 0.7], "F_probes": [[1.0, 0.5, 0.0]],
                        "random_probes": 2, "seed": 7}),
            ("--oracle",), ("psi.csv", "psi_summary.json")),
    "film": (dict(sweep={"t_values": [], "F_probes": [[1.0, 0.0], [0.5, 0.5]]},
                  film={"n_grid": 16}),
             (), ("film.json", "film.csv")),
    "gamma": (dict(dims={"n": 2, "m": 1},
                   profile={"kind": "sin2-stripe", "dim": 1},
                   sweep={"t_values": [], "F_probes": [[1.0]]},
                   film={"n_grid": 16},
                   schedule={"eps": [0.5, 0.25], "cells_per_delta": 4,
                             "vertical_cells": 8}),
              (), ("gamma.json", "gamma.csv")),
}


@pytest.mark.parametrize("command", sorted(REPRODUCIBLE_RUNS))
def test_reproducible_outputs_byte_identical(tmp_path, command):
    overrides, flags, names = REPRODUCIBLE_RUNS[command]
    cfg = write_config(tmp_path, **overrides)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main([command, "--config", str(cfg), "--out", str(out),
                     "--reproducible", *flags]) == 0
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_jobs_flag_preserves_output(tmp_path):
    # --jobs is retired: K > 1 warns once and runs the same serial loop
    cfg = write_config(tmp_path, sweep={"t_values": [0.2, 0.5, 0.7],
                                        "F_probes": [[1.0, 0.0, 0.0]],
                                        "random_probes": 2, "seed": 3})
    out1, out2 = tmp_path / "jobs-1", tmp_path / "jobs-4"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["psi", "--config", str(cfg), "--out", str(out1),
                     "--reproducible", "--jobs", "1"]) == 0
    with pytest.warns(UserWarning, match="--jobs is retired and ignored") as caught:
        assert main(["psi", "--config", str(cfg), "--out", str(out2),
                     "--reproducible", "--jobs", "4"]) == 0
    assert len(caught) == 1
    assert (out1 / "psi.csv").read_bytes() == (out2 / "psi.csv").read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_rejected_by_name(tmp_path, capsys, jobs):
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["psi", "--config", str(cfg), "--out", str(tmp_path / "out"),
              "--jobs", jobs])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--jobs" in err and f"must be an integer >= 1; got {jobs}" in err
    assert not (tmp_path / "out").exists()


def test_exit_code_config_error(tmp_path):
    cfg = write_config(tmp_path, energy={"kind": "p_norm_power", "p": 0.5})
    assert main(["phi", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 2


def test_exit_code_missing_config(tmp_path):
    assert main(["phi", "--config", str(tmp_path / "nope.json"), "--out",
                 str(tmp_path / "out")]) == 2


def test_exit_code_dim_mismatch(tmp_path):
    cfg = write_config(tmp_path, dims={"n": 4, "m": 1})
    assert main(["phi", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 2


def test_exit_code_film_rejects_zero_floor(tmp_path):
    cfg = write_config(tmp_path,
                       profile={"kind": "sin2-product", "dim": 2, "floor": 0.0},
                       sweep={"t_values": [], "F_probes": [[1.0, 0.0]]})
    assert main(["film", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 2


def test_exit_code_resolution_error(tmp_path):
    cfg = write_config(
        tmp_path,
        dims={"n": 2, "m": 1},
        profile={"kind": "sin2-stripe", "dim": 1},
        sweep={"t_values": [], "F_probes": [[1.0]]},
        film={"n_grid": 16},
        schedule={"eps": [0.25, 0.125], "cells_per_delta": 2,
                  "vertical_cells": 8})
    assert main(["gamma", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 3


def test_exit_code_structural_inconsistency(tmp_path, capsys):
    # above the floor the checkerboard squares meet only at corners, where
    # the node lattice winds along (1, -1) and the face lattice does not
    cfg = write_config(tmp_path, profile={"kind": "checkerboard", "dim": 2},
                       grid={"N": 32})
    assert main(["thresholds", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 5
    err = capsys.readouterr().err
    assert "structural inconsistency" in err and "(1, -1)" in err


def test_exit_code_nonconvergence(tmp_path):
    # checkerboard squares that touch at corners take many iterations; a
    # stripe would be solved exactly by the first preconditioned one, and
    # product islands, whose node graph does not wind, by no solve at all
    cfg = write_config(tmp_path,
                       profile={"kind": "checkerboard", "dim": 2},
                       grid={"N": 32},
                       solver={"max_iterations": 1},
                       sweep={"t_values": [0.6], "F_probes": [[1.0, 1.0]]})
    assert main(["phi", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 4


def test_exit_code_whom_nonconvergence(tmp_path):
    # one Newton step cannot reach the gradient tolerance of a p = 3 cell
    # problem on checkerboard squares coupled at their corners; the
    # unconverged row must reach the exit code
    cfg = write_config(tmp_path, energy={"kind": "p_norm_power", "p": 3.0},
                       profile={"kind": "checkerboard", "dim": 2},
                       grid={"N": 16}, solver={"max_iterations": 1},
                       sweep={"t_values": [0.6], "F_probes": [[1.0, 0.5, 0.2]]})
    out = tmp_path / "out"
    assert main(["whom", "--config", str(cfg), "--out", str(out)]) == 4
    assert json.loads(read_lines(out / "whom_summary.json"))["all_converged"] is False


def test_exit_code_film_nonconvergence(tmp_path):
    cfg = write_config(tmp_path, profile={"kind": "checkerboard", "dim": 2},
                       film={"n_grid": 16},
                       solver={"max_iterations": 1},
                       sweep={"t_values": [], "F_probes": [[1.0, 0.0]]})
    out = tmp_path / "out"
    assert main(["film", "--config", str(cfg), "--out", str(out),
                 "--reproducible"]) == 4
    table = json.loads(read_lines(out / "film.json"))
    assert table["entries"][0]["converged"] is False


def test_film_rough_profile_ends_exact(tmp_path):
    # a rough sampled profile has at most 65 level classes on the 8-grid,
    # so even at rel_tol 1e-12 the bracket closes exactly
    values = np.random.default_rng(3).uniform(0.3, 1.0, size=(8, 8))
    values[0, 0] = 1.0
    prof_path = tmp_path / "prof.txt"
    save_sampled_profile(values, prof_path)
    cfg = write_config(tmp_path, profile={"kind": "sampled", "path": str(prof_path)},
                       film={"n_grid": 8}, quadrature={"rel_tol": 1e-12},
                       sweep={"t_values": [], "F_probes": [[1.0, 0.0]]})
    out = tmp_path / "out"
    assert main(["film", "--config", str(cfg), "--out", str(out)]) == 0
    entry = json.loads(read_lines(out / "film.json"))["entries"][0]
    assert entry["half_width"] == 0.0 and entry["value"] > 0.0


def test_config_validation_messages(tmp_path):
    from filmhom import ConfigurationError
    bad = {
        "dims": {"n": 3, "m": 1},
        "profile": {"kind": "sin2-stripe", "dim": 1},
        "schedule": {"eps": [0.1, 0.2]},
        "omega": [[0.0, 1.0]],
    }
    with pytest.raises(ConfigurationError) as err:
        load_config(bad)
    text = str(err.value)
    assert "inconsistent" in text
    assert "decreasing" in text
    assert "omega" in text


def test_unknown_config_key_names_it(tmp_path, capsys):
    cfg = write_config(tmp_path, grid={"N": 32, "vertical_cell": 4},
                       solver={"cg_tol": 1e-8})
    assert main(["phi", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "grid.vertical_cell" in err
    assert "solver.cg_tol" in err
    from filmhom import ConfigurationError
    with pytest.raises(ConfigurationError, match="section grid must be an object"):
        load_config({"grid": 64})


# outputs name their config by these digits, so they may never move
@pytest.mark.parametrize("raw,digest", [
    ({"dims": {"n": 3, "m": 1}, "profile": {"kind": "sin2-product", "dim": 2},
      "energy": {"kind": "p_norm_power", "p": 2.0}, "grid": {"N": 32},
      "sweep": {"t_values": [0.1, 0.3, 0.7], "F_probes": [[1.0, 0.0, 0.0]]},
      "film": {"n_grid": 16}}, "37a82feeed2e666b"),
    ({"profile": {"kind": "sampled", "dim": 2, "path": "profils/été.npz"},
      "grid": {"N": 64}}, "583bc7b1a64a1823"),
], ids=["default", "non-ascii"])
def test_config_hash_is_pinned_sha256_of_canonical_json(raw, digest):
    assert config_hash(raw) == digest
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode("utf-8")
    assert hashlib.sha256(canon).hexdigest()[:16] == digest


def test_serial_runs_leave_openssl_and_thread_pool_unimported(tmp_path):
    # hashlib maps OpenSSL's libcrypto (about 3.5 MB resident) and
    # concurrent.futures pulls in logging and queue; a film, gamma or mask
    # run uses neither, and no run starts a thread, --jobs 2 included.  The
    # configs are the benchmark's smoke mask, film and gamma.
    configs = {
        "mask": {"dims": {"n": 3, "m": 1},
                 "profile": {"kind": "checkerboard", "dim": 2},
                 "grid": {"N": 16}, "sweep": {"t_values": [0.1, 0.3, 0.5, 0.7, 0.9]}},
        "film": {"dims": {"n": 3, "m": 1},
                 "profile": {"kind": "sin2-product", "dim": 2},
                 "energy": {"kind": "p_norm_power", "p": 2.0},
                 "sweep": {"F_probes": [[1.0, 0.0]]}, "film": {"n_grid": 16}},
        "gamma": {"dims": {"n": 2, "m": 1},
                  "profile": {"kind": "sin2-stripe", "dim": 1},
                  "energy": {"kind": "p_norm_power", "p": 2.0},
                  "sweep": {"F_probes": [[1.0]]}, "film": {"n_grid": 16},
                  "schedule": {"eps": [0.5, 0.25], "cells_per_delta": 4,
                               "vertical_cells": 8}},
    }
    for command, cfg in configs.items():
        (tmp_path / f"{command}.json").write_text(json.dumps(cfg), encoding="utf-8")
    code = (
        "import sys, threading, warnings\n"
        "from pathlib import Path\n"
        "started = []\n"
        "thread_start = threading.Thread.start\n"
        "def start(self):\n"
        "    started.append(self.name)\n"
        "    thread_start(self)\n"
        "threading.Thread.start = start\n"
        "warnings.simplefilter('ignore')\n"
        "from filmhom.cli import main\n"
        "from filmhom.config import load_config\n"
        "root = Path(sys.argv[1])\n"
        "for command, flags in (('film', []), ('gamma', []), ('mask', ['--jobs', '2'])):\n"
        "    cfg = root / f'{command}.json'\n"
        "    load_config(cfg)\n"
        "    assert main([command, '--config', str(cfg), '--out',\n"
        "                 str(root / command), '--reproducible', *flags]) == 0\n"
        "print(sorted(m for m in ('_hashlib', 'concurrent.futures')"
        " if m in sys.modules), started)\n")
    src = str(Path(filmhom.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, check=True, env=env)
    assert done.stdout.strip() == "[] []"
    assert (tmp_path / "mask" / "theta.csv").is_file()
    assert (tmp_path / "film" / "film.json").is_file()
    assert (tmp_path / "gamma" / "gamma.json").is_file()


# key, value, command, overrides, output files: a retired key warns, and
# the outputs match a run without it up to the config hash
RETIRED_RUNS = [
    ("film.vertical_cells", 4, "film",
     dict(sweep={"t_values": [], "F_probes": [[1.0, 0.0]]}, film={"n_grid": 16}),
     ("film.json", "film.csv")),
    ("grid.vertical_cells", 8, "psi",
     dict(grid={"N": 16},
          sweep={"t_values": [0.3, 0.7], "F_probes": [[1.0, 0.5, 0.5]]}),
     ("psi.csv", "psi_summary.json")),
]


# the commands that take --oracle
ORACLE = {"psi": ("--oracle",), "whom": ("--oracle",)}


@pytest.mark.parametrize("key,value,command,overrides,names", RETIRED_RUNS,
                         ids=[run[0] for run in RETIRED_RUNS])
def test_retired_key_warns_and_is_ignored(tmp_path, key, value, command,
                                          overrides, names):
    section, leaf = key.split(".")
    plain = write_config(tmp_path, "plain.json", **overrides)
    retired_section = {**overrides.get(section, {}), leaf: value}
    retired = write_config(tmp_path, "retired.json",
                           **{**overrides, section: retired_section})
    outputs = []
    for cfg, name in ((plain, "a"), (retired, "b")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / name),
                         "--reproducible", *ORACLE.get(command, ())]) == 0
        messages = [str(w.message) for w in caught]
        assert any(key in m and "ignored" in m for m in messages) == (name == "b")
        digest = config_hash(json.loads(read_lines(cfg)))
        texts = [read_lines(tmp_path / name / f) for f in names]
        assert all(leaf not in text for text in texts)
        outputs.append([text.replace(digest, "<hash>") for text in texts])
    assert outputs[0] == outputs[1]


# one out-of-range value per field: rejected before any compute, by name
OUT_OF_RANGE = [
    ("gamma", "schedule", "vertical_cells", 0),
    ("gamma", "schedule", "vertical_cells", -2),
    ("film", "film", "n_grid", 1),
    ("phi", "solver", "max_iterations", 0),
    ("phi", "solver", "cg_rtol", -1.0),
    ("whom", "solver", "grad_tol", -1.0),
    ("psi", "sweep", "seed", -1),
    ("psi", "sweep", "random_probes", -4),
    ("phi", "energy", "p", 0.5),
    ("phi", "energy", "p", 1.0),
    # keys of the deleted midpoint rule: unknown keys, whatever the value
    ("film", "quadrature", "max_refinements", -1),
    ("film", "quadrature", "max_refinements", 0),
    ("film", "quadrature", "initial_nodes_per_unit", 0),
]


@pytest.mark.parametrize("command,section,key,value", OUT_OF_RANGE)
def test_out_of_range_field_rejected_by_name(tmp_path, capsys, command,
                                             section, key, value):
    overrides = {"schedule": {"eps": [0.5, 0.25]}}
    overrides.setdefault(section, {})[key] = value
    cfg = write_config(tmp_path, **overrides)
    assert main([command, "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err


# one value per kind of bad number: rejected before any compute, by name
NOT_A_NUMBER = [
    ("phi", "grid", "N", "abc"),
    ("phi", "grid", "N", 16.7),
    ("phi", "grid", "N", True),
    ("whom", "solver", "grad_tol", "x"),
    ("phi", "solver", "max_iterations", 2.5),
    ("psi", "sweep", "seed", 1.5),
    ("psi", "sweep", "random_probes", "two"),
    ("film", "quadrature", "rel_tol", [0.1]),
    ("phi", "energy", "p", "three"),
    ("phi", "dims", "m", 1.5),
    ("phi", "sweep", "t_values", [0.1, "x"]),
    ("phi", "sweep", "t_values", 0.5),
    ("phi", "sweep", "F_probes", [["x", 0.0]]),
    ("thresholds", "thresholds", "confirm", "false"),
    # a string that spells a number is still a string
    ("phi", "grid", "N", "16"),
    ("whom", "solver", "grad_tol", "1e-8"),
    ("phi", "sweep", "t_values", ["0.5"]),
    ("psi", "sweep", "F_probes", [["1", "0", "0"]]),
    ("gamma", "schedule", "eps", ["0.5", "0.25"]),
    # json.loads reads the tokens NaN and Infinity as floats
    ("psi", "sweep", "F_probes", [[float("nan"), 0.5, 0.2]]),
    ("psi", "sweep", "F_probes", [[float("inf"), 0.5, 0.2]]),
    ("gamma", "schedule", "eps", [float("nan")]),
    ("psi", "sweep", "probe_scale", float("nan")),
    ("film", "quadrature", "rel_tol", float("inf")),
    ("phi", "sweep", "t_values", [float("-inf")]),
    ("phi", "energy", "p", float("nan")),
    ("phi", "grid", "N", float("inf")),
]


@pytest.mark.parametrize("command,section,key,value", NOT_A_NUMBER)
def test_non_numeric_field_rejected_by_name(tmp_path, capsys, command,
                                            section, key, value):
    path = write_config(tmp_path)
    cfg = json.loads(read_lines(path))
    cfg.setdefault(section, {})[key] = value
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main([command, "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides,name", [
    ({"omega": [["a", 1.0], [0.0, 1.0]]}, "omega"),
    ({"omega": [[0.0], [0.0, 1.0]]}, "omega"),
    ({"omega": "ab"}, "omega"),
    ({"energy": {"kind": "quadratic_form", "matrix": "abc"}}, "energy.matrix"),
    ({"energy": {"kind": "quadratic_form", "matrix": [1.0, 2.0]}}, "energy.matrix"),
    ({"omega": [[0.0, float("nan")], [0.0, 1.0]]}, "omega"),
    ({"energy": {"kind": "quadratic_form",
                 "matrix": np.diag([1.0, float("inf"), 1.0]).tolist()}}, "energy.matrix"),
    ({"omega": [["0", "1"], [0.0, 1.0]]}, "omega"),
    ({"energy": {"kind": "quadratic_form",
                 "matrix": np.eye(3).astype(str).tolist()}}, "energy.matrix"),
    # a key that the chosen kind never reads
    ({"profile": {"kind": "constant", "dim": 2, "floor": 0.3}}, "profile.floor"),
    ({"profile": {"kind": "sin2-product", "dim": 2, "path": "f.txt"}}, "profile.path"),
    ({"profile": {"kind": "sampled", "path": "f.txt", "floor": 0.3}}, "profile.floor"),
    ({"energy": {"kind": "p_norm_power", "matrix": np.eye(3).tolist()}}, "energy.matrix"),
    ({"profile": {"kind": "constant", "dim": 2, "value": 1.0}}, "profile.value"),
    # the file gives a sampled profile's dimension
    ({"profile": {"kind": "sampled", "dim": 2, "path": "f.txt"}}, "profile.dim: not read"),
    # a matrix of no quadratic form, named by its field rather than as A
    ({"energy": {"kind": "quadratic_form",
                 "matrix": [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}},
     "energy.matrix: A must be symmetric"),
    ({"energy": {"kind": "quadratic_form", "matrix": np.diag([1.0, -1.0, 1.0]).tolist()}},
     "energy.matrix: A must be positive definite"),
], ids=["omega-text", "omega-short-pair", "omega-string", "matrix-text", "matrix-size",
        "omega-nan", "matrix-inf", "omega-numeric-text", "matrix-numeric-text",
        "floor-on-constant", "path-on-builtin", "floor-on-sampled",
        "matrix-on-norm-power", "constant-value", "dim-on-sampled",
        "matrix-non-symmetric", "matrix-indefinite"])
def test_malformed_array_field_rejected_by_name(tmp_path, capsys, overrides, name):
    cfg = write_config(tmp_path, **overrides)
    assert main(["phi", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert name in capsys.readouterr().err


def test_quadratic_form_refuses_another_p_by_name(tmp_path, capsys):
    # a quadratic form grows with p = 2: another p is refused, not dropped
    cfg = write_config(tmp_path, energy={"kind": "quadratic_form", "p": 3.0})
    assert main(["phi", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "energy.p" in err and "quadratic_form" in err
    raw = json.loads(read_lines(write_config(
        tmp_path, energy={"kind": "quadratic_form", "p": 2.0})))
    assert load_config(raw).energy.kind == "quadratic_form"


@pytest.mark.parametrize("section,key,value", [
    ("sweep", "F_probes", [[float("nan"), 0.5, 0.2]]),
    ("sweep", "probe_scale", float("inf")),
    ("schedule", "eps", [float("nan")]),
    ("omega", None, [[0.0, float("nan")], [0.0, 1.0]]),
])
def test_non_finite_value_rejected_by_name_in_dict_config(tmp_path, section, key,
                                                          value):
    from filmhom import ConfigurationError
    raw = json.loads(read_lines(write_config(tmp_path)))
    if key is None:
        raw[section] = value
    else:
        raw.setdefault(section, {})[key] = value
    name = section if key is None else f"{section}.{key}"
    with pytest.raises(ConfigurationError, match=name):
        load_config(raw)


def test_integral_float_accepted_for_integer_field(tmp_path):
    # 16.0 is the integer 16, and the run says so
    cfg = write_config(tmp_path, grid={"N": 16.0},
                       sweep={"t_values": [0.5], "F_probes": [[1.0, 0.0]]})
    out = tmp_path / "out"
    assert main(["phi", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [line for line in read_lines(out / "phi.csv").splitlines()
            if not line.startswith("#")]
    assert rows[1].split(",")[-1] == "16"


def _assert_fields(obj, payload):
    """payload holds obj as _write_json writes it: a dataclass by its field
    names, arrays and tuples as lists of the same values."""
    if dataclasses.is_dataclass(obj):
        names = [f.name for f in dataclasses.fields(obj)]
        assert sorted(payload) == sorted(names)
        for name in names:
            _assert_fields(getattr(obj, name), payload[name])
    elif isinstance(obj, dict):
        assert sorted(payload) == sorted(obj)
        for key in obj:
            _assert_fields(obj[key], payload[key])
    elif isinstance(obj, (list, tuple, np.ndarray)):
        assert isinstance(payload, list) and len(payload) == len(obj)
        for a, b in zip(obj, payload):
            _assert_fields(a, b)
    else:
        assert type(payload) is type(obj.item() if isinstance(obj, np.generic)
                                     else obj)
        assert payload == obj


def test_json_outputs_hold_each_result_by_its_fields(tmp_path, stripe1, stripe2,
                                                     product2, W2, W3):
    report = thresholds(stripe2, 32, confirm=False)
    assert any(iv.xi for iv in report.intervals)
    entry = w_bar(product2, W3, [[1.0, 0.0]], n_grid=16)
    assert isinstance(entry.node_argmins[0], np.ndarray)
    gamma = gamma_check(stripe1, W2, [[1.0]], [0.5, 0.25], cells_per_delta=4,
                        vertical_cells=8, n_grid=16)
    comments = ["config_hash=0123abcd", "reproducible=true"]
    for i, result in enumerate((report, entry, gamma)):
        path = tmp_path / f"{i}.json"
        _write_json(path, result, comments)
        payload = json.loads(read_lines(path))
        assert payload.pop("_meta") == {"config_hash": "0123abcd",
                                        "reproducible": "true"}
        _assert_fields(result, payload)
