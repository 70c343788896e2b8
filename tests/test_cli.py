import json
from pathlib import Path

import numpy as np
import pytest

from filmhom import Profile, save_sampled_profile, superlevel_mask
from filmhom.cli import main
from filmhom.config import load_config


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "dims": {"n": 3, "m": 1},
        "profile": {"kind": "sin2-product", "dim": 2},
        "energy": {"kind": "p_norm_power", "p": 2.0},
        "grid": {"N": 32, "vertical_cells": 4},
        "sweep": {"t_values": [0.1, 0.3, 0.7], "F_probes": [[1.0, 0.0, 0.0]]},
        "film": {"n_grid": 16, "vertical_cells": 4},
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
    direct = superlevel_mask(Profile.sampled(values), 0.6, 32).occupancy
    assert np.array_equal(saved, direct)


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


def test_thresholds_command(tmp_path):
    cfg = write_config(tmp_path, grid={"N": 64})
    out = tmp_path / "out"
    assert main(["thresholds", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads(read_lines(out / "thresholds.json"))
    assert abs(rep["thresholds"][0] - 0.5) <= max(rep["bisect_tol"], 2 / 64)
    assert abs(rep["thresholds"][1] - 0.5) <= max(rep["bisect_tol"], 2 / 64)


def test_thresholds_stripe_json(tmp_path):
    cfg = write_config(tmp_path, profile={"kind": "sin2-stripe", "dim": 2},
                       grid={"N": 64})
    out = tmp_path / "out"
    assert main(["thresholds", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads(read_lines(out / "thresholds.json"))
    assert abs(rep["thresholds"][0] - 0.5) <= max(rep["bisect_tol"], 2 / 64)
    assert abs(rep["thresholds"][1] - 1.0) <= max(rep["bisect_tol"], 2 / 64)
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
        film={"n_grid": 32, "vertical_cells": 4},
        schedule={"eps": [0.25, 0.125], "cells_per_delta": 8,
                  "vertical_cells": 16})
    out = tmp_path / "out"
    assert main(["gamma", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads(read_lines(out / "gamma.json"))
    assert rep["trend_nonincreasing"] is True
    assert len(rep["entries"]) == 2


def test_reproducible_outputs_byte_identical(tmp_path):
    cfg = write_config(tmp_path, sweep={"t_values": [0.2, 0.7],
                                        "F_probes": [[1.0, 0.5, 0.0]],
                                        "random_probes": 2, "seed": 7})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["psi", "--config", str(cfg), "--out", str(out1),
                 "--reproducible", "--oracle"]) == 0
    assert main(["psi", "--config", str(cfg), "--out", str(out2),
                 "--reproducible", "--oracle"]) == 0
    for name in ("psi.csv", "psi_summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_jobs_flag_preserves_output(tmp_path):
    cfg = write_config(tmp_path, sweep={"t_values": [0.2, 0.5, 0.7],
                                        "F_probes": [[1.0, 0.0, 0.0]],
                                        "random_probes": 2, "seed": 3})
    out1, out2 = tmp_path / "serial", tmp_path / "parallel"
    assert main(["psi", "--config", str(cfg), "--out", str(out1),
                 "--reproducible"]) == 0
    assert main(["psi", "--config", str(cfg), "--out", str(out2),
                 "--reproducible", "--jobs", "4"]) == 0
    assert (out1 / "psi.csv").read_bytes() == (out2 / "psi.csv").read_bytes()


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
        film={"n_grid": 16, "vertical_cells": 4},
        schedule={"eps": [0.25, 0.125], "cells_per_delta": 2,
                  "vertical_cells": 8})
    assert main(["gamma", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 3


def test_exit_code_structural_inconsistency(tmp_path):
    cfg = write_config(tmp_path, grid={"N": 32},
                       thresholds={"coercivity_floor": 1e6})
    assert main(["thresholds", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 5


def test_exit_code_nonconvergence(tmp_path):
    # product islands at t = 0.7 take many iterations; a stripe would be
    # solved exactly by the first preconditioned one
    cfg = write_config(tmp_path,
                       profile={"kind": "sin2-product", "dim": 2},
                       grid={"N": 32},
                       solver={"max_iterations": 1},
                       sweep={"t_values": [0.7], "F_probes": [[1.0, 1.0]]})
    assert main(["phi", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 4


def test_exit_code_film_nonconvergence(tmp_path):
    cfg = write_config(tmp_path, film={"n_grid": 16, "vertical_cells": 2},
                       solver={"max_iterations": 1},
                       sweep={"t_values": [], "F_probes": [[1.0, 0.0]]})
    out = tmp_path / "out"
    assert main(["film", "--config", str(cfg), "--out", str(out),
                 "--reproducible"]) == 4
    table = json.loads(read_lines(out / "film.json"))
    assert table["entries"][0]["converged"] is False


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
