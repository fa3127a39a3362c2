import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from coagkin.cli import main
from coagkin.integrator import SolverConfig

BASE = {
    "kernel": {"type": "constant", "params": {"c": 1.0}},
    "initial": {"type": "monomer", "mass_scale": 1.0},
    "truncation_k": 16,
    "solver": {"t_end": 1.0},
}


def write_config(tmp_path, name="config.json", **overrides):
    cfg = json.loads(json.dumps(BASE))
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    cfg.setdefault("output_dir", str(tmp_path / "out"))
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_simulate_writes_outputs(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["simulate", cfg]) == 0
    out = tmp_path / "out"
    for name in ("trajectory.csv", "diagnostics.csv", "summary.json", "moments.svg"):
        assert (out / name).exists(), name
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t," + ",".join(f"xi_{i}" for i in range(1, 17))


def test_simulate_round_trip_is_bit_identical(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["simulate", cfg]) == 0
    original = (tmp_path / "out" / "trajectory.csv").read_bytes()
    echo = json.loads((tmp_path / "out" / "summary.json").read_text())["config_echo"]
    echo_path = tmp_path / "echo.json"
    echo_path.write_text(json.dumps(echo))
    assert main(["simulate", str(echo_path)]) == 0
    assert (tmp_path / "out" / "trajectory.csv").read_bytes() == original


def test_simulate_rejects_k_below_two(tmp_path, capsys):
    cfg = write_config(tmp_path, truncation_k=1)
    assert main(["simulate", cfg]) == 1
    assert "truncation_k" in capsys.readouterr().err


def test_simulate_rejects_understated_growth_constant(tmp_path, capsys):
    cfg = write_config(tmp_path, kernel={"type": "additive", "params": {"a": 1.0}, "A": 0.5})
    assert main(["simulate", cfg]) == 1
    assert "admissibility" in capsys.readouterr().err


def test_simulate_rejects_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", str(bad)]) == 1
    assert main(["simulate", str(tmp_path / "missing.json")]) == 1


def test_simulate_initial_from_file(tmp_path):
    data = tmp_path / "init.txt"
    data.write_text("0.5\n0.25\n0.125\n")
    cfg = write_config(tmp_path, initial={"type": "file", "path": str(data), "mass_scale": 2.0})
    assert main(["simulate", cfg]) == 0
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    first = np.array(rows[1].split(","), dtype=float)
    assert np.array_equal(first[1:4], [1.0, 0.5, 0.25])


def test_verify_identity_passes(tmp_path):
    cfg = write_config(
        tmp_path,
        solver={"t_end": 1.0, "sample_times": list(np.linspace(0, 1, 201))},
        experiment={"name": "identity", "q_list": [4, 8, 15]},
    )
    assert main(["verify", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "pass"
    assert report["thresholds"]
    assert report["config_echo"]["run_config"]["truncation_k"] == 16


def test_verify_decay_default_thresholds_pass(tmp_path):
    cfg = write_config(tmp_path, truncation_k=64, solver={"t_end": 100.0},
                       experiment={"name": "decay"})
    assert main(["verify", cfg]) == 0


def test_verify_truncation_and_failure_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, solver={"t_end": 1.0},
                       experiment={"name": "truncation", "k_list": [4]})
    assert main(["verify", cfg]) == 1  # precondition: at least 3 entries
    cfg = write_config(tmp_path, solver={"t_end": 1.0},
                       experiment={"name": "truncation", "k_list": [4, 8, 16]})
    assert main(["verify", cfg]) == 0
    # an impossible threshold turns the same run into a verification failure
    cfg = write_config(
        tmp_path,
        solver={"t_end": 1.0},
        experiment={"name": "truncation", "k_list": [4, 8, 16],
                    "thresholds": {"defect_final_max": 0.0}},
    )
    assert main(["verify", cfg]) == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "fail"


def test_verify_rejects_unsorted_k_list_before_any_output(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment={"name": "truncation", "k_list": [16, 8, 4]})
    assert main(["verify", cfg]) == 1
    assert "experiment.k_list" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verify_solver_error_leaves_no_output_dir(tmp_path, capsys):
    path = tmp_path / "config.json"
    write_config(tmp_path, experiment={"name": "identity"})
    path.write_text(json.dumps({**json.loads(path.read_text()), "solver": {}}))
    assert main(["verify", str(path)]) == 1
    assert "solver.t_end" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_misspelled_solver_key_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, solver={"reltol": 1e-3}, experiment={"name": "identity"})
    assert main(["verify", cfg]) == 1
    assert "solver.reltol" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_schema_solver_keys_are_the_solver_config_fields():
    path = os.path.join(os.path.dirname(__file__), "..", "src", "coagkin", "config.schema.json")
    with open(path) as fh:
        solver = json.load(fh)["properties"]["solver"]["properties"]
    assert set(solver) == {f.name for f in dataclasses.fields(SolverConfig)}


def test_verify_unknown_experiment_lists_names(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment={"name": "bogus"})
    assert main(["verify", cfg]) == 1
    err = capsys.readouterr().err
    for name in ("truncation", "dependence", "decay", "identity", "admissibility", "weights"):
        assert name in err


def test_verify_dependence_admissibility_weights(tmp_path):
    cfg = write_config(tmp_path, solver={"t_end": 1.0}, experiment={"name": "dependence"})
    assert main(["verify", cfg]) == 0
    cfg = write_config(tmp_path, experiment={"name": "admissibility", "max_size": 32})
    assert main(["verify", cfg]) == 0
    cfg = write_config(tmp_path, initial={"type": "geometric", "ratio": 0.5},
                       experiment={"name": "weights", "max_size": 64})
    assert main(["verify", cfg]) == 0


def test_kernels_list_and_schema_print(capsys):
    assert main(["kernels", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("constant", "additive", "power", "table"):
        assert name in out
    assert main(["schema", "print"]) == 0
    schema = json.loads(capsys.readouterr().out)
    assert schema["title"].startswith("coagkin")
    assert set(schema["required"]) == {"kernel", "initial", "truncation_k", "solver"}


def test_outputs_stay_under_output_dir(tmp_path, monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    cfg = write_config(tmp_path, output_dir=str(tmp_path / "only_here"))
    assert main(["simulate", cfg]) == 0
    assert sorted(os.listdir(workdir)) == []
    assert (tmp_path / "only_here" / "summary.json").exists()


def test_simulate_numeric_failure_exit_code(tmp_path, capsys):
    # a horizon this long stalls the step controller: numeric failure, exit 3
    cfg = write_config(tmp_path, solver={"t_end": 1e12})
    assert main(["simulate", cfg]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_geometric_initial_mass_normalization(tmp_path):
    cfg = write_config(tmp_path, initial={"type": "geometric", "ratio": 0.5, "mass_scale": 3.0})
    assert main(["simulate", cfg]) == 0
    diag = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    cols = diag[0].split(",")
    first = dict(zip(cols, diag[1].split(",")))
    assert float(first["M1"]) == pytest.approx(3.0, rel=1e-12)


def test_table_smaller_than_run_is_a_config_error(tmp_path):
    table = tmp_path / "k.csv"
    table.write_text("1,1,1.0\n2,1,1.0\n2,2,1.0\n")
    kernel = {"type": "table", "params": {"path": str(table)}, "A": 1.0}
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"), os.environ.get("PYTHONPATH", "")])}
    for command, extra in [("simulate", {}),
                           ("verify", {"truncation_k": 2,
                                       "experiment": {"name": "truncation", "k_list": [2, 4, 8]}})]:
        out = tmp_path / f"out_{command}"
        cfg = write_config(tmp_path, **{"kernel": kernel, "truncation_k": 8,
                                        "output_dir": str(out), **extra})
        proc = subprocess.run([sys.executable, "-m", "coagkin.cli", command, cfg],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "kernel.params.path" in proc.stderr and "need 8" in proc.stderr
        assert not out.exists()
    # the admissibility grid is capped at the table, so that experiment still runs
    cfg = write_config(tmp_path, kernel=kernel, truncation_k=8,
                       experiment={"name": "admissibility"})
    assert main(["verify", cfg]) == 0


def test_admissibility_failure_names_the_grid_checked(tmp_path, capsys):
    table = tmp_path / "k.csv"
    table.write_text("1,1,5.0\n2,1,1.0\n2,2,1.0\n")
    cfg = write_config(tmp_path, truncation_k=2,
                       kernel={"type": "table", "params": {"path": str(table)}, "A": 1.0})
    assert main(["simulate", cfg]) == 1
    assert "grid 1..2:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
