import contextlib
import copy
import dataclasses
import gzip
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coagkin
from coagkin import cli, experiments, integrator, kernels, weights
from coagkin.cli import main
from coagkin.errors import NumericError
from coagkin.integrator import STEP_REACH, SolverConfig, integrate
from coagkin.system import prefix_columns

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
    # the front of this run reaches k = 16, so the check covers 1 <= i, j <= 16
    summary = json.loads((out / "summary.json").read_text())
    assert summary["admissibility"]["config_echo"]["max_size"] == 16
    assert summary["step_stats"]["tableau"] == "dopri5"  # the default rel_tol lies above the switch point


@pytest.mark.parametrize("command,overrides", [
    ("simulate", {}), ("verify", {"experiment": {"name": "truncation"}})])
def test_json_files_take_the_umask_like_the_csvs(tmp_path, command, overrides):
    cfg = write_config(tmp_path, **overrides)
    umask = os.umask(0o022)
    try:
        assert main([command, cfg]) == 0
    finally:
        os.umask(umask)
    modes = {p.name: p.stat().st_mode & 0o777 for p in (tmp_path / "out").iterdir()}
    assert any(name.endswith(".json") for name in modes) and any(name.endswith(".csv") for name in modes)
    assert set(modes.values()) == {0o644}, modes


def test_simulate_takes_the_leak_rates_from_the_records(tmp_path, monkeypatch):
    # the mass defect integrates the leak rates the diagnostics records hold: one rate per
    # sample is computed, and summary.json gets the number the stored rows give
    from coagkin import diagnostics
    rows = []
    rates = diagnostics.mass_leak_rates
    monkeypatch.setattr(diagnostics, "mass_leak_rates",
                        lambda block, kernel, k: rows.append(len(block)) or rates(block, kernel, k))
    path = write_config(tmp_path)
    assert main(["simulate", path]) == 0
    assert sum(rows) == 101
    cfg = cli.RunConfig.load(path)
    traj = integrate(cfg.build_initial(), cfg.build_kernel(), cfg.build_solver())
    defect = json.loads((tmp_path / "out" / "summary.json").read_text())["mass_defect"]
    assert defect == diagnostics.mass_defect(traj) > 0.0  # from the stored rows, no record built
    assert "diagnostics" not in vars(traj)


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


def test_verify_truncation_parses_the_initial_file_once(tmp_path, monkeypatch, capsys):
    data = tmp_path / "init.txt"
    data.write_text("0.5\n0.25\n0.125\n")
    parses = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: parses.append(a) or loadtxt(*a, **kw))
    cfg = write_config(tmp_path, initial={"type": "file", "path": str(data)},
                       experiment={"name": "truncation", "k_list": [4, 8, 16]})
    assert main(["verify", cfg]) == 0
    assert len(parses) == 1
    # each k still checks that the file fits it
    parses.clear()
    cfg = write_config(tmp_path, initial={"type": "file", "path": str(data)},
                       experiment={"name": "truncation", "k_list": [2, 8, 16]})
    assert main(["verify", cfg]) == 1
    assert "file holds 3 sizes, truncation_k is only 2" in capsys.readouterr().err
    assert len(parses) == 1


def test_compressed_initial_file_is_read_as_text(tmp_path, capsys):
    # the file is opened with open(), so no suffix selects a decompressor
    data = tmp_path / "init.txt.gz"
    data.write_bytes(gzip.compress(b"0.5\n0.25\n"))
    cfg = write_config(tmp_path, initial={"type": "file", "path": str(data)})
    assert main(["simulate", cfg]) == 1
    assert "config field 'initial.path': cannot read" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_IMPORT_PROBE = """
import json, sys
import coagkin, coagkin.cli
def loaded():
    return [m for m in ("coagkin.experiments", "coagkin.weights", "argparse", "gettext", "locale",
                        "gzip") if m in sys.modules]
seen = {"import": loaded(), "dir": dir(coagkin)}
for command, config in zip(("simulate", "verify"), sys.argv[1:]):
    assert coagkin.cli.main([command, config]) == 0
    seen[command] = loaded()
print(json.dumps(seen))
"""


def test_simulate_loads_neither_experiments_nor_weights(tmp_path):
    # without cached bytecode every imported module is compiled on each run, so
    # simulate imports only what it runs; a verify config loads the experiments.
    # No command loads argparse (with gettext and locale) or numpy's gzip reader,
    # which np.loadtxt imports when it is given a path: the initial data come
    # from a file
    data = tmp_path / "initial.txt"
    data.write_text("1.0\n0.25\n")
    initial = {"type": "file", "path": str(data)}
    sim = write_config(tmp_path, name="sim.json", output_dir=str(tmp_path / "sim"), initial=initial)
    ver = write_config(tmp_path, name="ver.json", output_dir=str(tmp_path / "ver"), initial=initial,
                       experiment={"name": "identity", "q_list": [4, 8, 15]})
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, sim, ver], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["import"] == []
    assert seen["simulate"] == []
    assert seen["verify"] == ["coagkin.experiments"]
    assert set(coagkin.__all__) <= set(seen["dir"])  # the weights names before they load


def test_package_names_resolve_as_before():
    for name in coagkin.__all__:
        assert getattr(coagkin, name) is not None, name
    assert coagkin.evaluate is weights.evaluate and coagkin.ConvexWeight is weights.ConvexWeight
    bound = {}
    exec("from coagkin import *", bound)
    del bound["__builtins__"]
    assert sorted(bound) == sorted(coagkin.__all__)
    assert set(coagkin.__all__) <= set(dir(coagkin))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        coagkin.no_such_name


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


@pytest.mark.parametrize("experiment", [
    {"name": "identity", "q_list": [4, 8, 15]},
    {"name": "truncation", "k_list": [4, 8, 16]},
    {"name": "dependence"},
], ids=lambda e: e["name"])
def test_verify_reads_no_record_and_matches_the_eager_path(tmp_path, monkeypatch, experiment):
    # these experiments read the stored samples only: no diagnostics record is
    # built, and their files are the bytes the record-reading path writes
    calls = []
    record = integrator.compute_record

    def spy(*args, **kwargs):
        calls.append(args)
        return record(*args, **kwargs)

    monkeypatch.setattr(integrator, "compute_record", spy)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, solver={"t_end": 1.0}, experiment=experiment)
    rc = main(["verify", cfg])
    assert calls == []
    lazy = {name: (out / name).read_bytes() for name in os.listdir(out)}
    shutil.rmtree(out)
    mass_defect, moment = oracles.eager_record_reads(kernels.constant(1.0))
    monkeypatch.setattr(experiments, "mass_defect", mass_defect)
    monkeypatch.setattr(experiments, "moment", moment)
    assert main(["verify", cfg]) == rc == 0
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == lazy
    if experiment["name"] == "truncation":
        report = json.loads(lazy["report.json"])
        assert report["metrics"]["defect_k4"] > 0.0  # the leak path is taken


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


def test_unknown_solver_key_lists_the_solver_fields(tmp_path, capsys):
    cfg = write_config(tmp_path, solver={"reltol": 1e-3})
    assert main(["simulate", cfg]) == 1
    fields = ", ".join(f.name for f in dataclasses.fields(SolverConfig))
    assert f"'solver.reltol': unknown key; expected {fields}" in capsys.readouterr().err


@pytest.mark.parametrize("command,overrides,key", [
    ("simulate", {"solver": {"t_end": "abc"}}, "solver.t_end"),
    ("simulate", {"solver": {"rel_tol": None}}, "solver.rel_tol"),
    ("simulate", {"solver": {"sample_times": ["a", "b"]}}, "solver.sample_times"),
    ("verify", {"experiment": {"name": "truncation", "k_list": ["a", 4, 8]}}, "experiment.k_list"),
    ("verify", {"experiment": {"name": "truncation", "k_list": [4, 8.0, 16]}}, "experiment.k_list"),
    ("verify", {"experiment": {"name": "identity", "q_list": [40]}}, "experiment.q_list"),
    ("verify", {"experiment": {"name": "identity", "q_list": [0]}}, "experiment.q_list"),
    ("verify", {"experiment": {"name": "identity", "q_list": ["a"]}}, "experiment.q_list"),
    ("verify", {"experiment": {"name": "admissibility", "max_size": "abc"}}, "experiment.max_size"),
    ("verify", {"experiment": {"name": "dependence", "epsilon": "x"}}, "experiment.epsilon"),
    ("verify", {"experiment": {"name": "dependence", "perturb_size": 17}}, "experiment.perturb_size"),
    ("verify", {"experiment": {"name": "weights", "tail_budget": -1}}, "experiment.tail_budget"),
    ("simulate", {"kernel": {"type": "constant", "params": {"C": 5.0}}}, "kernel.params.C"),
    ("simulate", {"kernel": {"type": "power", "params": {"exponent": "half"}}},
     "kernel.params.exponent"),
    ("simulate", {"solver": {"positivity_floor": 1e-14}}, "solver.positivity_floor"),
    ("simulate", {"initial": {"massscale": 2}}, "initial.massscale"),
    ("verify", {"initial": {"type": "geometric", "ratio": "x"}, "experiment": {"name": "weights"}},
     "initial.ratio"),
    ("simulate", {"initial": "monomer"}, "'initial'"),
    ("simulate", {"kernel": ["constant"]}, "'kernel'"),
    ("simulate", {"kernel": {"params": "x"}}, "kernel.params"),
    ("verify", {"kernel": {"zeta": None}, "experiment": {"name": "decay"}}, "kernel.zeta"),
    ("verify", {"kernel": {"delta": None}, "experiment": {"name": "dependence"}}, "kernel.delta"),
    ("verify", {"experiment": {"name": "truncation", "thresholds": {"defect_final_max": "x"}}},
     "experiment.thresholds"),
    ("simulate", {"kernel": {"A": -1}}, "kernel.A"),
    ("simulate", {"kernel": {"delta": 1.5}}, "kernel.delta"),
    ("simulate", {"kernel": {"zeta": 0}}, "kernel.zeta"),
    ("simulate", {"kernel": {"params": {"c": 0}}}, "kernel.params.c"),
    ("simulate", {"kernel": {"type": "additive", "params": {"a": -1}}}, "kernel.params.a"),
    ("simulate", {"kernel": {"type": "power", "params": {"a": 0}}}, "kernel.params.a"),
    ("simulate", {"kernel": {"type": "power", "params": {"exponent": 1.5}}},
     "kernel.params.exponent"),
    ("verify", {"experiment": {"name": "decay", "max_size": 8}}, "experiment.max_size"),
    ("verify", {"experiment": {"name": "truncation", "q_list": [2, 4]}}, "experiment.q_list"),
    ("verify", {"experiment": {"name": "admissibility", "tail_budget": 1.0}},
     "experiment.tail_budget"),
    ("verify", {"experiment": {"name": "identity", "kk_list": [4, 8, 16]}}, "experiment.kk_list"),
    ("verify", {"experiment": {"name": ["identity"]}}, "experiment.name"),
    ("verify", {"experiment": {"name": "admissibility", "thresholds": {"growth_violations": 1000}}},
     "experiment.thresholds"),
    ("simulate", {"seed": 0}, "'seed'"),
    # json.load reads NaN and Infinity as floats
    ("simulate", {"solver": {"t_end": math.inf}}, "solver.t_end"),
    ("simulate", {"solver": {"rel_tol": math.inf}}, "solver.rel_tol"),
    ("verify", {"solver": {"abs_tol": math.inf}, "experiment": {"name": "identity"}},
     "solver.abs_tol"),
    ("simulate", {"solver": {"max_step": math.inf}}, "solver.max_step"),
    ("simulate", {"solver": {"mode": "fixed_step", "fixed_h": math.inf}}, "solver.fixed_h"),
    ("simulate", {"solver": {"sample_times": [0, math.nan, 1]}}, "solver.sample_times"),
], ids=["t_end_abc", "rel_tol_null", "sample_times_strings", "k_list_string", "k_list_float",
        "q_list_above_k", "q_list_zero", "q_list_string", "max_size_string", "epsilon_string",
        "perturb_size_above_k", "tail_budget_negative", "kernel_param_unknown",
        "kernel_param_string", "positivity_floor_removed", "initial_key_unknown",
        "initial_ratio_string", "initial_not_object", "kernel_not_object",
        "kernel_params_not_object", "decay_without_zeta", "dependence_without_delta",
        "threshold_string",
        "kernel_A_negative", "kernel_delta_above_one", "kernel_zeta_zero", "constant_c_zero",
        "additive_a_negative", "power_a_zero", "power_exponent_above_one",
        "decay_foreign_key", "truncation_foreign_key", "admissibility_foreign_key",
        "identity_misspelled_key", "experiment_name_not_string", "admissibility_thresholds",
        "seed_key_removed", "t_end_infinite", "rel_tol_infinite", "abs_tol_infinite",
        "max_step_infinite", "fixed_h_infinite", "sample_times_nan"])
def test_malformed_value_is_a_config_error(tmp_path, capsys, command, overrides, key):
    cfg = write_config(tmp_path, **overrides)
    assert main([command, cfg]) == 1  # a ConfigError, not an escaping exception
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_threshold_name_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment={"name": "truncation", "k_list": [4, 8, 16],
                                             "thresholds": {"defect_final": 1.0}})
    assert main(["verify", cfg]) == 1
    assert "experiment.thresholds.defect_final" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # every experiment that takes thresholds checks their names before it writes anything:
    # a name it reports is accepted, one it does not report fails before output exists
    for experiment, bad in (({"name": "truncation", "k_list": [4, 8, 16]}, "defect_k32"),
                            ({"name": "dependence"}, "uniqueness_sup"),
                            ({"name": "dependence", "epsilon": 0.0}, "max_envelope_ratio"),
                            ({"name": "decay"}, "m0_initial"),
                            ({"name": "identity", "q_list": [4, 8]}, "identity_residual_one_q15"),
                            ({"name": "identity"}, "identity_residual_one_q16"),
                            ({"name": "weights", "max_size": 16}, "ineq_violations")):
        out = tmp_path / f"out_{experiment['name']}"
        cfg = write_config(tmp_path, output_dir=str(out), experiment=experiment)
        assert main(["verify", cfg]) in (0, 2)
        reported = json.loads((out / "report.json").read_text())["metrics"]
        shutil.rmtree(out)
        cfg = write_config(tmp_path, output_dir=str(out),
                           experiment={**experiment, "thresholds": dict.fromkeys(reported, 1e300)})
        assert main(["verify", cfg]) == 0, experiment
        shutil.rmtree(out)
        cfg = write_config(tmp_path, output_dir=str(out),
                           experiment={**experiment, "thresholds": {bad: 1.0}})
        capsys.readouterr()
        with pytest.MonkeyPatch.context() as mp:
            if experiment["name"] == "identity":  # rejected before the trajectory is integrated
                for module in (cli, experiments):
                    mp.setattr(module, "integrate", _no_integration)
            assert main(["verify", cfg]) == 1, experiment
        assert f"experiment.thresholds.{bad}" in capsys.readouterr().err
        assert not out.exists(), experiment


def _no_integration(*args, **kwargs):
    raise AssertionError("integrated before the thresholds were checked")


# Config fuzz: one value or key of a small valid config is replaced, deleted,
# renamed or added. Integers stay small, positive floats stay at or above 1e-3
# and text stays a plain relative file name, so no draw allocates a huge
# truncation, asks for millions of steps or writes outside the example's
# working directory.
_FUZZ_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.sampled_from([0.0, -0.0, -1.5, 1e-3, 0.25, 0.5, 2.0, 1e300, math.inf, -math.inf, math.nan]),
    st.text(alphabet="abcxyz_0123", max_size=4),
)
_FUZZ_VALUES = st.one_of(
    _FUZZ_LEAVES,
    st.lists(_FUZZ_LEAVES, max_size=4),
    st.dictionaries(st.sampled_from(["a", "c", "name", "x"]), _FUZZ_LEAVES, max_size=2),
)
_FUZZ_KEYS = st.sampled_from(["zz", "name", "type", "path", "thresholds", "ratio", "params"])
_FUZZ_BASES = [
    {"kernel": {"type": "constant", "params": {"c": 1.0}},
     "initial": {"type": "monomer", "mass_scale": 1.0}, "truncation_k": 8, "solver": {"t_end": 0.5}},
    {"kernel": {"type": "power", "params": {"a": 1.0, "exponent": 0.5}, "A": 2.0, "delta": 0.5,
                "zeta": None},
     "initial": {"type": "geometric", "ratio": 0.5, "mass_scale": 1.0}, "truncation_k": 6,
     "solver": {"t_end": 0.5, "rel_tol": 1e-6, "abs_tol": 1e-9, "max_step": 0.1, "mode": "adaptive",
                "fixed_h": None, "sample_times": [0.0, 0.25, 0.5]}},
]
_FUZZ_EXPERIMENTS = [
    {"name": "truncation", "k_list": [2, 4, 8], "thresholds": {"defect_final_max": 1.0}},
    {"name": "identity", "q_list": [2, 4]},
    {"name": "dependence", "epsilon": 1e-6, "perturb_size": 2},
    {"name": "decay"},
    {"name": "admissibility", "max_size": 16},
    {"name": "weights", "max_size": 16, "tail_budget": 1.0},
]


def _paths(obj, prefix=()):
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@st.composite
def _mutated_config(draw, command):
    cfg = copy.deepcopy(draw(st.sampled_from(_FUZZ_BASES)))
    if command == "verify":
        cfg["experiment"] = copy.deepcopy(draw(st.sampled_from(_FUZZ_EXPERIMENTS)))
    paths = list(_paths(cfg))
    op = draw(st.sampled_from(["replace", "delete", "rename", "insert"]))
    if op == "insert":
        dicts = [()] + [p for p in paths if isinstance(_at(cfg, p), dict)]
        _at(cfg, draw(st.sampled_from(dicts)))[draw(_FUZZ_KEYS)] = draw(_FUZZ_VALUES)
        return cfg
    path = draw(st.sampled_from(paths))
    parent, key = _at(cfg, path[:-1]), path[-1]
    if op == "replace":
        parent[key] = draw(_FUZZ_VALUES)
        return cfg
    value = parent.pop(key)
    if op == "rename" and isinstance(parent, dict):
        parent[key + "_"] = value
    return cfg


@pytest.mark.parametrize("command", ["simulate", "verify"])
@settings(derandomize=True, max_examples=60)
@given(data=st.data())
def test_mutated_config_exits_cleanly(command, data):
    cfg = data.draw(_mutated_config(command))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            with open("config.json", "w") as fh:
                json.dump(cfg, fh)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "config.json"])  # an escaping exception fails the example
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


def test_schema_keys_are_the_accepted_keys():
    path = os.path.join(os.path.dirname(__file__), "..", "src", "coagkin", "config.schema.json")
    with open(path) as fh:
        schema = json.load(fh)["properties"]
    assert set(schema) == set(cli._TOP_KEYS)
    assert set(schema["initial"]["properties"]) == set().union(*cli._INITIAL_KEYS.values())
    assert set(schema["kernel"]["properties"]) == set(kernels.KERNEL_KEYS)
    assert set(schema["kernel"]["properties"]["params"]["properties"]) == set().union(
        *kernels._PARAMS.values())
    experiment = schema["experiment"]["properties"]
    table = experiments.EXPERIMENTS
    assert set(experiment) == {"name"}.union(*(spec.keys for spec in table.values()))
    assert experiment["name"]["enum"] == list(table)
    # a schema default is the table's default in every experiment that reads the key
    defaults = {key: prop["default"] for key, prop in experiment.items() if "default" in prop}
    assert set(defaults) == {"epsilon", "perturb_size", "tail_budget"}
    for key, default in defaults.items():
        readers = [spec for spec in table.values() if key in spec.keys]
        assert readers and all(spec.keys[key] == default for spec in readers), key


def test_simulate_additive_k256_default_solver_keeps_invariants(tmp_path):
    cfg = write_config(tmp_path, kernel={"type": "additive", "params": {"a": 1.0}},
                       truncation_k=256, solver={"t_end": 10.0})
    assert main(["simulate", cfg]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["invariant_violations"] == []
    st = summary["step_stats"]
    assert {"clamped_mass_step", "clamped_mass_sample"} <= set(st)
    assert st["n_rejected"] == st["n_rejected_error"] + st["n_rejected_positivity"]
    assert st["max_occupied_size"] == 256  # the front reached k


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


def test_verify_decay_samples_the_settling_time_on_a_user_grid(tmp_path):
    cfg = write_config(tmp_path, truncation_k=8,
                       solver={"t_end": 2.0, "sample_times": [0.0, 1.0, 2.0]},
                       experiment={"name": "decay"})
    assert main(["verify", cfg]) in (0, 2)
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [0.0, 1.0, 0.9 * 2.0, 2.0]
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["metrics"]["component_convergence"] > 0.0  # not the final state against itself


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


@pytest.mark.parametrize("argv", [
    [], ["simulate"], ["simulate", "a.json", "b.json"], ["bogus", "a.json"], ["kernels", "foo"],
    ["schema"], ["kernels", "list", "extra"], ["simulate", "--config"], ["-x"], ["-h", "simulate"],
], ids=["none", "no-config", "extra-argument", "unknown-command", "unknown-action", "no-action",
        "extra-word", "option", "unknown-option", "help-with-words"])
def test_malformed_command_line_prints_usage_and_exits_1(argv, capsys):
    # 2 is the code of a failed verification, so a usage error must not use it
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == cli.USAGE + "\n"


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_alone_prints_usage_to_stdout(flag, capsys):
    assert main([flag]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith(cli.USAGE + "\n")
    for command in ("simulate CONFIG", "verify CONFIG", "kernels list", "schema print"):
        assert command in out


def test_usage_error_exit_code_from_the_module(tmp_path):
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-m", "coagkin.cli", "simulate"], env=env,
                          capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == cli.USAGE + "\n"


def test_outputs_stay_under_output_dir(tmp_path, monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    cfg = write_config(tmp_path, output_dir=str(tmp_path / "only_here"))
    assert main(["simulate", cfg]) == 0
    assert sorted(os.listdir(workdir)) == []
    assert (tmp_path / "only_here" / "summary.json").exists()


def test_simulate_numeric_failure_exit_code(tmp_path, capsys, recwarn):
    # a horizon this long stalls the step controller: numeric failure, exit 3, one
    # line on stderr and no numpy warning
    cfg = write_config(tmp_path, solver={"t_end": 1e12})
    assert main(["simulate", cfg]) == 3
    assert capsys.readouterr().err == (
        "numeric failure: step size underflow (h=5.000e-03 < 1.000e+00) (at t=0)\n")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


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


@pytest.mark.parametrize("row", ["1_0,1,2.0", "2,1,nan", "2,1,inf"])
def test_malformed_table_row_is_a_config_error_not_an_admissibility_failure(tmp_path, capsys, row):
    # read as size 10, or as a non-finite rate, these rows once reached the
    # admissibility precheck as symmetry and growth violations
    table = tmp_path / "k.csv"
    table.write_text(f"1,1,1.0\n2,2,1.0\n{row}\n")
    cfg = write_config(tmp_path, kernel={"type": "table", "params": {"path": str(table)}, "A": 1.0},
                       truncation_k=2, output_dir=str(tmp_path / "out"))
    assert main(["simulate", cfg]) == 1
    err = capsys.readouterr().err
    assert "kernel.params.path" in err and f"{table}:3:" in err
    assert "admissibility" not in err
    assert not (tmp_path / "out").exists()


def test_admissibility_failure_names_the_grid_checked(tmp_path, capsys):
    table = tmp_path / "k.csv"
    cfg = write_config(tmp_path, truncation_k=2,
                       kernel={"type": "table", "params": {"path": str(table)}, "A": 1.0})
    for rate, failed in (("5.0", "growth_violations 1 > 0"), ("-1.0", "negativity_violations 1 > 0")):
        table.write_text(f"1,1,{rate}\n2,1,1.0\n2,2,1.0\n")
        assert main(["simulate", cfg]) == 1
        err = capsys.readouterr().err
        assert f"grid 1..2: {failed}; first violation at (i, j) = (1, 1), rate {rate}" in err
        assert not (tmp_path / "out").exists()


def test_violation_beyond_k_passes_simulate_and_fails_verify(tmp_path):
    # a 4k table whose only bad cell, (10, 3), lies past the k = 4 a run reads
    k = 4
    table = tmp_path / "k.csv"
    table.write_text("".join(f"{i},{j},{-1.0 if (i, j) == (10, 3) else 1.0}\n"
                             for i in range(1, 4 * k + 1) for j in range(1, i + 1)))
    kernel = {"type": "table", "params": {"path": str(table)}, "A": 1.0}
    cfg = write_config(tmp_path, kernel=kernel, truncation_k=k)
    assert main(["simulate", cfg]) == 0
    cfg = write_config(tmp_path, name="verify.json", kernel=kernel, truncation_k=k,
                       experiment={"name": "admissibility"}, output_dir=str(tmp_path / "v"))
    assert main(["verify", cfg]) == 2
    report = json.loads((tmp_path / "v" / "report.json").read_text())
    assert report["config_echo"]["max_size"] == 4 * k
    # the table mirrors (10, 3), and (3, 10) comes first in row-major order
    assert (report["metrics"]["first_violation_i"], report["metrics"]["first_violation_j"]) == (3, 10)


def _spy_grids(monkeypatch) -> list:
    """The grid of every check_admissibility call simulate makes, in order."""
    grids = []

    def spy(kern, max_size):
        grids.append(max_size)
        return kernels.check_admissibility(kern, max_size)

    monkeypatch.setattr(cli, "check_admissibility", spy)
    return grids


def test_simulate_checks_the_grid_the_run_reached(tmp_path, monkeypatch):
    # at k = 16,384 the front stops far below k, and so does the checked grid
    k = 16_384
    grids = _spy_grids(monkeypatch)
    assert main(["simulate", write_config(tmp_path, truncation_k=k)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    reach = min(k, summary["step_stats"]["max_occupied_size"] + 7)
    assert reach < k
    assert grids == [reach]
    assert summary["admissibility"]["config_echo"]["max_size"] == reach


def _table_rows(k, bad=None, rate=-1.0):
    """CSV rows of a k x k table of rate 1.0 whose cell ``bad`` (i >= j) holds ``rate``."""
    return "".join(f"{i},{j},{rate if (i, j) == bad else 1.0}\n"
                   for i in range(1, k + 1) for j in range(1, i + 1))


def _front_run(tmp_path, k, **solver):
    """A config running a table of rate 1.0 to t = 0.1 at truncation k, and its table file.

    ``solver`` adds solver keys. The run is made once on the clean table;
    its step_stats are returned and its output directory removed.
    """
    table = tmp_path / "front.csv"
    table.write_text(_table_rows(k))
    kernel = {"type": "table", "params": {"path": str(table)}, "A": 1.0}
    cfg = write_config(tmp_path, kernel=kernel, truncation_k=k, solver={"t_end": 0.1, **solver})
    assert main(["simulate", cfg]) == 0
    stats = json.loads((tmp_path / "out" / "summary.json").read_text())["step_stats"]
    shutil.rmtree(tmp_path / "out")
    return cfg, table, stats


def test_bad_rate_between_front_and_reach_fails_simulate(tmp_path, capsys):
    k = 128
    cfg, table, stats = _front_run(tmp_path, k)
    reach = stats["max_occupied_size"] + 7
    assert reach < k  # G = reach, and the bad cell (G, 1) lies in (max_occupied_size, G]
    table.write_text(_table_rows(k, bad=(reach, 1)))
    assert main(["simulate", cfg]) == 1
    err = capsys.readouterr().err
    assert (f"grid 1..{reach}: negativity_violations 2 > 0; "
            f"first violation at (i, j) = (1, {reach}), rate -1.0") in err
    assert not (tmp_path / "out").exists()


def test_bad_rate_past_reach_passes_simulate(tmp_path):
    k = 128
    cfg, table, stats = _front_run(tmp_path, k)
    reach = stats["max_occupied_size"] + 7
    assert reach < k  # the bad cell (G + 1, 1) lies in (G, k]
    table.write_text(_table_rows(k, bad=(reach + 1, 1)))
    assert main(["simulate", cfg]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["step_stats"] == stats
    assert summary["admissibility"]["status"] == "pass"
    assert summary["admissibility"]["config_echo"]["max_size"] == reach


def test_bad_rate_within_the_dop853_reach_fails_simulate(tmp_path, capsys):
    # a run at the switch point steps with DOP853, whose steps and samples reach 16
    # sizes past the front: the bad cell at (front + 16, 1) lies in G
    k = 256
    cfg, table, stats = _front_run(tmp_path, k, rel_tol=integrator.DOP853_REL_TOL)
    assert stats["tableau"] == "dop853"
    reach = stats["max_occupied_size"] + 16
    assert reach < k
    table.write_text(_table_rows(k, bad=(reach, 1)))
    assert main(["simulate", cfg]) == 1
    assert f"grid 1..{reach}: negativity_violations 2 > 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_numeric_failure_of_a_dop853_run_checks_its_reach(tmp_path, capsys, monkeypatch):
    # the first DOP853 step stalls at once; its stages read the 32 sizes of
    # prefix_columns(1 + 16, k), not the 8 of a Dormand-Prince 5(4) step
    k = 16_384
    grids = _spy_grids(monkeypatch)
    cfg = write_config(tmp_path, truncation_k=k, solver={"t_end": 1e12, "rel_tol": 1e-12})
    assert main(["simulate", cfg]) == 3
    assert capsys.readouterr().err.startswith("numeric failure: step size underflow")
    assert grids == [prefix_columns(1 + 16, k)] == [32]


def test_kernel_that_breaks_the_integration_is_an_admissibility_failure(tmp_path, capsys, recwarn):
    # rate(1, 1) = -1000 blows xi_1 up at once: the run fails numerically, and the
    # kernel is then checked on the widest prefix any rhs call read, where the
    # negative rate shows
    k = 16
    table = tmp_path / "k.csv"
    table.write_text(_table_rows(k, bad=(1, 1), rate=-1000.0))
    cfg = write_config(tmp_path, kernel={"type": "table", "params": {"path": str(table)}, "A": 1.0})
    run = cli.RunConfig.load(cfg)
    with pytest.raises(NumericError) as exc:
        integrate(run.build_initial(), run.build_kernel(), run.build_solver())
    grid = prefix_columns(exc.value.max_occupied_size + STEP_REACH, k)
    assert grid < k
    assert main(["simulate", cfg]) == 1
    err = capsys.readouterr().err
    assert f"failed admissibility on grid 1..{grid}: negativity_violations 1 > 0" in err
    assert "numeric failure" not in err
    assert err.count("\n") == 1
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "out").exists()


def test_fixed_step_blow_up_is_a_numeric_failure(tmp_path, capsys, recwarn):
    # RK4 at h = 0.3 blows up for the additive kernel at k = 8; the run must stop
    # with the numeric-failure code and write nothing, not a trajectory of NaN rows
    cfg = write_config(tmp_path, truncation_k=8, kernel={"type": "additive", "params": {"a": 1.0}},
                       solver={"t_end": 1.0, "mode": "fixed_step", "fixed_h": 0.3})
    assert main(["simulate", cfg]) == 3
    assert capsys.readouterr().err == "numeric failure: non-finite values in trial step\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]  # the overflow is not noise
    assert not (tmp_path / "out").exists()


def test_numeric_failure_checks_only_the_prefix_the_run_read(tmp_path, capsys, monkeypatch, recwarn):
    # the first step stalls at once (min_step = 1e-12 * t_end = 1): the kernel is
    # checked on the 8 sizes a step from monomers reads, not on all of 1..k
    k = 16_384
    grids = _spy_grids(monkeypatch)
    cfg = write_config(tmp_path, truncation_k=k, solver={"t_end": 1e12})
    assert main(["simulate", cfg]) == 3
    assert capsys.readouterr().err == (
        "numeric failure: step size underflow (h=5.000e-03 < 1.000e+00) (at t=0)\n")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert grids == [prefix_columns(1 + STEP_REACH, k)] == [8]
    assert not (tmp_path / "out").exists()


def test_non_finite_rate_read_as_zero_times_inf_fails_simulate(tmp_path, capsys, monkeypatch, recwarn):
    # a NaN at (32, 1) lies past G = max_occupied_size + STEP_REACH of the failed run,
    # but the matrix route reads it, times xi_32 = 0, once a stage input reaches
    # size 16, and the NaN breaks the run; the prefix 1..32 that call took shows it.
    # A table file cannot hold a NaN (its loader rejects the file), so the NaN is
    # set in the loaded table, which the kernel's rule reads
    k = 64
    load = kernels.tabulated_from_csv

    def with_nan(*args, **kwargs):
        kern = load(*args, **kwargs)
        kern.table[31, 0] = math.nan
        return kern

    monkeypatch.setattr(kernels, "tabulated_from_csv", with_nan)
    table = tmp_path / "k.csv"
    table.write_text(_table_rows(k))
    cfg = write_config(tmp_path, truncation_k=k, solver={"t_end": 10.0},
                       kernel={"type": "table", "params": {"path": str(table)}, "A": 1.0})
    run = cli.RunConfig.load(cfg)
    with pytest.raises(NumericError) as exc:
        integrate(run.build_initial(), run.build_kernel(), run.build_solver())
    reach = exc.value.max_occupied_size + STEP_REACH
    assert reach < 32 == prefix_columns(reach, k)
    grids = _spy_grids(monkeypatch)
    assert main(["simulate", cfg]) == 1
    assert grids == [32]
    err = capsys.readouterr().err
    assert "failed admissibility on grid 1..32" in err and "rate nan" in err
    assert err.count("\n") == 1
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "out").exists()


def test_benchmark_tracer_installs_on_this_checkout():
    # the benchmark's tracer wraps entry points by name (cli.check_admissibility,
    # experiments._run_ordered, integrator.compute_record, ...): renaming one breaks it
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    code = ("import sys; sys.path[:0] = sys.argv[1:]; "
            "from spans import Tracer; Tracer().install()")
    proc = subprocess.run([sys.executable, "-c", code, os.path.join(root, "src"),
                           os.path.join(root, "perfbench")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command,overrides", [
    ("simulate", {}),
    ("verify", {"experiment": {"name": "identity", "q_list": [4, 8, 15]}}),
    ("verify", {"experiment": {"name": "truncation", "k_list": [4, 8, 16]}}),
], ids=["simulate", "identity", "truncation"])
def test_traced_benchmark_run_passes_its_self_checks(tmp_path, command, overrides):
    # one traced benchmark iteration (perfbench/child.py, TRACE=1) on a small config:
    # every rhs evaluation has a known consumer, the stepping ones match step_stats,
    # and one cli.main span holds all others; only simulate builds records. The tracer
    # counts evaluations through RhsEvaluator.__call__: a stage loop that called
    # RhsEvaluator._into directly wrote the same bits but read rhs_step_vs_step_stats
    # -200 (simulate), -200 (identity) and -635 (truncation) here
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    cfg = write_config(tmp_path, **overrides)
    result = tmp_path / "result.json"
    proc = subprocess.run([sys.executable, os.path.join(root, "perfbench", "child.py"),
                           os.path.join(root, "src"), command, cfg, "0.0", "1", str(result)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(result.read_text())
    assert run["rc"] == 0
    checks, metrics = run["trace"]["checks"], run["trace"]["metrics"]
    assert checks["rhs_other"] == 0
    assert checks["rhs_step_vs_step_stats"] == 0
    assert checks["root_spans"] == 1
    assert metrics["system.rhs_evals.step"] > 0
    reads_records = command == "simulate"
    assert (metrics["diagnostics.records"] > 0) == reads_records
    assert (metrics["system.rhs_evals.diagnostics"] > 0) == reads_records
