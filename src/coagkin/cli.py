"""Command-line front end: config parsing, run orchestration, file emission.

    coagkin simulate CONFIG | verify CONFIG | kernels list | schema print

Exit codes: 0 success/pass, 1 usage or config error, 2 verification
failure (a report or invariant did not pass), 3 numeric failure. A
command line of any other shape prints the usage line to stderr and
exits 1; ``-h`` or ``--help`` alone prints the usage to stdout and exits
0. ``main`` returns the code and never raises ``SystemExit``.

The commands are matched against a table (``_COMMANDS``), not argparse:
argparse formats its help through gettext, which imports locale, and
the three cost about 5 ms in each process (README, design notes) to
tell four fixed shapes apart.
"""
from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import kernels, output
from .diagnostics import mass_defect
from .errors import CoagkinError, ConfigError, NumericError, reject_unknown_keys
from .integrator import SolverConfig, integrate
from .kernels import CoagulationKernel, check_admissibility
from .numerics import is_number
from .reports import write_json_atomic
from .system import SizeDistribution, geometric, monomer, prefix_columns

if TYPE_CHECKING:  # pragma: no cover
    from .experiments import Experiment

# ``experiments`` is imported where a config names an experiment, never at
# module level: each module a run imports is compiled again when no bytecode
# is cached, and ``simulate`` runs no experiment.

_SOLVER_FIELDS = {f.name: f for f in fields(SolverConfig)}
_TOP_KEYS = ("kernel", "initial", "truncation_k", "solver", "experiment", "output_dir")
# keys each initial type reads
_INITIAL_KEYS = {
    "monomer": ("type", "mass_scale"),
    "geometric": ("type", "mass_scale", "ratio"),
    "file": ("type", "mass_scale", "path"),
}


@dataclass
class RunConfig:
    kernel: dict
    initial: dict
    truncation_k: int
    solver: dict
    output_dir: str
    experiment: dict | None = None

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        if not os.path.exists(path):
            raise ConfigError("config", f"file not found: {path}")
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"malformed JSON in {path}: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config", f"must be a JSON object, got {type(raw).__name__}")
        reject_unknown_keys("", raw, _TOP_KEYS)
        for key in ("kernel", "initial", "truncation_k", "solver"):
            if key not in raw:
                raise ConfigError(key, "missing required field")
        k = raw["truncation_k"]
        if not isinstance(k, int) or isinstance(k, bool) or k < 2:
            raise ConfigError("truncation_k", f"must be an integer >= 2, got {k!r}")
        for key in ("kernel", "initial", "solver"):
            if not isinstance(raw[key], dict):
                raise ConfigError(key, f"must be an object, got {raw[key]!r}")
        initial = dict(raw["initial"])
        _check_initial(initial)
        output_dir = raw.get("output_dir", "coagkin_out")
        if not isinstance(output_dir, str) or not output_dir:
            raise ConfigError("output_dir", f"must be a nonempty string, got {output_dir!r}")
        exp = raw.get("experiment")
        if exp is not None and not isinstance(exp, dict):
            raise ConfigError("experiment", f"must be an object, got {exp!r}")
        if exp is not None:
            _check_experiment(exp, k)
        return cls(
            kernel=dict(raw["kernel"]),
            initial=initial,
            truncation_k=k,
            solver=dict(raw["solver"]),
            output_dir=output_dir,
            experiment=dict(exp) if exp is not None else None,
        )

    @property
    def spec(self) -> Experiment | None:
        """The experiment table's entry for the configured experiment (None: no experiment)."""
        if self.experiment is None:
            return None
        from .experiments import EXPERIMENTS

        return EXPERIMENTS[self.experiment["name"]]

    def build_kernel(self) -> CoagulationKernel:
        kern = kernels.from_config(self.kernel)
        spec = self.spec
        if spec is not None and spec.needs is not None and getattr(kern, spec.needs[0]) is None:
            _, key, what = spec.needs
            raise ConfigError(f"kernel.{key}",
                              f"the {self.experiment['name']} experiment needs a declared {what}")
        cover = kern.max_table_size
        if cover is not None:
            # an experiment that integrates nothing caps its grid at the table's size
            need = spec.largest_k(self.experiment, self.truncation_k) if spec else self.truncation_k
            if cover < need:
                raise ConfigError(
                    "kernel.params.path", f"tabulated kernel covers sizes 1..{cover}, need {need}"
                )
        return kern

    def build_solver(self) -> SolverConfig:
        reject_unknown_keys("solver", self.solver, _SOLVER_FIELDS)
        kwargs = {}
        for key, value in self.solver.items():
            declared = str(_SOLVER_FIELDS[key].type)
            if value is None and "None" not in declared:
                raise ConfigError(f"solver.{key}", "must not be null")
            # numbers given as JSON integers become floats, as the fields declare
            if value is not None and "float" in declared:
                if not is_number(value):
                    raise ConfigError(f"solver.{key}", f"must be a number, got {value!r}")
                value = float(value)
            if value is not None and "ndarray" in declared:
                try:
                    value = np.asarray(value, dtype=float)
                except (TypeError, ValueError):
                    value = None
                if value is None or value.ndim != 1 or value.size < 2:
                    raise ConfigError(f"solver.{key}", "must be a list of at least 2 numbers")
            kwargs[key] = value
        if "t_end" not in kwargs:
            raise ConfigError("solver.t_end", "missing required field")
        cfg = SolverConfig(**kwargs)
        cfg.validate()
        return cfg

    def build_initial(self, k: int | None = None) -> SizeDistribution:
        """Initial state at truncation size k (default truncation_k); from_dict checked the block."""
        k = k if k is not None else self.truncation_k
        kind = self.initial.get("type", "monomer")
        scale = float(self.initial.get("mass_scale", 1.0))
        if kind == "monomer":
            state = monomer(k, scale)
        elif kind == "geometric":
            state = geometric(k, float(self.initial.get("ratio", 0.5)), scale)
        else:
            vals = self._file_values
            if vals.size > k:
                raise ConfigError(
                    "initial.path", f"file holds {vals.size} sizes, truncation_k is only {k}"
                )
            if not np.all(np.isfinite(vals) & (vals >= 0)):
                raise ConfigError("initial.path", "needs finite nonnegative concentrations")
            v = np.zeros(k)
            v[: vals.size] = scale * vals
            state = SizeDistribution(v, k)
        state.validate()
        return state

    @cached_property
    def _file_values(self) -> np.ndarray:
        """The initial-data file's concentrations, parsed once however many k a study builds."""
        path = self.initial["path"]
        try:
            with open(path) as fh:  # a path would go through numpy's datasource layer
                return np.loadtxt(fh, dtype=float).reshape(-1)
        except (OSError, ValueError) as exc:
            raise ConfigError("initial.path", f"cannot read {path!r}: {exc}") from exc

    def resolved_dict(self) -> dict:
        """Fully materialized config; feeding it back reproduces the run."""
        return {
            "kernel": self.kernel,
            "initial": self.initial,
            "truncation_k": self.truncation_k,
            "solver": self.build_solver().to_dict(),
            "experiment": self.experiment,
            "output_dir": self.output_dir,
        }


def _check_initial(initial: dict) -> None:
    """Keys, types and ranges of the initial block; the file itself is read later."""
    kind = initial.get("type", "monomer")
    if not isinstance(kind, str) or kind not in _INITIAL_KEYS:
        raise ConfigError(
            "initial.type", f"unknown initial type {kind!r}; valid types: {', '.join(_INITIAL_KEYS)}"
        )
    reject_unknown_keys("initial", initial, _INITIAL_KEYS[kind], f"a {kind} initial")
    for key, in_range, rule in (
        ("mass_scale", lambda v: 0 < v < math.inf, "> 0 and finite"),
        ("ratio", lambda v: 0 < v < 1, "in (0, 1)"),
    ):
        value = initial.get(key)
        if key in initial and not (is_number(value) and in_range(value)):
            raise ConfigError(f"initial.{key}", f"must be a number {rule}, got {value!r}")
    if kind == "file":
        path = initial.get("path")
        if not isinstance(path, str) or not os.path.isfile(path):
            raise ConfigError("initial.path", f"file not found: {path!r}")


def _check_experiment(exp: dict, k: int) -> None:
    """The experiment's name, its keys, and every setting it reads, defaults included."""
    from . import experiments

    if "name" not in exp:
        raise ConfigError("experiment.name", "missing experiment name")
    name = exp["name"]
    if not isinstance(name, str) or name not in experiments.EXPERIMENTS:
        raise ConfigError("experiment.name", f"unknown experiment {name!r}; "
                          f"valid names: {', '.join(experiments.EXPERIMENTS)}")
    spec = experiments.EXPERIMENTS[name]
    reject_unknown_keys("experiment", exp, ("name", *spec.keys), f"a {name} experiment")
    settings = spec.settings(exp, k)
    for key, integer, in_range, rule in (
        ("max_size", True, lambda v: v >= 2, ">= 2"),
        ("perturb_size", True, lambda v: 1 <= v <= k, f"in 1..{k}"),
        ("epsilon", False, lambda v: 0 <= v < math.inf, ">= 0 and finite"),
        ("tail_budget", False, lambda v: 0 < v < math.inf, "> 0 and finite"),
    ):
        if key not in settings:
            continue
        value = settings[key]
        kinds = int if integer else (int, float)
        if isinstance(value, bool) or not isinstance(value, kinds) or not in_range(value):
            kind = "an integer" if integer else "a number"
            raise ConfigError(f"experiment.{key}", f"must be {kind} {rule}, got {value!r}")
    thresholds = settings.get("thresholds")
    if thresholds is not None and not (
        isinstance(thresholds, dict) and all(is_number(v) for v in thresholds.values())
    ):
        raise ConfigError("experiment.thresholds",
                          f"must map metric names to numbers, got {thresholds!r}")
    if "k_list" in settings:  # the default [k/4, k/2, k] too
        _check_list("k_list", experiments.check_k_list, settings["k_list"])
    if "q_list" in exp:  # absent, the audit chooses its own
        _check_list("q_list", experiments.check_q_list, exp["q_list"], k)


def _check_list(key: str, rule, *args) -> None:
    """The library's rule for the list setting ``key``, its ValueError a ConfigError."""
    try:
        rule(*args)
    except ValueError as exc:
        raise ConfigError(f"experiment.{key}", str(exc)) from exc


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _admissibility_failure(kern: CoagulationKernel, adm) -> int:
    failed = ", ".join(f"{key} {got:g} > {bound:g}"
                       for key, (got, bound) in adm.failing_metrics().items())
    m = adm.metrics
    return _fail(f"kernel '{kern.name}' failed admissibility on grid "
                 f"1..{adm.config_echo['max_size']}: {failed}; first violation at "
                 f"(i, j) = ({m['first_violation_i']:g}, {m['first_violation_j']:g}), "
                 f"rate {m['first_violation_rate']!r}")


def simulate(config_path: str) -> int:
    """Run one integration and emit trajectory/diagnostics/summary/plots.

    The kernel's declared constants are checked after the run, on the
    rates it read. A k-truncated run reads rate(i, j) only as a factor of
    xi_i * xi_j, so a rate with a size past the run's front never touches
    the solution. Every state the run handed to the right-hand side (the
    accepted states, the stage inputs of accepted and rejected steps, the
    samples) lies on sizes 1..G, G = min(k, max_occupied_size + reach), the
    reach of the run's tableau (``StepStats.reach``), and once the front
    reaches k, G = k covers the leak row rate(k, .).
    The output directory is created only once that check passes. A run that
    fails numerically may also have read a non-finite rate past G, as
    0 * inf: the matrix route multiplies every rate of the prefix a call
    evaluates. So its kernel is checked on the widest prefix any call
    took, 1..P with P = prefix_columns(max_occupied_size + reach, k) and
    the size and reach the error carries: a failing check exits 1 as a
    kernel error, a passing one leaves the numeric failure, exit 3.
    Neither writes any file.
    """
    try:
        cfg = RunConfig.load(config_path)
        kern = cfg.build_kernel()
        solver = cfg.build_solver()
        init = cfg.build_initial()
    except ConfigError as exc:
        return _fail(str(exc))

    k = cfg.truncation_k
    try:
        traj = integrate(init, kern, solver)
    except NumericError as exc:
        adm = check_admissibility(kern, prefix_columns(exc.max_occupied_size + exc.reach, k))
        if not adm.passed:
            return _admissibility_failure(kern, adm)
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    adm = check_admissibility(kern, min(k, traj.step_stats.max_occupied_size + traj.step_stats.reach))
    if not adm.passed:
        return _admissibility_failure(kern, adm)

    out = cfg.output_dir  # each writer creates it
    files = [
        output.write_trajectory_csv(os.path.join(out, "trajectory.csv"), traj),
        output.write_diagnostics_csv(os.path.join(out, "diagnostics.csv"), traj),
        output.write_line_svg(
            os.path.join(out, "moments.svg"),
            traj.times,
            [("M0", traj.number_series()), ("M1", traj.mass_series())],
            title=f"Moments ({kern.name}, k={cfg.truncation_k})",
            xlabel="t",
            ylabel="moment",
        ),
    ]
    violations = traj.check_invariants()
    summary = dict(
        config_echo=cfg.resolved_dict(),
        kernel=kern.name,
        step_stats=traj.step_stats.to_dict(),
        mass_defect=mass_defect(traj),  # from the records the diagnostics CSV read
        invariant_violations=violations,
        files=files,
        admissibility=adm.to_dict(),
    )
    output.write_summary_json(os.path.join(out, "summary.json"), summary)
    if violations:
        print("invariant violations:", file=sys.stderr)
        for v in violations:
            print(f"  - {v}", file=sys.stderr)
        return 2
    print(f"ok: wrote {len(files) + 1} files to {out}")
    return 0


def verify(config_path: str) -> int:
    """Run the named verification experiment and write its report."""
    try:
        cfg = RunConfig.load(config_path)
        if cfg.experiment is None:
            raise ConfigError("experiment", "verify needs an experiment block")
        kern = cfg.build_kernel()
        solver = cfg.build_solver()
    except ConfigError as exc:
        return _fail(str(exc))

    # no makedirs here: every writer creates its directory, so a config error
    # an experiment raises before writing (a misnamed threshold) leaves no output
    report_path = os.path.join(cfg.output_dir, "report.json")
    spec = cfg.spec
    try:
        report = spec.run(kern, cfg.build_initial, cfg.truncation_k, solver,
                          spec.settings(cfg.experiment, cfg.truncation_k), cfg.output_dir)
    except ConfigError as exc:
        return _fail(str(exc))
    except NumericError as exc:
        write_json_atomic(report_path, {"name": cfg.experiment.get("name"),
                                        "status": "error", "error": str(exc)})
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        write_json_atomic(report_path, {"name": cfg.experiment.get("name"),
                                        "status": "interrupted"})
        print("interrupted; partial report flushed", file=sys.stderr)
        return 1

    report.config_echo["run_config"] = cfg.resolved_dict()
    report.write_json(report_path)
    print(f"{report.name}: {report.status} ({report_path})")
    if not report.passed:
        for key, (got, bound) in report.failing_metrics().items():
            print(f"  {key}: {got:.6g} > {bound:.6g}", file=sys.stderr)
        return 2
    return 0


def kernels_list() -> int:
    for name, kern in kernels.catalog().items():
        parts = [f"A={kern.growth_constant_A:g}"]
        if kern.power_delta is not None:
            parts.append(f"delta={kern.power_delta:g}")
        if kern.lower_bound_zeta is not None:
            parts.append(f"zeta={kern.lower_bound_zeta:g}")
        print(f"{name:10s} {kern.name:20s} {' '.join(parts)}")
    return 0


def schema_print() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "config.schema.json")) as fh:
        print(fh.read(), end="")
    return 0


# command shape -> (handler, help); CONFIG stands for any path, which the handler takes
_COMMANDS = {
    ("simulate", "CONFIG"): (simulate, "integrate one configuration"),
    ("verify", "CONFIG"): (verify, "run a named verification experiment"),
    ("kernels", "list"): (kernels_list, "list the kernel catalog"),
    ("schema", "print"): (schema_print, "print the config schema"),
}
USAGE = "usage: coagkin {" + " | ".join(" ".join(shape) for shape in _COMMANDS) + "}"


def main(argv=None) -> int:
    """Run the command argv (default sys.argv[1:]) names and return its exit code.

    A command line that matches no shape in ``_COMMANDS`` prints ``USAGE``
    to stderr and returns 1; ``-h`` or ``--help`` alone prints the usage
    and each command's help to stdout and returns 0. No word may start
    with "-" otherwise.
    """
    args = sys.argv[1:] if argv is None else list(argv)
    if args in (["-h"], ["--help"]):
        print(USAGE + "\n\nTruncated splash-coagulation solver and verification harness\n")
        for shape, (_, text) in _COMMANDS.items():
            print(f"  {' '.join(shape):18s}{text}")
        return 0
    if len(args) != 2 or any(word.startswith("-") for word in args):
        print(USAGE, file=sys.stderr)
        return 1
    command, word = args
    try:
        if (command, "CONFIG") in _COMMANDS:
            return _COMMANDS[command, "CONFIG"][0](word)
        if (command, word) in _COMMANDS:
            return _COMMANDS[command, word][0]()
    except CoagkinError as exc:
        return _fail(str(exc))
    print(USAGE, file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
