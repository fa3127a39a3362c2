"""Command-line front end: config parsing, run orchestration, file emission.

Exit codes: 0 success/pass, 1 usage or config error, 2 verification
failure (a report or invariant did not pass), 3 numeric failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import experiments, kernels, output
from .diagnostics import mass_defect
from .errors import CoagkinError, ConfigError, NumericError
from .integrator import SolverConfig, integrate
from .kernels import CoagulationKernel, check_admissibility
from .reports import ExperimentReport, write_json_atomic
from .system import SizeDistribution, geometric, monomer

VALID_EXPERIMENTS = ("truncation", "dependence", "decay", "identity", "admissibility", "weights")
_SOLVER_FIELDS = {f.name: f for f in fields(SolverConfig)}


@dataclass
class RunConfig:
    kernel: dict
    initial: dict
    truncation_k: int
    solver: dict
    output_dir: str
    experiment: dict | None = None
    seed: int = 0
    source_path: str | None = None

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        if not os.path.exists(path):
            raise ConfigError("config", f"file not found: {path}")
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"malformed JSON in {path}: {exc}") from exc
        return cls.from_dict(raw, source_path=path)

    @classmethod
    def from_dict(cls, raw: dict, source_path: str | None = None) -> "RunConfig":
        for key in ("kernel", "initial", "truncation_k", "solver"):
            if key not in raw:
                raise ConfigError(key, "missing required field")
        k = raw["truncation_k"]
        if not isinstance(k, int) or k < 2:
            raise ConfigError("truncation_k", f"must be an integer >= 2, got {k!r}")
        initial = dict(raw["initial"])
        mass_scale = initial.get("mass_scale", 1.0)
        if not (isinstance(mass_scale, (int, float)) and mass_scale > 0):
            raise ConfigError("initial.mass_scale", f"must be positive, got {mass_scale!r}")
        if initial.get("type") == "file":
            path = initial.get("path")
            if not path or not os.path.exists(path):
                raise ConfigError("initial.path", f"file not found: {path!r}")
        if raw["kernel"].get("type") == "table":
            path = raw["kernel"].get("params", {}).get("path")
            if not path or not os.path.exists(path):
                raise ConfigError("kernel.params.path", f"file not found: {path!r}")
        exp = raw.get("experiment")
        if exp is not None and "name" not in exp:
            raise ConfigError("experiment.name", "missing experiment name")
        cfg = cls(
            kernel=dict(raw["kernel"]),
            initial=initial,
            truncation_k=k,
            solver=dict(raw["solver"]),
            output_dir=raw.get("output_dir", "coagkin_out"),
            experiment=dict(exp) if exp is not None else None,
            seed=int(raw.get("seed", 0)),
            source_path=source_path,
        )
        if exp is not None and exp["name"] == "truncation":
            cfg.truncation_k_list()  # a bad list is a config error before any output exists
        return cfg

    def build_kernel(self) -> CoagulationKernel:
        kern = kernels.from_config(self.kernel)
        cover = kern.max_table_size
        if cover is not None:
            need = self.largest_integrated_k()
            if cover < need:
                raise ConfigError(
                    "kernel.params.path", f"tabulated kernel covers sizes 1..{cover}, need {need}"
                )
        return kern

    def largest_integrated_k(self) -> int:
        """Largest truncation size the command integrates at (0: it integrates none)."""
        exp = self.experiment or {}
        name = exp.get("name")
        if name in ("admissibility", "weights"):
            return 0  # the admissibility grid is capped at a table's size
        if name == "truncation":
            return self.truncation_k_list()[-1]
        return self.truncation_k

    def truncation_k_list(self) -> list[int]:
        """Truncation sizes of the truncation experiment (default k/4, k/2, k)."""
        k = self.truncation_k
        k_list = [int(x) for x in (self.experiment or {}).get("k_list", [k // 4, k // 2, k])]
        if len(k_list) < 3:
            raise ConfigError("experiment.k_list", f"needs at least 3 entries, got {len(k_list)}")
        if sorted(k_list) != k_list or k_list[0] < 2:
            raise ConfigError(
                "experiment.k_list", f"must be ascending with every entry >= 2, got {k_list}"
            )
        return k_list

    def build_solver(self) -> SolverConfig:
        kwargs = {}
        for key, value in self.solver.items():
            if key not in _SOLVER_FIELDS:
                raise ConfigError(f"solver.{key}", "unknown key")
            # numbers given as JSON integers become floats, as the fields declare
            if value is not None and "float" in str(_SOLVER_FIELDS[key].type):
                value = float(value)
            kwargs[key] = value
        if "t_end" not in kwargs:
            raise ConfigError("solver.t_end", "missing required field")
        cfg = SolverConfig(**kwargs)
        cfg.validate()
        return cfg

    def build_initial(self, k: int | None = None) -> SizeDistribution:
        k = k if k is not None else self.truncation_k
        kind = self.initial.get("type", "monomer")
        scale = float(self.initial.get("mass_scale", 1.0))
        if kind == "monomer":
            v = monomer(k, scale).values
        elif kind == "geometric":
            ratio = float(self.initial.get("ratio", 0.5))
            if not 0 < ratio < 1:
                raise ConfigError("initial.ratio", f"must lie in (0, 1), got {ratio}")
            g = geometric(k, ratio)
            # normalized so the initial mass equals mass_scale
            v = scale * g.values / g.mass
        elif kind == "file":
            vals = np.loadtxt(self.initial["path"], dtype=float).reshape(-1)
            if vals.size > k:
                raise ConfigError(
                    "initial.path", f"file holds {vals.size} sizes, truncation_k is only {k}"
                )
            v = np.zeros(k)
            v[: vals.size] = scale * vals
        else:
            raise ConfigError("initial.type", f"unknown initial type {kind!r}")
        state = SizeDistribution(v, k, 0.0)
        state.validate()
        return state

    def resolved_dict(self) -> dict:
        """Fully materialized config; feeding it back reproduces the run."""
        return {
            "kernel": self.kernel,
            "initial": self.initial,
            "truncation_k": self.truncation_k,
            "solver": self.build_solver().to_dict(),
            "experiment": self.experiment,
            "output_dir": self.output_dir,
            "seed": self.seed,
        }


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def simulate(config_path: str) -> int:
    """Run one integration and emit trajectory/diagnostics/summary/plots."""
    try:
        cfg = RunConfig.load(config_path)
        kern = cfg.build_kernel()
        solver = cfg.build_solver()
        init = cfg.build_initial()
    except ConfigError as exc:
        return _fail(str(exc))

    # 4k covers every rate a run can evaluate, with margin; tables cap it at their size
    adm = check_admissibility(kern, 4 * cfg.truncation_k)
    if not adm.passed:
        bad = {k: v for k, v in adm.metrics.items() if "violation" in k and v > 0}
        grid = adm.config_echo["max_size"]
        return _fail(f"kernel '{kern.name}' failed admissibility on grid 1..{grid}: {bad}")

    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    try:
        traj = integrate(init, kern, solver)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3

    files = [
        output.write_trajectory_csv(os.path.join(out, "trajectory.csv"), traj),
        output.write_diagnostics_csv(os.path.join(out, "diagnostics.csv"), traj),
        output.write_line_svg(
            os.path.join(out, "moments.svg"),
            traj.times(),
            [("M0", traj.number_series()), ("M1", traj.mass_series())],
            title=f"Moments ({kern.name}, k={cfg.truncation_k})",
            xlabel="t",
            ylabel="moment",
        ),
    ]
    violations = traj.check_invariants()
    summary = {
        "config_echo": cfg.resolved_dict(),
        "kernel": kern.name,
        "step_stats": traj.step_stats.to_dict(),
        "mass_defect": mass_defect(traj),
        "invariant_violations": violations,
        "files": files,
        "admissibility": adm.to_dict(),
    }
    output.write_summary_json(os.path.join(out, "summary.json"), summary)
    if violations:
        print("invariant violations:", file=sys.stderr)
        for v in violations:
            print(f"  - {v}", file=sys.stderr)
        return 2
    print(f"ok: wrote {len(files) + 1} files to {out}")
    return 0


def _experiment_report(
    cfg: RunConfig, kern: CoagulationKernel, solver: SolverConfig
) -> ExperimentReport:
    exp = cfg.experiment or {}
    name = exp.get("name")
    thresholds = exp.get("thresholds")
    out = cfg.output_dir

    if name == "truncation":
        return experiments.truncation_convergence(
            kern, cfg.build_initial, cfg.truncation_k_list(), solver.t_end,
            solver=solver, thresholds=thresholds, out_dir=out,
        )
    if name == "dependence":
        eps = float(exp.get("epsilon", 1e-6))
        size = int(exp.get("perturb_size", 2))
        init_a = cfg.build_initial()
        if not 1 <= size <= cfg.truncation_k:
            raise ConfigError("experiment.perturb_size", f"must lie in 1..{cfg.truncation_k}")
        vb = init_a.values.copy()
        vb[size - 1] += eps
        init_b = SizeDistribution(vb, cfg.truncation_k, 0.0)
        return experiments.continuous_dependence(
            kern, init_a, init_b, solver.t_end,
            solver=solver, thresholds=thresholds, out_dir=out,
        )
    if name == "decay":
        if "sample_times" not in cfg.solver:
            # default grid, plus the 0.9*T sample the settling check needs
            ts = np.unique(np.concatenate([np.linspace(0.0, solver.t_end, 101),
                                           [0.9 * solver.t_end]]))
            solver = replace(solver, sample_times=ts)
        return experiments.asymptotic_decay(
            kern, cfg.build_initial(), solver.t_end,
            solver=solver, thresholds=thresholds, out_dir=out,
        )
    if name == "identity":
        traj = integrate(cfg.build_initial(), kern, solver)
        return experiments.identity_audit(
            traj, kern, q_list=exp.get("q_list"), thresholds=thresholds, out_dir=out,
        )
    if name == "admissibility":
        max_size = int(exp.get("max_size", 4 * cfg.truncation_k))
        rep = check_admissibility(kern, max_size)
        return rep
    if name == "weights":
        return experiments.weights_audit(
            cfg.build_initial(),
            max_size=int(exp.get("max_size", 500)),
            tail_budget=float(exp.get("tail_budget", 1.0)),
            thresholds=thresholds,
        )
    raise ConfigError(
        "experiment.name",
        f"unknown experiment {name!r}; valid names: {', '.join(VALID_EXPERIMENTS)}",
    )


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

    os.makedirs(cfg.output_dir, exist_ok=True)
    report_path = os.path.join(cfg.output_dir, "report.json")
    try:
        report = _experiment_report(cfg, kern, solver)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coagkin",
        description="Truncated splash-coagulation solver and verification harness",
    )
    sub = parser.add_subparsers(dest="command")
    p_sim = sub.add_parser("simulate", help="integrate one configuration")
    p_sim.add_argument("config")
    p_ver = sub.add_parser("verify", help="run a named verification experiment")
    p_ver.add_argument("config")
    p_ker = sub.add_parser("kernels", help="kernel catalog operations")
    p_ker.add_argument("action", choices=["list"])
    p_sch = sub.add_parser("schema", help="config schema operations")
    p_sch.add_argument("action", choices=["print"])

    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return simulate(args.config)
        if args.command == "verify":
            return verify(args.config)
        if args.command == "kernels":
            return kernels_list()
        if args.command == "schema":
            return schema_print()
    except CoagkinError as exc:
        return _fail(str(exc))
    parser.print_help()
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
