"""Workload definitions shared by the benchmark harness and the reference generator.

A workload is one `coagkin` CLI command on one generated config. The seed
only draws the initial data; everything else is fixed here, so the program
sees nothing but the generated config and initial-data file.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0  # its references are stored in ref/
INITIAL_SIZES = 8  # the seeded distribution lives on sizes 1..8
SPREAD = 0.005  # relative half-width of the seeded draw of each initial weight


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "simulate" or "verify"
    kernel: dict
    truncation_k: int
    solver: dict
    n_samples: int
    # largest allowed |program - reference| over xi_1..xi_8, M0 and M1
    err_tol: float
    experiment: dict | None = None

    @property
    def t_end(self) -> float:
        return float(self.solver["t_end"])

    def sample_times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_samples)

    def trajectories(self) -> dict[int, str]:
        """CSV file of every trajectory the command writes, by truncation size."""
        k_list = (self.experiment or {}).get("k_list")
        if k_list:
            return {k: f"trajectory_k{k}.csv" for k in k_list}
        return {self.truncation_k: "trajectory.csv"}

    def config(self, initial_path: str, output_dir: str) -> dict:
        solver = dict(self.solver)
        if self.n_samples != 101:  # 101 uniform samples is the CLI default
            solver["sample_times"] = self.sample_times().tolist()
        cfg = {
            "kernel": self.kernel,
            "initial": {"type": "file", "path": initial_path},
            "truncation_k": self.truncation_k,
            "solver": solver,
            "output_dir": output_dir,
        }
        if self.experiment is not None:
            cfg["experiment"] = self.experiment
        return cfg


def stored_reference(name: str, seed: int) -> str:
    """Path of the stored reference of a workload and seed (it may not exist)."""
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "ref", f"{name}-seed{seed}.json")


def initial_data(seed: int) -> np.ndarray:
    """Seeded nonnegative distribution on sizes 1..8 with unit mass M1 = 1.

    The weights are 2**(1-i), each scaled by a uniform draw in
    [1 - SPREAD, 1 + SPREAD]. The draw is kept narrow on purpose: err_max
    is a maximum over samples and depends on where samples fall between
    accepted steps, so wider draws spread it across seeds by more than any
    bound a regression check can use (README.md has the measurements).
    """
    rng = np.random.default_rng(seed)
    i = np.arange(1, INITIAL_SIZES + 1)
    w = rng.uniform(1.0 - SPREAD, 1.0 + SPREAD, INITIAL_SIZES) * 0.5 ** (i - 1)
    return w / np.dot(i, w)


CONSTANT = {"type": "constant", "params": {"c": 1.0}}
POWER = {"type": "power", "params": {"a": 1.0, "exponent": 0.5}}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="simulate_k1024",
            command="simulate",
            kernel=CONSTANT,
            truncation_k=1024,
            solver={"t_end": 10.0},
            n_samples=101,
            err_tol=1e-6,
        ),
        Workload(
            name="reference_k256",
            command="simulate",
            kernel=POWER,
            truncation_k=256,
            solver={"t_end": 10.0, "rel_tol": 1e-12, "abs_tol": 1e-16},
            n_samples=101,
            err_tol=1e-10,
        ),
        Workload(
            name="identity_k32",
            command="verify",
            kernel=CONSTANT,
            truncation_k=32,
            solver={"t_end": 5.0},
            n_samples=1001,
            experiment={"name": "identity", "q_list": [8, 16, 31]},
            err_tol=1e-6,
        ),
        Workload(
            name="truncation_k4096",
            command="verify",
            kernel=CONSTANT,
            truncation_k=4096,
            solver={"t_end": 10.0},
            n_samples=101,
            experiment={"name": "truncation", "k_list": [512, 1024, 2048, 4096]},
            err_tol=1e-6,
        ),
    )
}
