"""Moments, tail indicators and per-trajectory bound checks.

All moment sums are correctly rounded (``math.fsum``) so that
monotonicity comparisons at the 1e-9 level reflect the dynamics, not the
summation scheme.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .numerics import cumulative_simpson
from .reports import ExperimentReport
from .system import RhsEvaluator, SizeDistribution, mass_leak_rate, occupied_size
from .weights import ConvexWeight, evaluate as weight_eval

if TYPE_CHECKING:  # pragma: no cover
    from .integrator import Trajectory
    from .kernels import CoagulationKernel


def _held(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The occupied prefix of a state's values, or of a stored row, and its sizes 1..m.

    Every entry past the prefix is +0.0, which adds nothing to any sum
    below, so the sums read only the prefix.
    """
    m = occupied_size(values)
    return values[:m], np.arange(1.0, m + 1.0)


def _fsum(values: np.ndarray) -> float:
    # fsum reads a list faster than it iterates an array
    return math.fsum(values.tolist())


def _moment(held: np.ndarray, sizes: np.ndarray, m: float) -> float:
    if m < 0:
        raise ValueError(f"moment order must be nonnegative, got {m}")
    return _fsum(sizes**m * held)


def moment(state: SizeDistribution, m: float) -> float:
    """Weighted sum M_m = sum_i i**m xi_i over the truncated state."""
    return _moment(*_held(state.values), m)


def moment_series(traj: "Trajectory", m: float) -> np.ndarray:
    """``moment`` of order m at every sample, read from the stored rows."""
    return np.array([_moment(*_held(row), m) for row in traj.states])


def _g_moment(values: np.ndarray, weight: ConvexWeight) -> float:
    held, sizes = _held(values)
    return _fsum(np.asarray(weight_eval(weight, sizes)) * held)


def g_moment(state: SizeDistribution, weight: ConvexWeight) -> float:
    """Weighted sum sum_i G(i) xi_i for a convex weight G."""
    return _g_moment(state.values, weight)


@dataclass
class DiagnosticsRecord:
    """Per-sample scalar observables: one row of ``diagnostics.csv``."""

    moment_0: float
    moment_1: float
    moment_2: float
    tail_mass_fraction: float
    rhs_sup: float
    mass_leak_rate: float


def compute_record(
    state: SizeDistribution,
    kernel: "CoagulationKernel",
    deriv: np.ndarray | None = None,
) -> DiagnosticsRecord:
    """Evaluate the observables of one ``diagnostics.csv`` row at one sample.

    ``tail_mass_fraction`` is the mass share sitting above size k/2, the
    early-warning indicator that the truncation boundary is active.
    ``deriv`` is the right-hand side at the sample, if the caller has it;
    otherwise a fresh ``RhsEvaluator`` computes it.
    """
    k = state.truncation_k
    held, sizes = _held(state.values)
    mass = sizes * held
    m0 = _fsum(held)
    m1 = _fsum(mass)
    tail = _fsum(mass[k // 2:])
    tail_fraction = tail / m1 if m1 > 0 else 0.0
    if deriv is None:
        deriv = RhsEvaluator(kernel, k)(state.values)
    return DiagnosticsRecord(
        moment_0=m0,
        moment_1=m1,
        moment_2=_moment(held, sizes, 2.0),
        tail_mass_fraction=float(tail_fraction),
        # the derivative vanishes past size m + 1
        rhs_sup=float(np.max(np.abs(deriv[: held.size + 1]))),
        mass_leak_rate=mass_leak_rate(state, kernel),
    )


def mass_defect(traj: "Trajectory") -> float:
    """Mass lost through the truncation boundary over the whole run.

    Integrates the recorded boundary-leak rate with composite Simpson
    (the last entry of ``cumulative_simpson``).
    This equals M1(0) - M1(t_end) analytically but stays meaningful when
    the leak is far below the floating-point resolution of M1 itself
    (a k=64 run can leak ~1e-45 while M1 - M1 rounds to exactly 0).
    """
    leaks = np.array([d.mass_leak_rate for d in traj.diagnostics])
    return float(cumulative_simpson(traj.times, leaks)[-1])


def mass_defect_endpoint(traj: "Trajectory") -> float:
    """The literal difference M1(first) - M1(last); resolution ~1e-16 * M1."""
    return traj.diagnostics[0].moment_1 - traj.diagnostics[-1].moment_1


def check_moment_propagation(
    traj: "Trajectory",
    weight: ConvexWeight,
    kernel: "CoagulationKernel",
) -> ExperimentReport:
    """Verify the exponential envelope on the G-weighted moment.

    Along the truncated dynamics sum G(i) xi_i(t) may grow, but no faster
    than exp(C t) with C determined by the kernel growth constant and the
    initial mass. The safe constant used here is C = 4 * A * M1(0), an
    upper envelope of the admissible readings of the underlying estimate;
    the observed growth rate is reported alongside so a tighter constant
    can be re-audited from the report alone.
    """
    if not traj.times.size:
        raise ValueError("trajectory is empty")
    mg = np.array([_g_moment(row, weight) for row in traj.states])
    times = traj.times
    m1_0 = traj.diagnostics[0].moment_1
    c_safe = 4.0 * kernel.growth_constant_A * m1_0

    metrics: dict[str, float] = {"c_safe": c_safe, "g_moment_initial": float(mg[0])}
    if mg[0] == 0.0:
        # the envelope degenerates: a zero start must stay zero
        metrics["max_ratio"] = 0.0 if np.all(mg == 0.0) else np.inf
        metrics["observed_growth_rate"] = 0.0
    else:
        envelope = mg[0] * np.exp(c_safe * times)
        metrics["max_ratio"] = float(np.max(mg / envelope))
        positive = times > 0
        if positive.any():
            with np.errstate(divide="ignore"):
                rates = np.log(np.maximum(mg[positive], 1e-300) / mg[0]) / times[positive]
            metrics["observed_growth_rate"] = float(rates.max())
        else:
            metrics["observed_growth_rate"] = 0.0
    return ExperimentReport.build(
        name="moment_propagation",
        metrics=metrics,
        thresholds={"max_ratio": 1.0},
        config_echo={
            "weight": weight.name,
            "kernel": kernel.name,
            "t_end": float(times[-1]),
            "n_samples": int(times.size),
        },
    )
