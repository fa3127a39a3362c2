"""Moments, tail indicators and per-trajectory bound checks.

All moment sums are correctly rounded (``math.fsum``) so that
monotonicity comparisons at the 1e-9 level reflect the dynamics, not the
summation scheme.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .numerics import cumulative_simpson
from .reports import ExperimentReport
from .system import RhsEvaluator, SizeDistribution, mass_leak_rates, occupied_size, occupied_sizes, prefix_columns

if TYPE_CHECKING:  # pragma: no cover
    from .integrator import Trajectory
    from .kernels import CoagulationKernel
    from .weights import ConvexWeight


def _sizes(rows: np.ndarray) -> np.ndarray:
    """The sizes 1..w of the w columns of a block of stored rows."""
    return np.arange(1.0, rows.shape[1] + 1.0)


def _weighted_prefixes(rows: np.ndarray, weights: list) -> Iterator[list[memoryview]]:
    """Per stored row, its product with each weight over the row's own occupied prefix.

    A weight is a scalar or a vector on the block's sizes 1..w, so a size
    power or G(i) is evaluated once per block, not per row, and each
    product with the rows is one multiply. Every entry past a row's
    occupied size is +0.0, which adds nothing to any sum of it, so the
    prefixes stop there. A prefix is a slice of a memoryview on the
    product: ``math.fsum`` reads its entries as Python floats, faster
    than from a list made by ``tolist`` (which also has to be built) or
    from the numpy scalars an array iterates as.
    """
    w = rows.shape[1]
    held = occupied_sizes(rows).tolist()
    products = [memoryview(np.multiply(weight, rows).ravel()) for weight in weights]
    return ([p[r * w: r * w + m] for p in products] for r, m in enumerate(held))


def _one_row(state: SizeDistribution) -> np.ndarray:
    """A state as a one-row block on its occupied prefix."""
    return state.values[None, : occupied_size(state.values)]


def _moments(rows: np.ndarray, m: float) -> list[float]:
    if m < 0:
        raise ValueError(f"moment order must be nonnegative, got {m}")
    return [math.fsum(terms) for (terms,) in _weighted_prefixes(rows, [_sizes(rows)**m])]


def moment(state: SizeDistribution, m: float) -> float:
    """Weighted sum M_m = sum_i i**m xi_i over the truncated state."""
    return _moments(_one_row(state), m)[0]


def moment_series(traj: "Trajectory", m: float) -> np.ndarray:
    """``moment`` of order m at every sample, read from the stored rows."""
    return np.array(_moments(traj.states, m))


def _g_moments(rows: np.ndarray, weight: "ConvexWeight") -> list[float]:
    from .weights import evaluate  # loads on first use: a plain simulate never reads a weight

    g = np.asarray(evaluate(weight, _sizes(rows)))
    return [math.fsum(terms) for (terms,) in _weighted_prefixes(rows, [g])]


def g_moment(state: SizeDistribution, weight: "ConvexWeight") -> float:
    """Weighted sum sum_i G(i) xi_i for a convex weight G."""
    return _g_moments(_one_row(state), weight)[0]


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
    samples: "SizeDistribution | np.ndarray",
    kernel: "CoagulationKernel",
    rhs: RhsEvaluator | None = None,
) -> "DiagnosticsRecord | list[DiagnosticsRecord]":
    """Evaluate the observables of ``diagnostics.csv`` rows, one record per sample.

    ``samples`` is one state, giving one record, or a block of stored
    sample rows on sizes 1..w (rows of ``Trajectory.states``), giving a
    list of records, one per row. ``rhs`` is an ``RhsEvaluator`` of the
    kernel at the truncation size k; this call evaluates the samples'
    right-hand sides with it, as one block of rows. A block needs one; a
    state without one gets a fresh evaluator. A state is the one-row block
    of its occupied prefix. A block stored on sizes 1..w is padded to
    prefix_columns(w + 1, k) columns, which hold every row's derivative,
    since it vanishes past size w + 1. On them each row's derivative takes
    the same columns as on all k, so its cost follows w, not k.

    ``tail_mass_fraction`` is the mass share sitting above size k/2, the
    early-warning indicator that the truncation boundary is active.
    """
    if isinstance(samples, SizeDistribution):
        rhs = rhs if rhs is not None else RhsEvaluator(kernel, samples.truncation_k)
        return compute_record(_one_row(samples), kernel, rhs)[0]
    if rhs is None:
        raise ValueError("a block of sample rows needs the RhsEvaluator of its kernel and k")
    X = np.zeros((len(samples), prefix_columns(samples.shape[1] + 1, rhs.k)))
    X[:, : samples.shape[1]] = samples
    return _records(samples, rhs.k, kernel, rhs(X))


def _records(rows: np.ndarray, k: int, kernel, deriv: np.ndarray) -> list[DiagnosticsRecord]:
    """The records of the rows of a block on sizes 1..w, w <= k, with derivatives deriv."""
    # a derivative vanishes past its state's occupied size + 1 <= w + 1
    sups = np.abs(deriv[:, : rows.shape[1] + 1]).max(axis=1).tolist()
    leaks = mass_leak_rates(rows, kernel, k)
    records = []
    sizes = _sizes(rows)
    prefixes = _weighted_prefixes(rows, [1.0, sizes, sizes**2.0])
    for (values, mass, squares), sup, leak in zip(prefixes, sups, leaks):
        m1 = math.fsum(mass)
        tail = math.fsum(mass[k // 2:])
        records.append(DiagnosticsRecord(
            moment_0=math.fsum(values),
            moment_1=m1,
            moment_2=math.fsum(squares),
            tail_mass_fraction=tail / m1 if m1 > 0 else 0.0,
            rhs_sup=sup,
            mass_leak_rate=leak,
        ))
    return records


def mass_defect(traj: "Trajectory") -> float:
    """Mass lost through the truncation boundary over the whole run.

    Integrates the boundary-leak rate at the samples (``mass_leak_rates``
    of the stored rows, the same numbers as the records' ``mass_leak_rate``)
    with composite Simpson (the last entry of ``cumulative_simpson``).
    Records a reader of ``traj.diagnostics`` already built give their
    rates, which are not computed again; no record is built here. This
    equals M1(0) - M1(t_end) analytically but stays meaningful when the
    leak is far below the floating-point resolution of M1 itself (a k=64
    run can leak ~1e-45 while M1 - M1 rounds to exactly 0).
    """
    records = vars(traj).get("diagnostics")  # the cached_property's value, once read
    if records is None:
        leaks = mass_leak_rates(traj.states, traj.kernel, traj.truncation_k)
    else:
        leaks = [d.mass_leak_rate for d in records]
    return float(cumulative_simpson(traj.times, np.array(leaks))[-1])


def mass_defect_endpoint(traj: "Trajectory") -> float:
    """The literal difference M1(first) - M1(last); resolution ~1e-16 * M1."""
    return moment(traj.state(0), 1) - moment(traj.state(-1), 1)


def check_moment_propagation(
    traj: "Trajectory",
    weight: "ConvexWeight",
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
    mg = np.array(_g_moments(traj.states, weight))
    times = traj.times
    m1_0 = moment(traj.state(0), 1)
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
