"""Positivity-guarded adaptive time integration of the truncated system.

The workhorse is the Dormand-Prince embedded Runge-Kutta pair: the 5th
order solution is propagated and the difference to the embedded 4th
order solution drives step control. The right-hand side is
quasi-positive (a vanished component can only be created), so negative
values are pure discretization overshoot; steps that overshoot beyond a
small guard are rejected, and accepted steps have tiny negatives clamped
to zero with the clamped mass accounted against a budget.

A fixed-step classical RK4 mode serves as an independent oracle for
accuracy cross checks; it never rejects steps.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import DiagnosticsRecord, compute_record
from .errors import ConfigError, IntegrationStalledError, NumericError
from .kernels import CoagulationKernel
from .system import RhsEvaluator, SizeDistribution

# Dormand-Prince 5(4) tableau
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_DP_ERR = _DP_B5 - _DP_B4

# PI step controller (error-estimator order 4): classic exponents,
# safety 0.9, per-step growth clamped to [0.2, 5].
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0
_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0

MODE_ADAPTIVE = "adaptive"
MODE_FIXED = "fixed_step"


@dataclass
class SolverConfig:
    t_end: float
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step: float | None = None
    positivity_floor: float = 1e-14
    mode: str = MODE_ADAPTIVE
    fixed_h: float | None = None
    sample_times: np.ndarray | None = None

    def __post_init__(self):
        if self.sample_times is not None:
            self.sample_times = np.asarray(self.sample_times, dtype=float)

    def validate(self) -> None:
        if not self.t_end > 0:
            raise ConfigError("solver.t_end", f"must be positive, got {self.t_end}")
        if not self.rel_tol > 0:
            raise ConfigError("solver.rel_tol", f"must be positive, got {self.rel_tol}")
        if not self.abs_tol > 0:
            raise ConfigError("solver.abs_tol", f"must be positive, got {self.abs_tol}")
        if self.positivity_floor < 0:
            raise ConfigError("solver.positivity_floor", "must be nonnegative")
        if self.max_step is not None and not self.max_step > 0:
            raise ConfigError("solver.max_step", "must be positive")
        if self.mode not in (MODE_ADAPTIVE, MODE_FIXED):
            raise ConfigError("solver.mode", f"unknown mode {self.mode!r}")
        if self.mode == MODE_FIXED and (self.fixed_h is None or not self.fixed_h > 0):
            raise ConfigError("solver.fixed_h", "fixed_step mode needs a positive step size")
        ts = self.resolved_sample_times()
        if ts[0] != 0.0 or abs(ts[-1] - self.t_end) > 1e-12 * max(1.0, self.t_end):
            raise ConfigError("solver.sample_times", "must start at 0 and end at t_end")
        if np.any(np.diff(ts) <= 0):
            raise ConfigError("solver.sample_times", "must be strictly ascending")

    def resolved_sample_times(self) -> np.ndarray:
        if self.sample_times is None:
            return np.linspace(0.0, self.t_end, 101)
        return self.sample_times

    def resolved_max_step(self) -> float:
        return self.max_step if self.max_step is not None else self.t_end / 10.0

    @property
    def positivity_guard(self) -> float:
        # negatives larger than this in magnitude force a rejection
        return self.positivity_floor * 1e3

    def to_dict(self) -> dict:
        return {
            "t_end": self.t_end,
            "rel_tol": self.rel_tol,
            "abs_tol": self.abs_tol,
            "max_step": self.resolved_max_step(),
            "positivity_floor": self.positivity_floor,
            "mode": self.mode,
            "fixed_h": self.fixed_h,
            "sample_times": [float(t) for t in self.resolved_sample_times()],
        }


@dataclass
class StepStats:
    n_accepted: int = 0
    n_rejected: int = 0
    min_step: float = np.inf
    max_step: float = 0.0
    clamped_mass: float = 0.0
    n_rhs_evals: int = 0

    def to_dict(self) -> dict:
        return {
            "n_accepted": self.n_accepted,
            "n_rejected": self.n_rejected,
            "min_step": self.min_step if np.isfinite(self.min_step) else None,
            "max_step": self.max_step,
            "clamped_mass": self.clamped_mass,
            "n_rhs_evals": self.n_rhs_evals,
        }


@dataclass
class Trajectory:
    samples: list[SizeDistribution]
    diagnostics: list[DiagnosticsRecord]
    step_stats: StepStats
    config: SolverConfig
    kernel_name: str
    rhs_envelope: np.ndarray = field(default_factory=lambda: np.array([]))

    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.samples])

    def states_matrix(self) -> np.ndarray:
        return np.vstack([s.values for s in self.samples])

    def mass_series(self) -> np.ndarray:
        return np.array([d.moment_1 for d in self.diagnostics])

    def number_series(self) -> np.ndarray:
        return np.array([d.moment_0 for d in self.diagnostics])

    def final(self) -> SizeDistribution:
        return self.samples[-1]

    def check_invariants(self, mass_slack: float | None = None) -> list[str]:
        """Return human-readable violations (empty list = all good).

        Checks strictly ascending sample times, componentwise positivity,
        mass monotonicity within slack (default 1e-9 * initial mass), and
        the clamped-mass budget at the same level.
        """
        problems: list[str] = []
        times = self.times()
        if np.any(np.diff(times) <= 0):
            problems.append("sample times are not strictly ascending")
        for s in self.samples:
            if np.any(s.values < 0):
                problems.append(f"negative component in sample at t={s.time:.6g}")
                break
        m1 = self.mass_series()
        slack = mass_slack if mass_slack is not None else 1e-9 * m1[0]
        rises = np.diff(m1) > slack
        if rises.any():
            idx = int(np.argmax(rises))
            problems.append(
                f"mass increased by {m1[idx + 1] - m1[idx]:.3e} between "
                f"t={times[idx]:.6g} and t={times[idx + 1]:.6g} (slack {slack:.3e})"
            )
        if self.step_stats.clamped_mass > max(slack, 0.0):
            problems.append(
                f"clamped mass {self.step_stats.clamped_mass:.3e} exceeds budget {slack:.3e}"
            )
        return problems


def _weighted_error_norm(err, y_old, y_new, rel_tol, abs_tol) -> float:
    scale = abs_tol + rel_tol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def _dp_step(f, y, f0, h, rel_tol, abs_tol):
    """One Dormand-Prince trial step of size h from y, where f0 = f(y).

    Stage 1 is the caller's f0: the pair is first-same-as-last, so the
    last stage of an accepted step is f at its new state. Returns
    (y5, err_norm, stages) with y5 the 5th order solution and err_norm
    the weighted norm of its difference to the embedded 4th order one.
    """
    k = [f0]
    for row in _DP_A[1:]:
        incr = sum(c * ki for c, ki in zip(row, k))
        k.append(f(y + h * incr))
    y5 = y + h * sum(b * ki for b, ki in zip(_DP_B5, k))
    if not np.all(np.isfinite(y5)):
        raise NumericError("non-finite values in trial step")
    err = h * sum(e * ki for e, ki in zip(_DP_ERR, k))
    return y5, _weighted_error_norm(err, y, y5, rel_tol, abs_tol), k


def integrate(
    init: SizeDistribution,
    kernel: CoagulationKernel,
    config: SolverConfig,
    g_weights: dict | None = None,
    moment_orders=(0.0, 1.0, 2.0),
) -> Trajectory:
    """Integrate the truncated system and sample it on the output grid.

    Adaptive mode runs the embedded pair under PI step control between
    min_step = 1e-12 * t_end and max_step; fixed_step mode marches
    classical RK4 with constant h and no rejection. Dense output between
    accepted steps is cubic Hermite on the stored derivatives. Every
    emitted sample is clamped nonnegative with the clamped mass charged
    to the run budget.
    """
    config.validate()
    init.validate()
    if init.time != 0.0:
        raise ValueError(f"initial state must carry time 0, got {init.time}")
    k = init.truncation_k
    if kernel.max_table_size is not None and k > kernel.max_table_size:
        raise ValueError(
            f"tabulated kernel covers sizes 1..{kernel.max_table_size}, need {k}"
        )

    f = RhsEvaluator(kernel, k)
    stats = StepStats()
    sample_times = config.resolved_sample_times()
    guard = config.positivity_guard
    sizes = np.arange(1, k + 1, dtype=float)

    samples: list[SizeDistribution] = [init.copy()]
    next_sample = 1

    def clamp(vec: np.ndarray, t: float) -> np.ndarray:
        low = float(vec.min(initial=0.0))
        if low >= 0.0:
            return vec
        if low < -guard:
            raise NumericError(
                f"component undershoot {low:.3e} beyond positivity guard {-guard:.3e}", time=t
            )
        neg = vec < 0.0
        stats.clamped_mass += float(np.dot(sizes[neg], -vec[neg]))
        out = vec.copy()
        out[neg] = 0.0
        return out

    def emit(t0, y0, f0, t1, y1, f1):
        # Hermite-interpolate all samples in (t0, t1]; exact endpoint reuse.
        nonlocal next_sample
        h = t1 - t0
        while next_sample < sample_times.size and sample_times[next_sample] <= t1 + 1e-14 * max(1.0, t1):
            ts = sample_times[next_sample]
            if abs(ts - t1) <= 1e-12 * max(1.0, config.t_end):
                val = y1
            else:
                th = (ts - t0) / h
                h00 = 2 * th**3 - 3 * th**2 + 1
                h10 = th**3 - 2 * th**2 + th
                h01 = -2 * th**3 + 3 * th**2
                h11 = th**3 - th**2
                val = clamp(h00 * y0 + h * h10 * f0 + h01 * y1 + h * h11 * f1, ts)
            samples.append(SizeDistribution(val.copy(), k, float(ts)))
            next_sample += 1

    t = 0.0
    y = init.values.copy()
    fy = f(y)

    if config.mode == MODE_FIXED:
        h_nominal = float(config.fixed_h)
        while t < config.t_end - 1e-14 * config.t_end:
            h = min(h_nominal, config.t_end - t)
            k1 = fy
            k2 = f(y + 0.5 * h * k1)
            k3 = f(y + 0.5 * h * k2)
            k4 = f(y + h * k3)
            y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(y_new)):
                raise NumericError("non-finite values in fixed step", time=t)
            y_new = clamp(y_new, t + h)
            f_new = f(y_new)
            emit(t, y, k1, t + h, y_new, f_new)
            t += h
            y = y_new
            fy = f_new
            stats.n_accepted += 1
            stats.min_step = min(stats.min_step, h)
            stats.max_step = max(stats.max_step, h)
    else:
        max_step = config.resolved_max_step()
        min_step = 1e-12 * config.t_end
        # initial step from the derivative scale
        fnorm = float(np.max(np.abs(fy)))
        ynorm = float(np.max(np.abs(y)))
        if fnorm > 0:
            h = min(max_step, 0.01 * (ynorm + config.abs_tol) / fnorm, config.t_end)
        else:
            h = min(max_step, config.t_end)
        err_prev = 1.0
        while t < config.t_end - 1e-14 * config.t_end:
            h = min(h, config.t_end - t, max_step)
            if h < min_step:
                raise IntegrationStalledError(
                    f"step size underflow (h={h:.3e} < {min_step:.3e})",
                    time=t,
                    last_state=SizeDistribution(y.copy(), k, t),
                )
            y5, err_norm, stages = _dp_step(f, y, fy, h, config.rel_tol, config.abs_tol)
            if err_norm > 1.0:
                stats.n_rejected += 1
                h *= max(_FAC_MIN, _SAFETY * err_norm ** (-1.0 / 5.0))
                continue
            if float(y5.min(initial=0.0)) < -guard:
                stats.n_rejected += 1
                h *= 0.5
                continue
            y_new = clamp(y5, t + h)
            # FSAL: the last stage is f(y5); a clamped state needs a fresh evaluation
            f_new = stages[-1] if y_new is y5 else f(y_new)
            emit(t, y, fy, t + h, y_new, f_new)
            stats.n_accepted += 1
            stats.min_step = min(stats.min_step, h)
            stats.max_step = max(stats.max_step, h)
            t += h
            y = y_new
            fy = f_new
            # PI update: react to the current error, damp with the previous
            err_norm = max(err_norm, 1e-10)
            fac = _SAFETY * err_norm**-_PI_ALPHA * err_prev**_PI_BETA
            h *= min(_FAC_MAX, max(_FAC_MIN, fac))
            err_prev = err_norm

    if next_sample < sample_times.size:
        # end-of-run numerical fuzz: remaining samples sit at t_end
        for ts in sample_times[next_sample:]:
            samples.append(SizeDistribution(y.copy(), k, float(ts)))

    stats.n_rhs_evals = f.n_evals
    diag_eval = f
    diagnostics = [
        compute_record(s, kernel, orders=moment_orders, weights=g_weights, evaluator=diag_eval)
        for s in samples
    ]
    envelope = np.max(
        np.abs(np.vstack([diag_eval(s.values) for s in samples])), axis=0
    )
    return Trajectory(
        samples=samples,
        diagnostics=diagnostics,
        step_stats=stats,
        config=config,
        kernel_name=kernel.name,
        rhs_envelope=envelope,
    )
