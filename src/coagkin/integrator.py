"""Positivity-budgeted adaptive time integration of the truncated system.

The workhorse is the Dormand-Prince embedded Runge-Kutta pair: the 5th
order solution is propagated and the difference to the embedded 4th
order solution drives step control. The right-hand side is
quasi-positive (a vanished component can only be created), so negative
values are pure discretization overshoot: clamped to zero, with their
size-weighted mass charged to one run budget MASS_BUDGET_REL * M1(0), of
which a trial step may take its share by h, else it is rejected.

A fixed-step classical RK4 mode, an independent method, is the oracle for
accuracy cross checks. It runs as a second tableau through the same trial
step and loop, never rejecting; its independent code route is
``tests/oracles.rk4_oracle``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .diagnostics import DiagnosticsRecord, compute_record, moment
from .errors import ConfigError, IntegrationStalledError, NumericError
from .kernels import CoagulationKernel
from .system import RhsEvaluator, SizeDistribution, occupied_size, occupied_sizes, prefix_columns, row_blocks

# Dormand-Prince 5(4) tableau
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
# stage couplings of stages 2..7, each a column over the stages before it; the
# last is the 5th order weights (first same as last)
_DP_A = tuple(np.array(row)[:, None] for row in (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    _DP_B5[:6],
))
_DP_ERR = (_DP_B5 - _DP_B4)[:, None]
# classical RK4 in the same form, with no embedded error estimate
_RK4_A = tuple(np.array(row)[:, None] for row in (
    (1 / 2,),
    (0.0, 1 / 2),
    (0.0, 0.0, 1.0),
    (1 / 6, 1 / 3, 1 / 3, 1 / 6),
))

# PI step controller (error-estimator order 4): classic exponents,
# safety 0.9, per-step growth clamped to [0.2, 5].
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0
_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0

# run budget for clamped mass and for a rise of sampled mass, relative to M1(0)
MASS_BUDGET_REL = 1e-9

# Sizes past y's occupied size that one trial step from y can reach: each of
# the 7 Dormand-Prince stages reaches one size further than its input (the 5
# rows of an RK4 step reach less). No state a step hands to the right-hand
# side, and no sample formed from the step, holds anything past it.
STEP_REACH = 7

MODE_ADAPTIVE = "adaptive"
MODE_FIXED = "fixed_step"


@dataclass
class SolverConfig:
    t_end: float
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step: float | None = None
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
        if self.max_step is not None and not self.max_step > 0:
            raise ConfigError("solver.max_step", "must be positive")
        if self.mode not in (MODE_ADAPTIVE, MODE_FIXED):
            raise ConfigError("solver.mode", f"unknown mode {self.mode!r}")
        if self.mode == MODE_FIXED and (self.fixed_h is None or not self.fixed_h > 0):
            raise ConfigError("solver.fixed_h", "fixed_step mode needs a positive step size")
        if self.mode != MODE_FIXED and self.fixed_h is not None:
            raise ConfigError("solver.fixed_h", f"applies to fixed_step mode only, mode is {self.mode!r}")
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

    def to_dict(self) -> dict:
        return {
            "t_end": self.t_end,
            "rel_tol": self.rel_tol,
            "abs_tol": self.abs_tol,
            "max_step": self.resolved_max_step(),
            "mode": self.mode,
            "fixed_h": self.fixed_h,
            "sample_times": [float(t) for t in self.resolved_sample_times()],
        }


@dataclass
class StepStats:
    n_accepted: int = 0
    n_rejected_error: int = 0
    n_rejected_positivity: int = 0
    min_step: float = np.inf
    max_step: float = 0.0
    clamped_mass_step: float = 0.0
    clamped_mass_sample: float = 0.0
    n_rhs_evals: int = 0
    # largest occupied_size over the initial and every accepted state; k once the front reached k
    max_occupied_size: int = 0

    @property
    def n_rejected(self) -> int:
        """Rejected trial steps of either cause: error norm above 1, or over the positivity budget."""
        return self.n_rejected_error + self.n_rejected_positivity

    def to_dict(self) -> dict:
        return {
            "n_accepted": self.n_accepted,
            "n_rejected": self.n_rejected,
            "n_rejected_error": self.n_rejected_error,
            "n_rejected_positivity": self.n_rejected_positivity,
            "min_step": self.min_step if np.isfinite(self.min_step) else None,
            "max_step": self.max_step,
            "clamped_mass_step": self.clamped_mass_step,
            "clamped_mass_sample": self.clamped_mass_sample,
            "n_rhs_evals": self.n_rhs_evals,
            "max_occupied_size": self.max_occupied_size,
        }


@dataclass
class Trajectory:
    """A sampled run of ``kernel``: sample i is taken at times[i] and holds states[i].

    ``states`` is a (samples x w) matrix, w being the largest
    ``occupied_size`` of any sample. Row i holds sample i's concentrations
    of sizes 1..w; every size past w, up to truncation_k, is +0.0 in every
    sample. So the matrix loses nothing, and its memory follows the front
    of the run, not k. ``state``, ``final`` and ``states_matrix`` rebuild
    full-length rows from it.

    ``diagnostics`` is derived from ``states`` on first read and kept, so
    a caller that reads no record pays for none.
    """

    times: np.ndarray
    states: np.ndarray
    truncation_k: int
    kernel: CoagulationKernel
    step_stats: StepStats
    config: SolverConfig

    @cached_property
    def diagnostics(self) -> list[DiagnosticsRecord]:
        """One record per sample, computed on first read.

        One ``compute_record`` call per block of ``system.row_blocks`` of
        the stored rows, each evaluating its block's right-hand side inside
        the call. The blocks share one ``RhsEvaluator``, built by this read
        and dropped after it: the trajectory keeps none, so a table kernel's
        k x k rate matrices do not outlive the read.
        """
        rhs = RhsEvaluator(self.kernel, self.truncation_k)
        records = []
        for rows in row_blocks(self.times.size, self.truncation_k):
            records += compute_record(self.states[rows], self.kernel, rhs)
        return records

    def states_matrix(self, width: int | None = None) -> np.ndarray:
        """The samples as the rows of a fresh matrix on sizes 1..width (default truncation_k)."""
        width = self.truncation_k if width is None else width
        out = np.zeros((self.times.size, width))
        out[:, : self.states.shape[1]] = self.states[:, :width]
        return out

    def state(self, i: int) -> SizeDistribution:
        """Sample i (negative counts from the end) as a fresh full-length state."""
        values = np.zeros(self.truncation_k)
        row = self.states[i]
        values[: row.size] = row
        return SizeDistribution(values, self.truncation_k, float(self.times[i]))

    def mass_series(self) -> np.ndarray:
        return np.array([d.moment_1 for d in self.diagnostics])

    def number_series(self) -> np.ndarray:
        return np.array([d.moment_0 for d in self.diagnostics])

    def final(self) -> SizeDistribution:
        return self.state(-1)

    def check_invariants(self) -> list[str]:
        """Return human-readable violations (empty list = all good).

        Checks strictly ascending sample times, componentwise positivity,
        mass monotonicity and the clamped-mass budget, both at
        MASS_BUDGET_REL * M1(0).
        """
        problems: list[str] = []
        times = self.times
        if np.any(np.diff(times) <= 0):
            problems.append("sample times are not strictly ascending")
        negative = (self.states < 0).any(axis=1)
        if negative.any():
            r = int(np.argmax(negative))
            i = int(np.argmin(self.states[r]))
            problems.append(f"negative component xi_{i + 1} = {self.states[r, i]:.3e} "
                            f"in sample at t={times[r]:.6g}")
        m1 = self.mass_series()
        budget = MASS_BUDGET_REL * m1[0]
        rises = np.diff(m1) > budget
        if rises.any():
            idx = int(np.argmax(rises))
            problems.append(
                f"mass increased by {m1[idx + 1] - m1[idx]:.3e} between "
                f"t={times[idx]:.6g} and t={times[idx + 1]:.6g} (budget {budget:.3e})"
            )
        step, sample = self.step_stats.clamped_mass_step, self.step_stats.clamped_mass_sample
        if step + sample > budget:
            problems.append(f"clamped mass {step + sample:.3e} (steps {step:.3e}, samples "
                            f"{sample:.3e}) exceeds budget {budget:.3e}")
        return problems


def _clamp(vec: np.ndarray, sizes: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """vec with negatives zeroed (vec itself if none), and the size-weighted mass removed.

    Only the first n entries are looked at: vec is +0.0 past them.
    """
    head = vec[:n]
    if head.min(initial=0.0) >= 0.0:
        return vec, 0.0
    neg = head < 0.0
    out = vec.copy()
    out[:n][neg] = 0.0
    return out, float(np.dot(sizes[:n][neg], -head[neg]))


def _hermite(t0, y0, f0, t1, y1, f1, times, n, sizes, stats) -> np.ndarray:
    """Cubic Hermite samples at the times in (t0, t1) of a nonempty list, as rows of a fresh block.

    The block holds the first n sizes, past which every sample is +0.0. A
    row is h00 * y0 + h * h10 * f0 + h01 * y1 + h * h11 * f1, added left to
    right. The coefficients are Python floats of each row's own time: a
    power of a numpy array may round differently from the scalar one. Each row holding a negative entry goes
    through ``_clamp``, row after row, and charges the mass it removes to
    stats.clamped_mass_sample.
    """
    h = t1 - t0
    coef = []
    for ts in times:
        th = (ts - t0) / h
        coef.append((2 * th**3 - 3 * th**2 + 1, h * (th**3 - 2 * th**2 + th),
                     -2 * th**3 + 3 * th**2, h * (th**3 - th**2)))
    c00, c10, c01, c11 = np.array(coef).T[:, :, None]
    vals = np.empty((len(times), n))
    np.multiply(c00, y0[:n], out=vals)
    vals += c10 * f0[:n]
    vals += c01 * y1[:n]
    vals += c11 * f1[:n]
    for row in np.flatnonzero((vals < 0.0).any(axis=1)):
        vals[row], clamped = _clamp(vals[row], sizes, n)
        stats.clamped_mass_sample += clamped
    return vals


class _StepWork:
    """The tableau every trial step of one run takes, and the scratch it reuses.

    The tableau is ``couplings`` in ``_DP_A``'s form and ``error``, the error
    weights of all stages, None for RK4 (``_StepWork(_RK4_A, None)``); the
    default is Dormand-Prince. ``stages`` holds the stages as rows, the last
    f at the new state, ``terms`` their tableau-weighted copy for one
    reduction, and ``vec`` a step's stage inputs, then its squared scaled
    error. A step uses their first n columns, through views
    built once per width. All three are as wide as the widest step so far:
    a wider step replaces them by fresh ones of its own width, a power of
    two or k (``prefix_columns``), so a run whose front stays far below k
    never holds k columns. A step reads no column of them past its own n,
    so what a wider step left there does not matter.
    """

    def __init__(self, couplings: tuple = _DP_A, error: np.ndarray | None = _DP_ERR):
        self.couplings, self.error = couplings, error
        self.stages = self.terms = np.empty((len(couplings) + 1, 0))
        self.vec = np.empty(0)
        self._widths = {}

    def width(self, n: int) -> tuple:
        """(stages, terms, combos, head) on the first n columns.

        A combo is a tableau column with the stage rows it weighs and the
        rows of terms its products go to; head is vec[:n].
        """
        views = self._widths.get(n)
        if views is None:
            if n > self.vec.size:
                rows = self.stages.shape[0]
                self.stages, self.terms, self.vec = np.empty((rows, n)), np.empty((rows, n)), np.empty(n)
                self._widths.clear()
            stages, terms = self.stages[:, :n], self.terms[:, :n]
            combos = tuple((col, stages[: col.shape[0]], terms[: col.shape[0]]) for col in self.couplings)
            views = self._widths[n] = (stages, terms, combos, self.vec[:n])
        return views


def _dp_step(f, y, f0, h, rel_tol, abs_tol, work: _StepWork, occupied: int):
    """One trial step of size h from y, where f0 = f(y), of the tableau in ``work``.

    Stage 1 is the caller's f0 and the last stage is f at the new state
    (Dormand-Prince is first-same-as-last; RK4 takes it for the same reuse).
    Returns (y5, err_norm, f_last) with y5 the new state, err_norm the RMS
    norm of the error estimate, weighted by abs_tol + rel_tol * max(|y|, |y5|),
    or 0.0 for a tableau without one (RK4), and f_last = f(y5); both arrays
    are fresh, and work.stages holds the stages until the next call.

    ``occupied`` is occupied_size(y). Each stage reaches one size further
    than its input, so no stage, stage input, y5 or f_last holds anything
    beyond size occupied + STEP_REACH, and the step works on the first
    n = prefix_columns(occupied + STEP_REACH, k) columns only. Beyond them
    the full-length arithmetic adds zeros to the +0.0 tail of y, which gives
    +0.0 whatever the signs of those zeros: that is the tail of y5. Stage
    inputs take the n-column ``work.vec``, which f reads no further than
    the row it writes (``f(x, out=row)``); the stages are written
    straight into their rows, whose occupied sizes f finds on the n columns.

    The norm is that of Hairer, Norsett & Wanner (Solving ODEs I, II.4)
    over the components that can be nonzero: the squared scaled errors of
    the support, the first min(k, occupied + STEP_REACH) sizes, are summed
    (one pairwise np.add.reduce) and divided by the support's size. The
    error past the support is exactly zero, so dividing by k instead would
    loosen the tolerance by about sqrt(k / support). The sum runs over the
    support alone, not over the n columns: numpy groups a pairwise sum by
    its length, and n depends on k where k is not a power of two. So while
    occupied + STEP_REACH < k, the step gives the same bits at every k.

    Each combination sum_j c_j * k_j is one multiply of the stage rows by
    a tableau column and one np.add.reduce over axis 0. That reduction
    adds whole rows one after another, first to last, so it rounds
    exactly like the left-to-right sum of the terms. The last coupling
    row forms y5, which gives the last stage weight zero.

    The step checks finiteness over the stages before the last and y5,
    before it evaluates the last stage, and over the last stage; f checks
    no stage input. That raises ``NumericError`` in the same trial steps
    as checking every stage input, y5 and f_last would. Component i of
    f(x) ends in - x_i * (S_i + T_i), and the product of a NaN or an
    infinity with any float, zero included, is NaN or infinite, as is a
    difference with one. So a non-finite stage input gives a non-finite
    stage, through the separable and the matrix route alike. The last
    stage is checked on all n columns, not through the norm: a rate sum
    that overflows past the support gives 0 * inf there, which the norm
    does not read. A step of finite stages whose error overflows has
    err_norm inf and is rejected.
    """
    k = y.size
    support = min(k, occupied + STEP_REACH)
    n = prefix_columns(support, k)
    stages, terms, combos, head = work.width(n)
    yn = y[:n]

    def increment(combo):
        # h * sum_j col_j * stage_j, in head
        col, rows, products = combo
        np.multiply(col, rows, out=products)
        incr = np.add.reduce(products, axis=0, out=head)
        incr *= h
        return incr

    stages[0] = f0[:n]
    for s, combo in enumerate(combos[:-1], start=1):
        np.add(yn, increment(combo), out=head)
        f(head, out=stages[s])
    # y5 sits in the last row until the last stage takes the row, so one check covers it and the stages
    np.add(yn, increment(combos[-1]), out=stages[-1])
    if not np.isfinite(stages[1:]).all():
        raise NumericError("non-finite values in trial step")
    y5 = np.zeros(k)
    y5n = y5[:n]
    y5n[:] = stages[-1]
    f_last = np.zeros(k)
    stages[-1] = f(y5, out=f_last[:n])
    if not np.isfinite(stages[-1]).all():
        raise NumericError("non-finite values in trial step")
    if work.error is None:
        return y5, 0.0, f_last
    np.multiply(work.error, stages, out=terms)
    err = np.add.reduce(terms, axis=0, out=head)
    err *= h
    # scale = abs_tol + rel_tol * max(|y|, |y5|), in the rows terms no longer needs
    scale = np.abs(yn, out=terms[0])
    np.maximum(scale, np.abs(y5n, out=terms[1]), out=scale)
    scale *= rel_tol
    scale += abs_tol
    err /= scale
    err *= err
    return y5, math.sqrt(np.add.reduce(err[:support]) / support), f_last


def integrate(
    init: SizeDistribution,
    kernel: CoagulationKernel,
    config: SolverConfig,
) -> Trajectory:
    """Integrate the truncated system and sample it on the output grid.

    One loop serves both modes, which set only its parameters. Adaptive
    mode runs the embedded pair under PI step control between min_step =
    1e-12 * t_end and max_step. fixed_step mode runs the RK4 tableau with
    max_step = fixed_h, no stall floor and no rejection: its err_norm is
    0.0, so the PI update raises h and the cap returns it to fixed_h.
    Dense output between accepted steps is cubic Hermite on the stored
    derivatives, all samples of one step formed as one block (``_hermite``).
    Steps and samples are clamped nonnegative, charging the run budget by
    source; an adaptive trial step that would charge more than
    budget * h / t_end is halved.

    Each sample goes into ``Trajectory.states`` on its occupied prefix: a
    Hermite block holds the sizes the step can reach, a sample at a step
    end copies the state's occupied prefix, and the rows are joined once,
    at the width of the widest. So k caps the sizes but sets neither the
    samples' memory nor the stage scratch (``_StepWork``), which follow
    the front of the run. Nor does k enter the step control, whose error
    norm is taken over each step's support (``_dp_step``): a run whose
    front stays below k, m + STEP_REACH < k, is the same run at every
    such k.

    The run stops after its last step: it evaluates the right-hand side
    exactly ``step_stats.n_rhs_evals`` times, and the diagnostics records
    are left to the first read of ``Trajectory.diagnostics``. A
    ``NumericError`` raised while stepping (``IntegrationStalledError``
    included) carries the run's ``max_occupied_size`` so far, which bounds
    the sizes whose rates any right-hand-side call of the run read.
    """
    config.validate()
    init.validate()
    if init.time != 0.0:
        raise ValueError(f"initial state must carry time 0, got {init.time}")
    k = init.truncation_k

    f = RhsEvaluator(kernel, k)
    stats = StepStats()
    sample_times = config.resolved_sample_times()
    sizes = np.arange(1, k + 1, dtype=float)

    times = sample_times.copy()
    times[0] = init.time
    occupied = stats.max_occupied_size = occupied_size(init.values)
    # the samples in order, as blocks of rows on a prefix of the sizes; widest
    # is the largest occupied_size of any of their rows
    blocks = [init.values[None, :occupied].copy()]
    widest = occupied
    next_sample = 1

    def emit(t0, y0, f0, t1, y1, f1):
        # Take the accepted state y1; Hermite-interpolate all samples in
        # (t0, t1] as one block, with exact endpoint reuse. Past the first n
        # sizes y0 and y1 are +0.0 and f0, f1 zeros, so every sample is +0.0
        # there and the block leaves those sizes out.
        nonlocal next_sample, occupied, widest
        held = occupied_size(y1[:prefix_columns(occupied + STEP_REACH, k)])
        stats.max_occupied_size = max(stats.max_occupied_size, held)
        n = min(k, max(occupied, held) + 1)
        occupied = held
        first = next_sample
        while next_sample < sample_times.size and sample_times[next_sample] <= t1 + 1e-14 * max(1.0, t1):
            next_sample += 1
        if next_sample == first:
            return
        due = sample_times[first:next_sample].tolist()
        # the samples at t1 (a suffix, times being ascending) take y1 itself
        inner = len(due)
        while inner and abs(due[inner - 1] - t1) <= 1e-12 * max(1.0, config.t_end):
            inner -= 1
        if inner:
            block = _hermite(t0, y0, f0, t1, y1, f1, due[:inner], n, sizes, stats)
            blocks.append(block)
            widest = max(widest, int(occupied_sizes(block).max()))
        if inner < len(due):
            blocks.append(np.repeat(y1[None, :held], len(due) - inner, axis=0))
            widest = max(widest, held)

    t = 0.0
    y = init.values.copy()
    try:
        fy = f(y)
        if config.mode == MODE_FIXED:
            # RK4 estimates no error, so every step is accepted; the PI update
            # then raises h, and max_step brings it back to fixed_h
            work = _StepWork(_RK4_A, None)
            h = max_step = float(config.fixed_h)
            min_step, budget_rate = 0.0, math.inf  # no stall floor; clamps are charged, never rejected
        else:
            work = _StepWork()
            max_step = config.resolved_max_step()
            min_step = 1e-12 * config.t_end
            # M1(0) summed on the occupied prefix (fsum), as Trajectory.check_invariants reads it
            budget_rate = MASS_BUDGET_REL * moment(init, 1) / config.t_end
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
            y5, err_norm, f_last = _dp_step(f, y, fy, h, config.rel_tol, config.abs_tol, work, occupied)
            if err_norm > 1.0:
                stats.n_rejected_error += 1
                h *= max(_FAC_MIN, _SAFETY * err_norm ** (-1.0 / 5.0))
                continue
            y_new, clamped = _clamp(y5, sizes, prefix_columns(occupied + STEP_REACH, k))
            if clamped > budget_rate * h:
                stats.n_rejected_positivity += 1
                h *= 0.5
                continue
            stats.clamped_mass_step += clamped
            # the last stage is f(y5); a clamped state needs a fresh evaluation
            f_new = f_last if y_new is y5 else f(y_new)
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
    except NumericError as exc:
        exc.max_occupied_size = stats.max_occupied_size
        raise

    if next_sample < sample_times.size:
        # end-of-run numerical fuzz: remaining samples sit at t_end
        blocks.append(np.repeat(y[None, :occupied], sample_times.size - next_sample, axis=0))
        widest = max(widest, occupied)

    states = np.zeros((times.size, widest))
    row = 0
    for block in blocks:
        states[row:row + len(block), : block.shape[1]] = block[:, :widest]
        row += len(block)

    stats.n_rhs_evals = f.n_evals
    return Trajectory(
        times=times,
        states=states,
        truncation_k=k,
        kernel=kernel,
        step_stats=stats,
        config=config,
    )
