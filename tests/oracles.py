"""Straightforward arithmetic that the library's stepping, rhs, dense output
and quadrature must reproduce bit for bit, and textbook forms, the RK4
loop and cubic Hermite by its basis polynomials, that the library must
reproduce to rounding.

The tableau combinations are summed term by term from the left, as Python's
``sum`` does, and the separable rhs takes one ``np.cumsum`` per weighted
vector. Samples are formed one at a time and Simpson pairs summed in a
Python loop. ``RhsEvaluator``, ``integrator._dp_step``,
``integrator._dense_samples`` and ``numerics.cumulative_simpson`` arrange
the same operations into fewer numpy calls, and so does
``diagnostics.compute_record`` with the one-state record of
``record_oracle``; these oracles pin that every rounding stays where it
was.

The oracles always work on all k sizes. The library evaluates only the
occupied prefix of a state and returns +0.0 beyond it, so comparing with
them over the full length also checks that nothing past the prefix was
dropped. ``TrimmedRhs`` is the library's own trimmed evaluation, the
reference for its whole-width one, and ``convergence_order`` measures the
fixed-step order for the tests that check it.
"""
import math
from types import SimpleNamespace

import numpy as np

from coagkin.integrator import _DOP853_A, _DOP853_E3, _DOP853_E5, MODE_FIXED, SolverConfig, integrate
from coagkin.system import RhsEvaluator, occupied_size, prefix_columns

_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_ERR = _B5 - _B4


def dp_step_oracle(f, y, f0, h, rel_tol, abs_tol):
    """(y5, err_norm, stages) of one Dormand-Prince trial step, stages a list of 7 arrays.

    err_norm is the RMS of the scaled error over the step's support, the
    first min(k, m + 7) sizes, m being the last size of y with a nonzero
    bit pattern: each of the 7 stages reaches one size further than its
    input, and the error is exactly zero past them.
    """
    k = [f0]
    for row in _A[1:]:
        incr = sum(c * ki for c, ki in zip(row, k))
        k.append(f(y + h * incr))
    y5 = y + h * sum(b * ki for b, ki in zip(_B5, k))
    err = h * sum(e * ki for e, ki in zip(_ERR, k))
    scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y5))
    support = _support(y, 7)
    return y5, float(np.sqrt(np.mean(((err / scale) ** 2)[:support]))), k


def _support(y, reach):
    """min(k, m + reach), m being the last size of y with a nonzero bit pattern."""
    nonzero = np.flatnonzero(y.view(np.int64))
    return min(y.size, (int(nonzero[-1]) + 1 if nonzero.size else 0) + reach)


def dop853_step_oracle(f, y, f0, h, rel_tol, abs_tol):
    """(y8, err_norm, stages) of one DOP853 trial step, stages a list of 13 arrays, f(y8) last.

    err_norm is Hairer's combined norm h * s5 / sqrt((s5 + 0.01 * s3) *
    support), s5 and s3 the sums of the squared scaled E5 and E3 errors
    over the support, the first min(k, m + 16) sizes: 13 stages and 3
    dense-output stages each reach one size further than their input. It
    is 0.0 when s5 is. The coefficients are the library's, which
    ``test_integrator`` checks against scipy's.
    """
    k = [f0]
    for row in _DOP853_A[:-1]:
        incr = sum(c * ki for c, ki in zip(row, k))
        k.append(f(y + h * incr))
    y8 = y + h * sum(b * ki for b, ki in zip(_DOP853_A[-1], k))
    k.append(f(y8))
    scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y8))
    support = _support(y, 16)
    s5, s3 = (float(np.sum(((sum(e * ki for e, ki in zip(weights, k)) / scale) ** 2)[:support]))
              for weights in (_DOP853_E5, _DOP853_E3))
    err = 0.0 if s5 == 0.0 else h * s5 / math.sqrt((s5 + 0.01 * s3) * support)
    return y8, err, k


def dense_oracle(f, t0, h, y0, f0, stages, y1, f1, times, sizes, stats, dense, interpolant):
    """A tableau's samples at times in (t0, t0 + h) one by one over all k sizes, each clamped and charged.

    stages are those of the step from y0 (``dop853_step_oracle``'s 13 for
    DOP853; a tableau without dense-output stages reads none); the step
    was accepted as y1, f1 = f(y1). One stage follows them for each row of
    ``dense``, the couplings of the dense-output stages, then F0 = y1 - y0,
    F1 = h f0 - F0, F2 = 2 F0 - h (f1 + f0) and one F = h * sum_j D_j K_j
    for each row D of ``interpolant``. A sample at theta is the nested
    product y0 + theta (F0 + (1 - theta) (F1 + theta (F2 + ...))), the
    factor after F_i theta for an even i and 1 - theta for an odd one.
    DOP853 passes its three dense couplings and four D rows; Dormand-Prince
    5(4) and RK4 pass none, which leaves the cubic Hermite interpolant.
    """
    k = list(stages)
    for row in dense:
        k.append(f(y0 + h * sum(c * ki for c, ki in zip(row, k))))
    F = [y1 - y0]
    F.append(h * f0 - F[0])
    F.append(2 * F[0] - h * (f1 + f0))
    F += [h * sum(d * ki for d, ki in zip(row, k)) for row in interpolant]
    last = len(F) - 1
    rows = []
    for ts in times:
        x = (ts - t0) / ((t0 + h) - t0)
        val = F[last] * (x if last % 2 == 0 else 1 - x)
        for i in range(last - 1, -1, -1):
            val = (val + F[i]) * (x if i % 2 == 0 else 1 - x)
        val = val + y0
        neg = val < 0.0
        if neg.any():
            stats.clamped_mass_sample += float(np.dot(sizes[neg], -val[neg]))
            val[neg] = 0.0
        rows.append(val)
    return np.array(rows)


def rhs_oracle(kernel, k):
    """The truncated rhs at size k: cumsums for separable kernels, else two matrix-vector products."""
    sizes = np.arange(1, k + 1, dtype=float)
    if kernel.separable is not None:
        a, d = kernel.separable
        a = float(a)
        ipow, ipow1 = sizes**d, sizes ** (1.0 + d)
    else:
        g = kernel.rate_matrix(k)
        low, up = np.tril(g), np.triu(g)

    def f(x):
        if kernel.separable is not None:
            w = sizes * x
            S = a * (ipow * np.cumsum(w) + np.cumsum(ipow1 * x))
            T = a * (ipow * np.cumsum(x[::-1])[::-1] + np.cumsum((ipow * x)[::-1])[::-1])
        else:
            S = low @ (sizes * x)
            T = up @ x
        out = np.empty_like(x)
        out[0] = 0.0
        out[1:] = x[:-1] * S[:-1]
        out -= x * (S + T)
        return out

    return f


class TrimmedRhs(RhsEvaluator):
    """An ``RhsEvaluator`` whose ``out=`` calls all take the trimmed route.

    Each finds x's occupied size m on x[:out.size] and evaluates on the
    first prefix_columns(m + 1, k) columns, +0.0 past them (``_into``), as
    the matrix route does. The separable route runs on all the row's
    columns and must give these bits. ``trimmed`` counts the calls whose
    trimmed width is narrower than their row.
    """

    trimmed = 0

    def __call__(self, x, out=None):
        if out is None:
            return super().__call__(x)
        m = occupied_size(x[:out.size])
        self.trimmed += prefix_columns(m + 1, self.k) < out.size
        return self._into(x, m, out)


def hermite_oracle(t0, y0, f0, t1, y1, f1, times, n, sizes, stats):
    """Cubic Hermite samples at times in (t0, t1] one by one, each clamped and charged on its own.

    Each is h00 * y0 + h * h10 * f0 + h01 * y1 + h * h11 * f1 on the first
    n sizes, from the textbook basis polynomials; the block is over all k
    sizes. ``integrator._dense_samples`` forms the same polynomial in nested
    form, so its samples of a tableau without dense-output stages equal
    these to rounding, not bit for bit.
    """
    k = y0.size
    h = t1 - t0
    rows = []
    for ts in times:
        th = (ts - t0) / h
        h00 = 2 * th**3 - 3 * th**2 + 1
        h10 = th**3 - 2 * th**2 + th
        h01 = -2 * th**3 + 3 * th**2
        h11 = th**3 - th**2
        val = np.zeros(k)
        vec = h00 * y0[:n] + h * h10 * f0[:n] + h01 * y1[:n] + h * h11 * f1[:n]
        clamped = 0.0
        if vec.min(initial=0.0) < 0.0:
            neg = vec < 0.0
            clamped = float(np.dot(sizes[:n][neg], -vec[neg]))
            vec = vec.copy()
            vec[neg] = 0.0
        val[:n] = vec
        stats.clamped_mass_sample += clamped
        rows.append(val)
    return np.array(rows)


def rk4_oracle(init, kernel, config):
    """(states, stats) of a fixed_step run by the textbook classical RK4 loop over all k sizes.

    Each step of h = min(fixed_h, t_end - t) forms k2..k4 and
    y + (h / 6) * (k1 + 2 k2 + 2 k3 + k4) from full-length arrays with
    ``rhs_oracle``, zeroes its negative entries, charging their
    size-weighted mass, and evaluates f at the clamped state. A sample in
    (t0, t1] within 1e-12 * max(1, t_end) of t1 copies the state, any
    other is the ``hermite_oracle`` value, and samples left after the
    last step copy the final state. states holds the samples as rows over
    all k sizes; stats holds n_accepted, min_step, max_step,
    clamped_mass_step and clamped_mass_sample.
    """
    k = init.truncation_k
    f = rhs_oracle(kernel, k)
    sizes = np.arange(1, k + 1, dtype=float)
    ts = config.resolved_sample_times()
    t_end, h_nominal = config.t_end, float(config.fixed_h)
    stats = SimpleNamespace(n_accepted=0, min_step=np.inf, max_step=0.0,
                            clamped_mass_step=0.0, clamped_mass_sample=0.0)
    t, y = 0.0, init.values.copy()
    rows = [y.copy()]
    fy = f(y)
    while t < t_end - 1e-14 * t_end:
        h = min(h_nominal, t_end - t)
        k1 = fy
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y_new).all():
            raise FloatingPointError(f"non-finite values in fixed step at t={t}")
        neg = y_new < 0.0
        if neg.any():
            stats.clamped_mass_step += float(np.dot(sizes[neg], -y_new[neg]))
            y_new[neg] = 0.0
        f_new = f(y_new)
        t1 = t + h
        due = ts[len(rows):][ts[len(rows):] <= t1 + 1e-14 * max(1.0, t1)]
        for ts_i in due.tolist():
            if abs(ts_i - t1) <= 1e-12 * max(1.0, t_end):
                rows.append(y_new.copy())
            else:
                rows.extend(hermite_oracle(t, y, k1, t1, y_new, f_new, [ts_i], k, sizes, stats))
        t, y, fy = t1, y_new, f_new
        stats.n_accepted += 1
        stats.min_step = min(stats.min_step, h)
        stats.max_step = max(stats.max_step, h)
    rows += [y.copy()] * (ts.size - len(rows))
    return np.array(rows), stats


def cumulative_simpson_oracle(t, y):
    """Running sum of Simpson pairs at even indices, a trapezoid on top at odd ones."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    n = t.size
    out = np.zeros(n)
    acc = 0.0
    for m in range(2, n, 2):
        h0 = t[m - 1] - t[m - 2]
        h1 = t[m] - t[m - 1]
        h = h0 + h1
        if h0 <= 0 or h1 <= 0:
            raise ValueError("sample times must be strictly ascending")
        acc += (h / 6.0) * (
            (2.0 - h1 / h0) * y[m - 2]
            + (h * h / (h0 * h1)) * y[m - 1]
            + (2.0 - h0 / h1) * y[m]
        )
        out[m] = acc
    for m in range(1, n, 2):
        out[m] = out[m - 1] + 0.5 * (t[m] - t[m - 1]) * (y[m] + y[m - 1])
    return out


def record_oracle(values, kernel, deriv):
    """(M0, M1, M2, tail fraction, rhs_sup, leak) of one full-length state, one sum at a time.

    Each moment is ``math.fsum`` over the occupied prefix (a -0.0 counts
    as occupied) of a fresh product on sizes 1..m, rhs_sup reads the whole
    derivative, and the leak dots the sizes with the state weighted by the
    kernel row rate(k, .).
    """
    k = values.size
    nonzero = np.flatnonzero(values.view(np.int64))
    m = int(nonzero[-1]) + 1 if nonzero.size else 0
    held = values[:m]
    sizes = np.arange(1.0, m + 1.0)
    mass = sizes * held
    m1 = math.fsum(mass.tolist())
    tail = math.fsum(mass[k // 2:].tolist())
    leak = 0.0
    if values[-1] != 0.0:
        jv = np.arange(1, k + 1, dtype=float)
        row = np.asarray(kernel.rule(np.full(k, k), np.arange(1, k + 1)), dtype=float)
        leak = (k + 1.0) * float(values[-1]) * float(np.dot(jv, row * values))
    return (math.fsum(held.tolist()), m1, math.fsum((sizes**2.0 * held).tolist()),
            tail / m1 if m1 > 0 else 0.0, float(np.max(np.abs(deriv))), leak)


def eager_record_reads(kernel):
    """(mass_defect, moment) stand-ins that read records, as when every run came with its records.

    Both build a state's record with ``record_oracle``, one sample at a
    time over all k sizes. ``mass_defect`` integrates every sample's leak
    rate with the Simpson loop; ``moment(state, m)`` reads M0, M1 or M2
    (m = 0, 1, 2) from the state's record.
    """

    def record(values):
        return record_oracle(values, kernel, np.zeros(1))

    def mass_defect(traj):
        leaks = [record(x)[5] for x in traj.states_matrix()]
        return float(cumulative_simpson_oracle(traj.times, leaks)[-1])

    def moment(state, m):
        return record(state.values)[int(m)]

    return mass_defect, moment


def convergence_order(
    kernel,
    init,
    t_end: float,
    h: float,
) -> dict[str, float]:
    """Fixed-step accuracy ratio when h halves.

    e(h) is the max-abs endpoint difference between the fixed-step run at
    h and its own quarter-step reference; for a 4th order method
    e(h)/e(h/2) is approximately 16.
    """

    def endpoint(step_h: float) -> np.ndarray:
        cfg = SolverConfig(t_end=t_end, mode=MODE_FIXED, fixed_h=step_h,
                           sample_times=np.array([0.0, t_end]))
        return integrate(init, kernel, cfg).final().values

    runs = {s: endpoint(h * s) for s in (1.0, 0.25, 0.5, 0.125)}
    e_h = float(np.max(np.abs(runs[1.0] - runs[0.25])))
    e_h2 = float(np.max(np.abs(runs[0.5] - runs[0.125])))
    return {"error_h": e_h, "error_h_half": e_h2, "ratio": e_h / e_h2}
