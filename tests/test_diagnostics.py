import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from oracles import cumulative_simpson_oracle, record_oracle

from coagkin.diagnostics import (
    check_moment_propagation,
    compute_record,
    g_moment,
    mass_defect,
    mass_defect_endpoint,
    moment,
    moment_series,
)
from coagkin.integrator import SolverConfig, integrate
from coagkin.kernels import additive, constant, demo_table, power_sum
from coagkin.numerics import cumulative_simpson
from coagkin import system
from coagkin.system import RhsEvaluator, SizeDistribution, monomer
from coagkin.weights import identity_weight, power_weight


def state(values):
    arr = np.asarray(values, dtype=float)
    return SizeDistribution(arr, arr.size)


def test_moment_examples():
    assert moment(state([1.0, 0.0, 0.0]), 1) == 1.0
    assert moment(state([1.0, 1.0, 0.0]), 1) == 3.0
    assert moment(state([0.5, 0.25]), 2) == 1.5
    with pytest.raises(ValueError):
        moment(state([1.0, 0.0]), -1)


def test_g_moment_examples():
    s = state([1.0, 1.0, 0.0])
    assert g_moment(s, identity_weight()) == moment(s, 1)
    assert g_moment(s, power_weight(2.0)) == 5.0
    assert g_moment(state([0.0, 0.0]), power_weight(2.0)) == 0.0


def test_moments_are_correctly_rounded_sums(rng):
    dense = rng.random(2000) * 10.0 ** rng.integers(-8, 8, 2000)
    # a large-k state: occupied head, a -0.0 and a long trailing zero run
    sparse = np.zeros(4096)
    sparse[:300] = dense[:300]
    sparse[150] = -0.0
    sparse[299] = 1e-300
    for vals in (dense, sparse):
        s = state(vals)
        sizes = np.arange(1, vals.size + 1, dtype=float)
        rec = compute_record(s, constant(1.0))
        assert rec.moment_0 == math.fsum(vals)
        assert rec.moment_1 == math.fsum(sizes * vals)
        assert moment(s, 2) == rec.moment_2 == math.fsum(sizes**2 * vals)
        assert moment(s, 1.5) == math.fsum(sizes**1.5 * vals)
        tail = math.fsum((sizes * vals)[vals.size // 2:])
        assert rec.tail_mass_fraction == (tail / rec.moment_1)
    assert compute_record(state(np.zeros(8)), constant(1.0)).moment_1 == math.fsum(np.zeros(8))


def test_records_evaluate_the_rhs_once_per_sample(monkeypatch):
    calls = []
    original = RhsEvaluator.__call__

    def counted(self, x, **kwargs):
        calls.append(x.shape)
        return original(self, x, **kwargs)

    monkeypatch.setattr(RhsEvaluator, "__call__", counted)
    monkeypatch.setattr(system, "BLOCK_CELLS", 3 * 16)  # blocks of 3 rows at k = 16
    traj = integrate(monomer(16), additive(1.0),
                     SolverConfig(t_end=2.0, sample_times=np.linspace(0, 2, 41)))
    # the stepping evaluates single states, and only those: the initial state, then
    # stage inputs on the columns a step takes and full-length states
    assert len(calls) == traj.step_stats.n_rhs_evals
    assert all(len(shape) == 1 and shape[0] <= 16 for shape in calls)
    del calls[:]
    traj.diagnostics
    # the first read evaluates every sample once, in blocks within the cell budget
    assert sum(m for m, _ in calls) == traj.times.size
    assert len(calls) == math.ceil(traj.times.size / 3)
    assert all(m * k <= 3 * 16 for m, k in calls)


def _bits(record) -> bytes:
    """Every field of a record or an oracle tuple, sign of zero included."""
    fields = astuple(record) if not isinstance(record, tuple) else record
    return np.array(fields).tobytes()


def _stored_rows(rng, w):
    """Stored sample rows on sizes 1..w, with values over nine decades.

    Row 0 has every entry set (the leak path once w = k), row 1 a -0.0
    inside and one last, row 2 is all zero, row 3 ends in zeros and row 4
    holds a lone -0.0.
    """
    rows = rng.random((6, w)) * 10.0 ** rng.integers(-6, 3, (6, w))
    rows[1, rng.integers(w)] = -0.0
    rows[1, -1] = -0.0
    rows[2] = 0.0
    rows[3, max(1, w // 2):] = 0.0
    rows[4] = 0.0
    rows[4, 0] = -0.0
    return rows


@pytest.mark.parametrize("kern", [constant(1.0), additive(1.0), power_sum(1.0, 0.5), demo_table(64)],
                         ids=lambda kern: kern.name)
@pytest.mark.parametrize("k", [2, 3, 17, 64])
def test_block_records_equal_one_state_records_bit_for_bit(kern, k, rng):
    f = RhsEvaluator(kern, k)
    for w in sorted({max(1, k // 2), k}):
        rows = _stored_rows(rng, w)
        X = np.zeros((len(rows), k))
        X[:, :w] = rows
        derivs = f(X)
        block = compute_record(rows, kern, f)
        assert len(block) == len(rows)
        for x, d, rec in zip(X, derivs, block):
            one = compute_record(SizeDistribution(x, k), kern)
            assert _bits(rec) == _bits(one) == _bits(record_oracle(x, kern, d)), (w, rec, one)
        assert (block[0].mass_leak_rate > 0.0) == (w == k)
        assert block[2].rhs_sup == block[2].moment_1 == 0.0 and not np.signbit(block[2].moment_0)
    with pytest.raises(ValueError, match="needs the RhsEvaluator"):
        compute_record(rows, kern)


def test_integrate_records_equal_per_sample_records():
    kern = additive(1.0)
    traj = integrate(monomer(16), kern, SolverConfig(t_end=2.0, sample_times=np.linspace(0, 2, 41)))
    f = RhsEvaluator(kern, 16)
    per_sample = [compute_record(traj.state(i), kern) for i in range(traj.times.size)]
    assert [_bits(r) for r in traj.diagnostics] == [_bits(r) for r in per_sample]
    assert [_bits(r) for r in per_sample] == [
        _bits(record_oracle(x, kern, f(x))) for x in traj.states_matrix()]
    assert traj.diagnostics[-1].mass_leak_rate > 0.0  # the front reached k
    # moments read from the stored rows equal the one-state moments
    for m in (0.0, 1.5, 2.0):
        assert moment_series(traj, m).tolist() == [moment(traj.state(i), m)
                                                   for i in range(traj.times.size)]
    weight = power_weight(1.5)
    mg = np.array([g_moment(traj.state(i), weight) for i in range(traj.times.size)])
    rep = check_moment_propagation(traj, weight, kern)
    envelope = mg[0] * np.exp(rep.metrics["c_safe"] * traj.times)
    assert rep.metrics["max_ratio"] == float(np.max(mg / envelope))


def test_rhs_envelope_is_the_componentwise_max_over_samples():
    # the per-size envelope of |rhs| over the samples is read from the stored
    # rows with the run's kernel; its largest entry is the largest rhs_sup
    kern = additive(1.0)
    traj = integrate(monomer(32), kern, SolverConfig(t_end=3.0))
    f = RhsEvaluator(kern, 32)
    derivs = np.vstack([f(x) for x in traj.states_matrix()])
    envelope = np.max(np.abs(derivs), axis=0)
    assert np.array_equal(np.max(np.abs(RhsEvaluator(traj.kernel, 32)(traj.states)), axis=0),
                          envelope)
    assert [d.rhs_sup for d in traj.diagnostics] == np.max(np.abs(derivs), axis=1).tolist()
    assert max(d.rhs_sup for d in traj.diagnostics) == float(np.max(envelope))


def test_simpson_exact_on_quadratics():
    t = np.array([0.0, 0.3, 1.0, 1.4, 2.0])  # nonuniform
    y = 3.0 * t**2 - 2.0 * t + 1.0
    exact = t[-1] ** 3 - t[-1] ** 2 + t[-1]
    cum = cumulative_simpson(t, y)
    assert cum[0] == 0.0
    assert cum[2] == pytest.approx(t[2] ** 3 - t[2] ** 2 + t[2], rel=1e-14)
    assert cum[4] == pytest.approx(exact, rel=1e-14)
    # an odd number of intervals ends on the trailing trapezoid, exact for lines
    t = np.append(t, 2.5)
    y = 3.0 * t**2 - 2.0 * t + 1.0
    cum = cumulative_simpson(t, y)
    assert cum[4] == pytest.approx(exact, rel=1e-14)
    assert cum[5] == cum[4] + 0.5 * (t[5] - t[4]) * (y[5] + y[4])
    line = cumulative_simpson(t, 4.0 * t - 1.0)
    assert line[-1] == pytest.approx(2.0 * t[-1] ** 2 - t[-1], rel=1e-14)


def test_simpson_matches_the_pairwise_loop_bit_for_bit(rng):
    for n in (1, 2, 3, 4, 1001):
        for _ in range(5):
            # nonuniform steps over six decades, values of both signs over twelve
            t = np.cumsum(10.0 ** rng.uniform(-6, 0, n))
            y = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6, n)
            assert cumulative_simpson(t, y).tobytes() == cumulative_simpson_oracle(t, y).tobytes(), n
    # a leading pair that sums to -0.0 still starts the running sum at +0.0
    t = np.array([0.0, 0.5, 1.5, 2.0, 3.0])
    y = np.array([-0.0, -0.0, -0.0, 1.0, 2.0])
    cum = cumulative_simpson(t, y)
    assert cum.tobytes() == cumulative_simpson_oracle(t, y).tobytes()
    assert cum[2] == 0.0 and not np.signbit(cum[2])
    # a repeated time inside a pair is rejected by both
    for f in (cumulative_simpson, cumulative_simpson_oracle):
        with pytest.raises(ValueError, match="strictly ascending"):
            f(np.array([0.0, 1.0, 1.0, 2.0, 3.0]), np.ones(5))


def test_record_fields():
    s = state([1.0, 0.5, 0.0, 0.25])
    rec = compute_record(s, constant(1.0))
    assert rec.moment_0 == 1.75
    assert rec.moment_1 == pytest.approx(1.0 + 1.0 + 1.0)
    assert rec.moment_2 == moment(s, 2)
    # sizes above k/2 = 2 hold 3*0 + 4*0.25 = 1 of 3 mass units
    assert rec.tail_mass_fraction == pytest.approx(1.0 / 3.0)
    assert rec.rhs_sup > 0
    assert rec.mass_leak_rate >= 0


def test_mass_defect_zero_state():
    traj = integrate(state(np.zeros(4)), constant(1.0), SolverConfig(t_end=1.0))
    assert mass_defect(traj) == 0.0


def test_mass_defect_short_horizon_matches_initial_rate():
    # initial boundary flux for (1,1) at k=2 is 9, so defect ~ 9h for small h
    h = 1e-6
    traj = integrate(
        state([1.0, 1.0]), constant(1.0),
        SolverConfig(t_end=h, sample_times=np.linspace(0, h, 5)),
    )
    assert mass_defect(traj) == pytest.approx(9.0 * h, rel=1e-3)


def test_mass_defect_routes_agree_when_resolvable():
    traj = integrate(monomer(16), constant(1.0),
                     SolverConfig(t_end=5.0, sample_times=np.linspace(0, 5, 201)))
    leak = mass_defect(traj)
    endpoint = mass_defect_endpoint(traj)
    assert leak == pytest.approx(endpoint, rel=1e-4)
    assert endpoint >= -1e-9 * traj.diagnostics[0].moment_1


@pytest.mark.parametrize("kern,k,leaking", [(additive(1.0), 32, True), (constant(1.0), 256, False)],
                         ids=["leaking", "not_leaking"])
def test_mass_defect_equals_the_integral_of_the_record_leaks_bit_for_bit(kern, k, leaking):
    traj = integrate(monomer(k), kern, SolverConfig(t_end=2.0))
    defect = mass_defect(traj)  # from the stored rows, before any record exists
    assert "diagnostics" not in vars(traj)
    leaks = np.array([d.mass_leak_rate for d in traj.diagnostics])
    assert np.array(defect).tobytes() == np.array(cumulative_simpson(traj.times, leaks)[-1]).tobytes()
    assert np.array(mass_defect(traj)).tobytes() == np.array(defect).tobytes()  # from the records
    assert (defect > 0.0) == leaking
    assert mass_defect_endpoint(traj) == traj.diagnostics[0].moment_1 - traj.diagnostics[-1].moment_1


def test_mass_defect_resolves_below_float_cancellation():
    traj = integrate(monomer(64), constant(1.0), SolverConfig(t_end=5.0))
    leak = mass_defect(traj)
    assert 0.0 < leak < 1e-30  # true leak ~1e-45; endpoint route would round to 0


def test_moment_propagation_constant_kernel():
    kern = constant(1.0)
    traj = integrate(monomer(32), kern, SolverConfig(t_end=5.0))
    rep = check_moment_propagation(traj, power_weight(2.0), kern)
    assert rep.passed
    assert rep.metrics["max_ratio"] <= 1.0
    assert rep.metrics["c_safe"] == 4.0


def test_moment_propagation_identity_weight_is_mass_monotonicity():
    kern = additive(1.0)
    traj = integrate(monomer(16), kern, SolverConfig(t_end=3.0))
    rep = check_moment_propagation(traj, identity_weight(), kern)
    assert rep.passed
    assert rep.metrics["max_ratio"] <= 1.0
    assert rep.metrics["observed_growth_rate"] <= 0.0  # mass never grows


def test_moment_propagation_zero_start():
    kern = constant(1.0)
    traj = integrate(state(np.zeros(8)), kern, SolverConfig(t_end=1.0))
    rep = check_moment_propagation(traj, power_weight(2.0), kern)
    assert rep.passed
    assert rep.metrics["max_ratio"] == 0.0


def test_quiet_tail_implies_tiny_defect():
    # proxy: tail fraction < 1e-6 at every sample => defect <= 1e-4 * M1(0)
    from coagkin.kernels import catalog

    for kern in catalog(table_size=32).values():
        traj = integrate(monomer(32), kern, SolverConfig(t_end=2.0))
        tail_sup = max(d.tail_mass_fraction for d in traj.diagnostics)
        if tail_sup < 1e-6:
            assert mass_defect(traj) <= 1e-4 * traj.diagnostics[0].moment_1, kern.name


def test_constructed_weight_moment_stays_bounded_along_run():
    from coagkin.weights import construct_tail_weight

    kern = constant(1.0)
    init = state(0.5 ** np.arange(1, 33))
    weight = construct_tail_weight(init.values)
    traj = integrate(init, kern, SolverConfig(t_end=5.0))
    rep = check_moment_propagation(traj, weight, kern)
    assert rep.passed
    kappa = np.exp(rep.metrics["c_safe"] * 5.0)
    g0 = g_moment(traj.state(0), weight)
    assert all(g_moment(traj.state(i), weight) <= kappa * g0 for i in range(traj.times.size))


def test_record_memory_does_not_follow_k():
    # a block of records is padded to prefix_columns(w + 1, k) columns, w the stored
    # width, and its right-hand sides are evaluated there, not on k columns: a monomer
    # run of the constant kernel to t = 10, whose front stays near 300, peaked at
    # 0.28 MiB at both k (Python 3.11, numpy 2.4)
    peaks = []
    for k in (1024, 131_072):
        traj = integrate(monomer(k), constant(1.0), SolverConfig(t_end=10.0))
        tracemalloc.start()
        try:
            assert len(traj.diagnostics) == 101
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0]
    assert peaks[1] < 4 * 131_072  # half of one length-k row
