import ast
import pathlib
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from oracles import (
    TrimmedRhs,
    dense_oracle,
    dop853_step_oracle,
    dp_step_oracle,
    hermite_oracle,
    rhs_oracle,
    rk4_oracle,
)

from coagkin import diagnostics, integrator
from coagkin.errors import ConfigError, IntegrationStalledError, NumericError
from coagkin.integrator import (
    _DOP853,
    _DOPRI5,
    _RK4,
    StepStats,
    DOP853_REL_TOL,
    MASS_BUDGET_REL,
    MODE_FIXED,
    PLANE_COLUMNS,
    STEP_REACH,
    SolverConfig,
    _clamp,
    _dense_samples,
    _dp_step,
    _stack,
    _StepWork,
    integrate,
)
from coagkin.kernels import additive, catalog, constant, demo_table, power_sum
from coagkin.system import (
    RhsEvaluator,
    SizeDistribution,
    monomer,
    occupied_size,
    occupied_sizes,
    prefix_columns,
    row_blocks,
)


def test_config_validation():
    with pytest.raises(ConfigError, match="t_end"):
        SolverConfig(t_end=-1.0).validate()
    with pytest.raises(ConfigError, match="rel_tol"):
        SolverConfig(t_end=1.0, rel_tol=0.0).validate()
    with pytest.raises(ConfigError, match="fixed_h"):
        SolverConfig(t_end=1.0, mode=MODE_FIXED).validate()
    with pytest.raises(ConfigError, match="mode"):
        SolverConfig(t_end=1.0, mode="implicit").validate()
    with pytest.raises(ConfigError, match="solver.fixed_h"):  # adaptive mode would ignore it
        SolverConfig(t_end=1.0, fixed_h=0.1).validate()
    with pytest.raises(ConfigError, match="sample_times"):
        SolverConfig(t_end=1.0, sample_times=np.array([0.0, 0.5])).validate()
    with pytest.raises(ConfigError, match="sample_times"):
        SolverConfig(t_end=1.0, sample_times=np.array([0.0, 0.5, 0.5, 1.0])).validate()
    SolverConfig(t_end=1.0).validate()


def trial_step(y, h, rel_tol=1e-8, abs_tol=1e-10):
    f = RhsEvaluator(constant(1.0), y.size)
    work = _StepWork()
    y5, err, _ = _dp_step(f, y, f(y), h, rel_tol, abs_tol, work, occupied_size(y))
    return y5, err, work.stages


def test_step_zero_state_is_fixed_point():
    y5, err, stages = trial_step(np.zeros(4), 0.5)
    assert err == 0.0
    assert np.array_equal(y5, np.zeros(4))
    assert len(stages) == 7


def test_step_small_h_matches_first_order_expansion():
    h = 1e-6
    y5, err, _ = trial_step(np.array([1.0, 0.0, 0.0]), h)
    assert err <= 1.0
    # derivative is (-2, 1, 0); deviation from the tangent is O(h^2)
    assert abs(y5[0] - (1.0 - 2.0 * h)) <= 10.0 * h * h
    assert abs(y5[1] - h) <= 10.0 * h * h
    assert abs(y5[2]) <= 10.0 * h * h


def test_step_rejects_wild_step():
    y = np.array([100.0, 100.0, 100.0])
    _, err, _ = trial_step(y, 0.1)
    assert err > 1.0
    assert np.array_equal(y, [100.0, 100.0, 100.0])  # the trial leaves its input alone


def test_step_with_overflowing_last_stage_raises():
    # every stage input is finite, so f accepts them; only the last stage overflows
    f = RhsEvaluator(additive(1.0), 64)
    y = np.ones(64)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericError, match="non-finite values in trial step"):
        _dp_step(f, y, f(y), 0.5, 1e-8, 1e-10, _StepWork(), 64)


@pytest.mark.parametrize("kern", [additive(1.0), demo_table(64)], ids=["separable", "table"])
def test_non_finite_start_or_stage_raises_in_the_trial_step(kern):
    f = RhsEvaluator(kern, 64)
    y = np.zeros(64)
    y[:8] = 0.1
    f0 = f(y)
    y[3] = np.nan  # a non-finite start: every stage input from stage 2 on holds it
    before = f.n_evals
    with pytest.raises(NumericError, match="non-finite values in trial step"):
        _dp_step(f, y, f0, 0.01, 1e-8, 1e-10, _StepWork(), 8)
    assert f.n_evals == before + 5  # stages 2-6: the check comes before stage 7
    # finite start and stage 1; stage 3 overflows from a finite input, stages 4-7 follow
    y[:8] = 1e100
    work = _StepWork()
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericError, match="non-finite values in trial step"):
        _dp_step(f, y, f(y), 1e-60, 1e-8, 1e-10, work, 8)
    assert np.isfinite(work.stages[:2]).all() and not np.isfinite(work.stages[2]).all()


@pytest.mark.parametrize("kern", [additive(1.0), demo_table(256)], ids=["separable", "table"])
def test_step_work_reused_after_a_wider_step_gives_the_fresh_bits(kern):
    # the scratch persists across steps: a narrower step after a wider one must read
    # nothing the wider one left past its own columns, or its error norm sums stale squares
    k = 256
    f = RhsEvaluator(kern, k)
    wide = np.zeros(k)
    wide[:40] = np.linspace(0.3, 0.01, 40)
    narrow = monomer(k).values
    work = _StepWork()
    _dp_step(f, wide, f(wide), 0.05, 1e-8, 1e-10, work, 40)
    for y, occupied in ((narrow, 1), (wide, 40), (narrow, 1)):
        reused = _dp_step(f, y, f(y), 0.05, 1e-8, 1e-10, work, occupied)
        fresh = _dp_step(f, y, f(y), 0.05, 1e-8, 1e-10, _StepWork(), occupied)
        assert reused[1] > 0.0
        assert [np.asarray(v).tobytes() for v in reused] == [np.asarray(v).tobytes() for v in fresh]


def test_trial_step_memory_follows_the_front_not_k():
    # one step from a state occupying 16 of k = 131,072 sizes holds y5 and f_last,
    # the two length-k arrays it returns, and no length-k stage result or stage input:
    # it peaked at 2.0 such arrays, against 3.0 with a fresh stage-input buffer and
    # fresh rhs results per step (Python 3.11, numpy 2.4)
    k = 131_072
    f = RhsEvaluator(constant(1.0), k)
    y = np.zeros(k)
    y[:16] = np.linspace(1.0, 0.1, 16)
    f0, work = f(y), _StepWork()
    _dp_step(f, y, f0, 0.01, 1e-8, 1e-10, work, 16)  # the run's scratch, made by its first step
    tracemalloc.start()
    try:
        _dp_step(f, y, f0, 0.01, 1e-8, 1e-10, work, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * k


def test_integrate_zero_state_stays_zero():
    cfg = SolverConfig(t_end=10.0)
    traj = integrate(SizeDistribution(np.zeros(6), 6), constant(1.0), cfg)
    assert traj.states_matrix().shape == (101, 6)
    assert not traj.states.any()
    assert traj.check_invariants() == []


def test_adaptive_matches_fixed_oracle():
    init = monomer(8)
    ts = np.linspace(0.0, 1.0, 11)
    ad = integrate(init, constant(1.0), SolverConfig(t_end=1.0, sample_times=ts))
    fx = integrate(init, constant(1.0),
                   SolverConfig(t_end=1.0, mode=MODE_FIXED, fixed_h=1e-3, sample_times=ts))
    err = np.max(np.abs(ad.states_matrix() - fx.states_matrix()))
    assert err <= 1e-6


def test_all_catalog_kernels_positive_and_mass_monotone():
    for kern in catalog(table_size=16).values():
        traj = integrate(monomer(16), kern, SolverConfig(t_end=2.0))
        assert traj.check_invariants() == [], kern.name
        st = traj.step_stats
        assert st.n_rhs_evals == 1 + 6 * (st.n_accepted + st.n_rejected), kern.name
        m1 = traj.mass_series()
        assert np.all(np.diff(m1) <= 1e-9 * m1[0])
        assert traj.states.min() >= 0.0


def test_sample_times_are_exactly_the_requested_grid():
    ts = np.array([0.0, 0.1, 0.25, 0.3, 1.0])
    traj = integrate(monomer(4), constant(1.0), SolverConfig(t_end=1.0, sample_times=ts))
    assert np.array_equal(traj.times, ts)


def test_dense_output_against_fine_fixed_reference():
    ts = np.linspace(0.0, 1.0, 7)  # deliberately not aligned with steps
    ad = integrate(monomer(6), constant(1.0),
                   SolverConfig(t_end=1.0, sample_times=ts, rel_tol=1e-10, abs_tol=1e-12))
    ref = integrate(monomer(6), constant(1.0),
                    SolverConfig(t_end=1.0, mode=MODE_FIXED, fixed_h=2e-4, sample_times=ts))
    err = np.max(np.abs(ad.states_matrix() - ref.states_matrix()))
    assert err <= 1e-8


def test_fixed_mode_nondivisible_h_lands_on_t_end():
    traj = integrate(monomer(4), constant(1.0),
                     SolverConfig(t_end=1.0, mode=MODE_FIXED, fixed_h=0.3,
                                  sample_times=np.array([0.0, 1.0])))
    assert traj.final().time == 1.0
    assert traj.step_stats.n_accepted == 4  # 0.3 + 0.3 + 0.3 + 0.1


@pytest.mark.parametrize("kern,k,h,t_end", [
    (constant(1.0), 8, 1e-3, 1.0),
    (additive(1.0), 32, 0.005, 1.0),
    (additive(1.0), 8, 0.1, 1.0),
    (power_sum(1.0, 0.5), 32, 0.2, 5.0),
], ids=["constant", "additive_k32", "additive_k8_sample_clamps", "power_step_clamps"])
def test_fixed_mode_matches_the_rk4_oracle(kern, k, h, t_end):
    # the library runs RK4 as a tableau through the Dormand-Prince stage machinery on
    # the occupied prefix; the oracle is the textbook loop over all k sizes, whose final
    # combination (h / 6) * (k1 + 2 k2 + 2 k3 + k4) rounds differently
    config = SolverConfig(t_end=t_end, mode=MODE_FIXED, fixed_h=h)
    traj = integrate(monomer(k), kern, config)
    states, stats = rk4_oracle(monomer(k), kern, config)
    assert np.max(np.abs(traj.states_matrix() - states)) <= 1e-15
    st = traj.step_stats
    assert (st.n_accepted, st.min_step, st.max_step) == (stats.n_accepted, stats.min_step, stats.max_step)
    assert st.n_rejected == 0
    assert st.clamped_mass_step == pytest.approx(stats.clamped_mass_step, rel=1e-12, abs=0.0)
    assert st.clamped_mass_sample == pytest.approx(stats.clamped_mass_sample, rel=1e-12, abs=0.0)


def test_fixed_mode_follows_the_front_not_k(monkeypatch):
    # every stage, and f at every new state, is written into a row of the step's
    # own width, far below k while the front stays near the monomers
    k = 16_384
    widths = []
    rhs_call = RhsEvaluator.__call__

    def spy(self, x, out=None):
        widths.append(x.shape[-1] if out is None else out.size)
        return rhs_call(self, x, out=out)

    monkeypatch.setattr(RhsEvaluator, "__call__", spy)
    traj = integrate(monomer(k), constant(1.0), SolverConfig(t_end=1.0, mode=MODE_FIXED, fixed_h=0.05))
    st = traj.step_stats
    assert st.clamped_mass_step == 0.0  # no clamped state, so no fresh full-length evaluation
    assert widths[0] == k  # the initial derivative
    assert len(widths) == 1 + 4 * st.n_accepted == 81
    assert max(widths[1:]) < k


def test_fixed_mode_blow_up_raises():
    # RK4 at h = 0.3 is unstable for the additive kernel at k = 8: f at the new state
    # overflows, and the step raises instead of handing a NaN state on; the overflow
    # on the way warns nothing, since the step's checks report it
    with warnings.catch_warnings(), pytest.raises(NumericError, match="non-finite values in trial step"):
        warnings.simplefilter("error", RuntimeWarning)
        integrate(monomer(8), additive(1.0), SolverConfig(t_end=1.0, mode=MODE_FIXED, fixed_h=0.3))


def test_integration_stall_raises_with_last_state():
    # horizon so long that min_step exceeds any resolvable step
    with pytest.raises(IntegrationStalledError) as exc:
        integrate(monomer(8), constant(1.0), SolverConfig(t_end=1e12))
    assert exc.value.last_state is not None
    assert exc.value.last_state.truncation_k == 8


def test_rhs_envelope_reported_per_component():
    traj = integrate(monomer(8), constant(1.0), SolverConfig(t_end=1.0))
    envelope = np.max(np.abs(RhsEvaluator(traj.kernel, 8)(traj.states)), axis=0)
    assert envelope.shape == (8,)
    assert np.all(np.isfinite(envelope))
    assert envelope[0] >= 2.0 - 1e-12  # |rhs_1| = 2 at t = 0
    assert traj.diagnostics[0].rhs_sup == 2.0
    assert max(d.rhs_sup for d in traj.diagnostics) == float(np.max(envelope))


def test_step_stats_account_for_the_run():
    traj = integrate(monomer(8), constant(1.0), SolverConfig(t_end=1.0))
    st = traj.step_stats
    assert st.n_accepted > 0
    # first-same-as-last: one evaluation at t=0, then six per trial step
    assert st.n_rhs_evals == 1 + 6 * (st.n_accepted + st.n_rejected)
    assert 0 < st.min_step <= st.max_step <= SolverConfig(t_end=1.0).resolved_max_step()
    assert st.clamped_mass_step + st.clamped_mass_sample <= 1e-9  # essentially no clamping here


def test_invariant_checker_flags_mass_rise():
    traj = integrate(monomer(4), constant(1.0), SolverConfig(t_end=0.5))
    # tamper: inflate the final sample's mass
    traj.states[-1, 0] += 1.0
    from coagkin.diagnostics import compute_record

    traj.diagnostics[-1] = compute_record(traj.final(), constant(1.0))
    problems = traj.check_invariants()
    assert any("mass increased" in p for p in problems)


@pytest.mark.parametrize("config", [
    SolverConfig(t_end=2.0, sample_times=np.linspace(0, 2, 41)),
    SolverConfig(t_end=2.0, mode=MODE_FIXED, fixed_h=0.05),
], ids=["adaptive", "fixed"])
def test_first_record_opens_after_the_last_stepping_rhs_call(config, monkeypatch):
    # integrate makes exactly step_stats.n_rhs_evals evaluations and no record; the
    # first read of the diagnostics makes one record call per block of samples and
    # evaluates every sample's rhs inside those calls, and a second read makes none
    events = []
    depth = []
    rhs_call, record = RhsEvaluator.__call__, integrator.compute_record

    def traced_rhs(self, x, **kwargs):
        events.append(("rhs" if not depth else "rhs_in_record", len(x) if x.ndim == 2 else 1))
        return rhs_call(self, x, **kwargs)

    def traced_record(*args, **kwargs):
        events.append(("record", 0))
        depth.append(None)
        try:
            return record(*args, **kwargs)
        finally:
            depth.pop()

    monkeypatch.setattr(RhsEvaluator, "__call__", traced_rhs)
    monkeypatch.setattr(integrator, "compute_record", traced_record)
    traj = integrate(monomer(16), additive(1.0), config)
    assert {kind for kind, _ in events} == {"rhs"}
    assert sum(n for _, n in events) == traj.step_stats.n_rhs_evals
    del events[:]
    records = traj.diagnostics
    assert len(records) == traj.times.size
    assert [kind for kind, _ in events] == ["record", "rhs_in_record"] * (len(events) // 2)
    blocks = row_blocks(traj.times.size, 16)
    assert [n for kind, n in events if kind == "rhs_in_record"] == [
        len(range(traj.times.size)[rows]) for rows in blocks]
    del events[:]
    assert traj.diagnostics is records
    assert events == []


def test_invariant_messages_name_component_and_source():
    traj = integrate(monomer(4), constant(1.0), SolverConfig(t_end=0.5))
    traj.states[50, 2] = -3e-12
    traj.step_stats.clamped_mass_step = 2e-9
    traj.step_stats.clamped_mass_sample = 5e-10
    problems = traj.check_invariants()
    assert "negative component xi_3 = -3.000e-12 in sample at t=0.25" in problems
    assert ("clamped mass 2.500e-09 (steps 2.000e-09, samples 5.000e-10) "
            "exceeds budget 1.000e-09") in problems


@pytest.mark.parametrize("k", [256, 1024])
@pytest.mark.parametrize("kern", [constant(1.0), additive(1.0), power_sum(1.0, 0.5)],
                         ids=["constant", "additive", "power"])
def test_default_config_keeps_invariants_at_large_k(kern, k):
    traj = integrate(monomer(k), kern, SolverConfig(t_end=10.0))
    assert traj.check_invariants() == []


@pytest.mark.parametrize("abs_tol", [1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6])
@pytest.mark.parametrize("kern", [additive(1.0), power_sum(1.0, 0.5)], ids=["additive", "power"])
def test_step_clamps_stay_within_budget_at_any_abs_tol(kern, abs_tol, record_property):
    # an undershooting step is rejected, an undershooting sample is charged: neither raises
    traj = integrate(monomer(64), kern, SolverConfig(t_end=10.0, abs_tol=abs_tol))
    budget = MASS_BUDGET_REL * traj.mass_series()[0]
    st = traj.step_stats
    assert st.clamped_mass_step <= budget
    # Hermite samples may still overshoot the budget (1.2e-6 for power at abs_tol 1e-6)
    record_property("sample_share_over_budget", max(0.0, st.clamped_mass_sample - budget))


def test_fixed_mode_charges_undershoot_instead_of_raising():
    # RK4 at h = 0.2 undershoots on this problem; the run reports it as a violation
    traj = integrate(monomer(32), power_sum(1.0, 0.5),
                     SolverConfig(t_end=5.0, mode=MODE_FIXED, fixed_h=0.2))
    assert traj.step_stats.clamped_mass_step > MASS_BUDGET_REL * traj.mass_series()[0]
    assert any(p.startswith("clamped mass") for p in traj.check_invariants())


def test_initial_state_must_start_at_time_zero():
    bad = SizeDistribution(np.array([1.0, 0.0]), 2, time=0.5)
    with pytest.raises(ValueError, match="time 0"):
        integrate(bad, constant(1.0), SolverConfig(t_end=1.0))


def test_tabulated_kernel_smaller_than_k_is_rejected():
    with pytest.raises(ValueError, match="covers sizes 1..8"):
        integrate(monomer(16), demo_table(8), SolverConfig(t_end=1.0))


@pytest.mark.parametrize("kern", [constant(0.7), additive(1.3), power_sum(0.7, 0.3), demo_table(520)],
                         ids=["constant", "additive", "power", "table"])
def test_step_matches_oracle_bit_for_bit(kern, rng):
    norms, windows = [], set()
    for k in (2, 3, 64, 200, 257, 520):  # windows on both sides of PLANE_COLUMNS, 256 and 512 included
        f, f_oracle = RhsEvaluator(kern, k), rhs_oracle(kern, k)
        work = _StepWork()
        heads = []  # an occupied head and an empty tail, as in a run
        # supports of k // 3 + 7 and k // 2 + 7 sizes, narrower than the columns the
        # step takes, whose pairwise sums would group differently; the last head's
        # last stage reaches one size past the largest 2**p < k
        for m in (max(1, k // 3), max(1, k // 2), max(1, (1 << ((k - 1).bit_length() - 1)) - 6)):
            heads.append(rng.random(k) * (np.arange(k) < m))
        for y in heads + [rng.random(k) * 10.0 ** rng.uniform(-12, 0, k)]:
            for frac in (1e-4, 1e-2, 1.0):  # of the time scale 1 / |f(y)|
                h = frac / (1.0 + np.max(np.abs(f(y))))
                y5, err, f_last = _dp_step(f, y, f(y), h, 1e-8, 1e-10, work, occupied_size(y))
                y5_o, err_o, stages_o = dp_step_oracle(f_oracle, y, f_oracle(y), h, 1e-8, 1e-10)
                assert y5.tobytes() == y5_o.tobytes(), (k, h)
                assert err == err_o, (k, h)
                assert f_last.tobytes() == stages_o[-1].tobytes()
                # the step evaluates only the columns its stages can reach; the oracle's are zero past them
                n = prefix_columns(occupied_size(y) + 7, k)
                stages_o = np.array(stages_o)
                assert work.stages[:, :n].tobytes() == stages_o[:, :n].tobytes(), (k, h)
                assert np.all(stages_o[:, n:] == 0.0), (k, h)
                norms.append(err)
                windows.add(n)
    assert min(norms) <= 1.0 < max(norms)  # accepted and rejected step sizes both covered
    assert {PLANE_COLUMNS, 2 * PLANE_COLUMNS} <= windows


@pytest.mark.parametrize("tableau", [_DOPRI5, _RK4, _DOP853], ids=lambda t: t.name)
def test_combo_weights_are_planes_up_to_plane_columns_and_tableau_columns_past_it(tableau):
    work = _StepWork(tableau)
    own = tableau.couplings + tableau.dense + (tableau.errors, tableau.interpolant)
    for n in (1, 16, PLANE_COLUMNS, PLANE_COLUMNS + 1, 2 * PLANE_COLUMNS, 16, PLANE_COLUMNS):
        combos = work.width(n)[2]
        assert len(combos) == len(own)
        for (weights, _, terms, _), columns in zip(combos, own):
            if n <= PLANE_COLUMNS:
                assert weights.flags.c_contiguous and weights.shape == terms.shape, (n, weights.shape)
                assert weights.tobytes() == np.broadcast_to(columns, terms.shape).tobytes()
            else:  # the tableau's own (..., 1) columns: no plane is held
                assert weights is columns
            assert not np.shares_memory(weights, work.terms) and not np.shares_memory(weights, work.stages)


def test_fsal_stage_and_state_survive_the_next_step(rng):
    f = RhsEvaluator(power_sum(1.0, 0.5), 16)
    work = _StepWork()
    y = rng.random(16)
    y5, _, f_last = _dp_step(f, y, f(y), 0.01, 1e-8, 1e-10, work, 16)
    kept = y5.tobytes(), f_last.tobytes()
    _dp_step(f, y5, f_last, 0.01, 1e-8, 1e-10, work, 16)  # the next step starts from both
    assert (y5.tobytes(), f_last.tobytes()) == kept
    for scratch in (work.stages, work.terms, work.vec):
        assert not np.shares_memory(y5, scratch) and not np.shares_memory(f_last, scratch)


BOUND_KERNELS = [constant(1.0), constant(2.5), power_sum(1.0, 0.5), additive(1.3), power_sum(0.7, 0.3),
                 demo_table(64)]


def _sign_change_start(k):
    # P = sum j x_j > 0 > Q = sum j**1.5 x_j, so past the front S_i = i**0.5 * P + Q of the
    # power(1, 0.5) kernel turns from negative to positive near i = 20: there the
    # whole-row arithmetic gives 0 * S_{i-1} - 0 * S_i = -0.0
    y = np.zeros(k)
    y[0], y[9] = 1.0, -0.0717
    return y


@pytest.mark.parametrize("tableau", [_DOPRI5, _RK4, _DOP853], ids=lambda t: t.name)
@pytest.mark.parametrize("kern", BOUND_KERNELS,
                         ids=["constant", "constant_a2.5", "power", "additive_a1.3", "power_a0.7", "table"])
def test_bound_stage_rows_give_the_per_call_bits(kern, tableau, rng):
    # a trial step evaluates every stage into a row of the step's n columns; the separable
    # route runs each on all n columns, and the same step through TrimmedRhs evaluates each
    # on the prefix of its input's occupied size: y5, f(y5), every stage row and the dense
    # samples agree bit for bit, signs of zero included
    k = 64
    sizes = np.arange(1.0, k + 1.0)
    starts = {
        "narrow_front": rng.random(k) * (np.arange(k) < 3),  # stage inputs far narrower than n
        "deep_tail": rng.random(k) * 10.0 ** -rng.uniform(0, 12, k) * (np.arange(k) < 40),
        "sign_change": _sign_change_start(k),
        "negative_zero_tail": np.where(np.arange(k) < 6, rng.random(k), np.where(np.arange(k) < 20, -0.0, 0.0)),
    }
    overshoots = trimmed = 0
    for name, y in starts.items():
        # of the time scale 1 / |f(y)|: the long step overshoots (DOP853 overflows at 1.0)
        for frac in (1e-3, 0.1 if tableau is _DOP853 else 1.0):
            f, g = RhsEvaluator(kern, k), TrimmedRhs(kern, k)
            f0 = f(y)
            h = frac / (1.0 + np.max(np.abs(f0)))
            per_call = []
            into = f._into
            f._into = lambda x, m, out: per_call.append(m) or into(x, m, out)
            work_f, work_g = _StepWork(tableau), _StepWork(tableau)
            occupied = occupied_size(y)
            whole = _dp_step(f, y, f0, h, 1e-8, 1e-10, work_f, occupied)
            fresh = _dp_step(g, y, g(y), h, 1e-8, 1e-10, work_g, occupied)
            assert [np.asarray(v).tobytes() for v in whole] == [np.asarray(v).tobytes() for v in fresh], name
            n = prefix_columns(occupied + tableau.reach, k)
            last = len(tableau.couplings) + 1
            assert work_f.stages[:last, :n].tobytes() == work_g.stages[:last, :n].tobytes(), name
            y5, _, f_last = whole
            times = [0.25 * h, 0.5 * h, 0.75 * h]
            stats_f, stats_g = StepStats(), StepStats()
            block = _dense_samples(f, work_f, 0.0, h, y, f0, y5, f_last, times, n, sizes, stats_f)
            assert block.tobytes() == _dense_samples(g, work_g, 0.0, h, y, f0, y5, f_last, times, n, sizes,
                                                     stats_g).tobytes(), name
            assert work_f.stages[:, :n].tobytes() == work_g.stages[:, :n].tobytes(), name
            assert stats_f.clamped_mass_sample == stats_g.clamped_mass_sample
            assert f.n_evals == g.n_evals
            # the separable route evaluates no stage through the trimmed statements
            assert len(per_call) == (f.n_evals - 1 if kern.separable is None else 0)
            overshoots += bool((y5 < 0.0).any())
            trimmed += g.trimmed
    assert overshoots
    assert trimmed  # some stage's trimmed width is narrower than its row


def test_bound_call_sets_the_per_call_zeros_where_the_rate_sums_change_sign():
    # the one case where the whole-width arithmetic differs from a trimmed evaluation past
    # the trimmed width: a -0.0, so the whole-width call finds x's occupied size and
    # writes +0.0 there
    k = 64
    kern = power_sum(1.0, 0.5)
    x = _sign_change_start(k)[:32]  # occupied size 10: a trimmed width of 16 columns
    whole = rhs_oracle(kern, k)(_sign_change_start(k))[:32]
    assert np.signbit(whole[16:]).any() and not whole[16:].any()
    f, g = RhsEvaluator(kern, k), TrimmedRhs(kern, k)
    out, row = np.full(32, np.nan), np.full(32, np.nan)
    assert f(x, out=out) is out
    g(x, out=row)
    assert g.trimmed == 1
    assert out.tobytes() == row.tobytes()
    assert out[:16].tobytes() == whole[:16].tobytes()
    assert not np.signbit(out[16:]).any()
    # an input wider than the row, +0.0 past it, is read on the row's columns
    out[:] = np.nan
    f(_sign_change_start(k), out=out)
    assert out.tobytes() == row.tobytes() and f.n_evals == 2


class _OracleRhs:
    """The full-length oracle rhs behind RhsEvaluator's interface; a block is evaluated row by row."""

    def __init__(self, kernel, k):
        self.f, self.k, self.n_evals = rhs_oracle(kernel, k), k, 0

    def __call__(self, x):
        if x.ndim == 2:
            return np.array([self(row) for row in x])
        if not np.isfinite(x).all():
            raise NumericError("non-finite state entries passed to rhs")
        self.n_evals += 1
        return self.f(x)


@pytest.mark.parametrize("kern,k,abs_tol", [(power_sum(1.0, 0.5), 64, 1e-10), (additive(1.0), 32, 1e-4),
                                            (additive(1.0), 256, 1e-4), (constant(1.0), 4096, 1e-10)],
                         ids=["power", "additive_rejections", "additive_k256_clamps", "constant_k4096"])
def test_integrate_matches_oracle_stepping_bit_for_bit(kern, k, abs_tol, monkeypatch):
    # every sample, including the Hermite ones built from the stage handed to the next step;
    # the oracle run steps and evaluates the rhs over all k sizes
    config = SolverConfig(t_end=10.0, abs_tol=abs_tol)
    new = integrate(monomer(k), kern, config)
    records = new.diagnostics  # read before the oracle stands in for the rhs

    def oracle_step(f, y, f0, h, rel_tol, abs_tol, work, occupied):
        y5, err, stages = dp_step_oracle(f, y, f0, h, rel_tol, abs_tol)
        return y5, err, stages[-1]

    monkeypatch.setattr(integrator, "_dp_step", oracle_step)
    monkeypatch.setattr(integrator, "RhsEvaluator", _OracleRhs)
    for module in (integrator, diagnostics):  # samples and records read all k sizes too
        monkeypatch.setattr(module, "occupied_size", lambda values: values.size)
    old = integrate(monomer(k), kern, config)
    assert old.step_stats.max_occupied_size == k
    assert new.states_matrix().tobytes() == old.states_matrix().tobytes()
    assert new.step_stats == replace(old.step_stats, max_occupied_size=new.step_stats.max_occupied_size)
    assert records == old.diagnostics


@pytest.mark.parametrize("kern,k,config", [
    (constant(1.0), 32, SolverConfig(t_end=5.0, sample_times=np.linspace(0.0, 5.0, 1001))),
    (additive(1.0), 64, SolverConfig(t_end=10.0, abs_tol=1e-6)),
    (power_sum(1.0, 0.5), 32, SolverConfig(t_end=5.0, mode=MODE_FIXED, fixed_h=0.2,
                                           sample_times=np.linspace(0.0, 5.0, 201))),
], ids=["many_samples_per_step", "sample_clamps", "rk4"])
def test_hermite_block_matches_per_sample_oracle_bit_for_bit(kern, k, config, monkeypatch):
    # Dormand-Prince 5(4) and RK4 sample by the dense-output polynomial's three-row case:
    # bit for bit the nested form taken one sample at a time, and the textbook cubic
    # Hermite to rounding (measured: at most 1.1e-16 apart)
    new = integrate(monomer(k), kern, config)
    assert new.step_stats.tableau == ("rk4" if config.mode == MODE_FIXED else "dopri5")
    monkeypatch.setattr(integrator, "_dense_samples",
                        lambda f, work, t0, h, y0, f0, y1, f1, times, n, sizes, stats:
                        dense_oracle(f, t0, h, y0, f0, (), y1, f1, times, sizes, stats, (), ()))
    old = integrate(monomer(k), kern, config)
    assert new.states_matrix().tobytes() == old.states_matrix().tobytes()
    assert new.step_stats == old.step_stats
    assert new.diagnostics == old.diagnostics
    monkeypatch.setattr(integrator, "_dense_samples",
                        lambda f, work, t0, h, y0, f0, y1, f1, times, n, sizes, stats:
                        hermite_oracle(t0, y0, f0, t0 + h, y1, f1, times, n, sizes, stats))
    textbook = integrate(monomer(k), kern, config)
    assert np.max(np.abs(new.states_matrix() - textbook.states_matrix())) <= 1e-15
    assert new.step_stats == replace(textbook.step_stats, clamped_mass_sample=new.step_stats.clamped_mass_sample)
    assert new.step_stats.clamped_mass_sample == pytest.approx(textbook.step_stats.clamped_mass_sample,
                                                               rel=1e-12, abs=0.0)
    st = new.step_stats
    if kern.name.startswith("constant"):
        assert new.times.size > 10 * st.n_accepted  # blocks of many rows
    else:
        assert st.clamped_mass_sample > MASS_BUDGET_REL * new.mass_series()[0]  # rows clamped


def test_samples_at_a_step_end_are_that_state(monkeypatch):
    # fixed steps of 0.1 end at accumulated times such as 0.30000000000000004; the sample
    # within 1e-12 of each end is a copy of the state, not a Hermite value at theta ~ 1
    ends = []
    clamp = integrator._clamp

    def spy(block, sizes):
        masses = clamp(block, sizes)
        ends.append(block[0].copy())
        return masses

    monkeypatch.setattr(integrator, "_clamp", spy)
    traj = integrate(monomer(8), additive(1.0), SolverConfig(
        t_end=1.0, mode=MODE_FIXED, fixed_h=0.1, sample_times=np.linspace(0.0, 1.0, 11)))
    assert len(ends) == 10
    for i, end in enumerate(ends, start=1):
        assert traj.state(i).values.tobytes() == end.tobytes(), traj.times[i]


def test_step_scratch_is_as_wide_as_the_widest_step():
    k = 4096
    f, work = RhsEvaluator(constant(1.0), k), _StepWork()
    y = monomer(k).values
    _dp_step(f, y, f(y), 0.01, 1e-8, 1e-10, work, 1)
    assert work.stages.shape == work.terms.shape[1:] == (7, 8)  # prefix_columns(1 + 7, k)
    wide = y.copy()
    wide[20] = 0.5
    _dp_step(f, wide, f(wide), 0.01, 1e-8, 1e-10, work, 21)
    assert work.stages.shape == work.terms.shape[1:] == (7, 32)
    _dp_step(f, y, f(y), 0.01, 1e-8, 1e-10, work, 1)  # a narrower step keeps the wider scratch
    assert work.stages.shape == (7, 32)


def test_sample_memory_follows_the_front_not_k(monkeypatch):
    # full-length rows would take 1001 * 8192 * 8 B = 62.5 MiB; the front stays below
    # size 300, and the whole run peaked at 4.3 MiB (Python 3.11, numpy 2.4), its sample
    # blocks kept at their widest occupied rows until they are joined
    k = 8192
    config = SolverConfig(t_end=10.0, sample_times=np.linspace(0.0, 10.0, 1001))
    tracemalloc.start()
    try:
        traj = integrate(monomer(k), constant(1.0), config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
    widest = max(occupied_size(row) for row in traj.states)
    assert traj.states.shape == (1001, widest)
    assert widest < 300
    # the full-length path: every step on all k columns and every sample stored over all
    # k sizes, as the samples materialise; each step's error norm keeps its support
    step = integrator._dp_step
    monkeypatch.setattr(integrator, "_dp_step", lambda f, y, f0, h, rel_tol, abs_tol, work, occupied:
                        step(f, y, f0, h, rel_tol, abs_tol, work, occupied_size(y)))
    monkeypatch.setattr(integrator, "prefix_columns", lambda need, k: k)
    for module in (integrator, diagnostics):
        monkeypatch.setattr(module, "occupied_size", lambda values: values.size)
    full = integrate(monomer(k), constant(1.0), config)
    assert full.states.shape == (1001, k)
    assert full.states[:, :widest].tobytes() == traj.states.tobytes()
    assert not full.states[:, widest:].view(np.int64).any()  # +0.0, as the rebuilt rows hold
    for i in (0, 1, 500, -1):
        assert traj.state(i).values.tobytes() == full.states[i].tobytes()
    assert traj.states_matrix(2 * widest).tobytes() == full.states[:, : 2 * widest].tobytes()
    assert full.diagnostics == traj.diagnostics


def test_sample_blocks_keep_only_their_occupied_columns(monkeypatch):
    # a dense-output block is stored at its widest occupied row, not at its step's
    # power-of-two window: the run's memory no longer grows with k past the front.
    # Peaks (Python 3.11, numpy 2.4), k = 1024 / 8192: 5.31 / 6.18 MiB with blocks kept
    # at their windows and eager length-k evaluator rows, 4.18 / 4.34 MiB now
    config = SolverConfig(t_end=10.0, sample_times=np.linspace(0.0, 10.0, 1001))
    runs, peaks = [], []
    for k in (1024, 8192):
        tracemalloc.start()
        try:
            runs.append(integrate(monomer(k), constant(1.0), config))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert runs[0].states.tobytes() == runs[1].states.tobytes()
    assert abs(peaks[1] - peaks[0]) < 0.25 * 2**20
    # the stored samples are the blocks _dense_samples formed, byte for byte, and the
    # columns trimmed from them were +0.0
    formed = []
    dense = integrator._dense_samples

    def keep(*args):
        block = dense(*args)
        formed.append((args[8], block.copy()))  # the block's sample times
        return block

    monkeypatch.setattr(integrator, "_dense_samples", keep)
    traj = integrate(monomer(8192), constant(1.0), config)
    assert traj.states.tobytes() == runs[1].states.tobytes()
    trimmed = 0
    for times, block in formed:
        rows = np.searchsorted(traj.times, times)
        assert traj.times[rows].tolist() == times
        width = max(block.shape[1], traj.states.shape[1])
        stored, full = np.zeros((len(rows), width)), np.zeros((len(rows), width))
        stored[:, : traj.states.shape[1]] = traj.states[rows]
        full[:, : block.shape[1]] = block
        assert stored.tobytes() == full.tobytes()
        trimmed += block.shape[1] > occupied_sizes(block).max()
    assert trimmed > len(formed) // 2


def test_records_follow_the_stored_width_not_k():
    # the records pad each block to prefix_columns(w + 1, k) columns, w the stored width,
    # and cut the blocks for that width: at k = 131,072 (front 288) they took 97-116 ms
    # and peaked at 2.10 MiB padded to k, against 2.8-3.0 ms and 0.25 MiB now, as at
    # k = 1,024 (Python 3.11, numpy 2.4)
    records, peaks = [], []
    for k in (1024, 131_072):
        values = np.zeros(k)
        values[:8] = 0.5 ** np.arange(1.0, 9.0)
        traj = integrate(SizeDistribution(values, k), constant(1.0), SolverConfig(t_end=10.0))
        assert traj.states.shape[1] + 1 < 1024
        tracemalloc.start()
        try:
            records.append(traj.diagnostics)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert records[0] == records[1]
    assert abs(peaks[1] - peaks[0]) < 0.1 * 2**20


def test_rejections_are_split_by_cause():
    traj = integrate(monomer(32), additive(1.0), SolverConfig(t_end=10.0, abs_tol=1e-4))
    st = traj.step_stats
    assert st.n_rejected_error >= 1 and st.n_rejected_positivity >= 1
    assert st.n_rejected == st.n_rejected_error + st.n_rejected_positivity
    d = st.to_dict()
    assert d["n_rejected"] == d["n_rejected_error"] + d["n_rejected_positivity"]
    assert st.n_rhs_evals == 1 + 6 * (st.n_accepted + st.n_rejected)


def test_step_counts_pinned_for_power_k64_at_tight_tolerance():
    # counts of the DOP853 stepping arithmetic; a change in any rounding would move them.
    # 12 evaluations per step, 3 more on each of the 88 steps that hold a sample
    traj = integrate(monomer(64), power_sum(1.0, 0.5),
                     SolverConfig(t_end=10.0, rel_tol=1e-12, abs_tol=1e-16))
    st = traj.step_stats
    assert st.tableau == "dop853"
    assert (st.n_accepted, st.n_rejected, st.n_rhs_evals) == (198, 0, 2641)


def test_step_counts_pinned_for_dopri5_next_to_the_switch_point():
    # Dormand-Prince 5(4) at the tightest measured rel_tol it still runs at
    traj = integrate(monomer(64), power_sum(1.0, 0.5),
                     SolverConfig(t_end=10.0, rel_tol=1e-9, abs_tol=1e-13))
    st = traj.step_stats
    assert st.tableau == "dopri5"
    assert (st.n_accepted, st.n_rejected, st.n_rhs_evals) == (418, 1, 2515)


@pytest.mark.parametrize("kern,k,counts", [
    (constant(1.0), 4096, (87, 0, 0, 523)),
    (additive(1.0), 256, (579, 2, 87, 4095)),
], ids=["constant_k4096", "additive_k256"])
def test_step_counts_pinned_for_default_config(kern, k, counts):
    # the default solver from a monomer start; a change in any rounding would move these
    st = integrate(monomer(k), kern, SolverConfig(t_end=10.0)).step_stats
    assert (st.n_accepted, st.n_rejected_error, st.n_rejected_positivity, st.n_rhs_evals) == counts


def test_step_control_does_not_depend_on_k():
    # the error norm is taken over each step's support, not over all k sizes: while the
    # front stays below k, the run at k = 512 is the run at k = 4096, step for step,
    # under Dormand-Prince 5(4) and under DOP853 with its dense output
    for config, reach in ((SolverConfig(t_end=10.0), STEP_REACH), (SolverConfig(t_end=10.0, rel_tol=1e-12), 16)):
        a, b = (integrate(monomer(k), constant(1.0), config) for k in (512, 4096))
        assert a.step_stats == b.step_stats
        assert a.step_stats.reach == reach
        assert a.step_stats.max_occupied_size + reach < 512
        assert a.states.shape == b.states.shape
        assert a.states.tobytes() == b.states.tobytes()


def test_max_occupied_size_is_the_widest_accepted_state(monkeypatch):
    seen = []
    step = integrator._dp_step

    def spy(f, y, f0, h, rel_tol, abs_tol, work, occupied):
        # every trial starts from the last accepted state and is told its occupied size
        assert occupied == occupied_size(y)
        seen.append(occupied)
        return step(f, y, f0, h, rel_tol, abs_tol, work, occupied)

    monkeypatch.setattr(integrator, "_dp_step", spy)
    traj = integrate(monomer(4096), constant(1.0), SolverConfig(t_end=10.0))
    widest = max(seen + [occupied_size(traj.final().values)])
    assert traj.step_stats.max_occupied_size == widest == 294  # the front stays far below k
    assert traj.step_stats.to_dict()["max_occupied_size"] == 294
    # a front that reaches the truncation boundary
    assert integrate(monomer(8), constant(1.0), SolverConfig(t_end=10.0)).step_stats.max_occupied_size == 8
    # the initial state counts: its -0.0 at size k is occupied, and the first step drops it
    init = monomer(4096)
    init.values[-1] = -0.0
    seen.clear()
    traj = integrate(init, constant(1.0), SolverConfig(t_end=10.0))
    assert traj.step_stats.max_occupied_size == 4096 > max(seen[1:] + [occupied_size(traj.final().values)])


@pytest.mark.parametrize("kern", [constant(0.7), additive(1.3), power_sum(0.7, 0.3), demo_table(520)],
                         ids=["constant", "additive", "power", "table"])
def test_dop853_step_and_samples_match_oracle_bit_for_bit(kern, rng):
    norms, windows = [], set()
    for k in (2, 3, 64, 200, 257, 520):  # windows on both sides of PLANE_COLUMNS, 256 and 512 included
        f, f_oracle = RhsEvaluator(kern, k), rhs_oracle(kern, k)
        sizes = np.arange(1.0, k + 1.0)
        work = _StepWork(_DOP853)
        heads = []  # an occupied head and an empty tail, as in a run
        for m in (max(1, k // 3), max(1, k // 2), max(1, (1 << ((k - 1).bit_length() - 1)) - 15)):
            heads.append(rng.random(k) * (np.arange(k) < m))
        for y in heads + [rng.random(k) * 10.0 ** rng.uniform(-12, 0, k)]:
            for frac in (1e-4, 1e-2, 1.0):  # of the time scale 1 / |f(y)|
                h = frac / (1.0 + np.max(np.abs(f(y))))
                y8, err, f_last = _dp_step(f, y, f(y), h, 1e-8, 1e-10, work, occupied_size(y))
                y8_o, err_o, stages_o = dop853_step_oracle(f_oracle, y, f_oracle(y), h, 1e-8, 1e-10)
                assert y8.tobytes() == y8_o.tobytes(), (k, h)
                assert err == err_o, (k, h)
                assert f_last.tobytes() == stages_o[-1].tobytes()
                n = prefix_columns(occupied_size(y) + 16, k)
                assert work.stages[:13, :n].tobytes() == np.array(stages_o)[:, :n].tobytes(), (k, h)
                norms.append(err)
                # the samples of the step accepted as it is, and as clamped: the polynomial
                # ends at the clamped state, to rounding
                y1 = y8
                f1 = f(y1) if _clamp(y1[None, :n], sizes) else f_last
                t0 = 0.3
                times = [t0 + h * th for th in (0.1, 0.5, 0.9)]
                stats, stats_o = (StepStats(), StepStats())
                block = _dense_samples(f, work, t0, h, y, f(y), y1, f1, times, n, sizes, stats)
                rows = dense_oracle(f_oracle, t0, h, y, f_oracle(y), stages_o, y1, f_oracle(y1), times,
                                    sizes, stats_o, integrator._DOP853_A_DENSE, integrator._DOP853_D)
                assert block.tobytes() == rows[:, :n].tobytes(), (k, h)
                assert not rows[:, n:].any()
                assert stats.clamped_mass_sample == stats_o.clamped_mass_sample
                end = _dense_samples(f, work, t0, h, y, f(y), y1, f1, [t0 + h], n, sizes, StepStats())
                assert np.max(np.abs(end[0] - y1[:n])) <= 4e-16 * np.max(np.abs(y))
                windows.add(n)
    assert min(norms) <= 1.0 < max(norms)  # accepted and rejected step sizes both covered
    assert {PLANE_COLUMNS, 2 * PLANE_COLUMNS} <= windows


def test_dense_samples_end_in_the_factor_of_the_last_rows_parity(rng):
    # one interpolant row makes F3 the last, so the nested product ends in 1 - theta, not
    # theta as after DOP853's F6 or the cubic case's F2; an arbitrary row over the 7
    # Dormand-Prince stages stands in for a native extension
    k, h, t0 = 64, 0.01, 0.3
    f, f_oracle = RhsEvaluator(power_sum(0.7, 0.3), k), rhs_oracle(power_sum(0.7, 0.3), k)
    sizes = np.arange(1.0, k + 1.0)
    row = tuple(rng.uniform(-1.0, 1.0, 7))
    work = _StepWork(replace(_DOPRI5, interpolant=_stack((row,))))
    y = rng.random(k) * (np.arange(k) < 20)
    y5, _, f_last = _dp_step(f, y, f(y), h, 1e-8, 1e-10, work, occupied_size(y))
    _, _, stages_o = dp_step_oracle(f_oracle, y, f_oracle(y), h, 1e-8, 1e-10)
    n = prefix_columns(occupied_size(y) + STEP_REACH, k)
    times = [t0 + h * th for th in (0.1, 0.5, 0.9)]
    block = _dense_samples(f, work, t0, h, y, f(y), y5, f_last, times, n, sizes, StepStats())
    rows = dense_oracle(f_oracle, t0, h, y, f_oracle(y), stages_o, y5, f_oracle(y5), times, sizes,
                        StepStats(), (), (row,))
    assert block.tobytes() == rows[:, :n].tobytes()
    cubic = _dense_samples(f, _StepWork(), t0, h, y, f(y), y5, f_last, times, n, sizes, StepStats())
    assert np.max(np.abs(block - cubic)) > 1e-6  # the row is read


@pytest.mark.parametrize("kern", [power_sum(1.0, 0.5), additive(1.0)], ids=["power", "additive"])
def test_dop853_samples_are_as_accurate_as_the_steps(kern, monkeypatch):
    # against a rel_tol 1e-13 run, DOP853's own samples at rel_tol 1e-12 are off by
    # 6.9e-16 (power) and 3.6e-16 (additive); the same steps sampled without the dense
    # rows, by the shared routine's cubic Hermite case, are off by 2.0e-8 and 8.8e-9,
    # above the bound the native ones meet
    config = SolverConfig(t_end=10.0, rel_tol=1e-12, abs_tol=1e-16)
    ref = integrate(monomer(64), kern, SolverConfig(t_end=10.0, rel_tol=1e-13, abs_tol=1e-17)).states_matrix()
    native = integrate(monomer(64), kern, config)
    assert native.step_stats.tableau == "dop853"
    assert np.max(np.abs(native.states_matrix() - ref)) <= 10 * config.rel_tol
    monkeypatch.setattr(integrator, "_DOP853", replace(_DOP853, dense=(), interpolant=_stack(())))
    hermite = integrate(monomer(64), kern, config)
    assert hermite.step_stats.tableau == "dop853"
    assert hermite.step_stats.n_accepted == native.step_stats.n_accepted
    assert np.max(np.abs(hermite.states_matrix() - ref)) > 10 * config.rel_tol


def test_tableau_follows_the_switch_point():
    # DOP853 at rel_tol <= DOP853_REL_TOL, Dormand-Prince 5(4) above it, RK4 in fixed mode;
    # the run records which, and the reach its checks read
    assert DOP853_REL_TOL < SolverConfig(t_end=1.0).rel_tol
    for config, name, reach in ((SolverConfig(t_end=1.0, rel_tol=DOP853_REL_TOL), "dop853", 16),
                                (SolverConfig(t_end=1.0, rel_tol=2 * DOP853_REL_TOL), "dopri5", 7),
                                (SolverConfig(t_end=1.0, mode=MODE_FIXED, fixed_h=0.1), "rk4", 7)):
        st = integrate(monomer(8), constant(1.0), config).step_stats
        assert (st.tableau, st.to_dict()["tableau"], st.reach) == (name, name, reach)
    for rel_tol, reach in ((DOP853_REL_TOL, 16), (2 * DOP853_REL_TOL, 7)):
        with pytest.raises(IntegrationStalledError) as exc:  # an error raised while stepping carries the reach
            integrate(monomer(8), constant(1.0), SolverConfig(t_end=1e12, rel_tol=rel_tol))
        assert exc.value.reach == reach


def test_src_imports_no_scipy():
    # the DOP853 coefficients are copied into the source; scipy is a test-only dependency
    src = pathlib.Path(integrator.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            assert not any(name.split(".")[0] == "scipy" for name in names), path.name


def test_dop853_coefficients_are_scipys():
    coef = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    a = np.zeros((16, 16))
    for s, row in enumerate(integrator._DOP853_A + integrator._DOP853_A_DENSE, start=1):
        a[s, : len(row)] = row
    a[12] = 0.0  # scipy keeps the weights B in row 12, and no couplings of stage 13
    assert np.array_equal(a, np.where(np.arange(16)[:, None] == 12, 0.0, coef.A))
    assert np.array_equal(integrator._DOP853_B, coef.A[12, :12])
    assert np.array_equal(integrator._DOP853_E3, coef.E3)
    assert np.array_equal(integrator._DOP853_E5, coef.E5)
    assert np.array_equal(integrator._DOP853_D, coef.D)
    # the nodes c_i are the row sums of the couplings; the stepping never reads them
    assert np.allclose(a.sum(axis=1)[np.arange(16) != 12], coef.C[np.arange(16) != 12], rtol=0, atol=1e-15)


def test_non_finite_dense_output_stage_raises():
    # a dense-output stage is evaluated after the step's checks, so it has its own
    k = 64
    f, work = RhsEvaluator(additive(1.0), k), _StepWork(_DOP853)
    y = monomer(k).values
    y8, _, f_last = _dp_step(f, y, f(y), 0.01, 1e-12, 1e-16, work, 1)
    n = prefix_columns(1 + 16, k)
    work.stages[12, :n] = 1e200  # f at the new state, as the first dense stage reads it
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericError, match="non-finite values in dense output"):
        _dense_samples(f, work, 0.0, 0.01, y, f(y), y8, f_last, [0.005], n, np.arange(1.0, k + 1.0), StepStats())
