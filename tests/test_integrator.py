import numpy as np
import pytest

from coagkin.errors import ConfigError, IntegrationStalledError
from coagkin.integrator import MODE_FIXED, SolverConfig, _dp_step, integrate
from coagkin.kernels import catalog, constant
from coagkin.system import RhsEvaluator, SizeDistribution, monomer


def test_config_validation():
    with pytest.raises(ConfigError, match="t_end"):
        SolverConfig(t_end=-1.0).validate()
    with pytest.raises(ConfigError, match="rel_tol"):
        SolverConfig(t_end=1.0, rel_tol=0.0).validate()
    with pytest.raises(ConfigError, match="fixed_h"):
        SolverConfig(t_end=1.0, mode=MODE_FIXED).validate()
    with pytest.raises(ConfigError, match="mode"):
        SolverConfig(t_end=1.0, mode="implicit").validate()
    with pytest.raises(ConfigError, match="sample_times"):
        SolverConfig(t_end=1.0, sample_times=np.array([0.0, 0.5])).validate()
    with pytest.raises(ConfigError, match="sample_times"):
        SolverConfig(t_end=1.0, sample_times=np.array([0.0, 0.5, 0.5, 1.0])).validate()
    SolverConfig(t_end=1.0).validate()


def trial_step(y, h, rel_tol=1e-8, abs_tol=1e-10):
    f = RhsEvaluator(constant(1.0), y.size)
    return _dp_step(f, y, f(y), h, rel_tol, abs_tol)


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


def test_integrate_zero_state_stays_zero():
    cfg = SolverConfig(t_end=10.0)
    traj = integrate(SizeDistribution(np.zeros(6), 6), constant(1.0), cfg)
    assert len(traj.samples) == 101
    assert all(s.values.sum() == 0.0 for s in traj.samples)
    assert traj.check_invariants() == []


def test_adaptive_matches_fixed_oracle():
    init = monomer(8)
    ts = np.linspace(0.0, 1.0, 11)
    ad = integrate(init, constant(1.0), SolverConfig(t_end=1.0, sample_times=ts))
    fx = integrate(init, constant(1.0),
                   SolverConfig(t_end=1.0, mode=MODE_FIXED, fixed_h=1e-3, sample_times=ts))
    err = max(np.max(np.abs(a.values - f.values)) for a, f in zip(ad.samples, fx.samples))
    assert err <= 1e-6


def test_all_catalog_kernels_positive_and_mass_monotone():
    for kern in catalog(table_size=16).values():
        traj = integrate(monomer(16), kern, SolverConfig(t_end=2.0))
        assert traj.check_invariants() == [], kern.name
        st = traj.step_stats
        assert st.n_rhs_evals == 1 + 6 * (st.n_accepted + st.n_rejected), kern.name
        m1 = traj.mass_series()
        assert np.all(np.diff(m1) <= 1e-9 * m1[0])
        assert all(s.values.min() >= 0.0 for s in traj.samples)


def test_sample_times_are_exactly_the_requested_grid():
    ts = np.array([0.0, 0.1, 0.25, 0.3, 1.0])
    traj = integrate(monomer(4), constant(1.0), SolverConfig(t_end=1.0, sample_times=ts))
    assert np.array_equal(traj.times(), ts)


def test_dense_output_against_fine_fixed_reference():
    ts = np.linspace(0.0, 1.0, 7)  # deliberately not aligned with steps
    ad = integrate(monomer(6), constant(1.0),
                   SolverConfig(t_end=1.0, sample_times=ts, rel_tol=1e-10, abs_tol=1e-12))
    ref = integrate(monomer(6), constant(1.0),
                    SolverConfig(t_end=1.0, mode=MODE_FIXED, fixed_h=2e-4, sample_times=ts))
    err = max(np.max(np.abs(a.values - r.values)) for a, r in zip(ad.samples, ref.samples))
    assert err <= 1e-8


def test_fixed_mode_nondivisible_h_lands_on_t_end():
    traj = integrate(monomer(4), constant(1.0),
                     SolverConfig(t_end=1.0, mode=MODE_FIXED, fixed_h=0.3,
                                  sample_times=np.array([0.0, 1.0])))
    assert traj.samples[-1].time == 1.0
    assert traj.step_stats.n_accepted == 4  # 0.3 + 0.3 + 0.3 + 0.1


def test_integration_stall_raises_with_last_state():
    # horizon so long that min_step exceeds any resolvable step
    with pytest.raises(IntegrationStalledError) as exc:
        integrate(monomer(8), constant(1.0), SolverConfig(t_end=1e12))
    assert exc.value.last_state is not None
    assert exc.value.last_state.truncation_k == 8


def test_rhs_envelope_reported_per_component():
    traj = integrate(monomer(8), constant(1.0), SolverConfig(t_end=1.0))
    assert traj.rhs_envelope.shape == (8,)
    assert np.all(np.isfinite(traj.rhs_envelope))
    assert traj.rhs_envelope[0] >= 2.0 - 1e-12  # |rhs_1| = 2 at t = 0


def test_step_stats_account_for_the_run():
    traj = integrate(monomer(8), constant(1.0), SolverConfig(t_end=1.0))
    st = traj.step_stats
    assert st.n_accepted > 0
    # first-same-as-last: one evaluation at t=0, then six per trial step
    assert st.n_rhs_evals == 1 + 6 * (st.n_accepted + st.n_rejected)
    assert 0 < st.min_step <= st.max_step <= SolverConfig(t_end=1.0).resolved_max_step()
    assert st.clamped_mass <= 1e-9  # essentially no clamping on this problem


def test_invariant_checker_flags_mass_rise():
    traj = integrate(monomer(4), constant(1.0), SolverConfig(t_end=0.5))
    # tamper: inflate the final sample's mass
    traj.samples[-1].values[0] += 1.0
    from coagkin.diagnostics import compute_record

    traj.diagnostics[-1] = compute_record(traj.samples[-1], constant(1.0))
    problems = traj.check_invariants()
    assert any("mass increased" in p for p in problems)


def test_initial_state_must_start_at_time_zero():
    bad = SizeDistribution(np.array([1.0, 0.0]), 2, time=0.5)
    with pytest.raises(ValueError, match="time 0"):
        integrate(bad, constant(1.0), SolverConfig(t_end=1.0))
