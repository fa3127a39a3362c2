import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from coagkin import experiments, system
from coagkin.errors import ConfigError
from coagkin.experiments import (
    asymptotic_decay,
    continuous_dependence,
    identity_audit,
    time_rescaling,
    truncation_convergence,
    weights_audit,
)
from coagkin.integrator import MODE_FIXED, SolverConfig, integrate
from coagkin.kernels import CoagulationKernel, additive, constant, demo_table, from_rule, power_sum, tabulated
from coagkin.reports import ExperimentReport
from coagkin.system import SizeDistribution, geometric, monomer


def test_truncation_smoke_and_ordering():
    rep = truncation_convergence(constant(1.0), monomer, [8, 16, 32], 2.0)
    assert rep.passed
    defects = [rep.metrics[f"defect_k{k}"] for k in (8, 16, 32)]
    assert defects[0] > defects[1] > defects[2] > 0


def test_truncation_zero_init_all_defects_zero():
    zero_rule = lambda k: SizeDistribution(np.zeros(k), k)
    rep = truncation_convergence(constant(1.0), zero_rule, [4, 8, 16], 1.0)
    assert rep.passed
    assert all(rep.metrics[f"defect_k{k}"] == 0.0 for k in (4, 8, 16))


def test_truncation_validates_k_list():
    with pytest.raises(ValueError):
        truncation_convergence(constant(1.0), monomer, [4], 1.0)
    with pytest.raises(ValueError):
        truncation_convergence(constant(1.0), monomer, [16, 8, 32], 1.0)
    # no entry is rounded or parsed into an integer
    for k_list in ([4.5, 8, 16], [4, "8", 16], [True, 8, 16]):
        with pytest.raises(ValueError, match="k_list must be a list of integers"):
            truncation_convergence(constant(1.0), monomer, k_list, 1.0)


def test_truncation_writes_artifacts(tmp_path):
    rep = truncation_convergence(constant(1.0), monomer, [4, 8, 16], 1.0,
                                 out_dir=str(tmp_path))
    assert rep.artifacts and all((tmp_path / "defect_vs_k.svg").exists() for _ in rep.artifacts)


def _integrate_calls(monkeypatch) -> list:
    """The k of every integrate call the study makes, recorded by a spy."""
    calls = []

    def spy(init, kernel, config):
        calls.append(init.truncation_k)
        return integrate(init, kernel, config)

    monkeypatch.setattr(experiments, "integrate", spy)
    return calls


@pytest.mark.parametrize("kern,integrated", [(constant(1.0), [64, 512]),
                                             (power_sum(1.0, 0.5), [64, 512, 1024])],
                         ids=["constant", "power"])
def test_truncation_shared_runs_give_the_unshared_bytes(kern, integrated, tmp_path, monkeypatch):
    # a run whose front stays below its k serves the next k: every file and metric is
    # the one that integrating afresh at every k gives
    k_list = [64, 512, 1024, 2048, 4096]
    calls = _integrate_calls(monkeypatch)
    shared = truncation_convergence(kern, monomer, k_list, 10.0, out_dir=str(tmp_path / "shared"))
    assert calls == shared.config_echo["integrated_k"] == integrated
    monkeypatch.setattr(experiments, "_shared_run", lambda *args: None)
    fresh = truncation_convergence(kern, monomer, k_list, 10.0, out_dir=str(tmp_path / "fresh"))
    assert calls[len(integrated):] == fresh.config_echo["integrated_k"] == k_list
    assert (shared.status, shared.metrics, shared.thresholds) == (fresh.status, fresh.metrics,
                                                                 fresh.thresholds)
    names = sorted(p.name for p in (tmp_path / "fresh").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "shared").iterdir())
    for name in names:
        assert (tmp_path / "shared" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    # the front of the run serving each k; past the last integrated k every distance is 0.0
    front = [shared.metrics[f"front_k{k}"] for k in k_list]
    assert front[0] == 64 and front[-1] < integrated[-1] - 7
    assert all(front[i] == front[-1] for i in range(k_list.index(integrated[-1]), len(k_list)))
    assert shared.metrics["distance_k2048_k4096"] == 0.0
    assert not any(name.startswith("front_k") for name in shared.thresholds)


def test_truncation_front_at_every_k_integrates_every_k(monkeypatch):
    calls = _integrate_calls(monkeypatch)
    rep = truncation_convergence(power_sum(1.0, 0.5), monomer, [64, 128, 256], 10.0)
    assert calls == rep.config_echo["integrated_k"] == [64, 128, 256]
    assert [rep.metrics[f"front_k{k}"] for k in (64, 128, 256)] == [64, 128, 256]


def test_truncation_shares_a_dop853_run_only_past_its_reach(monkeypatch):
    # at rel_tol 1e-12 the front stays at 284: k = 296 lies within the 16 sizes a DOP853
    # step reaches past it (not within the 7 of a Dormand-Prince 5(4) step), so the run
    # at 296 may differ from the one at 512, which serves 1024
    calls = _integrate_calls(monkeypatch)
    solver = SolverConfig(t_end=10.0, rel_tol=1e-12, sample_times=np.linspace(0.0, 10.0, 101))
    rep = truncation_convergence(constant(1.0), monomer, [296, 512, 1024], 10.0, solver=solver)
    assert rep.metrics["front_k296"] == 284
    assert calls == rep.config_echo["integrated_k"] == [296, 512]


def _monomer_and_a_cluster_past_256(k):
    init = monomer(k)
    if k > 256:
        init.values[299] = 1e-3
    return init


@pytest.mark.parametrize("initial,front", [(lambda k: geometric(k, 0.5), 256),
                                           (lambda k: monomer(k, 1.0 + 1.0 / k), 199),
                                           (_monomer_and_a_cluster_past_256, 199)],
                         ids=["geometric", "scaled_monomer", "cluster_past_k"])
def test_truncation_data_that_change_with_k_are_never_shared(initial, front, monkeypatch):
    # the data at k are not the data at the k before padded with zeros: geometric data
    # are nonzero past every k, and the front from a monomer stays below k = 256 while
    # the scaled monomer differs on sizes 1..256 and the cluster lies past them
    calls = _integrate_calls(monkeypatch)
    rep = truncation_convergence(constant(1.0), initial, [256, 512, 1024], 2.0)
    assert calls == rep.config_echo["integrated_k"] == [256, 512, 1024]
    assert rep.metrics["front_k256"] == front


def test_truncation_shared_run_still_needs_a_kernel_that_reaches_k():
    # the front stays near size 300, yet the table cannot be evaluated at k = 1024
    with pytest.raises(ValueError, match="tabulated kernel covers sizes 1..600"):
        truncation_convergence(tabulated(np.ones((600, 600)), 1.0), monomer, [512, 1024, 2048], 10.0)


def test_truncation_shared_run_builds_no_rate_matrix_at_k():
    # a shared k checks the table at (k, k) alone; building the right-hand side at
    # k = 2048 for that check took its 2048 x 2048 rate matrix and two triangular
    # copies, a 100 MiB peak, where the study now peaks at 6.3 MiB (numpy 2.4)
    kern = demo_table(2048)
    tracemalloc.start()
    try:
        rep = truncation_convergence(kern, monomer, [512, 1024, 2048], 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.config_echo["integrated_k"] == [512]
    assert peak < 20 * 2**20


def test_truncation_threshold_on_the_front():
    rep = truncation_convergence(constant(1.0), monomer, [4, 8, 16], 1.0,
                                 thresholds={"front_k16": 8.0})
    assert rep.failing_metrics() == {"front_k16": (16.0, 8.0)}


@pytest.mark.parametrize("name,rule,failing", [
    ("sum_power_1.5", lambda i, j: (i + j) ** 1.5, {"defect_final_max", "defect_monotone_violations"}),
    ("product", lambda i, j: i * j, {"defect_final_max"}),
])
def test_truncation_fails_for_a_kernel_of_superlinear_growth(name, rule, failing):
    # negative control: existence of mass-conserving solutions needs a kernel of at most
    # linear growth. (i + j)**1.5 and i * j break that hypothesis, mass runs to the
    # truncation boundary, and the defect at k = 256 stays of order one (0.911 and 0.614)
    kern = from_rule(name, lambda i, j: rule(np.asarray(i, float), np.asarray(j, float)),
                     growth_constant_A=1.0, vectorized=True)
    rep = truncation_convergence(kern, monomer, [64, 128, 256], 2.0)
    assert rep.status == "fail"
    assert set(rep.failing_metrics()) >= failing
    assert rep.metrics["defect_final_max"] > 0.5


def test_dependence_identical_inits_stay_identical():
    rep = continuous_dependence(constant(1.0), monomer(16), monomer(16), 1.0)
    assert rep.passed
    assert rep.metrics["uniqueness_sup"] <= 1e-12


def test_dependence_perturbed_inside_envelope():
    init_a = monomer(16)
    vb = init_a.values.copy()
    vb[1] += 1e-6
    rep = continuous_dependence(constant(1.0), init_a, SizeDistribution(vb, 16), 1.0)
    assert rep.passed
    assert rep.metrics["max_envelope_ratio"] <= 1.0
    assert rep.metrics["d_initial"] == pytest.approx(2e-6)


def test_dependence_requires_power_delta():
    bare = CoagulationKernel(name="bare", rule=constant(1.0).rule, growth_constant_A=1.0)
    with pytest.raises(ValueError, match="power_delta"):
        continuous_dependence(bare, monomer(4), monomer(4), 1.0)


def test_decay_requires_zeta_and_passes_defaults():
    bare = CoagulationKernel(name="bare", rule=constant(1.0).rule, growth_constant_A=1.0)
    with pytest.raises(ValueError, match="zeta"):
        asymptotic_decay(bare, monomer(8), 10.0)
    # component defaults are calibrated for long horizons with a quiet boundary
    rep = asymptotic_decay(constant(1.0), monomer(64), 100.0)
    assert rep.passed
    assert rep.metrics["max_envelope_ratio"] <= 1.01


@pytest.mark.parametrize("run", [
    lambda t_end, solver: truncation_convergence(constant(1.0), monomer, [4, 8, 16], t_end,
                                                 solver=solver),
    lambda t_end, solver: continuous_dependence(power_sum(1.0, 0.5), monomer(8), monomer(8), t_end,
                                                solver=solver),
    lambda t_end, solver: asymptotic_decay(constant(1.0), monomer(8), t_end, solver=solver),
    lambda t_end, solver: time_rescaling(constant(1.0), monomer(8), t_end, solver=solver),
], ids=["truncation", "dependence", "decay", "rescaling"])
def test_solver_must_end_at_the_given_end_time(run):
    with pytest.raises(ValueError, match="solver.t_end 1.0 differs from the end time 2.0"):
        run(2.0, SolverConfig(t_end=1.0))
    # a solver ending at the given time runs, and the report echoes that time
    echo = run(1.0, SolverConfig(t_end=1.0)).config_echo
    assert echo.get("t_end", echo.get("t_long")) == 1.0


def test_decay_fails_for_an_overstated_lower_bound():
    # negative control: the envelope M0(0) / (1 + (zeta / 2) M0(0) t) needs rate >= zeta.
    # Declaring zeta = 4 for the constant rate 1 breaks that hypothesis, and M0 ends
    # 3.37 times above the envelope
    kern = replace(constant(1.0), name="constant(1) declared zeta 4", lower_bound_zeta=4.0)
    rep = asymptotic_decay(kern, monomer(256), 20.0)
    assert rep.status == "fail"
    assert "max_envelope_ratio" in rep.failing_metrics()
    assert rep.metrics["max_envelope_ratio"] > 3.0


def test_decay_zero_init():
    rep = asymptotic_decay(constant(1.0), SizeDistribution(np.zeros(8), 8), 5.0)
    assert rep.passed
    assert rep.metrics["m0_final"] == 0.0


def test_decay_additive_kernel_tighter_envelope():
    # additive rate is >= 2 everywhere, so the comparison constant doubles
    rep = asymptotic_decay(additive(1.0), monomer(64), 100.0)
    assert rep.passed
    assert rep.metrics["zeta"] == 2.0
    # the zeta=2 envelope at t=100 sits at 1/101
    assert rep.metrics["m0_final"] <= 1.01 / 101.0


def test_identity_audit_small_run():
    kern = constant(1.0)
    cfg = SolverConfig(t_end=2.0, sample_times=np.linspace(0, 2, 401))
    traj = integrate(monomer(16), kern, cfg)
    rep = identity_audit(traj, kern, q_list=[4, 8, 15])
    assert rep.passed
    assert rep.metrics["max_adjoint_residual"] <= 1e-12


def test_identity_audit_accepts_full_length_q():
    kern = constant(1.0)
    cfg = SolverConfig(t_end=1.0, sample_times=np.linspace(0, 1, 201))
    traj = integrate(monomer(8), kern, cfg)
    rep = identity_audit(traj, kern, q_list=[8])  # q = k: the weak form, no boundary block
    assert rep.passed


def test_identity_audit_memory_follows_the_front_not_k():
    # the samples and their derivatives are stacked on prefix_columns(w + 1, k) columns,
    # w the stored width (217 here, so 256 columns at either k), not on k: the same run
    # gives the same report at both k, and the audit about the same peak, 2.0 MiB (stacked
    # on k columns, it peaked at 5.0 and 19.9 MiB)
    kern = constant(1.0)
    reports, peaks = [], []
    for k in (1024, 4096):
        traj = integrate(monomer(k), kern, SolverConfig(t_end=3.0, sample_times=np.linspace(0, 3, 201)))
        assert traj.states.shape[1] < 255
        tracemalloc.start()
        try:
            reports.append(identity_audit(traj, kern, q_list=[8, 16, 300, k - 1]))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert reports[0].passed and reports[0].metrics == {
        name.replace("q4095", "q1023"): value for name, value in reports[1].metrics.items()}
    assert peaks[1] <= 1.25 * peaks[0]
    assert peaks[1] < 201 * 4096 * 8  # less than one stack of length-k rows


@pytest.mark.parametrize("samples", [17, 33])
def test_identity_audit_takes_one_row_blocks_narrower_than_k(samples):
    # stacked on 256 columns, the samples go in blocks of 16 rows, so the last holds one
    # row; its derivatives are as wide as the stack's, and the report is that of k = 4096
    # (too few samples for Simpson to close the identities; the adjoint check needs none)
    kern = constant(1.0)
    reports = []
    for k in (1024, 4096):
        traj = integrate(monomer(k), kern, SolverConfig(t_end=3.0, sample_times=np.linspace(0, 3, samples)))
        assert 127 < traj.states.shape[1] < 255
        reports.append(identity_audit(traj, kern, q_list=[8, 300, k - 1]))
    assert reports[0].metrics["max_adjoint_residual"] < 1e-14
    assert reports[0].metrics == {
        name.replace("q4095", "q1023"): value for name, value in reports[1].metrics.items()}


def _counting(monkeypatch, owner, attr, counts):
    orig = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        counts[attr] = counts.get(attr, 0) + 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)


def test_identity_audit_rate_matrices_do_not_scale_with_samples(monkeypatch):
    base = power_sum(1.0, 0.5)
    kern = CoagulationKernel(name="general", rule=base.rule,
                             growth_constant_A=base.growth_constant_A)
    assert kern.separable is None
    per_run = []
    for n in (101, 201):
        traj = integrate(monomer(16), kern,
                         SolverConfig(t_end=1.0, sample_times=np.linspace(0, 1, n)))
        counts = {}
        with monkeypatch.context() as m:
            _counting(m, CoagulationKernel, "rate_matrix", counts)
            for attr in ("weak_form_rate", "finite_identity_rate"):
                _counting(m, experiments, attr, counts)
            identity_audit(traj, kern, q_list=[4, 8, 16])
        identity_calls = counts["weak_form_rate"] + counts["finite_identity_rate"]
        assert counts["rate_matrix"] <= identity_calls + 1  # + the shared rhs evaluator
        per_run.append(counts)
    assert per_run[0] == per_run[1]


def test_identity_audit_stacks_and_checks_its_samples_once(monkeypatch):
    kern = constant(1.0)
    traj = integrate(monomer(16), kern, SolverConfig(t_end=1.0))
    counts = {}
    with monkeypatch.context() as m:
        _counting(m, system.StateStack, "__init__", counts)
        for attr in ("weak_form_rate", "finite_identity_rate"):
            _counting(m, experiments, attr, counts)
        assert identity_audit(traj, kern, q_list=[4, 8, 15]).passed
    assert counts["weak_form_rate"] + counts["finite_identity_rate"] == 12
    assert counts["__init__"] == 1
    # the one check rejects a bad sample with the error of a single state
    traj.states[40, 2] = -1e-3
    with pytest.raises(ValueError, match=r"negative concentration xi_3 = -1\.000e-03"):
        identity_audit(traj, kern, q_list=[4])


@pytest.mark.parametrize("q_list", [[], [0], [17], [4.0], ["a"], [True]])
def test_identity_audit_rejects_bad_q_before_any_rate(monkeypatch, q_list):
    kern = constant(1.0)
    traj = integrate(monomer(16), kern, SolverConfig(t_end=1.0))

    def refuse(*args, **kwargs):
        raise AssertionError("a rate was computed")

    for attr in ("weak_form_rate", "finite_identity_rate"):
        monkeypatch.setattr(experiments, attr, refuse)
    with pytest.raises(ValueError, match="q_list"):
        identity_audit(traj, kern, q_list=q_list)


def test_time_rescaling_constant_kernel_only():
    rep = time_rescaling(constant(1.0), monomer(12), 1.0)
    assert rep.passed
    with pytest.raises(ValueError):
        time_rescaling(additive(1.0), monomer(12), 1.0)
    with pytest.raises(ValueError):
        time_rescaling(power_sum(1.0, 0.5), monomer(12), 1.0)


def test_time_rescaling_derives_every_run_from_the_given_solver(monkeypatch):
    h, max_step = 0.1, 0.05
    solver = SolverConfig(t_end=1.0, mode=MODE_FIXED, fixed_h=h, max_step=max_step)
    configs = []
    orig = experiments.integrate

    def recording(init, kernel, config):
        configs.append(config)
        return orig(init, kernel, config)

    monkeypatch.setattr(experiments, "integrate", recording)
    rep = time_rescaling(constant(1.0), monomer(8), 1.0, alphas=(0.5, 2.0), solver=solver)
    assert rep.passed
    assert rep.config_echo["solver"] == solver.to_dict()
    assert len(configs) == 4
    for alpha, run_a, run_b in zip((0.5, 2.0), configs[::2], configs[1::2]):
        assert run_a.mode == run_b.mode == MODE_FIXED
        assert (run_a.t_end, run_a.fixed_h, run_a.max_step) == (1.0, h, max_step)
        assert (run_b.t_end, run_b.fixed_h, run_b.max_step) == (alpha, alpha * h, alpha * max_step)
        assert np.array_equal(run_b.resolved_sample_times(), alpha * run_a.resolved_sample_times())
    # scaling by a power of two is exact, so the two fixed-step flows agree bit for bit
    assert rep.metrics["max_rescaling_residual"] == 0.0


def test_weights_audit_passes():
    rep = weights_audit(geometric(64, 0.5), max_size=128)
    assert rep.passed
    assert "constructed_moment" in rep.metrics


def test_experiments_are_deterministic():
    a = truncation_convergence(constant(1.0), monomer, [4, 8, 16], 1.0)
    b = truncation_convergence(constant(1.0), monomer, [4, 8, 16], 1.0)
    assert a.to_dict() == b.to_dict()


def test_report_threshold_contract(tmp_path):
    rep = ExperimentReport.build("demo", {"x": 1.0}, {"x": 2.0})
    assert rep.passed and rep.failing_metrics() == {}
    rep = ExperimentReport.build("demo", {"x": 3.0}, {"x": 2.0})
    assert not rep.passed and rep.failing_metrics() == {"x": (3.0, 2.0)}
    with pytest.raises(ConfigError, match="experiment.thresholds.y"):
        ExperimentReport.build("demo", {"x": 1.0}, {"y": 2.0})
    path = rep.write_json(str(tmp_path / "r.json"))
    import json

    loaded = ExperimentReport.from_dict(json.load(open(path)))
    assert loaded.to_dict() == rep.to_dict()
    assert set(loaded.to_dict()) == {"name", "status", "metrics", "thresholds",
                                     "artifacts", "config_echo"}
