import numpy as np
import pytest

from coagkin.experiments import (
    asymptotic_decay,
    continuous_dependence,
    convergence_order,
    identity_audit,
    time_rescaling,
    truncation_convergence,
    weights_audit,
)
from coagkin.integrator import SolverConfig, integrate
from coagkin.kernels import CoagulationKernel, additive, constant, power_sum
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


def test_truncation_writes_artifacts(tmp_path):
    rep = truncation_convergence(constant(1.0), monomer, [4, 8, 16], 1.0,
                                 out_dir=str(tmp_path))
    assert rep.artifacts and all((tmp_path / "defect_vs_k.svg").exists() for _ in rep.artifacts)


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
    rep = identity_audit(traj, kern, q_list=[8])  # q = k goes through the weak form
    assert rep.passed


def test_time_rescaling_constant_kernel_only():
    rep = time_rescaling(constant(1.0), monomer(12), 1.0)
    assert rep.passed
    with pytest.raises(ValueError):
        time_rescaling(additive(1.0), monomer(12), 1.0)
    with pytest.raises(ValueError):
        time_rescaling(power_sum(1.0, 0.5), monomer(12), 1.0)


def test_convergence_order_ratio_near_16():
    res = convergence_order(constant(1.0), monomer(8), 1.0, 0.025)
    assert 14.0 <= res["ratio"] <= 18.0


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
    with pytest.raises(ValueError):
        ExperimentReport.build("demo", {"x": 1.0}, {"y": 2.0})
    path = rep.write_json(str(tmp_path / "r.json"))
    import json

    loaded = ExperimentReport.from_dict(json.load(open(path)))
    assert loaded.to_dict() == rep.to_dict()
    assert set(loaded.to_dict()) == {"name", "status", "metrics", "thresholds",
                                     "artifacts", "config_echo"}
