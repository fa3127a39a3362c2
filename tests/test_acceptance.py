"""Acceptance gate: every project-level criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <id>: PASS|FAIL` line (visible with
pytest -s). Criteria are numbered C1..C11; C10 is split into its
envelope clauses (C10a) and the small-component limit clause (C10b).

C10b is expected to fail: for the configured run the small components
sit near 2.5e-4 at the end of the horizon (three scipy integrators agree,
see test_c10b_value_confirmed_by_independent_integrators), above the
1e-4 limit the criterion demands.
The decay is a slow power law, xi_1 ~ t**-2, and reaches 1e-4 only
between t = 100 and t = 170 (test_c10b_value_follows_the_t_minus_two_law).
The check is asserted as stated rather than loosened.
"""
import time
from dataclasses import replace

import numpy as np
import pytest
from oracles import convergence_order

from coagkin.diagnostics import check_moment_propagation
from coagkin.experiments import (
    continuous_dependence,
    identity_audit,
    truncation_convergence,
)
from coagkin.integrator import MODE_FIXED, STEP_REACH, SolverConfig, integrate
from coagkin.kernels import additive, catalog, constant, power_sum
from coagkin.system import RhsEvaluator, SizeDistribution, monomer, rhs, weak_form_rate
from coagkin.weights import (
    construct_tail_weight,
    evaluate,
    identity_weight,
    power_weight,
    sample_class_invariants,
)


def announce(tag: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_c1_positivity_and_mass_monotonicity():
    """C1: three kernels, k=64, T=10: nonnegative samples, bounded clamping, monotone mass."""
    ok_all = True
    details = []
    for kern in (constant(1.0), additive(1.0), power_sum(1.0, 0.5)):
        t0 = time.monotonic()
        traj = integrate(monomer(64), kern, SolverConfig(t_end=10.0, rel_tol=1e-8))
        elapsed = time.monotonic() - t0
        m1 = traj.mass_series()
        budget = 1e-9 * m1[0]
        pos_ok = bool(traj.states.min() >= 0.0)
        clamp_ok = traj.step_stats.clamped_mass_step + traj.step_stats.clamped_mass_sample <= budget
        mass_ok = bool(np.all(np.diff(m1) <= budget))
        time_ok = elapsed <= 10.0
        ok = pos_ok and clamp_ok and mass_ok and time_ok
        ok_all &= ok
        details.append(f"{kern.name}: pos={pos_ok} clamp={clamp_ok} mass={mass_ok} {elapsed:.2f}s")
    announce("C1 positivity+mass", ok_all, "; ".join(details))
    assert ok_all


def test_c2_oracle_equivalence():
    """C2: adaptive vs fixed-step RK4 (h=1e-4) agree to 1e-6 on k=8, T=1."""
    t0 = time.monotonic()
    ts = np.linspace(0.0, 1.0, 11)
    init = monomer(8)
    kern = constant(1.0)
    ad = integrate(init, kern, SolverConfig(t_end=1.0, rel_tol=1e-8, sample_times=ts))
    fx = integrate(init, kern, SolverConfig(t_end=1.0, mode=MODE_FIXED, fixed_h=1e-4,
                                            sample_times=ts))
    err = float(np.max(np.abs(ad.states_matrix() - fx.states_matrix())))
    elapsed = time.monotonic() - t0
    ok = err <= 1e-6 and elapsed <= 5.0
    announce("C2 oracle equivalence", ok, f"max-abs={err:.3e} (<=1e-6), {elapsed:.2f}s (<=5)")
    assert ok


def test_c3_convergence_order():
    """C3: halving the fixed step shrinks the error by a 4th-order factor."""
    res = convergence_order(constant(1.0), monomer(8), 1.0, 0.025)
    ok = 14.0 <= res["ratio"] <= 18.0
    announce("C3 convergence order", ok, f"ratio={res['ratio']:.2f} (in [14, 18])")
    assert ok


def test_c4_truncation_convergence():
    """C4: mass defect strictly decreasing in k; defect(128) <= 1e-6 * M1(0)."""
    t0 = time.monotonic()
    rep = truncation_convergence(constant(1.0), monomer, [16, 32, 64, 128], 5.0)
    elapsed = time.monotonic() - t0
    defects = [rep.metrics[f"defect_k{k}"] for k in (16, 32, 64, 128)]
    strict = all(a > b for a, b in zip(defects[:-1], defects[1:]))
    final_ok = defects[-1] <= 1e-6 * rep.metrics["initial_mass"]
    time_ok = elapsed <= 60.0
    ok = strict and final_ok and time_ok and rep.passed
    announce(
        "C4 truncation convergence", ok,
        "defects=" + ", ".join(f"{d:.2e}" for d in defects) + f"; {elapsed:.1f}s (<=60)",
    )
    assert ok


def test_c5_identity_audit():
    """C5: adjoint consistency on 1000 random states x 3 kernels; integrated identities."""
    rng = np.random.default_rng(5)
    kerns = (constant(1.0), additive(1.0), power_sum(1.0, 0.5))
    worst = 0.0
    for kern in kerns:
        for _ in range(1000):
            s = SizeDistribution(rng.random(32), 32)
            psi = rng.uniform(-1.0, 1.0, 32)
            wf = weak_form_rate(psi, s, kern)
            deriv = rhs(s, kern)
            dot = float(np.dot(psi, deriv))
            scale = max(float(np.dot(np.abs(psi), np.abs(deriv))), abs(wf), 1.0)
            worst = max(worst, abs(wf - dot) / scale)
    adjoint_ok = worst <= 1e-12

    kern = constant(1.0)
    cfg = SolverConfig(t_end=5.0, rel_tol=1e-8, sample_times=np.linspace(0.0, 5.0, 1001))
    traj = integrate(monomer(32), kern, cfg)
    rep = identity_audit(traj, kern, q_list=[8, 16, 31])
    res = rep.metrics["max_identity_residual"]
    identity_ok = res <= 10.0 * cfg.rel_tol
    ok = adjoint_ok and identity_ok
    announce(
        "C5 identity audit", ok,
        f"adjoint={worst:.2e} (<=1e-12); integrated residual={res:.2e} (<=1e-7)",
    )
    assert ok


def test_c6_collision_inequality_exhaustive():
    """C6: weight inequality on the full 500x500 grid; exact saturation anchors."""
    from coagkin.weights import check_inequality

    weights = [identity_weight(), power_weight(1.5), power_weight(2.0),
               construct_tail_weight(0.5 ** np.arange(1, 1001))]
    violations = {w.name: check_inequality(w, 500).metrics["violations"] for w in weights}
    grid_ok = all(v == 0.0 for v in violations.values())
    w2 = power_weight(2.0)
    anchors_ok = True
    for i, j in [(1, 1), (2, 3)]:
        lhs = (i + j) * (evaluate(w2, float(i + j)) - evaluate(w2, float(i)) - evaluate(w2, float(j)))
        rhs_ = 2.0 * (i * evaluate(w2, float(j)) + j * evaluate(w2, float(i)))
        anchors_ok &= lhs == rhs_
    ok = grid_ok and anchors_ok
    announce("C6 collision inequality", ok, f"violations={violations}; anchors exact={anchors_ok}")
    assert ok


def test_c7_moment_propagation():
    """C7: squared-size moment under the exp(4 A M1(0) t) envelope, both kernels."""
    ok_all = True
    details = []
    for kern in (constant(1.0), additive(1.0)):
        traj = integrate(monomer(32), kern, SolverConfig(t_end=5.0, rel_tol=1e-8))
        rep = check_moment_propagation(traj, power_weight(2.0), kern)
        ratio = rep.metrics["max_ratio"]
        ok_all &= rep.passed and ratio <= 1.0
        details.append(f"{kern.name}: max_ratio={ratio:.3e}")
    announce("C7 moment propagation", ok_all, "; ".join(details))
    assert ok_all


def test_c8_tail_weight_construction():
    """C8: constructed superlinear weight on geometric data, bound by brute force."""
    xi = 0.5 ** np.arange(1, 1001)
    w = construct_tail_weight(xi, tail_budget=1.0)
    inv = sample_class_invariants(w, rng=8)
    sizes = np.arange(1, 1001, dtype=float)
    ratios = np.asarray(evaluate(w, w.knots[1:])) / w.knots[1:]
    increasing = bool(np.all(np.diff(ratios) > 0))
    total = float(np.sum(np.asarray(evaluate(w, sizes)) * xi))
    bound = 2.0 * 1.0 * sum((m + 1) * 2.0**-m for m in range(1, 400))
    ok = inv.passed and increasing and total <= bound
    announce(
        "C8 tail weight", ok,
        f"class={inv.status}; G(n)/n increasing={increasing}; sum={total:.4f} <= {bound:.1f}",
    )
    assert ok


def test_c9_continuous_dependence_and_uniqueness():
    """C9: perturbation growth within the stability envelope; linear response."""
    kern = constant(1.0)
    init = monomer(32)
    same = continuous_dependence(kern, init, init.copy(), 2.0)
    unique_ok = same.metrics["uniqueness_sup"] <= 1e-12

    def perturbed(eps):
        v = init.values.copy()
        v[1] += eps
        return SizeDistribution(v, 32)

    rep = continuous_dependence(kern, init, perturbed(1e-6), 2.0)
    envelope_ok = rep.passed and rep.metrics["max_envelope_ratio"] <= 1.0
    rep_half = continuous_dependence(kern, init, perturbed(0.5e-6), 2.0)
    response = rep_half.metrics["d_final"] / rep.metrics["d_final"]
    response_ok = abs(response - 0.5) <= 0.05
    ok = unique_ok and envelope_ok and response_ok
    announce(
        "C9 continuous dependence", ok,
        f"uniqueness_sup={same.metrics['uniqueness_sup']:.1e}; "
        f"ratio={rep.metrics['max_envelope_ratio']:.3f}; half-response={response:.4f}",
    )
    assert ok


def _decay_run():
    ts = np.unique(np.concatenate([np.linspace(0.0, 100.0, 101), [90.0]]))
    return integrate(monomer(128), constant(1.0),
                     SolverConfig(t_end=100.0, rel_tol=1e-8, sample_times=ts))


def test_c10a_number_decay_envelope():
    """C10a: particle number non-increasing and under the quadratic-decay envelope."""
    t0 = time.monotonic()
    traj = _decay_run()
    elapsed = time.monotonic() - t0
    times = traj.times
    m0 = traj.number_series()
    mono_ok = bool(np.all(np.diff(m0) <= 1e-9))
    envelope = 1.0 / (1.0 + 0.5 * times)
    ratio = float(np.max(m0 / envelope))
    env_ok = ratio <= 1.01
    final_ok = m0[-1] <= 0.0198
    time_ok = elapsed <= 120.0
    ok = mono_ok and env_ok and final_ok and time_ok
    announce(
        "C10a decay envelope", ok,
        f"monotone={mono_ok}; max ratio={ratio:.4f} (<=1.01); M0(100)={m0[-1]:.5f} (<=0.0198); "
        f"{elapsed:.1f}s (<=120)",
    )
    assert ok


def test_c10b_small_component_limit():
    """C10b: |xi_i(100)| <= 1e-4 for i <= 5, asserted as stated.

    Known red: the observed values are ~2.2e-4..2.5e-4 (confirmed by
    independent integrators); the configured horizon is too short for
    the stated limit. Kept at the stated tolerance deliberately.
    """
    traj = _decay_run()
    worst = float(np.max(np.abs(traj.final().values[:5])))
    ok = worst <= 1e-4
    announce("C10b component limit", ok, f"max |xi_i(100)|, i<=5: {worst:.3e} (<=1e-4)")
    assert ok


@pytest.mark.parametrize("method, rtol, atol", [
    ("LSODA", 1e-12, 1e-16),
    ("DOP853", 1e-12, 1e-16),
    ("Radau", 1e-10, 1e-14),
])
def test_c10b_value_confirmed_by_independent_integrators(method, rtol, atol):
    """C10b stays red because of the horizon, not the integrator.

    Three scipy integrators solve the same system to t=100 and agree with
    coagkin's max |xi_i(100)|, i<=5, which stays well above the 1e-4 limit.
    """
    integrate_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    ours = float(np.max(np.abs(_decay_run().final().values[:5])))
    f = RhsEvaluator(constant(1.0), 128)
    sol = integrate_ivp(lambda t, y: f(y), (0.0, 100.0), monomer(128).values,
                        method=method, rtol=rtol, atol=atol)
    assert sol.success
    theirs = float(np.max(np.abs(sol.y[:5, -1])))
    assert theirs == pytest.approx(ours, rel=1e-8)
    assert theirs > 1e-4


def test_c10b_value_follows_the_t_minus_two_law():
    """Why C10b reads 2.5e-4: xi_1 decays like t**-2 and crosses 1e-4 only after t = 100.

    For a constant rate c, M0 * t tends to 2 / c and xi_1' = -c xi_1 (xi_1 + M0), so
    xi_1 * t**2 levels off (near 2.8 for the monomer start). With the front far below
    k = 2048 this run is the untruncated one: xi_1 * t**2 reads 2.348, 2.529 and 2.620
    at t = 50, 100 and 170, xi_1(100) is above the 1e-4 limit and xi_1(170) = 9.07e-5
    below it. The spec's horizon, not the solver, keeps C10b red.
    """
    traj = integrate(monomer(2048), constant(1.0),
                     SolverConfig(t_end=170.0, sample_times=np.array([0.0, 50.0, 100.0, 170.0])))
    assert traj.step_stats.max_occupied_size + STEP_REACH < 2048
    xi1 = traj.states[:, 0]
    scaled = (xi1 * traj.times**2)[1:]
    assert scaled == pytest.approx([2.348, 2.529, 2.620], abs=5e-4)
    assert np.all(np.diff(scaled) > 0.0) and scaled[-1] < 2.8
    assert xi1[2] > 1e-4 > xi1[3]
    assert xi1[3] == pytest.approx(9.07e-5, abs=5e-8)


RESCALING = SolverConfig(t_end=2.0, sample_times=np.linspace(0.0, 2.0, 51))
RESCALING_BOUND = 10.0 * RESCALING.rel_tol


def rescaling_residual(kernel, alpha, clock, solver=RESCALING):
    """max |xi_a(t) - alpha xi(clock t)| / (alpha max xi(0)) on the samples t of ``solver``.

    xi_a starts from alpha * monomer(16) and runs on ``solver``; xi starts
    from monomer(16) and runs on ``solver`` with its end time, sample times
    and fixed step, when set, multiplied by ``clock``. The right-hand side
    is quadratic, f(alpha xi) = alpha**2 f(xi), so for every kernel the
    two agree when clock = alpha.
    """
    init = monomer(16)
    traj_a = integrate(SizeDistribution(alpha * init.values, 16, 0.0), kernel, solver)
    stretched = replace(solver, t_end=clock * solver.t_end,
                        sample_times=clock * solver.resolved_sample_times(),
                        fixed_h=solver.fixed_h and clock * solver.fixed_h)
    traj_b = integrate(init, kernel, stretched)
    # past the wider of the two stored widths both runs are +0.0
    width = max(traj_a.states.shape[1], traj_b.states.shape[1])
    err = float(np.max(np.abs(traj_a.states_matrix(width) - alpha * traj_b.states_matrix(width))))
    return err / (alpha * float(np.max(np.abs(init.values))))


def test_c11_constant_kernel_time_rescaling():
    """C11: scaling concentrations by alpha rescales time by alpha (constant kernel)."""
    worst = max(rescaling_residual(constant(1.0), alpha, alpha) for alpha in (0.5, 2.0))
    ok = worst <= RESCALING_BOUND
    announce("C11 time rescaling", ok, f"max residual={worst:.2e} (<=1e-7)")
    assert ok


@pytest.mark.parametrize("name", list(catalog()))
def test_c11_time_rescaling_holds_for_every_kernel(name):
    kernel = catalog()[name]
    fixed = replace(RESCALING, mode=MODE_FIXED, fixed_h=0.01)
    for alpha in (0.5, 2.0):
        # the adaptive runs differ by the solver tolerance: 7.0e-9 to 6.1e-8 on the catalog
        assert rescaling_residual(kernel, alpha, alpha) <= RESCALING_BOUND
        # scaling by a power of two is exact, so fixed-step RK4 flows agree bit for bit
        assert rescaling_residual(kernel, alpha, alpha, fixed) == 0.0
        # negative control: a clock stretched by alpha**2 reads 0.18 to 0.20 on the catalog
        assert rescaling_residual(kernel, alpha, alpha**2) > RESCALING_BOUND
