"""Verification studies: each structural claim of the model as a falsifiable run.

Every experiment returns an ExperimentReport whose thresholds are echoed
next to the measured metrics, so a report is self-describing and a rerun
from its config echo reproduces it exactly. Sub-runs execute one after
another in input order.
"""
from __future__ import annotations

import os
from collections.abc import Callable

import numpy as np

from . import output
from .diagnostics import mass_defect, moment
from .integrator import MODE_FIXED, SolverConfig, Trajectory, integrate
from .kernels import CoagulationKernel
from .numerics import cumulative_simpson
from .reports import ExperimentReport
from .system import SizeDistribution, TestSequence, finite_identity_rate, rhs, weak_form_rate


def _run_ordered(fn, items):
    # a named function because perfbench/spans.py wraps it to count sub-runs
    return [fn(it) for it in items]


def _solver(solver: SolverConfig | None, t_end: float, n_samples: int = 101) -> SolverConfig:
    if solver is not None:
        return solver
    return SolverConfig(t_end=t_end, sample_times=np.linspace(0.0, t_end, n_samples))


def truncation_convergence(
    kernel: CoagulationKernel,
    initial: Callable[[int], SizeDistribution],
    k_list,
    t_end: float,
    solver: SolverConfig | None = None,
    thresholds: dict | None = None,
    out_dir: str | None = None,
) -> ExperimentReport:
    """Mass-defect decay as the truncation size grows.

    Builds the initial state at every k with ``initial(k)`` (for example
    ``monomer``), measures the leaked mass, and checks that (a) the
    defect never grows with k, (b) the weighted distance between
    consecutive resolutions shrinks or is already at the integrator
    noise floor, and (c) the defect at the largest k is below the
    conservation threshold.
    """
    k_list = [int(k) for k in k_list]
    if len(k_list) < 3:
        raise ValueError(f"k_list needs at least 3 entries, got {len(k_list)}")
    if sorted(k_list) != k_list or any(k < 2 for k in k_list):
        raise ValueError("k_list must be ascending with every entry >= 2")
    base = _solver(solver, t_end)

    trajs = _run_ordered(lambda k: integrate(initial(k), kernel, base), k_list)
    defects = [mass_defect(tr) for tr in trajs]
    m1_0 = trajs[0].diagnostics[0].moment_1

    kmin = k_list[0]
    sizes = np.arange(1, kmin + 1, dtype=float)
    distances = []
    for a, b in zip(trajs[:-1], trajs[1:]):
        xa = a.final().values[:kmin]
        xb = b.final().values[:kmin]
        distances.append(float(np.dot(sizes, np.abs(xa - xb))))

    thr = {
        "defect_final_max": 1e-6 * m1_0,
        "defect_monotone_violations": 0.0,
        "distance_violations": 0.0,
    }
    thr.update(thresholds or {})
    noise_floor = thr.pop("distance_noise_floor", 100.0 * base.rel_tol * max(m1_0, 1.0))

    # nonincreasing in k; exact ties (e.g. all-zero data) are not violations
    defect_viol = sum(1 for d0, d1 in zip(defects[:-1], defects[1:]) if d1 > d0)
    dist_viol = sum(
        1
        for d0, d1 in zip(distances[:-1], distances[1:])
        if d1 > d0 and d1 > noise_floor
    )

    metrics = {
        "defect_final_max": defects[-1],
        "defect_monotone_violations": float(defect_viol),
        "distance_violations": float(dist_viol),
        "distance_noise_floor": noise_floor,
        "initial_mass": m1_0,
    }
    for k, d in zip(k_list, defects):
        metrics[f"defect_k{k}"] = d
    for (a, b), d in zip(zip(k_list[:-1], k_list[1:]), distances):
        metrics[f"distance_k{a}_k{b}"] = d

    artifacts = []
    if out_dir:
        for k, tr in zip(k_list, trajs):
            artifacts.append(
                output.write_trajectory_csv(os.path.join(out_dir, f"trajectory_k{k}.csv"), tr)
            )
        artifacts.append(
            output.write_line_svg(
                os.path.join(out_dir, "defect_vs_k.svg"),
                np.array(k_list, dtype=float),
                [("mass defect", np.maximum(np.array(defects), 1e-300))],
                title="Truncation convergence",
                xlabel="truncation size k (log)",
                ylabel="mass defect (log)",
                logx=True,
                logy=True,
            )
        )

    return ExperimentReport.build(
        name="truncation_convergence",
        metrics=metrics,
        thresholds=thr,
        artifacts=artifacts,
        config_echo={
            "kernel": kernel.name,
            "k_list": k_list,
            "t_end": t_end,
            "solver": base.to_dict(),
        },
    )


def continuous_dependence(
    kernel: CoagulationKernel,
    init_a: SizeDistribution,
    init_b: SizeDistribution,
    t_end: float,
    solver: SolverConfig | None = None,
    thresholds: dict | None = None,
    out_dir: str | None = None,
) -> ExperimentReport:
    """Exponential stability of the flow in the mass-weighted distance.

    Integrates both initial states and checks D(t) = sum_i i |xi_i - eta_i|
    against the envelope D(0) * exp(C t) with

        C = 4 * A * (sup_t M_{1+delta} + M1(0)),

    the moment combination the stability estimate actually produces.
    Identical inputs must stay identical (distance below 1e-12),
    otherwise determinism or uniqueness is broken.
    """
    if kernel.power_delta is None:
        raise ValueError("continuous dependence needs a kernel with power_delta declared")
    if init_a.truncation_k != init_b.truncation_k:
        raise ValueError("both initial states must share the truncation size")
    base = _solver(solver, t_end)
    traj_a = integrate(init_a, kernel, base)
    traj_b = integrate(init_b, kernel, base)
    sizes = np.arange(1, init_a.truncation_k + 1, dtype=float)
    times = traj_a.times()
    dist = np.array(
        [
            float(np.dot(sizes, np.abs(sa.values - sb.values)))
            for sa, sb in zip(traj_a.samples, traj_b.samples)
        ]
    )
    delta = kernel.power_delta
    sup_m1d = max(
        max(moment(s, 1.0 + delta) for s in traj_a.samples),
        max(moment(s, 1.0 + delta) for s in traj_b.samples),
    )
    delta_1 = max(traj_a.diagnostics[0].moment_1, traj_b.diagnostics[0].moment_1)
    c_cd = 4.0 * kernel.growth_constant_A * (sup_m1d + delta_1)

    metrics = {"c_cd": c_cd, "d_initial": float(dist[0]), "d_final": float(dist[-1])}
    thr = dict(thresholds or {})
    if dist[0] == 0.0:
        metrics["uniqueness_sup"] = float(dist.max())
        thr.setdefault("uniqueness_sup", 1e-12)
    else:
        envelope = dist[0] * np.exp(c_cd * times)
        metrics["max_envelope_ratio"] = float(np.max(dist / envelope))
        metrics["amplification"] = float(dist[-1] / dist[0])
        thr.setdefault("max_envelope_ratio", 1.0)

    artifacts = []
    if out_dir:
        artifacts.append(output.write_trajectory_csv(os.path.join(out_dir, "trajectory_a.csv"), traj_a))
        artifacts.append(output.write_trajectory_csv(os.path.join(out_dir, "trajectory_b.csv"), traj_b))
        artifacts.append(
            output.write_line_svg(
                os.path.join(out_dir, "dependence.svg"),
                times,
                [("distance", np.maximum(dist, 1e-300))],
                title="Continuous dependence",
                xlabel="t",
                ylabel="weighted distance (log)",
                logy=True,
            )
        )
    return ExperimentReport.build(
        name="continuous_dependence",
        metrics=metrics,
        thresholds=thr,
        artifacts=artifacts,
        config_echo={"kernel": kernel.name, "t_end": t_end, "solver": base.to_dict()},
    )


def asymptotic_decay(
    kernel: CoagulationKernel,
    init: SizeDistribution,
    t_long: float,
    solver: SolverConfig | None = None,
    thresholds: dict | None = None,
    out_dir: str | None = None,
) -> ExperimentReport:
    """Long-horizon particle-number decay under a kernel bounded below.

    With rate >= zeta > 0 the particle number obeys dM0/dt <= -(zeta/2) M0^2,
    so M0(t) must stay under the comparison solution
    M0(0) / (1 + (zeta/2) M0(0) t). Additionally every small-size component
    must have settled near its limit (zero) by the end of the run.

    Default component tolerances are calibrated to the observable decay,
    which is a slow power law (roughly t**-2 prefactored by the early
    transient); they are config data, echoed in the report.
    """
    if kernel.lower_bound_zeta is None or not kernel.lower_bound_zeta > 0:
        raise ValueError("asymptotic decay needs a kernel with a positive lower bound zeta")
    zeta = kernel.lower_bound_zeta
    if solver is None:
        ts = np.unique(np.concatenate([np.linspace(0.0, t_long, 101), [0.9 * t_long]]))
        solver = SolverConfig(t_end=t_long, sample_times=ts)
    traj = integrate(init, kernel, solver)
    times = traj.times()
    m0 = traj.number_series()
    m0_0 = m0[0]

    thr = {
        "m0_monotone_violations": 0.0,
        "max_envelope_ratio": 1.01,
        "component_convergence": 1e-4,
        "component_limit": 5e-4,
    }
    thr.update(thresholds or {})

    slack = 1e-9 * max(m0_0, 1.0)
    mono_viol = float(np.sum(np.diff(m0) > slack))
    if m0_0 > 0:
        envelope = m0_0 / (1.0 + 0.5 * zeta * m0_0 * times)
        max_ratio = float(np.max(m0 / envelope))
    else:
        max_ratio = 0.0 if np.all(m0 == 0.0) else np.inf

    near = int(np.argmin(np.abs(times - 0.9 * t_long)))
    x_end = traj.final().values
    x_near = traj.samples[near].values
    n_comp = min(5, init.truncation_k)
    conv = float(np.max(np.abs(x_end[:n_comp] - x_near[:n_comp])))
    limit = float(np.max(np.abs(x_end[:n_comp])))

    metrics = {
        "m0_monotone_violations": mono_viol,
        "max_envelope_ratio": max_ratio,
        "component_convergence": conv,
        "component_limit": limit,
        "m0_final": float(m0[-1]),
        "zeta": zeta,
    }
    artifacts = []
    if out_dir:
        artifacts.append(output.write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), traj))
        env_curve = m0_0 / (1.0 + 0.5 * zeta * m0_0 * times) if m0_0 > 0 else np.zeros_like(times)
        artifacts.append(
            output.write_line_svg(
                os.path.join(out_dir, "decay.svg"),
                times,
                [("M0", np.maximum(m0, 1e-300)), ("envelope", np.maximum(env_curve, 1e-300))],
                title="Particle-number decay",
                xlabel="t",
                ylabel="M0 (log)",
                logy=True,
            )
        )
    return ExperimentReport.build(
        name="asymptotic_decay",
        metrics=metrics,
        thresholds=thr,
        artifacts=artifacts,
        config_echo={
            "kernel": kernel.name,
            "t_long": t_long,
            "zeta": zeta,
            "solver": solver.to_dict(),
        },
    )


def default_phi_catalog(q: int) -> dict[str, TestSequence]:
    return {
        "one": TestSequence.ones(q),
        "size": TestSequence.sizes(q),
        "size_sq": TestSequence.size_power(q, 2.0),
        "alternating": TestSequence.alternating(q),
    }


def identity_audit(
    traj: Trajectory,
    kernel: CoagulationKernel,
    phi_rules: dict | None = None,
    q_list=None,
    thresholds: dict | None = None,
    out_dir: str | None = None,
) -> ExperimentReport:
    """Audit the summation identities along an integrated trajectory.

    For each test sequence and each partial-sum length q the cumulative
    change of sum_{i<=q} phi_i xi_i must equal the time integral of the
    triangular-sum rate (Simpson on the sample grid, checked at even
    sample indices). Pointwise, the full-length weak form must agree
    with the inner product of the test vector against the right-hand
    side to rounding accuracy. q = k dispatches to the full weak form;
    q < k exercises the truncated-range identity with boundary flux.
    """
    if not traj.samples:
        raise ValueError("trajectory is empty")
    k = traj.samples[0].truncation_k
    if q_list is None:
        q_list = sorted({max(2, k // 4), max(2, k // 2), k - 1})
    rules = phi_rules or {
        "one": lambda q: TestSequence.ones(q),
        "size": lambda q: TestSequence.sizes(q),
        "size_sq": lambda q: TestSequence.size_power(q, 2.0),
    }
    rel_tol = traj.config.rel_tol
    times = traj.times()

    max_identity_residual = 0.0
    max_adjoint_residual = 0.0
    pair_metrics = {}
    rhs_cache = [rhs(s, kernel) for s in traj.samples]
    for phi_name, make_phi in rules.items():
        psi_full = make_phi(k)
        # pointwise adjoint consistency of the full weak form
        for s, deriv in zip(traj.samples, rhs_cache):
            wf = weak_form_rate(psi_full, s, kernel)
            dot = float(np.dot(psi_full.values, deriv))
            scale = max(float(np.dot(np.abs(psi_full.values), np.abs(deriv))), abs(wf), 1.0)
            max_adjoint_residual = max(max_adjoint_residual, abs(wf - dot) / scale)
        for q in q_list:
            q = int(q)
            if q > k:
                raise ValueError(f"q={q} exceeds truncation size {k}")
            phi = make_phi(q)
            if q == k:
                rates = np.array([weak_form_rate(phi, s, kernel) for s in traj.samples])
            else:
                rates = np.array(
                    [finite_identity_rate(phi, s, kernel, q) for s in traj.samples]
                )
            weighted = np.array(
                [float(np.dot(phi.values, s.values[:q])) for s in traj.samples]
            )
            integral = cumulative_simpson(times, rates)
            scale = np.maximum.reduce(
                [np.abs(weighted), np.full_like(weighted, abs(weighted[0])), np.abs(integral)]
            )
            scale = np.maximum(scale, 1e-30)
            residuals = np.abs((weighted - weighted[0]) - integral) / scale
            even = np.arange(0, times.size, 2)
            res = float(residuals[even].max())
            pair_metrics[f"identity_residual_{phi_name}_q{q}"] = res
            max_identity_residual = max(max_identity_residual, res)

    thr = {
        "max_identity_residual": 10.0 * rel_tol,
        "max_adjoint_residual": 1e-12,
    }
    thr.update(thresholds or {})
    metrics = {
        "max_identity_residual": max_identity_residual,
        "max_adjoint_residual": max_adjoint_residual,
        **pair_metrics,
    }
    artifacts = []
    if out_dir:
        artifacts.append(output.write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), traj))
    return ExperimentReport.build(
        name="identity_audit",
        metrics=metrics,
        thresholds=thr,
        artifacts=artifacts,
        config_echo={
            "kernel": kernel.name,
            "q_list": [int(q) for q in q_list],
            "n_samples": int(times.size),
            "rel_tol": rel_tol,
        },
    )


def time_rescaling(
    kernel: CoagulationKernel,
    init: SizeDistribution,
    t_end: float,
    alphas=(0.5, 2.0),
    solver: SolverConfig | None = None,
    thresholds: dict | None = None,
) -> ExperimentReport:
    """Concentration/time rescaling identity for size-independent kernels.

    For a constant-rate kernel the flow started from alpha * xi at time t
    equals alpha times the flow started from xi at time alpha * t. This
    is special to size-independent rates and is asserted for them only.
    """
    if kernel.separable is None or kernel.separable[1] != 0.0:
        raise ValueError("time rescaling is asserted for constant kernels only")
    base = _solver(solver, t_end, n_samples=51)
    ts = base.resolved_sample_times()
    metrics = {}
    worst = 0.0
    for alpha in alphas:
        cfg_a = SolverConfig(t_end=t_end, rel_tol=base.rel_tol, abs_tol=base.abs_tol,
                             sample_times=ts)
        scaled_init = SizeDistribution(alpha * init.values, init.truncation_k, 0.0)
        traj_a = integrate(scaled_init, kernel, cfg_a)
        cfg_b = SolverConfig(t_end=alpha * t_end, rel_tol=base.rel_tol, abs_tol=base.abs_tol,
                             sample_times=alpha * ts)
        traj_b = integrate(init, kernel, cfg_b)
        err = max(
            float(np.max(np.abs(sa.values - alpha * sb.values)))
            for sa, sb in zip(traj_a.samples, traj_b.samples)
        )
        scale = alpha * float(np.max(np.abs(init.values)))
        metrics[f"rescaling_residual_alpha_{alpha:g}"] = err / scale
        worst = max(worst, err / scale)
    metrics["max_rescaling_residual"] = worst
    thr = {"max_rescaling_residual": 10.0 * base.rel_tol}
    thr.update(thresholds or {})
    return ExperimentReport.build(
        name="time_rescaling",
        metrics=metrics,
        thresholds=thr,
        config_echo={"kernel": kernel.name, "t_end": t_end, "alphas": list(alphas)},
    )


def weights_audit(
    init: SizeDistribution,
    max_size: int = 500,
    tail_budget: float = 1.0,
    thresholds: dict | None = None,
) -> ExperimentReport:
    """Audit the convex-weight toolbox against one set of initial data.

    Checks the collision inequality exhaustively for the power weights
    x, x^1.5, x^2 and for the tail weight constructed from ``init``;
    samples the class invariants of each; and verifies by brute-force
    summation that the constructed weight keeps its moment against the
    data under the guaranteed bound M1 + 3 * tail_budget.
    """
    from .weights import (
        check_inequality,
        construct_tail_weight,
        evaluate as weight_eval,
        power_weight,
        sample_class_invariants,
    )

    catalog = [power_weight(1.0), power_weight(1.5), power_weight(2.0)]
    constructed = construct_tail_weight(init, tail_budget=tail_budget)
    metrics: dict[str, float] = {}
    thr: dict[str, float] = {}
    for w in [*catalog, constructed]:
        ineq = check_inequality(w, max_size)
        key = w.name.replace(" ", "_")
        metrics[f"ineq_violations[{key}]"] = ineq.metrics["violations"]
        thr[f"ineq_violations[{key}]"] = 0.0
        inv = sample_class_invariants(w, rng=0)
        metrics[f"class_violations[{key}]"] = float(
            sum(v for kk, v in inv.metrics.items() if kk in inv.thresholds and v > inv.thresholds[kk])
        )
        thr[f"class_violations[{key}]"] = 0.0
    if not constructed.degenerate:
        sizes = np.arange(1, init.truncation_k + 1, dtype=float)
        weighted_sum = float(
            np.sum(np.asarray(weight_eval(constructed, sizes)) * init.values)
        )
        m1 = float(np.dot(sizes, init.values))
        metrics["constructed_moment"] = weighted_sum
        thr["constructed_moment"] = m1 + 3.0 * tail_budget
    thr.update(thresholds or {})
    return ExperimentReport.build(
        name="weights_audit",
        metrics=metrics,
        thresholds=thr,
        config_echo={"max_size": max_size, "tail_budget": tail_budget,
                     "constructed": constructed.to_dict()},
    )


def convergence_order(
    kernel: CoagulationKernel,
    init: SizeDistribution,
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
