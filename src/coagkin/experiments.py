"""Verification studies: each structural claim of the model as a falsifiable run.

Every experiment returns an ExperimentReport whose thresholds are echoed
next to the measured metrics, so a report is self-describing and a rerun
from its config echo reproduces it exactly. Sub-runs execute one after
another in input order.
"""
from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from . import output
from .diagnostics import g_moment, mass_defect, moment, moment_series
from .integrator import SolverConfig, Trajectory, integrate
from .kernels import CoagulationKernel, check_admissibility
from .numerics import cumulative_simpson
from .reports import ExperimentReport, check_threshold_names
from .system import (
    RhsEvaluator,
    SizeDistribution,
    StateStack,
    finite_identity_rate,
    prefix_columns,
    row_blocks,
    weak_form_rate,
)


def _run_ordered(fn, items):
    # a named function because perfbench/spans.py wraps it to count sub-runs
    return [fn(it) for it in items]


def _integer_list(name: str, values) -> list[int]:
    """``values`` as a list of ints.

    Anything but a list, tuple or array of integers raises a ValueError
    naming ``name``; a bool, float or str entry is not an integer.
    """
    if isinstance(values, np.ndarray):
        values = values.tolist()
    if not isinstance(values, (list, tuple)) or not all(
        isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values
    ):
        raise ValueError(f"{name} must be a list of integers, got {values!r}")
    return [int(v) for v in values]


def check_k_list(k_list) -> list[int]:
    """The truncation sizes of a convergence study: at least 3 integers, ascending, each >= 2."""
    k_list = _integer_list("k_list", k_list)
    if len(k_list) < 3:
        raise ValueError(f"k_list needs at least 3 entries, got {len(k_list)}")
    if sorted(k_list) != k_list or k_list[0] < 2:
        raise ValueError(f"k_list must be ascending with every entry >= 2, got {k_list}")
    return k_list


def check_q_list(q_list, k: int) -> list[int]:
    """The partial-sum lengths of an identity audit at truncation size k: integers in 1..k."""
    q_list = _integer_list("q_list", q_list)
    if not q_list:
        raise ValueError("q_list is empty: it needs at least one partial-sum length")
    bad = [q for q in q_list if not 1 <= q <= k]
    if bad:
        raise ValueError(f"q_list entries must lie in 1..{k}, got {bad}")
    return q_list


def _solver(solver: SolverConfig | None, t_end: float) -> SolverConfig:
    """The given solver, which must end at t_end, else the default one ending at t_end."""
    if solver is not None:
        if solver.t_end != t_end:
            raise ValueError(f"solver.t_end {solver.t_end} differs from the end time {t_end} given")
        return solver
    return SolverConfig(t_end=t_end)


def _shared_run(prev_init: SizeDistribution, prev: Trajectory, init: SizeDistribution,
                kernel: CoagulationKernel) -> Trajectory | None:
    """The run ``prev`` from ``prev_init`` as the run from ``init``, or None if it may differ.

    ``prev`` is shared when its front stayed below its truncation size
    k_p (``max_occupied_size + reach < k_p``, the reach of its tableau)
    and init, at size k, is prev_init padded with +0.0. Then no stage, sample or leak of the
    run touched size k_p, and ``integrate`` at k would repeat its
    arithmetic bit for bit: a step's error norm divides by its support,
    not by k, and the right-hand side, the clamps and the samples work on
    the occupied prefix. Only ``truncation_k`` differs, and the samples
    are stored on the occupied prefix. A shared run still evaluates the
    kernel at (k, k), so a table kernel that does not cover sizes 1..k
    raises the error the ``RhsEvaluator`` of ``integrate`` at k would,
    without building that evaluator's k x k rate matrices.
    """
    k_p, k = prev.truncation_k, init.truncation_k
    values = init.values
    if (prev.step_stats.max_occupied_size + prev.step_stats.reach >= k_p or values.shape != (k,)
            or init.time != prev_init.time or values[:k_p].tobytes() != prev_init.values.tobytes()
            or values[k_p:].view(np.int64).any()):
        return None
    kernel.evaluate(k, k)
    return replace(prev, truncation_k=k)


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

    The sub-runs go in k_list order. A sub-run whose front never came
    near its k already is the run at the next k, when that k starts from
    the same data padded with zeros (``_shared_run``): then the next k
    takes it instead of integrating again, and its trajectory CSV is
    formatted once for every k it serves. ``front_k{k}`` reports the
    run's ``max_occupied_size`` at each k, with no threshold of its own,
    and ``config_echo["integrated_k"]`` the k that were integrated; a
    shared k has distance 0.0 to the k before it.
    """
    k_list = check_k_list(k_list)
    pairs = list(zip(k_list[:-1], k_list[1:]))
    check_threshold_names("truncation_convergence", thresholds, [
        "defect_final_max", "defect_monotone_violations", "distance_violations",
        "distance_noise_floor", "initial_mass",
        *(f"defect_k{k}" for k in k_list), *(f"distance_k{a}_k{b}" for a, b in pairs),
        *(f"front_k{k}" for k in k_list)])
    base = _solver(solver, t_end)

    inits, trajs, fresh = [], [], []  # per k so far; fresh: integrated, not shared

    def sub_run(k):
        init = initial(k)
        shared = _shared_run(inits[-1], trajs[-1], init, kernel) if inits else None
        fresh.append(shared is None)
        inits.append(init)
        trajs.append(integrate(init, kernel, base) if shared is None else shared)

    _run_ordered(sub_run, k_list)
    defects = [mass_defect(tr) for tr in trajs]
    m1_0 = moment(trajs[0].state(0), 1)

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
    for (a, b), d in zip(pairs, distances):
        metrics[f"distance_k{a}_k{b}"] = d
    for k, tr in zip(k_list, trajs):
        metrics[f"front_k{k}"] = tr.step_stats.max_occupied_size

    artifacts = []
    if out_dir:
        rows = None
        for i, (k, tr) in enumerate(zip(k_list, trajs)):
            if fresh[i]:
                # a run that serves the next k too is formatted once for all its files
                shared = i + 1 < len(k_list) and not fresh[i + 1]
                rows = list(output.trajectory_rows(tr)) if shared else None
            artifacts.append(
                output.write_trajectory_csv(os.path.join(out_dir, f"trajectory_k{k}.csv"), tr, rows)
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
            "integrated_k": [k for k, f in zip(k_list, fresh) if f],
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
    # identical inputs are a uniqueness check, distinct ones an envelope check
    identical = np.array_equal(init_a.values, init_b.values)
    check_threshold_names("continuous_dependence", thresholds, [
        "c_cd", "d_initial", "d_final",
        *(["uniqueness_sup"] if identical else ["max_envelope_ratio", "amplification"])])
    base = _solver(solver, t_end)
    traj_a = integrate(init_a, kernel, base)
    traj_b = integrate(init_b, kernel, base)
    sizes = np.arange(1, init_a.truncation_k + 1, dtype=float)
    times = traj_a.times
    # each distance dots over all k sizes, as numpy groups a sum by its length;
    # past the wider stored width both runs are +0.0
    width = max(traj_a.states.shape[1], traj_b.states.shape[1])
    gap = np.zeros(init_a.truncation_k)
    dist = []
    for xa, xb in zip(traj_a.states_matrix(width), traj_b.states_matrix(width)):
        np.abs(xa - xb, out=gap[:width])
        dist.append(float(np.dot(sizes, gap)))
    dist = np.array(dist)
    delta = kernel.power_delta
    sup_m1d = float(max(moment_series(traj_a, 1.0 + delta).max(),
                        moment_series(traj_b, 1.0 + delta).max()))
    delta_1 = max(moment(traj_a.state(0), 1), moment(traj_b.state(0), 1))
    c_cd = 4.0 * kernel.growth_constant_A * (sup_m1d + delta_1)

    metrics = {"c_cd": c_cd, "d_initial": float(dist[0]), "d_final": float(dist[-1])}
    thr = dict(thresholds or {})
    if identical:
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
    transient); they are config data, echoed in the report. The settling
    check compares the final state with the one at 0.9 * t_long, so that
    time is merged into the sample grid, the default one or the solver's.
    """
    if kernel.lower_bound_zeta is None or not kernel.lower_bound_zeta > 0:
        raise ValueError("asymptotic decay needs a kernel with a positive lower bound zeta")
    zeta = kernel.lower_bound_zeta
    check_threshold_names("asymptotic_decay", thresholds, [
        "m0_monotone_violations", "max_envelope_ratio", "component_convergence",
        "component_limit", "m0_final", "zeta"])
    base = _solver(solver, t_long)
    solver = replace(base, sample_times=np.union1d(base.resolved_sample_times(), [0.9 * t_long]))
    traj = integrate(init, kernel, solver)
    times = traj.times
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
    head = traj.states_matrix(min(5, init.truncation_k))
    conv = float(np.max(np.abs(head[-1] - head[near])))
    limit = float(np.max(np.abs(head[-1])))

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


# the audited test sequences phi_1..phi_q, by name
_IDENTITY_RULES = {
    "one": np.ones,
    "size": lambda q: np.arange(1.0, q + 1),
    "size_sq": lambda q: np.arange(1.0, q + 1) ** 2.0,
}


def _identity_plan(k: int, q_list) -> tuple[list[int], list[str]]:
    """The audited partial-sum lengths (default k/4, k/2, k - 1) and the metric names."""
    if q_list is None:
        q_list = sorted({max(2, k // 4), max(2, k // 2), k - 1})
    q_list = check_q_list(q_list, k)
    return q_list, ["max_identity_residual", "max_adjoint_residual",
                    *(f"identity_residual_{name}_q{q}"
                      for name in _IDENTITY_RULES for q in q_list)]


def identity_audit(
    traj: Trajectory,
    kernel: CoagulationKernel,
    q_list=None,
    thresholds: dict | None = None,
    out_dir: str | None = None,
) -> ExperimentReport:
    """Audit the summation identities along an integrated trajectory.

    For each test sequence and each partial-sum length q the cumulative
    change of sum_{i<=q} phi_i xi_i must equal the time integral of the
    triangular-sum rate (Simpson on the sample grid, checked at even
    sample indices). Every q goes through the truncated-range identity
    with boundary flux, whose q = k case is the full weak form. Pointwise,
    the full weak form must agree with the inner product of the test
    vector against the right-hand side to rounding accuracy.

    The right-hand side at the samples comes from block calls of one
    ``RhsEvaluator`` on the stacked states, ``system.row_blocks`` at a
    time; the identity rates never call it. A threshold naming no metric
    of the audit raises ConfigError before any work. The samples are
    stacked and checked once, as one ``StateStack`` that every identity
    rate takes. The stack and the derivatives hold the first
    prefix_columns(w + 1, k) sizes, w the trajectory's stored width: past
    them every sample and its derivative is +0.0, so the audit's memory
    follows the front of the run, not k, and the sums with the test
    vectors stop there.
    """
    if not traj.times.size:
        raise ValueError("trajectory is empty")
    k = traj.truncation_k
    q_list, names = _identity_plan(k, q_list)
    check_threshold_names("identity_audit", thresholds, names)
    rel_tol = traj.config.rel_tol
    times = traj.times
    # the samples are +0.0 past the stored width w, and their derivatives past w + 1
    width = prefix_columns(max(1, traj.states.shape[1]) + 1, k)
    stack = StateStack(traj.states_matrix(width), times, k)
    X = stack.values
    ev = RhsEvaluator(kernel, k)
    derivs = np.empty_like(X)
    for rows in row_blocks(len(X), width):
        derivs[rows] = ev(X[rows])

    max_identity_residual = 0.0
    max_adjoint_residual = 0.0
    pair_metrics = {}
    for phi_name, make_phi in _IDENTITY_RULES.items():
        psi = make_phi(k)
        # pointwise adjoint consistency of the full weak form
        wf = weak_form_rate(psi, stack, kernel)
        held = psi[:width]
        scale = np.maximum(np.maximum(np.abs(derivs) @ np.abs(held), np.abs(wf)), 1.0)
        max_adjoint_residual = max(max_adjoint_residual,
                                   float(np.max(np.abs(wf - derivs @ held) / scale)))
        for q in q_list:
            phi = make_phi(q)
            rates = finite_identity_rate(phi, stack, kernel, q)
            weighted = X[:, :q] @ phi[:width]
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
            "q_list": q_list,
            "n_samples": int(times.size),
            "rel_tol": rel_tol,
        },
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
    samples the class invariants of each; and verifies that the
    constructed weight keeps its moment against the data under the
    guaranteed bound M1 + 3 * tail_budget, both moments summed as every
    moment is (``diagnostics.g_moment``, ``moment``).
    """
    from .weights import (
        check_inequality,
        construct_tail_weight,
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
        metrics["constructed_moment"] = g_moment(init, constructed)
        thr["constructed_moment"] = moment(init, 1.0) + 3.0 * tail_budget
    thr.update(thresholds or {})
    return ExperimentReport.build(
        name="weights_audit",
        metrics=metrics,
        thresholds=thr,
        config_echo={"max_size": max_size, "tail_budget": tail_budget,
                     "constructed": constructed.to_dict()},
    )


@dataclass(frozen=True)
class Experiment:
    """One ``verify`` experiment: the config keys it reads and how it runs.

    ``keys`` maps each key besides ``name`` to its default: a value, a
    function of the truncation size k, or None for the library's own.
    ``needs`` is the kernel constant it requires: (attribute, config key,
    description). ``run(kernel, initial, k, solver, settings, out_dir)``
    returns the report, where ``initial(k)`` builds the initial state.
    """

    keys: dict
    run: Callable[..., ExperimentReport]
    needs: tuple[str, str, str] | None = None
    integrates: bool = True

    def settings(self, block: dict, k: int) -> dict:
        """Every key the experiment reads: the block's value, else its default."""
        return {key: block[key] if key in block else default(k) if callable(default) else default
                for key, default in self.keys.items()}

    def largest_k(self, block: dict, k: int) -> int:
        """Largest truncation size the experiment integrates at (0: it integrates none)."""
        return self.settings(block, k).get("k_list", [k])[-1] if self.integrates else 0


def _truncation(kernel, initial, k, solver, s, out_dir):
    return truncation_convergence(kernel, initial, s["k_list"], solver.t_end, solver=solver,
                                  thresholds=s["thresholds"], out_dir=out_dir)


def _dependence(kernel, initial, k, solver, s, out_dir):
    init_a = initial(k)
    vb = init_a.values.copy()
    vb[s["perturb_size"] - 1] += float(s["epsilon"])
    return continuous_dependence(kernel, init_a, SizeDistribution(vb, k, 0.0), solver.t_end,
                                 solver=solver, thresholds=s["thresholds"], out_dir=out_dir)


def _decay(kernel, initial, k, solver, s, out_dir):
    return asymptotic_decay(kernel, initial(k), solver.t_end, solver=solver,
                            thresholds=s["thresholds"], out_dir=out_dir)


def _identity(kernel, initial, k, solver, s, out_dir):
    # a threshold naming no metric fails before the integration it would waste
    names = _identity_plan(k, s["q_list"])[1]
    check_threshold_names("identity_audit", s["thresholds"], names)
    traj = integrate(initial(k), kernel, solver)
    return identity_audit(traj, kernel, q_list=s["q_list"], thresholds=s["thresholds"],
                          out_dir=out_dir)


def _admissibility(kernel, initial, k, solver, s, out_dir):
    return check_admissibility(kernel, s["max_size"])


def _weights(kernel, initial, k, solver, s, out_dir):
    return weights_audit(initial(k), max_size=s["max_size"],
                         tail_budget=float(s["tail_budget"]), thresholds=s["thresholds"])


EXPERIMENTS = {
    "truncation": Experiment({"thresholds": None, "k_list": lambda k: [k // 4, k // 2, k]},
                             _truncation),
    "dependence": Experiment({"thresholds": None, "epsilon": 1e-6, "perturb_size": 2}, _dependence,
                             needs=("power_delta", "delta", "growth exponent delta")),
    "decay": Experiment({"thresholds": None}, _decay,
                        needs=("lower_bound_zeta", "zeta", "lower bound zeta > 0")),
    "identity": Experiment({"thresholds": None, "q_list": None}, _identity),
    # no thresholds: the kernel hypotheses it checks are exact, so a
    # tolerated count of violations has no meaning
    "admissibility": Experiment({"max_size": lambda k: 4 * k}, _admissibility, integrates=False),
    "weights": Experiment({"thresholds": None, "max_size": 500, "tail_budget": 1.0}, _weights,
                          integrates=False),
}
