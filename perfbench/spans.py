"""Span tracer for the benchmark's traced run.

Wraps the public entry point of each coagkin module at the name its caller
looks up (modules import names directly, so `coagkin.cli.integrate` and
`coagkin.experiments.integrate` are wrapped, not `coagkin.integrator.integrate`).
Each call records a span: layer, name, start, end and the span that caused
it. Stacks are thread-local; the experiment fan-out hands its span to the
worker threads as their parent. Spans stay in memory until `metrics()`.

The module is the layer. A layer's self time is its spans' durations minus
the part of each span that its child spans cover.
"""
from __future__ import annotations

import functools
import os
import threading
import time

LAYERS = ("cli", "kernels", "system", "integrator", "diagnostics", "experiments", "output")


class Span:
    __slots__ = ("layer", "name", "parent", "t0", "t1", "data")

    def __init__(self, layer, name, parent):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.data = {}
        self.t1 = None
        self.t0 = time.perf_counter()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []  # list.append is atomic, so threads share it safely
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, owner, attr, layer, name, on_open=None, on_return=None):
        """Replace owner.attr by a wrapper recording one span per call."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span(layer, name, stack[-1] if stack else None)
            if on_open is not None:
                on_open(span, args)
            stack.append(span)
            try:
                result = orig(*args, **kwargs)
            finally:
                stack.pop()
                span.t1 = time.perf_counter()
                tracer.spans.append(span)
            if on_return is not None:
                on_return(span, result)
            return result

        setattr(owner, attr, wrapper)

    def install(self) -> None:
        import coagkin.cli as cli
        import coagkin.experiments as experiments
        import coagkin.integrator as integrator
        import coagkin.output as output
        from coagkin.kernels import CoagulationKernel
        from coagkin.reports import ExperimentReport
        from coagkin.system import RhsEvaluator

        w = self.wrap
        w(cli, "main", "cli", "main")
        for attr in ("load", "build_kernel", "build_solver", "build_initial"):
            w(cli.RunConfig, attr, "cli", "config")

        w(cli, "check_admissibility", "kernels", "admissibility", on_open=_admissibility_cells)
        w(CoagulationKernel, "rate_matrix", "kernels", "rate_matrix")

        w(RhsEvaluator, "__call__", "system", "rhs", on_open=_rhs_consumer)
        for attr in ("finite_identity_rate", "weak_form_rate"):
            w(experiments, attr, "system", "identity")

        for mod in (cli, experiments):
            w(mod, "integrate", "integrator", "integrate", on_return=_step_stats)
            w(mod, "mass_defect", "diagnostics", "mass_defect")
        w(integrator, "compute_record", "diagnostics", "record", on_open=_mark_diagnostics)

        for attr in ("truncation_convergence", "identity_audit"):
            w(experiments, attr, "experiments", attr)
        self._wrap_fan_out(experiments)

        for attr in ("write_trajectory_csv", "write_diagnostics_csv", "write_summary_json",
                     "write_line_svg"):
            w(output, attr, "output", attr, on_return=_file_bytes)
        w(ExperimentReport, "write_json", "output", "write_json", on_return=_file_bytes)

    def _wrap_fan_out(self, experiments) -> None:
        """Spans opened in worker threads take the fan-out span as parent."""
        orig = experiments._run_ordered
        tracer = self

        def run_ordered(fn, items):
            parent = tracer._stack()[-1]  # the fan-out span opened by the outer wrapper

            def in_worker(item):
                stack = tracer._stack()
                stack.append(parent)
                try:
                    return fn(item)
                finally:
                    stack.pop()

            return orig(in_worker, items)

        experiments._run_ordered = run_ordered
        self.wrap(experiments, "_run_ordered", "experiments", "fan_out",
                  on_open=lambda span, args: span.data.update(subruns=len(args[1])))

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics from the recorded spans; wall_s is the traced call's wall time."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(id(s.parent), []).append(s)

        self_s = dict.fromkeys(LAYERS, 0.0)
        parallel_s = 0.0
        for s in self.spans:
            kids = children.get(id(s), [])
            covered = _union(s.t0, s.t1, [(c.t0, c.t1) for c in kids])
            self_s[s.layer] += (s.t1 - s.t0) - covered
            parallel_s += sum(c.t1 - c.t0 for c in kids) - covered

        def spans(layer, name):
            return [s for s in self.spans if s.layer == layer and s.name == name]

        def inclusive(layer, names):
            # outermost spans of the group only, so nested calls count once
            return sum(s.t1 - s.t0 for s in self.spans
                       if s.layer == layer and s.name in names
                       and not (s.parent is not None and s.parent.layer == layer
                                and s.parent.name in names))

        rhs = spans("system", "rhs")
        rhs_by = {c: sum(1 for s in rhs if s.data["consumer"] == c)
                  for c in ("step", "diagnostics", "audit", "other")}
        runs = spans("integrator", "integrate")
        accepted = sum(s.data["n_accepted"] for s in runs)
        rejected = sum(s.data["n_rejected"] for s in runs)
        attempts = max(accepted + rejected, 1)
        records = len(spans("diagnostics", "record"))
        rhs_s = inclusive("system", {"rhs"})
        diag_s = inclusive("diagnostics", {"record", "mass_defect"})
        out = {
            "cli.self_s": self_s["cli"],
            "cli.config_s": inclusive("cli", {"config"}),
            "kernels.self_s": self_s["kernels"],
            "kernels.admissibility_s": inclusive("kernels", {"admissibility"}),
            "kernels.admissibility_cells": sum(s.data["cells"] for s in spans("kernels", "admissibility")),
            "kernels.rate_matrix_calls": len(spans("kernels", "rate_matrix")),
            "system.self_s": self_s["system"],
            "system.rhs_s": rhs_s,
            "system.rhs_us": 1e6 * rhs_s / max(len(rhs), 1),
            "system.rhs_evals.step": rhs_by["step"],
            "system.rhs_evals.diagnostics": rhs_by["diagnostics"],
            "system.rhs_evals.audit": rhs_by["audit"],
            "system.identity_s": inclusive("system", {"identity"}),
            "system.identity_calls": len(spans("system", "identity")),
            "integrator.self_s": self_s["integrator"],
            "integrator.steps_accepted": accepted,
            "integrator.steps_rejected": rejected,
            "integrator.accept_ratio": accepted / attempts,
            "integrator.rhs_per_attempt": rhs_by["step"] / attempts,
            "diagnostics.self_s": self_s["diagnostics"],
            "diagnostics.s": diag_s,
            "diagnostics.records": records,
            "diagnostics.us_per_record": 1e6 * diag_s / max(records, 1),
            "experiments.self_s": self_s["experiments"],
            "experiments.subruns": sum(s.data["subruns"] for s in spans("experiments", "fan_out")),
            "output.s": self_s["output"],
            "output.bytes": sum(s.data["bytes"] for s in self.spans if s.layer == "output"),
            "trace.wall_s": wall_s,
        }
        checks = {
            "rhs_other": rhs_by["other"],
            "rhs_step_vs_step_stats": rhs_by["step"] - sum(s.data["n_rhs_evals"] for s in runs),
            # time covered by two sub-runs at once counts in both their self-times
            "self_sum_s": sum(self_s.values()) - parallel_s,
            "root_spans": sum(1 for s in self.spans if s.parent is None),
        }
        return {"metrics": out, "checks": checks}


def _union(lo: float, hi: float, intervals) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _admissibility_cells(span, args):
    kernel, max_size = args[0], int(args[1])
    cap = kernel.max_table_size
    n = min(max_size, cap) if cap is not None else max_size
    span.data["cells"] = n * n


def _rhs_consumer(span, _args):
    parent = span.parent
    layer = parent.layer if parent is not None else None
    if layer == "integrator":
        # integrate() steps first, then evaluates diagnostics and the rhs envelope
        consumer = "diagnostics" if parent.data.get("diagnostics_started") else "step"
    else:
        consumer = {"diagnostics": "diagnostics", "experiments": "audit"}.get(layer, "other")
    span.data["consumer"] = consumer


def _mark_diagnostics(span, _args):
    if span.parent is not None and span.parent.layer == "integrator":
        span.parent.data["diagnostics_started"] = True


def _step_stats(span, traj):
    st = traj.step_stats
    span.data.update(n_accepted=st.n_accepted, n_rejected=st.n_rejected, n_rhs_evals=st.n_rhs_evals)


def _file_bytes(span, path):
    span.data["bytes"] = os.path.getsize(path)
