"""coagkin benchmark: one workload, timed in fresh processes, gated on correctness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a coagkin checkout; the program is imported from its
`src/`. The seed draws the initial data (workloads.py), which reaches the
program only through the generated config and initial-data file. Every
iteration runs `coagkin.cli.main([command, config])` in a fresh child
interpreter (child.py) until S seconds have passed, and checks the
command's exit code, its invariants or report status, and the deviation
of its trajectories from an independent reference (reference.py).

--trace 0 reports the end-to-end metrics as medians over the iterations;
each timing is first divided by the slowdown that the child's probe loop
measured around the call (PROBE_NOMINAL_S). --trace 1 adds TRACE_RUNS traced iterations and reports per-layer metrics
from them (spans.py); their counts must repeat exactly and their layer
self-times must add up to the traced wall time.

Every metric is printed as `name value unit`; the last line is one JSON
object. The exit code is 1 when any correctness gate fails, 2 when the
benchmark cannot run at all (no coagkin source, no reference).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from workloads import INITIAL_SIZES, WORKLOADS, Workload, initial_data, stored_reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

MIN_SAMPLES = 3
TRACE_RUNS = 2
CHILD_TIMEOUT_S = 90
# traced layer self-times, minus time covered twice by parallel sub-runs,
# must equal the traced wall time within this share (plus 2 ms)
SELF_TIME_SLACK = 0.02
# Duration of child.probe() taken as nominal machine speed; it took 0.03-0.05 s
# on a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4), depending on its host's load.
# On a shared host the same run takes up to 1.5x longer for minutes at a time,
# and the probe slows with it; timings are divided by probe_s / PROBE_NOMINAL_S.
# The constant fixes only the scale of the normalised times, not their spread.
PROBE_NOMINAL_S = 0.05

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "err_max": "1",
}
PER_LAYER = {
    "cli.self_s": "s",
    "cli.config_s": "s",
    "kernels.self_s": "s",
    "kernels.admissibility_s": "s",
    "kernels.admissibility_cells": "count",
    "kernels.rate_matrix_calls": "count",
    "system.self_s": "s",
    "system.rhs_s": "s",
    "system.rhs_us": "us",
    "system.rhs_evals.step": "count",
    "system.rhs_evals.diagnostics": "count",
    "system.rhs_evals.audit": "count",
    "system.identity_s": "s",
    "system.identity_calls": "count",
    "integrator.self_s": "s",
    "integrator.steps_accepted": "count",
    "integrator.steps_rejected": "count",
    "integrator.accept_ratio": "ratio",
    "integrator.rhs_per_attempt": "ratio",
    "diagnostics.self_s": "s",
    "diagnostics.s": "s",
    "diagnostics.records": "count",
    "diagnostics.us_per_record": "us",
    "experiments.self_s": "s",
    "experiments.subruns": "count",
    "output.s": "s",
    "output.bytes": "B",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
# counts that must repeat exactly across traced runs
EXACT_COUNTS = [name for name, unit in PER_LAYER.items() if unit in ("count", "B")]


class BenchError(Exception):
    """The benchmark cannot run; no result is printed."""


def load_reference(w: Workload, seed: int, work: str) -> dict:
    """Stored reference for the default seed, else one generated for this seed."""
    path = stored_reference(w.name, seed)
    if not os.path.isfile(path):
        path = os.path.join(work, "reference.json")
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "reference.py"),
             "--workload", w.name, "--seed", str(seed), "--out", path],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"reference generation failed:\n{proc.stderr}")
    with open(path) as fh:
        ref = json.load(fh)
    if ref["x0"] != initial_data(seed).tolist():
        raise BenchError(f"{path} was made from other initial data; regenerate it")
    return ref


def read_trajectory(path: str) -> np.ndarray:
    with open(path) as fh:
        fh.readline()  # header
        return np.array([line.split(",") for line in fh], dtype=float)


def check_outputs(w: Workload, out_dir: str, ref: dict) -> tuple[float, list[str]]:
    """err_max against the reference, and every failed correctness gate."""
    problems = []
    if w.command == "simulate":
        with open(os.path.join(out_dir, "summary.json")) as fh:
            violations = json.load(fh)["invariant_violations"]
        problems += [f"invariant violation: {v}" for v in violations]
    else:
        with open(os.path.join(out_dir, "report.json")) as fh:
            status = json.load(fh)["status"]
        if status != "pass":
            problems.append(f"report status {status!r}")
    times = w.sample_times()
    err = 0.0
    for k, name in w.trajectories().items():
        data = read_trajectory(os.path.join(out_dir, name))
        if data.shape != (times.size, k + 1):
            problems.append(f"{name}: shape {data.shape}, expected {(times.size, k + 1)}")
            continue
        if np.max(np.abs(data[:, 0] - times)) > 1e-12 * w.t_end:
            problems.append(f"{name}: sample times differ from the requested grid")
        xi = data[:, 1:]
        r = ref["runs"][str(k)]
        err = max(
            err,
            float(np.max(np.abs(xi[:, :INITIAL_SIZES] - np.array(r["xi"])))),
            float(np.max(np.abs(xi.sum(axis=1) - np.array(r["M0"])))),
            float(np.max(np.abs(xi @ np.arange(1.0, k + 1) - np.array(r["M1"])))),
        )
    if not err <= w.err_tol:
        problems.append(f"err_max {err:.3e} above tolerance {w.err_tol:.0e}")
    return err, problems


def run_once(w: Workload, work: str, trace: bool, ref: dict) -> dict:
    """One child run plus its correctness gate; 'problems' is empty when it passed."""
    out_dir = os.path.join(work, "out")
    result_path = os.path.join(work, "result.json")
    shutil.rmtree(out_dir, ignore_errors=True)
    if os.path.exists(result_path):
        os.remove(result_path)
    env = dict(os.environ)
    env.pop("COAGKIN_THREADS", None)  # the fan-out runs at its default width
    cmd = [sys.executable, os.path.join(HERE, "child.py"), SRC, w.command,
           os.path.join(work, "config.json")]
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd + [repr(t_spawn), "1" if trace else "0", result_path],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              env=env, cwd=work)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the child
        return {"problems": [f"child still running after {CHILD_TIMEOUT_S} s"]}
    if proc.returncode != 0 or not os.path.exists(result_path):
        return {"problems": [f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
    with open(result_path) as fh:
        res = json.load(fh)
    res["slowdown"] = res["probe_s"] / PROBE_NOMINAL_S
    if res["rc"] != 0:
        res["problems"] = [f"coagkin {w.command} exited {res['rc']}: {proc.stderr.strip()[-2000:]}"]
        return res
    try:
        res["err_max"], res["problems"] = check_outputs(w, out_dir, ref)
    except (OSError, ValueError, KeyError) as exc:
        res["problems"] = [f"unreadable output: {exc!r}"]
    return res


def trace_problems(runs: list[dict]) -> list[str]:
    """Self-test of the traced runs: exact counts and self-times adding up."""
    problems = []
    first = runs[0]["trace"]["metrics"]
    for r in runs[1:]:
        for name in EXACT_COUNTS:
            if r["trace"]["metrics"][name] != first[name]:
                problems.append(f"{name} differs between traced runs: "
                                f"{first[name]} vs {r['trace']['metrics'][name]}")
    for r in runs:
        c = r["trace"]["checks"]
        if c["root_spans"] != 1:
            problems.append(f"{c['root_spans']} root spans, expected 1")
        if c["rhs_other"]:
            problems.append(f"{c['rhs_other']} rhs evaluations with no known consumer")
        if c["rhs_step_vs_step_stats"]:
            problems.append("traced step rhs evaluations differ from step_stats.n_rhs_evals "
                            f"by {c['rhs_step_vs_step_stats']}")
        gap = abs(c["self_sum_s"] - r["wall_s"])
        if gap > SELF_TIME_SLACK * r["wall_s"] + 0.002:
            problems.append(f"layer self-times sum to {c['self_sum_s']:.4f} s, "
                            f"traced wall is {r['wall_s']:.4f} s")
    return problems


def benchmark(w: Workload, seed: int, seconds: float, trace: bool, work: str) -> dict:
    x0 = initial_data(seed)
    initial_path = os.path.join(work, "initial.txt")
    np.savetxt(initial_path, x0, fmt="%.17g")
    with open(os.path.join(work, "config.json"), "w") as fh:
        json.dump(w.config(initial_path, os.path.join(work, "out")), fh, indent=1)
    ref = load_reference(w, seed, work)

    runs, problems = [], []
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_SAMPLES or time.perf_counter() < deadline:
        runs.append(run_once(w, work, False, ref))
        problems += runs[-1]["problems"]
        if problems:
            break
    timed = [r for r in runs if "wall_s" in r]
    traced = []
    if trace and not problems:
        for _ in range(TRACE_RUNS):
            traced.append(run_once(w, work, True, ref))
            problems += traced[-1]["problems"]
        if not problems:
            problems += trace_problems(traced)

    def median(values):
        values = list(values)
        return statistics.median(values) if values else float("nan")

    # timings are normalised by the machine slowdown measured around each run
    end_to_end = {name: median(r[name] / r["slowdown"] for r in timed)
                  for name in ("wall_s", "cpu_s", "setup_s")}
    end_to_end["peak_rss_mib"] = median(r["peak_rss_mib"] for r in timed)
    end_to_end["err_max"] = max((r.get("err_max", float("nan")) for r in runs),
                                default=float("nan"))
    raw = {"raw_wall_s": median(r["wall_s"] for r in timed),
           "raw_cpu_s": median(r["cpu_s"] for r in timed),
           "raw_setup_s": median(r["setup_s"] for r in timed),
           "slowdown": median(r["slowdown"] for r in timed)}
    per_layer = {}
    if traced and all("trace" in r for r in traced):
        per_layer = {name: median(r["trace"]["metrics"][name] for r in traced)
                     for name in PER_LAYER if name != "trace.overhead_s"}
        per_layer["trace.overhead_s"] = per_layer["trace.wall_s"] - raw["raw_wall_s"]
    attempted = len(runs) + len(traced)
    failed = sum(1 for r in runs + traced if r["problems"])
    return {"end_to_end": end_to_end, "raw": raw, "per_layer": per_layer,
            "samples": len(timed), "attempted": attempted, "failed": failed,
            "problems": problems}


def _finite_or_none(value):
    return value if value is not None and np.isfinite(value) else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="coagkin benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "coagkin", "cli.py")):
        print(f"error: no coagkin source under {SRC}; run from a coagkin checkout",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = os.path.join(WORK_ROOT, f"{w.name}-{os.getpid()}")
    os.makedirs(work)
    try:
        res = benchmark(w, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it

    for p in res["problems"]:
        print(f"FAIL: {p}", file=sys.stderr)
    print(f"workload {w.name}  seed {args.seed}  samples {res['samples']}  (timings: medians "
          f"over the samples, divided by the slowdown; err_max: largest over all runs)")
    for name, value in res["end_to_end"].items():
        print(f"{name:32s} {value:.6g} {END_TO_END[name]}")
    for name, value in res["raw"].items():
        print(f"{name:32s} {value:.6g} {'1' if name == 'slowdown' else 's'}")
    print(f"{'failed_frac':32s} {res['failed'] / max(res['attempted'], 1):.6g} "
          f"({res['failed']}/{res['attempted']} runs)")
    for name, value in res["per_layer"].items():
        print(f"{name:32s} {value:.6g} {PER_LAYER[name]}")

    correct = not res["problems"]
    if args.trace:
        units, values = PER_LAYER, res["per_layer"]
    else:
        units, values = END_TO_END, res["end_to_end"]
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        # a metric with no value (the run stopped at a failure) is null
        "metrics": {name: {"value": _finite_or_none(values.get(name)), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
