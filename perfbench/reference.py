"""Independent reference trajectories for the benchmark's correctness gate.

Integrates the truncated splash-coagulation system with scipy's DOP853
(rtol 1e-13) on a right-hand side written here from the defining sums,
sharing no code with coagkin. It stores xi_1..xi_8, M0 and M1 at every
sample of every trajectory a workload writes.

scipy is not a dependency of coagkin; this generator is the only benchmark
file that imports it. The harness runs it in its own process when no
stored reference exists for the seed.

    python3 perfbench/reference.py --workload NAME --seed N --out FILE
    python3 perfbench/reference.py --store      # rewrite perfbench/ref/ for the default seed
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np
from scipy.integrate import solve_ivp

from workloads import DEFAULT_SEED, INITIAL_SIZES, WORKLOADS, Workload, initial_data, stored_reference

RTOL = 1e-13
ATOL = 1e-18


def make_rhs(kernel: dict, k: int):
    """dxi_i/dt = xi_{i-1} S_{i-1} - xi_i (S_i + T_i) with
    S_i = sum_{j<=i} j rate(i,j) xi_j and T_i = sum_{j>=i} rate(i,j) xi_j."""
    j = np.arange(1, k + 1, dtype=float)
    params = kernel["params"]
    if kernel["type"] == "constant":
        c = float(params["c"])

        def parts(x):
            return c * np.cumsum(j * x), c * np.cumsum(x[::-1])[::-1]
    elif kernel["type"] == "power":
        p = j ** float(params["exponent"])
        rate = float(params["a"]) * (p[:, None] + p[None, :])
        low, up = np.tril(rate), np.triu(rate)

        def parts(x):
            return low @ (j * x), up @ x
    else:
        raise ValueError(f"no reference right-hand side for kernel {kernel['type']!r}")

    def f(_t, x):
        s, t = parts(x)
        out = -x * (s + t)
        out[1:] += x[:-1] * s[:-1]
        return out

    return f


def trajectory(w: Workload, x0: np.ndarray, k: int) -> dict:
    y0 = np.zeros(k)
    y0[: x0.size] = x0
    times = w.sample_times()
    sol = solve_ivp(make_rhs(w.kernel, k), (0.0, w.t_end), y0, method="DOP853",
                    t_eval=times, rtol=RTOL, atol=ATOL)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    ys = sol.y.T
    sizes = np.arange(1, k + 1, dtype=float)
    return {
        "xi": [[float(v) for v in row[:INITIAL_SIZES]] for row in ys],
        "M0": [math.fsum(row) for row in ys],
        "M1": [math.fsum(sizes * row) for row in ys],
    }


def generate(w: Workload, seed: int) -> dict:
    x0 = initial_data(seed)
    return {
        "workload": w.name,
        "seed": seed,
        "method": f"scipy solve_ivp DOP853 rtol={RTOL:g} atol={ATOL:g}",
        "x0": x0.tolist(),
        "runs": {str(k): trajectory(w, x0, k) for k in w.trajectories()},
    }


def write(path: str, ref: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(ref, fh, separators=(",", ":"))
    os.replace(tmp, path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--out")
    ap.add_argument("--store", action="store_true",
                    help="write the default-seed references of every workload to perfbench/ref/")
    args = ap.parse_args(argv)
    if args.store:
        for name, w in WORKLOADS.items():
            write(stored_reference(name, DEFAULT_SEED), generate(w, DEFAULT_SEED))
        return 0
    if not (args.workload and args.out):
        ap.error("--workload and --out are required unless --store is given")
    write(args.out, generate(WORKLOADS[args.workload], args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
