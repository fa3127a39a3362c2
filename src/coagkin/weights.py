"""Convex weight functions for moment bounds and tail control.

A weight G is nonnegative and convex with G(0) = 0, G'(0) >= 0 and a
concave nondecreasing derivative. Two representations are supported:

* ``power``: G(x) = x**p with p in [1, 2] (superlinear for p > 1),
* ``piecewise``: G is the integral of a continuous piecewise-linear
  nondecreasing concave derivative given by knots and values.

``construct_tail_weight`` builds, from nonnegative size data, a
superlinear piecewise weight whose weighted sum against that data is
provably bounded: it is the constructive counterpart of picking a
uniform-integrability weight for a summable sequence.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .reports import ExperimentReport

G1 = "G1"
G1_INFINITY = "G1_infinity"

# knots of a constructed tail weight: its derivative rises to TAIL_KNOTS
TAIL_KNOTS = 40
# random points on [0, INVARIANT_X_MAX] at which the class invariants are sampled
INVARIANT_X_MAX = 1e3
INVARIANT_POINTS = 400


@dataclass(frozen=True, eq=False)
class ConvexWeight:
    kind: str                     # "power" | "piecewise"
    class_tag: str                # G1 | G1_infinity
    name: str
    p: float | None = None
    knots: np.ndarray | None = None
    derivative_values: np.ndarray | None = None
    degenerate: bool = False      # set when construction fell back to identity

    def __post_init__(self):
        if self.kind == "power":
            if self.p is None or not 1.0 <= self.p <= 2.0:
                raise ValueError(f"power weight needs p in [1, 2], got {self.p}")
        elif self.kind == "piecewise":
            kn = np.asarray(self.knots, dtype=float)
            dv = np.asarray(self.derivative_values, dtype=float)
            if kn.ndim != 1 or kn.shape != dv.shape or kn.size < 2:
                raise ValueError("piecewise weight needs matching knot/value arrays, length >= 2")
            if kn[0] != 0.0:
                raise ValueError("first knot must sit at 0")
            gaps = np.diff(kn)
            if np.any(gaps <= 0):
                raise ValueError("knots must be strictly increasing")
            if np.any(np.diff(dv) < 0):
                raise ValueError("derivative values must be nondecreasing (convexity)")
            slopes = np.diff(dv) / gaps
            if np.any(np.diff(slopes) > 1e-12 * np.maximum(1.0, slopes[:-1])):
                raise ValueError("derivative slopes must be nonincreasing (concavity of G')")
            if dv[0] < 0:
                raise ValueError("G'(0) must be nonnegative")
            object.__setattr__(self, "knots", kn)
            object.__setattr__(self, "derivative_values", dv)
            # cumulative integral of the piecewise-linear derivative at knots
            seg = gaps * 0.5 * (dv[:-1] + dv[1:])
            object.__setattr__(self, "_gknots", np.concatenate([[0.0], np.cumsum(seg)]))
        else:
            raise ValueError(f"unknown weight kind {self.kind!r}")

    def to_dict(self) -> dict:
        if self.kind == "power":
            return {"kind": "power", "class_tag": self.class_tag, "name": self.name, "p": self.p}
        return {
            "kind": "piecewise",
            "class_tag": self.class_tag,
            "name": self.name,
            "knots": [float(v) for v in self.knots],
            "derivative_values": [float(v) for v in self.derivative_values],
            "degenerate": self.degenerate,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ConvexWeight":
        if d["kind"] == "power":
            return power_weight(d["p"], name=d.get("name"))
        return cls(
            kind="piecewise",
            class_tag=d["class_tag"],
            name=d.get("name", "piecewise"),
            knots=np.asarray(d["knots"], dtype=float),
            derivative_values=np.asarray(d["derivative_values"], dtype=float),
            degenerate=bool(d.get("degenerate", False)),
        )


def power_weight(p: float, name: str | None = None) -> ConvexWeight:
    """G(x) = x**p; in the base class for p in [1, 2], superlinear for p > 1."""
    tag = G1_INFINITY if p > 1.0 else G1
    return ConvexWeight(kind="power", class_tag=tag, name=name or f"x^{p:g}", p=float(p))


def identity_weight() -> ConvexWeight:
    return power_weight(1.0, name="x")


def _check_domain(x):
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ValueError("weights are defined on x >= 0")
    return arr


def evaluate(weight: ConvexWeight, x) -> np.ndarray | float:
    """G(x), exact for power weights, closed-form quadratic per segment otherwise."""
    arr = _check_domain(x)
    scalar = np.isscalar(x) or getattr(x, "ndim", 1) == 0
    if weight.kind == "power":
        out = arr**weight.p
    else:
        kn = weight.knots
        dv = weight.derivative_values
        gk = weight._gknots
        seg = np.clip(np.searchsorted(kn, arr, side="right") - 1, 0, kn.size - 2)
        x0 = kn[seg]
        dx = arr - x0
        slope = (dv[seg + 1] - dv[seg]) / (kn[seg + 1] - kn[seg])
        # beyond the last knot the derivative continues with the final slope
        out = gk[seg] + dx * dv[seg] + 0.5 * slope * dx * dx
    return float(out) if scalar else out


def evaluate_derivative(weight: ConvexWeight, x) -> np.ndarray | float:
    """G'(x); piecewise-linear continuation beyond the last knot."""
    arr = _check_domain(x)
    scalar = np.isscalar(x) or getattr(x, "ndim", 1) == 0
    if weight.kind == "power":
        p = weight.p
        with np.errstate(divide="ignore"):
            out = np.where(arr > 0, p * arr ** (p - 1.0), p if p == 1.0 else 0.0)
        if p > 1.0:
            out = np.where(arr == 0, 0.0, out)
    else:
        kn = weight.knots
        dv = weight.derivative_values
        seg = np.clip(np.searchsorted(kn, arr, side="right") - 1, 0, kn.size - 2)
        slope = (dv[seg + 1] - dv[seg]) / (kn[seg + 1] - kn[seg])
        out = dv[seg] + slope * (arr - kn[seg])
    return float(out) if scalar else out


def check_inequality(weight: ConvexWeight, max_size: int) -> ExperimentReport:
    """Exhaustive check of the convexity collision inequality on a grid.

    For every 1 <= i, j <= max_size verifies

        (i + j) * (G(i+j) - G(i) - G(j)) <= 2 * (i G(j) + j G(i))

    and reports the largest left/right ratio. G(x) = x**2 saturates the
    bound (equality); linear G makes the left side vanish.
    """
    if max_size < 2:
        raise ValueError(f"max_size must be >= 2, got {max_size}")
    n = int(max_size)
    g1 = np.asarray(evaluate(weight, np.arange(1, 2 * n + 1, dtype=float)))
    gi = g1[:n]
    i = np.arange(1, n + 1, dtype=float)
    ii, jj = np.meshgrid(i, i, indexing="ij")
    g_sum = g1[(ii + jj).astype(int) - 1]
    lhs = (ii + jj) * (g_sum - gi[:, None] - gi[None, :])
    rhs_ = 2.0 * (ii * gi[None, :] + jj * gi[:, None])
    slack = 1e-12 * (np.abs(lhs) + np.abs(rhs_) + 1.0)
    viol = lhs > rhs_ + slack
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(rhs_ > 0, lhs / rhs_, 0.0)
    metrics = {
        "violations": float(viol.sum()),
        "max_lhs_rhs_ratio": float(ratio.max()),
    }
    if viol.any():
        flat = int(np.argmax(viol.reshape(-1)))
        vi, vj = divmod(flat, n)
        metrics["first_violation_i"] = float(vi + 1)
        metrics["first_violation_j"] = float(vj + 1)
    return ExperimentReport.build(
        name="weight_inequality",
        metrics=metrics,
        thresholds={"violations": 0.0},
        config_echo={"weight": weight.name, "max_size": n},
    )


def construct_tail_weight(initial, tail_budget: float = 1.0) -> ConvexWeight:
    """Build a superlinear weight adapted to nonnegative size data.

    Knots n_m are placed where the weighted tail sum_{i >= n_m} i*xi_i
    drops below tail_budget * 2**(-m), pushed out as needed so knot gaps
    never shrink (this keeps the derivative slopes nonincreasing, i.e.
    G' concave, structurally). The derivative rises by exactly 1 per
    knot, so G' < m+1 below the (m+1)-th knot and

        sum_i G(i) xi_i  <=  M1 + tail_budget * sum_{m>=1} (m+1) 2**-m
                          =  M1 + 3 * tail_budget.

    Zero-mass data has no tail to control; the identity weight is
    returned with ``degenerate=True``.
    """
    if not tail_budget > 0:
        raise ValueError(f"tail_budget must be positive, got {tail_budget}")
    xi = np.asarray(getattr(initial, "values", initial), dtype=float)
    if np.any(xi < 0):
        raise ValueError("size data must be nonnegative")
    sizes = np.arange(1, xi.size + 1, dtype=float)
    weighted = sizes * xi
    total_mass = float(weighted.sum())
    if total_mass == 0.0:
        return ConvexWeight(kind="power", class_tag=G1, name="x (degenerate)",
                            p=1.0, degenerate=True)

    # tail(N) = sum_{i>=N} i*xi_i ; tail(xi.size + 1) == 0 always
    tails = np.concatenate([np.cumsum(weighted[::-1])[::-1], [0.0]])

    knots = [0.0]
    prev_gap = 0.0
    for m in range(1, TAIL_KNOTS + 1):
        threshold = tail_budget * 2.0 ** (-m)
        hit = np.nonzero(tails <= threshold)[0]
        n_min = float(hit[0] + 1)
        candidate = max(n_min, knots[-1] + max(prev_gap, 1.0))
        prev_gap = candidate - knots[-1]
        knots.append(candidate)
    dvals = np.arange(0, TAIL_KNOTS + 1, dtype=float)
    return ConvexWeight(
        kind="piecewise",
        class_tag=G1_INFINITY,
        name=f"tail_weight(budget={tail_budget:g})",
        knots=np.asarray(knots),
        derivative_values=dvals,
    )


def sample_class_invariants(weight: ConvexWeight, rng=None) -> ExperimentReport:
    """Sampled verification of the weight-class invariants.

    Checks G(0) = 0, G'(0) >= 0, midpoint convexity of G, midpoint
    concavity of G', and (for superlinear weights) that G(x)/x increases
    along the sample and eventually exceeds 10.
    """
    rng = np.random.default_rng(rng)
    xs = np.sort(np.concatenate([
        rng.uniform(0.0, INVARIANT_X_MAX, INVARIANT_POINTS),
        np.linspace(0.0, INVARIANT_X_MAX, 32),
    ]))
    g = np.asarray(evaluate(weight, xs))
    gp = np.asarray(evaluate_derivative(weight, xs))
    mid = 0.5 * (xs[:-1] + xs[1:])
    g_mid = np.asarray(evaluate(weight, mid))
    gp_mid = np.asarray(evaluate_derivative(weight, mid))
    tol = 1e-9 * (1.0 + np.abs(g[:-1]) + np.abs(g[1:]))
    convex_viol = int(np.sum(g_mid > 0.5 * (g[:-1] + g[1:]) + tol))
    tolp = 1e-9 * (1.0 + np.abs(gp[:-1]) + np.abs(gp[1:]))
    concave_viol = int(np.sum(gp_mid < 0.5 * (gp[:-1] + gp[1:]) - tolp))

    metrics = {
        "g_at_zero": abs(float(evaluate(weight, 0.0))),
        "gprime_at_zero_negative": float(max(0.0, -float(evaluate_derivative(weight, 0.0)))),
        "convexity_violations": float(convex_viol),
        "gprime_concavity_violations": float(concave_viol),
    }
    thresholds = {
        "g_at_zero": 0.0,
        "gprime_at_zero_negative": 0.0,
        "convexity_violations": 0.0,
        "gprime_concavity_violations": 0.0,
    }
    if weight.class_tag == G1_INFINITY:
        if weight.kind == "piecewise":
            pts = weight.knots[1:]
        else:
            pts = np.geomspace(1.0, INVARIANT_X_MAX, 64)
        ratio = np.asarray(evaluate(weight, pts)) / pts
        metrics["superlinearity_nonincrease"] = float(np.sum(np.diff(ratio) <= 0))
        thresholds["superlinearity_nonincrease"] = 0.0
        if weight.kind == "piecewise":
            # constructed weights must witness G(x)/x -> inf along their knots
            metrics["superlinearity_peak_below_10"] = float(max(0.0, 10.0 - ratio.max()))
            thresholds["superlinearity_peak_below_10"] = 0.0
    return ExperimentReport.build(
        name="weight_class_invariants",
        metrics=metrics,
        thresholds=thresholds,
        config_echo={"weight": weight.name, "x_max": INVARIANT_X_MAX, "n_points": INVARIANT_POINTS},
    )
