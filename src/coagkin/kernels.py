"""Coagulation rate kernels and their admissibility checks.

A kernel assigns a nonnegative symmetric collision rate to every pair of
positive integer cluster sizes. Each kernel declares the constants of the
growth hypotheses it claims to satisfy:

* ``growth_constant_A``: rate(i, j) <= A * (i + j) everywhere,
* ``power_delta`` (optional): rate(i, j) <= A * (i**delta + j**delta),
* ``lower_bound_zeta`` (optional): rate(i, j) >= zeta everywhere.

Declared constants are user inputs; ``check_admissibility`` validates them
exhaustively on a finite grid rather than inferring them.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .numerics import is_number
from .reports import ExperimentReport

RateRule = Callable[[np.ndarray, np.ndarray], np.ndarray]

# Relative slack applied to growth-bound comparisons so that floating-point
# rules (e.g. fractional powers) are not flagged on rounding alone.
GROWTH_SLACK = 1e-12

# Cells per strip of the admissibility scan (about 64 KiB of float64).
STRIP_CELLS = 1 << 13

_VIOLATIONS = (
    "negativity_violations",
    "symmetry_violations",
    "growth_violations",
    "delta_violations",
    "zeta_violations",
)


class KernelRangeError(ValueError):
    """A kernel argument outside its range; ``arg`` names the argument."""

    def __init__(self, arg: str, message: str):
        super().__init__(message)
        self.arg = arg


@dataclass(frozen=True, eq=False)
class CoagulationKernel:
    """Symmetric nonnegative collision-rate table/rule on positive sizes.

    ``rule(i, j)`` takes integer arrays of sizes that broadcast against
    each other like the arguments of a ufunc (a column of i against a
    row of j spans a grid) and must not write to them. It evaluates
    elementwise; a result smaller than the broadcast grid, from a rule
    that ignores an argument, is broadcast to the grid. When the
    rate has the separable form a * (i**d + j**d) the ``separable`` pair
    (a, d) is set, which unlocks an O(k) right-hand-side fast path.
    Tabulated kernels store a dense lower-triangular matrix and mirror it
    on read, making symmetry structural.
    """

    name: str
    rule: RateRule
    growth_constant_A: float
    power_delta: float | None = None
    lower_bound_zeta: float | None = None
    separable: tuple[float, float] | None = None
    table: np.ndarray | None = None

    def __post_init__(self):
        if not self.growth_constant_A > 0:
            raise KernelRangeError("growth_constant_A",
                                   f"growth_constant_A must be positive, got {self.growth_constant_A}")
        if self.power_delta is not None and not 0.0 <= self.power_delta <= 1.0:
            raise KernelRangeError("power_delta",
                                   f"power_delta must lie in [0, 1], got {self.power_delta}")
        if self.lower_bound_zeta is not None and not self.lower_bound_zeta > 0:
            raise KernelRangeError("lower_bound_zeta",
                                   f"lower_bound_zeta must be positive, got {self.lower_bound_zeta}")

    def evaluate(self, i: int, j: int) -> float:
        """Rate for one (i, j) pair of positive integer sizes."""
        ii, jj = int(i), int(j)
        if ii != i or jj != j or ii < 1 or jj < 1:
            raise ValueError(f"cluster sizes must be integers >= 1, got ({i}, {j})")
        out = self.rule(np.array([ii]), np.array([jj]))
        return float(np.asarray(out).reshape(-1)[0])

    def rate_matrix(self, k: int) -> np.ndarray:
        """Fresh, writeable, dense (k, k) rate matrix for sizes 1..k."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        idx = np.arange(1, k + 1)
        g = _rate_block(self.rule, idx[:, None], idx[None, :])
        return g if g.flags.owndata and g.flags.writeable else np.array(g)

    @property
    def max_table_size(self) -> int | None:
        return None if self.table is None else self.table.shape[0]


def _rate_block(rule: RateRule, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Rates on the grid that the index arrays i and j broadcast to.

    A result smaller than the grid (a rule that ignores an argument) is
    returned as a read-only broadcast view of the full shape.
    """
    g = np.asarray(rule(i, j), dtype=float)
    shape = np.broadcast_shapes(i.shape, j.shape)
    return g if g.shape == shape else np.broadcast_to(g, shape)


def constant(c: float = 1.0, name: str | None = None) -> CoagulationKernel:
    """Constant kernel: rate(i, j) = c."""
    if not c > 0:
        raise KernelRangeError("c", f"constant rate must be positive, got {c}")
    cc = float(c)
    return CoagulationKernel(
        name=name or f"constant({cc:g})",
        rule=lambda i, j: np.full(np.broadcast(i, j).shape, cc),
        growth_constant_A=cc,          # c <= c*(i+j) since i+j >= 2
        power_delta=0.0,               # c <= c*(i^0 + j^0)
        lower_bound_zeta=cc,
        separable=(cc / 2.0, 0.0),
    )


def additive(a: float = 1.0, name: str | None = None) -> CoagulationKernel:
    """Additive kernel: rate(i, j) = a * (i + j), the borderline growth case."""
    if not a > 0:
        raise KernelRangeError("a", f"additive coefficient must be positive, got {a}")
    aa = float(a)
    return CoagulationKernel(
        name=name or f"additive({aa:g})",
        rule=lambda i, j: aa * (np.asarray(i, dtype=float) + np.asarray(j, dtype=float)),
        growth_constant_A=aa,
        power_delta=1.0,
        lower_bound_zeta=2.0 * aa,
        separable=(aa, 1.0),
    )


def power_sum(a: float = 1.0, exponent: float = 0.5, name: str | None = None) -> CoagulationKernel:
    """Power-sum kernel: rate(i, j) = a * (i**d + j**d) with d in [0, 1]."""
    if not a > 0:
        raise KernelRangeError("a", f"power-sum coefficient must be positive, got {a}")
    if not 0.0 <= exponent <= 1.0:
        raise KernelRangeError("exponent", f"power-sum exponent must lie in [0, 1], got {exponent}")
    aa, d = float(a), float(exponent)
    return CoagulationKernel(
        name=name or f"power({aa:g},{d:g})",
        rule=lambda i, j: aa * (np.asarray(i, dtype=float) ** d + np.asarray(j, dtype=float) ** d),
        growth_constant_A=aa,          # i**d <= i for i >= 1, d <= 1
        power_delta=d,
        lower_bound_zeta=2.0 * aa,
        separable=(aa, d),
    )


def tabulated(
    values: np.ndarray,
    growth_constant_A: float,
    power_delta: float | None = None,
    lower_bound_zeta: float | None = None,
    name: str = "table",
) -> CoagulationKernel:
    """Kernel backed by an explicit rate matrix for sizes 1..n.

    Only the lower triangle of ``values`` is stored; reads mirror it, so
    the kernel is symmetric by construction. Evaluation beyond the table
    is a domain error.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
        raise ValueError(f"table must be a square matrix, got shape {vals.shape}")
    low = np.tril(vals)
    n = low.shape[0]

    def rule(i, j, _low=low, _n=n):
        i = np.asarray(i)
        j = np.asarray(j)
        if i.max() > _n or j.max() > _n:
            raise ValueError(f"tabulated kernel covers sizes 1..{_n}, got sizes up to {max(i.max(), j.max())}")
        hi = np.maximum(i, j) - 1
        lo = np.minimum(i, j) - 1
        return _low[hi, lo]

    return CoagulationKernel(
        name=name,
        rule=rule,
        growth_constant_A=growth_constant_A,
        power_delta=power_delta,
        lower_bound_zeta=lower_bound_zeta,
        table=low,
    )


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def tabulated_from_csv(
    path: str,
    growth_constant_A: float,
    power_delta: float | None = None,
    lower_bound_zeta: float | None = None,
    name: str | None = None,
) -> CoagulationKernel:
    """Load a tabulated kernel from CSV rows ``i,j,gamma`` with i >= j.

    Missing pairs default to rate 0. Line 1 is a header when its first
    field is not a number; every other line is a row, and a size that is
    not an integer raises ``ValueError`` naming the path and line.
    """
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if lineno == 1 and not _is_number(parts[0]):
                continue  # header
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'i,j,gamma', got {line!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: sizes must be integers, got {line!r}") from None
            try:
                g = float(parts[2])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: gamma must be a number, got {line!r}") from None
            if i < 1 or j < 1:
                raise ValueError(f"{path}:{lineno}: sizes must be >= 1")
            if j > i:
                raise ValueError(f"{path}:{lineno}: rows must satisfy i >= j")
            rows.append((i, j, g))
    if not rows:
        raise ValueError(f"{path}: no kernel entries found")
    n = max(r[0] for r in rows)
    mat = np.zeros((n, n))
    for i, j, g in rows:
        mat[i - 1, j - 1] = g
    return tabulated(
        mat,
        growth_constant_A,
        power_delta=power_delta,
        lower_bound_zeta=lower_bound_zeta,
        name=name or f"table({path})",
    )


def from_rule(
    name: str,
    fn: Callable[[int, int], float],
    growth_constant_A: float,
    power_delta: float | None = None,
    lower_bound_zeta: float | None = None,
    vectorized: bool = False,
) -> CoagulationKernel:
    """Wrap an arbitrary scalar (or vectorized) rate function.

    A vectorized ``fn`` receives integer arrays that broadcast against
    each other like ufunc arguments, typically a column of i and a row
    of j, and may return any array that broadcasts to their grid; a
    scalar ``fn`` is called once per cell of that grid. The function
    must already be symmetric in its arguments; symmetry is verified by
    ``check_admissibility``, not assumed.
    """
    rule = fn if vectorized else np.vectorize(fn, otypes=[float])
    return CoagulationKernel(
        name=name,
        rule=rule,
        growth_constant_A=growth_constant_A,
        power_delta=power_delta,
        lower_bound_zeta=lower_bound_zeta,
    )


def demo_table(n: int = 64) -> CoagulationKernel:
    """Built-in tabulated example: rate(i, j) = 2 / (i + j) on sizes 1..n."""
    idx = np.arange(1, n + 1)
    mat = 2.0 / (idx[:, None] + idx[None, :])
    return tabulated(mat, growth_constant_A=0.5, power_delta=0.0,
                     lower_bound_zeta=1.0 / n, name=f"demo_table({n})")


def catalog(table_size: int = 64) -> dict[str, CoagulationKernel]:
    """The built-in kernel catalog: constant, additive, power-sum, tabulated."""
    return {
        "constant": constant(1.0),
        "additive": additive(1.0),
        "power": power_sum(1.0, 0.5),
        "table": demo_table(table_size),
    }


def check_admissibility(kernel: CoagulationKernel, max_size: int) -> ExperimentReport:
    """Exhaustively verify kernel hypotheses on the grid 1 <= i, j <= max_size.

    Checks nonnegativity, exact symmetry, the linear growth bound with
    declared A, and (when declared) the power-delta bound and the zeta
    lower bound. The first violation in row-major scan order (i outer,
    j inner) is reported in the metrics. Violations are report content,
    not exceptions. Tabulated kernels are checked up to their table size.

    The grid is scanned in strips and never materialised. Each block of
    rows r0 <= i < r1 evaluates its row strip (i in the block, j >= r0)
    and the mirror column strip (j in the block, i >= r1); comparing the
    two, and the diagonal square with its transpose, checks symmetry.
    Both strips are then folded with every mask, so every cell is
    evaluated once and counted once. The rule is called on a column of i
    against a row of j. A strip holds about ``STRIP_CELLS`` cells, and the
    column strip is folded in the layout it was evaluated in, one row per
    j in the block: every mask is symmetric in i and j, and a transposed
    view would run each of them over rows of a few cells. The bounds and
    masks of a strip are formed one at a time in scratch arrays allocated
    once per call, so the memory used does not grow with ``max_size``.
    """
    if max_size < 2:
        raise ValueError(f"max_size must be >= 2, got {max_size}")
    n = int(max_size)
    if kernel.max_table_size is not None and n > kernel.max_table_size:
        n = kernel.max_table_size
    idx = np.arange(1, n + 1)
    idx.flags.writeable = False  # rules receive views of it
    a = kernel.growth_constant_A
    d = kernel.power_delta
    zeta = kernel.lower_bound_zeta
    idx_pow = idx.astype(float) ** d if d is not None else None

    counts = dict.fromkeys(_VIOLATIONS, 0)
    max_ratio = -np.inf
    first = None  # (i, j, rate) of the row-major first violation so far
    # scratch for the largest strip: b rows of n - r0 cells, b = 1 past STRIP_CELLS cells
    cap = max(STRIP_CELLS, n)
    lin_buf, tmp_buf, mask_buf = np.empty(cap), np.empty(cap), np.empty(cap, dtype=bool)

    def tally(key, hit, union):
        """Count the cells of mask ``hit`` under key; union: the strip's violations so far."""
        hits = int(np.count_nonzero(hit))
        counts[key] += hits
        if not hits:
            return union
        return hit.copy() if union is None else np.logical_or(union, hit, out=union)

    def fold(g, rows, cols, asym, transposed=False):
        """Fold strip g[r, c] = rate(idx[rows][r], idx[cols][c]) into the tallies.

        ``asym`` is the strip's symmetry mask. A ``transposed`` strip holds
        g[r, c] = rate(idx[cols][c], idx[rows][r]): every mask is symmetric
        in the two sizes, so only its first violation is sought in that order.
        """
        nonlocal max_ratio, first
        if g.size == 0:
            return
        lin, tmp, mask = (buf[: g.size].reshape(g.shape) for buf in (lin_buf, tmp_buf, mask_buf))
        np.add(idx[rows, None], idx[None, cols], out=lin)
        lin *= a
        max_ratio = np.maximum(max_ratio, np.divide(g, lin, out=tmp).max())
        union = tally("negativity_violations", np.less(g, 0, out=mask), None)
        union = tally("symmetry_violations", asym, union)
        np.multiply(lin, 1.0 + GROWTH_SLACK, out=tmp)
        union = tally("growth_violations", np.greater(g, tmp, out=mask), union)
        if d is not None:
            np.add(idx_pow[rows, None], idx_pow[None, cols], out=tmp)
            tmp *= a
            tmp *= 1.0 + GROWTH_SLACK
            union = tally("delta_violations", np.greater(g, tmp, out=mask), union)
        if zeta is not None:
            np.less(g, zeta * (1.0 - GROWTH_SLACK), out=mask)
            union = tally("zeta_violations", mask, union)
        if union is not None:
            if transposed:
                union, g, rows, cols = union.T, g.T, cols, rows
            r, c = divmod(int(np.argmax(union)), g.shape[1])  # row-major in (i, j)
            cell = (int(idx[rows][r]), int(idx[cols][c]))
            if first is None or cell < first[:2]:
                first = (*cell, float(g[r, c]))

    r0 = 0
    while r0 < n:
        # as many rows as keep the row strip near STRIP_CELLS cells
        r1 = min(n, r0 + max(1, STRIP_CELLS // (n - r0)))
        b, rows = r1 - r0, slice(r0, r1)
        row_strip = _rate_block(kernel.rule, idx[rows, None], idx[None, r0:])
        # the column strip, transposed: col_t[r, c] = rate(idx[r1 + c], idx[r0 + r])
        # (the last block's is empty, and no rule is called on an empty grid)
        col_t = (_rate_block(kernel.rule, idx[None, r1:], idx[rows, None])
                 if r1 < n else row_strip[:, b:])
        square = row_strip[:, :b]
        asym = np.empty(row_strip.shape, dtype=bool)
        np.not_equal(square, square.T, out=asym[:, :b])
        np.not_equal(row_strip[:, b:], col_t, out=asym[:, b:])
        fold(row_strip, rows, slice(r0, n), asym)
        fold(col_t, rows, slice(r1, n), asym[:, b:], transposed=True)
        r0 = r1

    metrics = {key: float(count) for key, count in counts.items()}
    metrics["max_growth_ratio"] = float(max_ratio)
    if first is not None:
        metrics["first_violation_i"] = float(first[0])
        metrics["first_violation_j"] = float(first[1])
        metrics["first_violation_rate"] = first[2]

    return ExperimentReport.build(
        name="admissibility",
        metrics=metrics,
        thresholds=dict.fromkeys(_VIOLATIONS, 0.0),
        config_echo={
            "kernel": kernel.name,
            "max_size": n,
            "A": kernel.growth_constant_A,
            "delta": kernel.power_delta,
            "zeta": kernel.lower_bound_zeta,
        },
    )


# keys of a kernel block, and the params keys of each kernel type
KERNEL_KEYS = ("name", "type", "params", "A", "delta", "zeta")
_PARAMS = {"constant": ("c",), "additive": ("a",), "power": ("a", "exponent"), "table": ("path",)}
# the constructor of each built-in type; the params keys are its arguments
_BUILT_IN = {"constant": constant, "additive": additive, "power": power_sum}
# the kernel-block key of each declared constant
_DECLARED_KEYS = {"growth_constant_A": "A", "power_delta": "delta", "lower_bound_zeta": "zeta"}


def from_config(block: dict) -> CoagulationKernel:
    """Build a kernel from a run-config specification block.

    Expected shape::

        {"name": ..., "type": "constant"|"additive"|"power"|"table",
         "params": {...}, "A": ..., "delta": ..., "zeta": ...}

    For built-in types the declared constants default to the tight ones;
    explicit ``A``/``delta``/``zeta`` entries override them. Any other key,
    a params key foreign to the type, a value of the wrong kind or out of
    its range is a ``ConfigError`` naming its key path; a malformed
    table file is one under ``kernel.params.path``.
    """
    from .errors import ConfigError, reject_unknown_keys

    if not isinstance(block, dict):
        raise ConfigError("kernel", f"must be an object, got {block!r}")
    reject_unknown_keys("kernel", block, KERNEL_KEYS)
    ktype = block.get("type")
    if not isinstance(ktype, str) or ktype not in _PARAMS:
        raise ConfigError("kernel.type",
                          f"unknown kernel type {ktype!r}; valid types: {', '.join(_PARAMS)}")
    params = block.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("kernel.params", f"must be an object, got {params!r}")
    reject_unknown_keys("kernel.params", params, _PARAMS[ktype], f"a {ktype} kernel")
    for key, value in params.items():
        if not (isinstance(value, str) if key == "path" else is_number(value)):
            kind = "a string" if key == "path" else "a number"
            raise ConfigError(f"kernel.params.{key}", f"must be {kind}, got {value!r}")
    name = block.get("name")
    if name is not None and not isinstance(name, str):
        raise ConfigError("kernel.name", f"must be a string, got {name!r}")
    for key in ("A", "delta", "zeta"):
        value = block.get(key)
        if key in block and not (is_number(value) or (value is None and key != "A")):
            raise ConfigError(f"kernel.{key}", f"must be a number, got {value!r}")
    try:
        if ktype == "table":
            if "path" not in params:
                raise ConfigError("kernel.params.path", "tabulated kernel needs a CSV path")
            if "A" not in block:
                raise ConfigError("kernel.A", "tabulated kernel needs a declared growth constant")
            path = params["path"]
            try:
                return tabulated_from_csv(
                    path,
                    growth_constant_A=block["A"],
                    power_delta=block.get("delta"),
                    lower_bound_zeta=block.get("zeta"),
                    name=name,
                )
            except OSError as exc:
                raise ConfigError("kernel.params.path", f"cannot read {path!r}: {exc.strerror}") from exc
        kern = _BUILT_IN[ktype](**params, name=name)
        overrides = {}
        if "A" in block:
            overrides["growth_constant_A"] = float(block["A"])
        if "delta" in block:
            overrides["power_delta"] = block["delta"]
        if "zeta" in block:
            overrides["lower_bound_zeta"] = block["zeta"]
        return replace(kern, **overrides)
    except KernelRangeError as exc:
        key = _DECLARED_KEYS.get(exc.arg, f"params.{exc.arg}")
        raise ConfigError(f"kernel.{key}", str(exc)) from exc
    except ValueError as exc:  # otherwise only a table file's content is at fault
        raise ConfigError("kernel.params.path", str(exc)) from exc
