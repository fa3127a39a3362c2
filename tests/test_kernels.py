import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coagkin import kernels
from coagkin.errors import ConfigError
from coagkin.kernels import (
    GROWTH_SLACK,
    STRIP_CELLS,
    CoagulationKernel,
    additive,
    catalog,
    check_admissibility,
    constant,
    demo_table,
    from_rule,
    power_sum,
    tabulated,
    tabulated_from_csv,
)
from coagkin.reports import ExperimentReport


def test_evaluate_examples():
    assert constant(1.0).evaluate(5, 9) == 1.0
    assert additive(1.0).evaluate(2, 3) == 5.0
    assert power_sum(1.0, 0.5).evaluate(4, 9) == 5.0


def test_evaluate_rejects_nonpositive_sizes():
    k = constant(1.0)
    for i, j in [(0, 1), (1, 0), (-2, 3), (1.5, 2)]:
        with pytest.raises(ValueError):
            k.evaluate(i, j)


def test_symmetry_exact_on_grid():
    for kern in catalog(table_size=32).values():
        g = kern.rate_matrix(32)
        assert np.array_equal(g, g.T), kern.name


def test_rate_matrix_is_fresh_dense_and_writeable(monkeypatch):
    # a rule that ignores j returns a (k, 1) column, broadcast to the grid
    row_only = from_rule("row_only", lambda i, j: 0.5 * np.asarray(i, dtype=float),
                         growth_constant_A=1.0, vectorized=True)
    want = np.repeat(0.5 * np.arange(1.0, 9.0)[:, None], 8, axis=1)
    assert np.array_equal(row_only.rate_matrix(8), want)
    for kern in (constant(1.0), additive(1.0), demo_table(8), row_only):
        g = kern.rate_matrix(8)
        assert g.shape == (8, 8) and g.flags.owndata and g.flags.writeable, kern.name
        g[0, 0] = -1.0
        assert kern.rate_matrix(8)[0, 0] == kern.evaluate(1, 1), kern.name

    def refuse(self, k):
        raise AssertionError("the precheck must not build a rate matrix")

    monkeypatch.setattr(CoagulationKernel, "rate_matrix", refuse)
    for kern in catalog(table_size=64).values():
        assert check_admissibility(kern, 64).passed


def test_catalog_passes_admissibility():
    cat = catalog(table_size=64)
    assert set(cat) >= {"constant", "additive", "power", "table"}
    for kern in cat.values():
        rep = check_admissibility(kern, 64)
        assert rep.passed, (kern.name, rep.failing_metrics())


def test_constant_admissibility_at_100():
    rep = check_admissibility(constant(1.0), 100)
    assert rep.passed
    assert rep.metrics["max_growth_ratio"] <= 0.5  # 1 <= 1*(i+j), tight at (1,1)


def test_additive_with_understated_constant_fails_at_origin():
    bad = CoagulationKernel(
        name="additive_A_half",
        rule=additive(1.0).rule,
        growth_constant_A=0.5,
        separable=(1.0, 1.0),
    )
    rep = check_admissibility(bad, 10)
    assert not rep.passed
    assert rep.metrics["first_violation_i"] == 1.0
    assert rep.metrics["first_violation_j"] == 1.0


def test_product_rule_fails_first_at_2_3():
    prod = from_rule("product", lambda i, j: float(i * j), growth_constant_A=1.0)
    rep = check_admissibility(prod, 10)
    assert not rep.passed
    # (2,2) saturates the bound exactly, so the row-major scan lands on (2,3)
    assert (rep.metrics["first_violation_i"], rep.metrics["first_violation_j"]) == (2.0, 3.0)


def test_zeta_lower_bound_checked():
    bad = CoagulationKernel(
        name="constant_with_wrong_zeta",
        rule=constant(1.0).rule,
        growth_constant_A=1.0,
        lower_bound_zeta=2.0,
    )
    rep = check_admissibility(bad, 5)
    assert not rep.passed
    assert rep.metrics["zeta_violations"] > 0


def test_declared_constants_validated_at_construction():
    with pytest.raises(ValueError):
        constant(-1.0)
    with pytest.raises(ValueError):
        power_sum(1.0, 1.5)
    with pytest.raises(ValueError):
        CoagulationKernel(name="bad", rule=constant(1.0).rule, growth_constant_A=0.0)


def test_tabulated_mirror_and_bounds():
    mat = np.array([[1.0, 99.0], [2.0, 3.0]])  # upper triangle ignored
    k = tabulated(mat, growth_constant_A=2.0)
    assert k.evaluate(1, 2) == 2.0
    assert k.evaluate(2, 1) == 2.0
    assert k.evaluate(2, 2) == 3.0
    with pytest.raises(ValueError):
        k.evaluate(3, 1)
    with pytest.raises(ValueError):
        k.rate_matrix(3)


def test_tabulated_csv_roundtrip(tmp_path):
    p = tmp_path / "kern.csv"
    p.write_text("i,j,gamma\n1,1,1.0\n2,1,0.5\n2,2,0.25\n")
    k = tabulated_from_csv(str(p), growth_constant_A=1.0)
    assert k.evaluate(1, 2) == 0.5
    assert k.evaluate(2, 2) == 0.25
    rep = check_admissibility(k, 2)
    assert rep.passed


def test_tabulated_csv_rejects_upper_triangle(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2,0.5\n")
    with pytest.raises(ValueError, match="i >= j"):
        tabulated_from_csv(str(p), growth_constant_A=1.0)


def test_tabulated_csv_first_line_is_a_header_only_when_not_a_number(tmp_path):
    p = tmp_path / "k.csv"
    p.write_text("+1,1,2.0\n2,1,0.5\n")  # a signed first size is a number: the line is a row
    assert tabulated_from_csv(str(p), growth_constant_A=1.0).evaluate(1, 1) == 2.0
    p.write_text("size_i,j,gamma\n+1,1,2.0\n")
    assert tabulated_from_csv(str(p), growth_constant_A=1.0).evaluate(1, 1) == 2.0
    for text, lineno in (("1.0,1,2.0\n2,1,0.5\n", 1), ("1,1,2.0\n2,1.5,0.5\n", 2), ("i,j,gamma\n1e0,1,2.0\n", 2)):
        p.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:{lineno}: sizes must be integers"):
            tabulated_from_csv(str(p), growth_constant_A=1.0)
    p.write_text("1,1,fast\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:1: gamma must be a number"):
        tabulated_from_csv(str(p), growth_constant_A=1.0)


def test_demo_table_is_admissible():
    rep = check_admissibility(demo_table(16), 16)
    assert rep.passed


def test_from_config_builds_all_types(tmp_path):
    assert kernels.from_config({"type": "constant", "params": {"c": 2.0}}).evaluate(3, 3) == 2.0
    assert kernels.from_config({"type": "additive", "params": {"a": 0.5}}).evaluate(2, 2) == 2.0
    k = kernels.from_config({"type": "power", "params": {"a": 1.0, "exponent": 0.5}})
    assert k.evaluate(4, 4) == 4.0
    p = tmp_path / "k.csv"
    p.write_text("1,1,0.5\n")
    k = kernels.from_config({"type": "table", "params": {"path": str(p)}, "A": 1.0})
    assert k.evaluate(1, 1) == 0.5
    with pytest.raises(ConfigError):
        kernels.from_config({"type": "bogus"})
    with pytest.raises(ConfigError):
        kernels.from_config({"type": "table", "params": {}})


def test_from_config_constant_overrides():
    k = kernels.from_config({"type": "constant", "params": {"c": 1.0}, "A": 3.0, "zeta": 0.5})
    assert k.growth_constant_A == 3.0
    assert k.lower_bound_zeta == 0.5
    assert k.separable is not None  # structure survives the override


def test_from_config_table_errors_name_their_key(tmp_path):
    p = tmp_path / "k.csv"
    p.write_text("1,1,0.5\n")
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,0.5\n")
    for block, key in [
        ({"type": "table", "params": {"path": str(p)}, "A": -1.0}, "kernel.A"),
        ({"type": "table", "params": {"path": str(p)}, "A": 1.0, "delta": 2.0}, "kernel.delta"),
        ({"type": "table", "params": {"path": str(p)}, "A": 1.0, "zeta": 0.0}, "kernel.zeta"),
        ({"type": "table", "params": {"path": str(bad)}, "A": 1.0}, "kernel.params.path"),
    ]:
        with pytest.raises(ConfigError) as info:
            kernels.from_config(block)
        assert info.value.field == key, block


def test_from_config_overrides_keep_structure(tmp_path):
    base = kernels.from_config({"type": "power", "params": {"a": 1.0, "exponent": 0.5}})
    k = kernels.from_config({"type": "power", "params": {"a": 1.0, "exponent": 0.5},
                             "A": 2.0, "delta": 0.75, "zeta": 1.0})
    assert (k.growth_constant_A, k.power_delta, k.lower_bound_zeta) == (2.0, 0.75, 1.0)
    assert k.separable == base.separable == (1.0, 0.5)
    assert k.name == base.name and k.evaluate(4, 9) == base.evaluate(4, 9)
    p = tmp_path / "k.csv"
    p.write_text("1,1,0.5\n2,1,0.25\n")
    t = kernels.from_config({"type": "table", "params": {"path": str(p)},
                             "A": 2.0, "delta": 0.5, "zeta": 0.1})
    assert (t.growth_constant_A, t.power_delta, t.lower_bound_zeta) == (2.0, 0.5, 0.1)
    assert t.max_table_size == 2 and t.table[1, 0] == 0.25


def dense_admissibility(kernel, max_size):
    """Independent oracle: the whole max_size x max_size grid held at once."""
    n = int(max_size)
    if kernel.max_table_size is not None and n > kernel.max_table_size:
        n = kernel.max_table_size
    idx = np.arange(1, n + 1)
    ii, jj = np.meshgrid(idx, idx, indexing="ij")
    g = np.asarray(kernel.rule(ii, jj), dtype=float)
    a = kernel.growth_constant_A
    lin_bound = a * (ii + jj)
    neg = g < 0
    asym = g != g.T
    growth = g > lin_bound * (1.0 + GROWTH_SLACK)
    if kernel.power_delta is not None:
        d = kernel.power_delta
        delta_bound = a * (ii.astype(float) ** d + jj.astype(float) ** d)
        delta_viol = g > delta_bound * (1.0 + GROWTH_SLACK)
    else:
        delta_viol = np.zeros_like(neg)
    if kernel.lower_bound_zeta is not None:
        zeta_viol = g < kernel.lower_bound_zeta * (1.0 - GROWTH_SLACK)
    else:
        zeta_viol = np.zeros_like(neg)
    metrics = {
        "negativity_violations": float(neg.sum()),
        "symmetry_violations": float(asym.sum()),
        "growth_violations": float(growth.sum()),
        "delta_violations": float(delta_viol.sum()),
        "zeta_violations": float(zeta_viol.sum()),
        "max_growth_ratio": float((g / lin_bound).max()),
    }
    union = neg | asym | growth | delta_viol | zeta_viol
    if union.any():
        vi, vj = divmod(int(np.argmax(union.reshape(-1))), n)
        metrics["first_violation_i"] = float(vi + 1)
        metrics["first_violation_j"] = float(vj + 1)
        metrics["first_violation_rate"] = float(g[vi, vj])
    return ExperimentReport.build(
        name="admissibility",
        metrics=metrics,
        thresholds={key: 0.0 for key in metrics if key.endswith("_violations")},
        config_echo={
            "kernel": kernel.name,
            "max_size": n,
            "A": kernel.growth_constant_A,
            "delta": kernel.power_delta,
            "zeta": kernel.lower_bound_zeta,
        },
    )


def _pair(i, j, p, q):
    """Mask of the cells (p, q) and (q, p)."""
    return ((i == p) & (j == q)) | ((i == q) & (j == p))


def symmetric_spike():
    """Growth violations at (3, 250) and its mirror (250, 3), nowhere else."""
    return from_rule("symmetric_spike_3_250",
                     lambda i, j: np.where(_pair(i, j, 3, 250), 1000.0, 1.0),
                     growth_constant_A=1.0, vectorized=True)


def _equivalence_kernels():
    asym_table = np.arange(1.0, 26.0).reshape(5, 5) / 10.0
    return [
        *catalog(table_size=64).values(),
        from_rule("asymmetric", lambda i, j: (i + 2.0 * j) / 3.0, growth_constant_A=1.0),
        # first violation (201, 201) lies in a later block than the first
        from_rule("negative_above_200",
                  lambda i, j: np.where(np.minimum(i, j) > 200, -1.0, 1.0),
                  growth_constant_A=1.0, vectorized=True),
        # a lone bad cell below the diagonal, deep in a column strip
        from_rule("spike_at_250_3",
                  lambda i, j: np.where((i == 250) & (j == 3), 9.0, 1.0),
                  growth_constant_A=1.0, vectorized=True),
        symmetric_spike(),
        # an asymmetric cell, (200, 5), beside a symmetric spike at (100, 300):
        # both cells of the pair count as symmetry violations, the spike's as growth only
        from_rule("one_asymmetric_pair",
                  lambda i, j: np.where(((i == 200) & (j == 5)) | _pair(i, j, 100, 300),
                                        1000.0, 1.0),
                  growth_constant_A=1.0, vectorized=True),
        CoagulationKernel(name="wrong_zeta", rule=constant(1.0).rule,
                          growth_constant_A=1.0, lower_bound_zeta=2.0),
        CoagulationKernel(name="understated_delta", rule=additive(1.0).rule,
                          growth_constant_A=1.0, power_delta=0.5),
        CoagulationKernel(name="asymmetric_table",
                          rule=lambda i, j: asym_table[i - 1, j - 1],
                          growth_constant_A=1.0, table=asym_table),
        # -0.0 is not negative, so these cells are no negativity violations
        from_rule("negative_zero", lambda i, j: np.where((i + j) % 7 == 0, -0.0, 1.0),
                  growth_constant_A=1.0, vectorized=True),
        from_rule("symmetric_inf_pair", lambda i, j: np.where(_pair(i, j, 3, 250), np.inf, 1.0),
                  growth_constant_A=1.0, vectorized=True),
        # ignores j: every strip comes back as a (rows, 1) column or a (1, cols) row
        from_rule("row_only", lambda i, j: 0.5 * np.asarray(i, dtype=float),
                  growth_constant_A=1.0, vectorized=True),
        # symmetric pairs, each cell counted once, in its own strip: one zeta hit each ...
        from_rule("zeta_dip_pair", lambda i, j: np.where(_pair(i, j, 3, 250), 0.5, 1.0),
                  growth_constant_A=1.0, lower_bound_zeta=1.0, vectorized=True),
        # ... and one delta hit each: 3.5 > 2**0.5 + 3**0.5 but below 2 + 3, so
        # only the delta bound is broken
        from_rule("delta_spike_pair", lambda i, j: np.where(_pair(i, j, 2, 3), 3.5, 1.0),
                  growth_constant_A=1.0, power_delta=0.5, vectorized=True),
        # all negative, the largest ratio (-1/260) in a later block than -1/151:
        # max_growth_ratio is the largest over all blocks, not the first block's
        from_rule("negative_late_max",
                  lambda i, j: np.where(_pair(i, j, 1, 150) | _pair(i, j, 60, 200), -1.0, -1e6),
                  growth_constant_A=1.0, vectorized=True),
    ]


@pytest.mark.parametrize("n", [2, 3, 300, 333, 700])
def test_streamed_admissibility_matches_dense_oracle(n):
    for kern in _equivalence_kernels():
        assert check_admissibility(kern, n).to_dict() == dense_admissibility(kern, n).to_dict(), (
            kern.name, n)


@pytest.mark.parametrize("n", [300, 333, 700])
def test_symmetric_spike_counts_both_cells(n):
    metrics = check_admissibility(symmetric_spike(), n).metrics
    assert metrics["growth_violations"] == 2.0
    assert (metrics["first_violation_i"], metrics["first_violation_j"]) == (3.0, 250.0)


@pytest.mark.parametrize("n", [300, 333])
def test_symmetric_nan_pair_counts_as_asymmetric(n):
    # NaN != NaN, so both cells of the pair are symmetry violations, and the
    # NaN rate makes max_growth_ratio and first_violation_rate NaN
    kern = from_rule("nan_pair", lambda i, j: np.where(_pair(i, j, 3, 250), np.nan, 1.0),
                     growth_constant_A=1.0, vectorized=True)
    got = check_admissibility(kern, n).metrics
    want = dense_admissibility(kern, n).metrics
    for key in ("max_growth_ratio", "first_violation_rate"):
        assert np.isnan(got.pop(key)) and np.isnan(want.pop(key)), key
    assert got == want
    assert got["symmetry_violations"] == 2.0
    assert (got["first_violation_i"], got["first_violation_j"]) == (3.0, 250.0)


def _assert_same_report(got, want):
    """Equal report dicts, a NaN metric matching only a NaN."""
    got, want = got.to_dict(), want.to_dict()
    got_m, want_m = got.pop("metrics"), want.pop("metrics")
    assert got == want
    assert got_m.keys() == want_m.keys()
    for key, value in got_m.items():
        assert value == want_m[key] or (np.isnan(value) and np.isnan(want_m[key])), (
            key, value, want_m[key])


# negative, -0.0, 0, subnormal, small, moderate, huge, NaN, inf
SPECIAL_RATES = (-1.0, -0.0, 0.0, 5e-324, 0.25, 1.0, 1e300, np.nan, np.inf)


@st.composite
def drawn_tables(draw):
    """A table-backed kernel on sizes 1..n, n <= 40, with drawn declared constants.

    The table is a flat or (i + j)-shaped base with a few special cells, or
    special values throughout; symmetric tables mirror every cell.
    """
    n = draw(st.integers(2, 40))
    s = np.arange(1, n + 1)[:, None] + np.arange(1, n + 1)[None, :]
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        table = rng.choice(SPECIAL_RATES, size=(n, n))
    else:
        base = draw(st.sampled_from((-1.0, 0.0, 0.25, 1.0)))
        table = base * (np.ones((n, n)) if draw(st.booleans()) else s)
        cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from(SPECIAL_RATES))
        for i, j, rate in draw(st.lists(cells, max_size=6)):
            table[i, j] = rate
    if draw(st.booleans()):
        table = np.where(np.tri(n, dtype=bool), table, table.T)
    return CoagulationKernel(
        name="drawn_table",
        rule=lambda i, j: table[i - 1, j - 1],
        growth_constant_A=draw(st.sampled_from((0.125, 0.25, 1.0, 4.0))),
        power_delta=draw(st.sampled_from((None, 0.0, 0.5, 1.0))),
        lower_bound_zeta=draw(st.sampled_from((None, 0.25, 1.0))),
        table=table,
    )


@settings(max_examples=200)
@given(kern=drawn_tables(), strip_cells=st.sampled_from((1, 2, 3, 5, 8, 13, 40, 100, 2000)))
def test_streamed_admissibility_matches_dense_oracle_on_drawn_tables(kern, strip_cells):
    # small strips give multi-row, ragged blocks on these small grids
    with mock.patch.object(kernels, "STRIP_CELLS", strip_cells):
        got = check_admissibility(kern, kern.max_table_size)
    _assert_same_report(got, dense_admissibility(kern, kern.max_table_size))


@pytest.mark.parametrize("kern,ratio", [
    (constant(1.0), 0.5), (additive(1.0), 1.0), (power_sum(1.0, 0.5), 1.0),
], ids=["constant", "additive", "power"])
def test_precheck_report_at_cli_scale(kern, ratio):
    # verify admissibility's default grid at k=1024, beyond the dense oracle's reach
    metrics = check_admissibility(kern, 4096).metrics
    assert {key: metrics[key] for key in kernels._VIOLATIONS} == dict.fromkeys(
        kernels._VIOLATIONS, 0.0)
    assert metrics["max_growth_ratio"] == ratio
    assert "first_violation_i" not in metrics


def test_streamed_admissibility_memory_does_not_grow_with_grid():
    tracemalloc.start()
    try:
        rep = check_admissibility(constant(1.0), 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.config_echo["max_size"] == 4096
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_streamed_admissibility_evaluates_each_pair_once():
    calls = 0

    def rate(i, j):
        nonlocal calls
        calls += 1
        return 1.0

    n = 300
    check_admissibility(from_rule("counted", rate, growth_constant_A=1.0), n)
    block = max(1, STRIP_CELLS // n)
    assert n * n <= calls <= n * n + n * block
