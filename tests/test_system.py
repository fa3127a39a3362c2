import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import TrimmedRhs, rhs_oracle

from coagkin.diagnostics import moment
from coagkin.errors import NumericError
from coagkin.kernels import (
    CoagulationKernel,
    additive,
    catalog,
    constant,
    demo_table,
    from_rule,
    power_sum,
)
from coagkin.system import (
    GEMM_CELLS,
    RhsEvaluator,
    SizeDistribution,
    StateStack,
    finite_identity_rate,
    geometric,
    mass_leak_rate,
    monomer,
    occupied_size,
    prefix_columns,
    rhs,
    weak_form_rate,
    _quadratic_forms,
)

CATALOG = list(catalog(table_size=64).values())


def state(values):
    arr = np.asarray(values, dtype=float)
    return SizeDistribution(arr, arr.size)


# frozen worked examples (constant kernel, hand-checkable)

def test_rhs_monomer_k3():
    out = rhs(state([1.0, 0.0, 0.0]), constant(1.0))
    assert np.array_equal(out, [-2.0, 1.0, 0.0])


def test_rhs_two_species_k3():
    out = rhs(state([1.0, 1.0, 0.0]), constant(1.0))
    assert np.array_equal(out, [-3.0, -3.0, 3.0])


def test_rhs_zero_state_is_fixed_point():
    for kern in CATALOG:
        assert np.array_equal(rhs(state(np.zeros(5)), kern), np.zeros(5))


def test_weak_form_examples():
    k1 = constant(1.0)
    assert weak_form_rate(np.arange(1.0, 4), state([1.0, 0.0, 0.0]), k1) == 0.0
    assert weak_form_rate(np.arange(1.0, 3), state([1.0, 1.0]), k1) == -9.0
    assert weak_form_rate(np.zeros(3), state([1.0, 1.0, 0.5]), k1) == 0.0


def test_finite_identity_examples():
    k1 = constant(1.0)
    # value pinned by the independent route d/dt sum_{i<=q} xi_i = sum_{i<=q} rhs_i
    s = state([1.0, 0.0, 0.0, 0.0])
    expected = float(np.sum(rhs(s, k1)[:3]))
    assert expected == -1.0
    assert finite_identity_rate(np.ones(3), s, k1, 3) == expected
    assert finite_identity_rate(np.zeros(2), state([1.0, 1.0, 0.0]), k1, 2) == 0.0
    assert finite_identity_rate(np.arange(1.0, 3), state([1.0, 1.0, 0.0]), k1, 2) == -9.0


def test_finite_identity_contract_errors():
    s = state([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        finite_identity_rate(np.ones(4), s, constant(1.0), 4)  # q > k
    with pytest.raises(ValueError):
        finite_identity_rate(np.ones(3), s, constant(1.0), 2)  # length mismatch


def test_weak_form_length_mismatch():
    with pytest.raises(ValueError):
        weak_form_rate(np.arange(1.0, 3), state([1.0, 0.0, 0.0]), constant(1.0))


def test_rhs_rejects_nonfinite():
    s = SizeDistribution(np.array([1.0, np.nan, 0.0]), 3)
    with pytest.raises(NumericError):
        rhs(s, constant(1.0))


def test_state_validation():
    with pytest.raises(ValueError):
        SizeDistribution(np.array([1.0, -0.5]), 2).validate()
    with pytest.raises(ValueError):
        SizeDistribution(np.array([1.0]), 1).validate()
    with pytest.raises(ValueError):
        SizeDistribution(np.ones(3), 2).validate()


def test_initial_factories():
    m = monomer(4, scale=2.0)
    assert np.array_equal(m.values, [2.0, 0.0, 0.0, 0.0])
    assert m.time == 0.0
    # M1 of 0.5, 0.25, 0.125 is 1.375; the state is scaled to M1 = mass
    g = geometric(3, 0.5)
    assert np.allclose(g.values, np.array([0.5, 0.25, 0.125]) / 1.375)
    assert moment(g, 1) == pytest.approx(1.0, rel=1e-15) and g.time == 0.0
    v = 0.3 ** np.arange(1, 41)
    heavy = geometric(40, 0.3, mass=2.5)
    assert heavy.values.tobytes() == (2.5 * v / np.dot(np.arange(1, 41), v)).tobytes()
    with pytest.raises(ValueError):
        geometric(3, 1.5)


# factors that are not powers of two, so a moved multiplication changes the rounding
SEPARABLE = [constant(0.7), constant(1.0), constant(2.5), additive(1.3), power_sum(1.0, 0.5),
             power_sum(0.7, 0.3)]


def test_separable_and_general_paths_agree(rng):
    for k in (2, 3, 48, 257):
        x = rng.random(k)
        for kern in SEPARABLE:
            general = CoagulationKernel(
                name="general", rule=kern.rule, growth_constant_A=kern.growth_constant_A
            )
            a = rhs(state(x), kern)
            b = rhs(state(x), general)
            # rounding of k-term sums: measured within 4 eps of the largest entry up to k=257
            bound = k * np.finfo(float).eps * max(1.0, np.max(np.abs(a)))
            assert np.max(np.abs(a - b)) <= bound, (k, kern.name)


@pytest.mark.parametrize("k", [2, 3, 64, 257])
def test_rhs_matches_cumsum_oracle_bit_for_bit(rng, k):
    states = (monomer(k).values, rng.random(k), rng.random(k) * 10.0 ** rng.uniform(-12, 0, k))
    for kern in SEPARABLE + [demo_table(k)]:
        ev, oracle = RhsEvaluator(kern, k), rhs_oracle(kern, k)
        for x in states:
            assert ev(x).tobytes() == oracle(x).tobytes(), kern.name


def test_evaluator_reuse_matches_one_shot(rng):
    # every call returns its own array: later calls leave earlier results intact
    for kern in (power_sum(1.0, 0.5), demo_table(16)):
        ev = RhsEvaluator(kern, 16)
        xs = [rng.random(16) for _ in range(3)]
        results = [ev(x) for x in xs]
        for x, r in zip(xs, results):
            assert r.tobytes() == rhs(state(x), kern).tobytes()
        assert not np.shares_memory(results[0], results[1])


def test_occupied_size_counts_bit_patterns():
    assert occupied_size(np.zeros(5)) == 0
    assert occupied_size(np.array([0.0, 0.0, -0.0, 0.0])) == 3  # -0.0 is occupied
    assert occupied_size(np.array([1.0, 5e-324, 0.0])) == 2
    assert occupied_size(np.array([0.0, 0.0, 2.0])) == 3
    assert [prefix_columns(need, 257) for need in (1, 2, 3, 4, 5, 129, 256, 257, 300)] == \
        [1, 2, 4, 4, 8, 256, 256, 257, 257]


ASYMMETRIC = from_rule("asymmetric", lambda i, j: (1.0 + 0.3 * i) / (1.0 + 0.7 * j),
                       growth_constant_A=1.0, vectorized=True)
# every kernel at every k, except that the matrix path stops at k = 257: a
# 4096 x 4096 rate matrix takes 128 MiB per copy (demo_table(257) also ends there)
RHS_EDGE_CASES = [
    (kern, k)
    for kern in (constant(0.7), additive(1.3), power_sum(0.7, 0.3), demo_table(257), ASYMMETRIC)
    for k in (2, 3, 64, 257, 4096)
    if kern.separable is not None or k <= 257
]


@pytest.mark.parametrize("kern,k", RHS_EDGE_CASES, ids=[f"{kn.name}-{k}" for kn, k in RHS_EDGE_CASES])
def test_rhs_on_every_support_matches_oracle_bit_for_bit(kern, k, rng):
    ev, oracle = RhsEvaluator(kern, k), rhs_oracle(kern, k)
    results = []
    for m in sorted({0, 1, k - 2, k - 1, k}):
        for last in (None, -0.0, 5e-324):  # a random, a negative-zero and a subnormal last entry
            x = np.zeros(k)
            x[:m] = rng.random(m)
            if m and last is not None:
                x[m - 1] = last
            assert occupied_size(x) == m
            out = ev(x)
            assert out.tobytes() == oracle(x).tobytes(), (m, last)
            results.append((x, out))
    # back-to-back calls at different supports leave earlier results intact and unshared
    scratch = [v for v in vars(ev).values() if isinstance(v, np.ndarray)]
    for i, (x, out) in enumerate(results):
        assert out.tobytes() == oracle(x).tobytes()
        assert not any(np.shares_memory(out, other) for _, other in results[i + 1:])
        assert not any(np.shares_memory(out, buf) for buf in scratch)


def test_evaluator_builds_its_rows_on_first_use():
    # the length-k rows (sizes, powers, scratch) took 13.0 MiB at k = 131072 right
    # after construction, whatever the front; they now grow with the widest call
    k = 131072
    kern = constant(1.0)
    tracemalloc.start()
    try:
        ev = RhsEvaluator(kern, k)
        built = tracemalloc.get_traced_memory()[0]
        x = monomer(k).values
        out = ev(x)
        held = tracemalloc.get_traced_memory()[0] - out.nbytes - x.nbytes
    finally:
        tracemalloc.stop()
    assert built < 0.1 * 2**20
    assert held < 0.1 * 2**20  # a monomer call reads 2 columns
    assert out.tobytes() == rhs_oracle(kern, k)(x).tobytes()


@pytest.mark.parametrize("kern", [power_sum(0.7, 0.3), demo_table(257), ASYMMETRIC],
                         ids=["separable", "table", "asymmetric"])
def test_rows_grown_by_a_wide_call_serve_narrower_calls_bit_for_bit(kern, rng):
    # fronts that widen, narrow and widen again: every width is cut from the widest rows so far
    k = 257
    ev, oracle = RhsEvaluator(kern, k), rhs_oracle(kern, k)
    for m in (3, 100, 2, 257, 5, 64, 1):
        x = np.zeros(k)
        x[:m] = rng.random(m)
        assert ev(x).tobytes() == oracle(x).tobytes(), m
        block = ev(np.vstack([x, x * 0.5]))
        assert block.tobytes() == np.array([oracle(x), oracle(x * 0.5)]).tobytes(), m


BLOCK_KERNELS = [constant(0.7), constant(1.0), constant(2.5), additive(1.3), power_sum(1.0, 0.5),
                 power_sum(0.7, 0.3), demo_table(257)]


@pytest.mark.parametrize("k", [2, 3, 48, 257])
@pytest.mark.parametrize("kern", BLOCK_KERNELS, ids=[kn.name for kn in BLOCK_KERNELS])
def test_rhs_into_a_row_equals_the_public_call(kern, k, rng):
    # a trial step's stage rows: the derivative goes into a row of width
    # prefix_columns(m + 7, k), whatever it held before, and is +0.0 past its own width
    ev = RhsEvaluator(kern, k)
    for held in sorted({0, 1, 2, k // 3, k - 7, k - 1, k} & set(range(k + 1))):
        x = np.zeros(k)
        x[:held] = rng.random(held) - 0.2  # negative entries, as in a stage input
        width = prefix_columns(held + 7, k)
        row = np.full(width, np.nan)
        before = ev.n_evals
        assert ev(x, out=row) is row
        assert ev.n_evals == before + 1
        expected = ev(x)
        assert row.tobytes() == expected[:width].tobytes(), held
        n = prefix_columns(held + 1, k)
        assert not row[n:].view(np.int64).any()  # +0.0, not merely zero
        assert not expected[width:].view(np.int64).any()


@settings(max_examples=200)
@given(data=st.data())
def test_whole_width_row_call_gives_the_trimmed_bits(data):
    # a separable f(x, out=row) runs on all the row's w columns; a trimmed call runs on
    # the prefix of x's occupied size and writes +0.0 past it. The two give the same bits,
    # a sign change of S past the front (a -0.0 there) included, and on the trimmed
    # columns the oracle's bits
    d = data.draw(st.sampled_from((0.0, 0.3, 0.5, 1.0)))
    kern = power_sum(data.draw(st.sampled_from((0.7, 1.0, 2.5))), d)
    k = data.draw(st.integers(2, 64))
    m = data.draw(st.integers(0, k))
    w = prefix_columns(m + data.draw(st.integers(1, k)), k)
    x = np.zeros(k)
    x[:m] = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=m, max_size=m))
    j = m - data.draw(st.integers(0, m))  # x_j is the last entry before a -0.0 tail
    if j >= 2 and data.draw(st.booleans()):
        # x_1 = p > 0 > x_j and nothing between: S_i = a * (i**d * P + Q) turns from
        # negative to positive near size c, which may lie past the trimmed width
        c = data.draw(st.integers(j + 1, max(j + 1, w)))
        p = x[0] = data.draw(st.floats(0.1, 10.0))
        x[1:j - 1] = 0.0
        x[j - 1] = -p * (1 + c**d) / (j * (j**d + c**d))
    x[j:m] = -0.0
    row, trimmed = np.full(w, np.nan), np.full(w, np.nan)
    assert RhsEvaluator(kern, k)(x, out=row) is row
    TrimmedRhs(kern, k)(x, out=trimmed)
    assert row.tobytes() == trimmed.tobytes()
    n = prefix_columns(occupied_size(x) + 1, k)
    assert row[:n].tobytes() == rhs_oracle(kern, k)(x)[:n].tobytes()
    assert not row[n:].view(np.int64).any()



@pytest.mark.parametrize("k", [2, 3, 48, 257])
@pytest.mark.parametrize("kern", BLOCK_KERNELS, ids=[kn.name for kn in BLOCK_KERNELS])
def test_block_rhs_matches_row_by_row_calls_bit_for_bit(kern, k, rng):
    ev, oracle = RhsEvaluator(kern, k), rhs_oracle(kern, k)
    results = []
    for m in (1, 2, 3, 513):
        # rows of every occupied size: empty, partial, a -0.0 last entry, negative
        # entries (as in a stage input), subnormal; the first row is full to k
        X = np.zeros((m, k))
        for r, held in enumerate(rng.integers(0, k + 1, m)):
            X[r, :held] = rng.random(held) * 10.0 ** rng.uniform(-12, 0, held)
            if held and r % 4 == 1:
                X[r, held - 1] = -0.0
            if r % 4 == 2:
                X[r, :held] -= 0.5
            if held and r % 4 == 3:
                X[r, held - 1] = 5e-324
        X[0] = rng.random(k)
        if m > 2:
            # S_i changes sign past this row's columns: its zeros there would come out -0.0
            X[2] = 0.0
            X[2, :2] = (1.0, -0.45)
        before = ev.n_evals
        block = ev(X)
        assert ev.n_evals == before + m  # states, not calls
        rows = [ev(x) for x in X]
        scratch = [v for v in vars(ev).values() if isinstance(v, np.ndarray)]  # grown by the calls
        assert block.shape == (m, k)
        assert block.tobytes() == np.array(rows).tobytes(), m
        # both run the one statement body, so the oracle pins the bits: on each row's
        # prefix columns its bits, past them +0.0 (the oracle may give -0.0 there)
        for x, row in zip(X, block):
            n = prefix_columns(occupied_size(x) + 1, k)
            assert row[:n].tobytes() == oracle(x)[:n].tobytes(), (m, n)
            assert not row[n:].view(np.int64).any(), (m, n)
        assert not any(np.shares_memory(block, buf) for buf in scratch)
        results.append((block, block.tobytes()))
    for block, kept in results:  # later calls left earlier blocks intact
        assert block.tobytes() == kept
    for bad in (np.nan, np.inf, -np.inf):
        X = np.zeros((3, k))
        X[:, 0] = 1.0
        X[2, -1] = bad
        before = ev.n_evals
        for bad_input in (X, X[2]):  # the block and its bad row as a state
            with pytest.raises(NumericError):
                ev(bad_input)
        assert ev.n_evals == before


@pytest.mark.parametrize("k", [64, 257])
@pytest.mark.parametrize("kern", BLOCK_KERNELS, ids=[kn.name for kn in BLOCK_KERNELS])
def test_narrow_block_rhs_is_as_wide_as_its_rows_whatever_their_number(kern, k, rng):
    # a block on sizes 1..c, c above every row's occupied size, gets c columns back, one row
    # (the one-state statements) or more, equal bit for bit to the one-state results there
    ev = RhsEvaluator(kern, k)
    for c in (2, 17, 64, 256)[: 3 if k < 256 else 4]:
        for m in (1, 3):
            X = np.zeros((m, c))
            for r, held in enumerate(rng.integers(0, c, m)):
                X[r, :held] = rng.random(held) - (0.5 if r == 1 else 0.0)
            block = ev(X)
            assert block.shape == (m, c), (c, m)
            full = np.zeros((m, k))
            full[:, :c] = X
            assert block.tobytes() == np.array([ev(x)[:c] for x in full]).tobytes(), (c, m)
            # below k, a row occupied up to column c may have a derivative at size c + 1,
            # which c columns cannot hold; a state needs all k entries
            X[-1, c - 1] = 1.0
            before = ev.n_evals
            for bad in ([X] if c < k else []) + [full[0, :c - 1], np.zeros(k + 1)]:
                with pytest.raises(ValueError, match=rf"shape \({bad.shape[0]},.*k={k}\b"):
                    ev(bad)
            assert ev.n_evals == before
    # dxi_5/dt = 10 at the padded state: a 4-column block may not drop it
    assert RhsEvaluator(constant(1.0), 8)(np.pad(np.ones(4), (0, 4)))[4] == 10.0
    with pytest.raises(ValueError, match=r"shape \(1, 4\).*k=8\b"):
        RhsEvaluator(constant(1.0), 8)(np.ones((1, 4)))


@pytest.mark.parametrize("k", [2, 3, 64, 257])
@pytest.mark.parametrize("kern", [constant(1.0), constant(2.5)], ids=lambda kern: kern.name)
def test_constant_kernel_single_row_matches_oracle_bit_for_bit(kern, k, rng):
    # d == 0 sums one complex row and doubles it; the oracle sums both terms apart.
    # Past a row's own columns the oracle may give -0.0 for negative entries, the
    # evaluator +0.0 (see RhsEvaluator), so those columns are compared as zeros.
    X = rng.random((6, k)) * 10.0 ** rng.uniform(-12, 0, (6, k)) - 0.3
    X[1, k // 2:] = 0.0
    X[1, k // 2 - 1] = -0.0
    X[2, 1:] = 0.0
    X[3, 0] = -0.0
    X[4, -1] = -0.0
    X[5] = -X[5]
    ev, oracle = RhsEvaluator(kern, k), rhs_oracle(kern, k)
    block = ev(X)
    for x, row in zip(X, block):
        n = prefix_columns(occupied_size(x) + 1, k)
        expected = oracle(x)
        for got in (ev(x), row):
            assert got[:n].tobytes() == expected[:n].tobytes()
            assert not got[n:].view(np.int64).any() and not expected[n:].any()


@pytest.mark.parametrize("k", [3, 64, 4096])
def test_rhs_rejects_nonfinite_entries_in_the_zero_tail(k):
    ev = RhsEvaluator(additive(1.0), k)
    for bad in (np.nan, np.inf, -np.inf):
        for where in (2, k - 1):  # inside the tail and at its end
            x = np.zeros(k)
            x[0] = 1.0
            x[where] = bad
            for arg in (x, x[None]):  # a state and its one-row block
                with pytest.raises(NumericError):
                    ev(arg)
    assert ev.n_evals == 0


def test_mass_leak_closed_form_matches_weak_form(rng):
    for kern in CATALOG:
        x = rng.random(12)
        s = state(x)
        wf = weak_form_rate(np.arange(1.0, 13), s, kern)
        assert mass_leak_rate(s, kern) == pytest.approx(-wf, rel=1e-12, abs=1e-15)


nonneg_states = st.integers(min_value=2, max_value=24).flatmap(
    lambda k: st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=k,
        max_size=k,
    )
)


@given(values=nonneg_states, kern_idx=st.integers(0, len(CATALOG) - 1),
       psi_seed=st.integers(0, 2**32 - 1))
def test_adjoint_consistency(values, kern_idx, psi_seed):
    """The rearranged weak form equals <psi, rhs> to rounding accuracy."""
    kern = CATALOG[kern_idx]
    s = state(values)
    psi = np.random.default_rng(psi_seed).uniform(-1, 1, s.truncation_k)
    wf = weak_form_rate(psi, s, kern)
    deriv = rhs(s, kern)
    dot = float(np.dot(psi, deriv))
    scale = max(float(np.dot(np.abs(psi), np.abs(deriv))), abs(wf), 1.0)
    assert abs(wf - dot) <= 1e-12 * scale


@given(values=nonneg_states, kern_idx=st.integers(0, len(CATALOG) - 1))
def test_mass_dissipativity(values, kern_idx):
    """With psi_i = i the weak form is the (nonpositive) boundary mass flux."""
    kern = CATALOG[kern_idx]
    s = state(values)
    k = s.truncation_k
    wf = weak_form_rate(np.arange(1.0, k + 1), s, kern)
    gross = float(np.sum(kern.rate_matrix(k) * np.outer(s.values, s.values))) * (k + 1)
    assert wf <= 1e-12 * max(1.0, gross)


@given(values=nonneg_states, kern_idx=st.integers(0, len(CATALOG) - 1))
def test_number_dissipativity(values, kern_idx):
    """Counting weights decay at least quadratically in the total rate."""
    kern = CATALOG[kern_idx]
    s = state(values)
    k = s.truncation_k
    g = kern.rate_matrix(k)
    x = s.values
    slack = 1e-12 * max(1.0, float(np.sum(g * np.outer(x, x))) * (k + 1))

    wf = weak_form_rate(np.ones(k), s, kern)
    quad_full = float(np.sum(g * np.outer(x, x)))
    assert wf <= -0.5 * quad_full + slack

    q = k - 1
    fir = finite_identity_rate(np.ones(q), s, kern, q)
    quad_q = float(np.sum(g[:q, :q] * np.outer(x[:q], x[:q])))
    assert fir <= -0.5 * quad_q + slack


# exactness needs well-scaled inputs: products of subnormals round unevenly
scaled_states = st.integers(min_value=2, max_value=24).flatmap(
    lambda k: st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=10.0)),
        min_size=k,
        max_size=k,
    )
)


@given(values=scaled_states, kern_idx=st.integers(0, len(CATALOG) - 1),
       log2_alpha=st.integers(-3, 3))
def test_bilinearity_exact_for_binary_scalings(values, kern_idx, log2_alpha):
    """rhs(alpha x) = alpha^2 rhs(x), exactly when alpha is a power of two."""
    kern = CATALOG[kern_idx]
    alpha = 2.0**log2_alpha
    a = rhs(state(np.asarray(values) * alpha), kern)
    b = alpha**2 * rhs(state(values), kern)
    assert np.array_equal(a, b)


@given(values=nonneg_states, kern_idx=st.integers(0, len(CATALOG) - 1),
       zero_at=st.integers(0, 23))
def test_quasi_positivity(values, kern_idx, zero_at):
    """A vanished component can only be created: rhs_i >= 0 when xi_i = 0."""
    kern = CATALOG[kern_idx]
    arr = np.asarray(values, dtype=float).copy()
    i = zero_at % arr.size
    arr[i] = 0.0
    out = rhs(state(arr), kern)
    assert out[i] >= 0.0


# per-state dense formulas of the identity routes, kept as an oracle for the
# batched evaluation; each returns the rate and the sum of its terms' magnitudes

def _oracle_lower_terms(kern, x):
    k = x.size
    lower = np.tril(np.ones((k, k), dtype=bool))
    return kern.rate_matrix(k) * np.outer(x, x) * lower  # rate(i,j) xi_i xi_j for j <= i


def _oracle_weak_form(psi, x, kern):
    W = _oracle_lower_terms(kern, x)
    jv = np.arange(1, x.size + 1, dtype=float)
    gain = psi[1:, None] * (jv[None, :] * W[:-1, :])
    loss = (jv[None, :] * psi[:, None] + psi[None, :]) * W
    return float(np.sum(gain) - np.sum(loss)), float(np.sum(np.abs(gain)) + np.sum(np.abs(loss)))


def _finite_identity_terms(phi, x, g, q):
    """The P1, P2 and P3 term arrays of finite_identity_rate at x, one state or a block of rows.

    g is rate_matrix(k) for states of length k; a block's terms carry its row axis first.
    """
    k = x.shape[-1]
    gX = g * (x[..., :, None] * x[..., None, :])
    jv = np.arange(1, k + 1, dtype=float)
    lower = np.tril(np.ones((q, q), dtype=bool))
    p1 = (phi[1:, None] * (jv[None, :q] * gX[..., : q - 1, :q])) * lower[: q - 1, :]
    p2 = ((jv[None, :q] * phi[:, None] + phi[None, :]) * gX[..., :q, :q]) * lower
    p3 = phi[None, :] * gX[..., q:, :q]
    return p1, p2, p3


def _oracle_finite_identity(phi, x, kern, q):
    p1, p2, p3 = _finite_identity_terms(phi, x, kern.rate_matrix(x.size), q)
    value = float(np.sum(p1) - np.sum(p2) - np.sum(p3))
    return value, float(sum(np.sum(np.abs(p)) for p in (p1, p2, p3)))


def _fsum_finite_identities(phi, X, g, q):
    """The P1 - P2 - P3 rate at every row of X as the correctly rounded sum of its terms.

    Also returns each row's sum of the terms' magnitudes, summed the same way.
    """
    p1, p2, p3 = _finite_identity_terms(phi, X, g, q)
    lower = np.tril(np.ones((q, q), dtype=bool))
    held = np.concatenate([lower[:q - 1].ravel(), lower.ravel(), np.ones(p3[0].size, dtype=bool)])
    terms = np.hstack([p.reshape(len(X), -1) for p in (p1, -p2, -p3)])[:, held]
    return ([math.fsum(t) for t in terms.tolist()],
            [math.fsum(t) for t in np.abs(terms).tolist()])


ORACLE_KERNELS = [
    constant(1.0),
    additive(1.0),
    power_sum(1.0, 0.5),
    from_rule("asymmetric", lambda i, j: (i + 2.0 * j) / 3.0, growth_constant_A=1.0),
]


@pytest.mark.parametrize("kern", ORACLE_KERNELS, ids=lambda kern: kern.name)
def test_batched_identity_rates_match_per_state_oracle(kern, rng):
    k = 12
    states = [state(rng.random(k)) for _ in range(5)] + [state(np.zeros(k))]
    states.append(state(np.where(rng.random(k) < 0.5, 0.0, rng.random(k))))
    psi = rng.uniform(-1.0, 1.0, k)
    for weights in (psi, np.arange(1.0, k + 1)):
        got = weak_form_rate(weights, states, kern)
        assert got.shape == (len(states),)
        for s, rate in zip(states, got):
            want, size = _oracle_weak_form(weights, s.values, kern)
            assert abs(rate - want) <= 1e-13 * size
    for q in (1, 2, k // 2, k - 1, k):
        phi = psi[:q]
        got = finite_identity_rate(phi, states, kern, q)
        assert got.shape == (len(states),)
        for s, rate in zip(states, got):
            want, size = _oracle_finite_identity(phi, s.values, kern, q)
            assert abs(rate - want) <= 1e-13 * size
    # the zero state contributes exactly nothing
    assert weak_form_rate(psi, states, kern)[5] == 0.0
    assert finite_identity_rate(psi[:3], states, kern, 3)[5] == 0.0
    # the weak form is the q = k identity, bit for bit, batched and single-state
    for weights in (psi, np.arange(1.0, k + 1)):
        assert finite_identity_rate(weights, states, kern, k).tobytes() == \
            weak_form_rate(weights, states, kern).tobytes()
        for s in states:
            full = finite_identity_rate(weights, s, kern, k)
            assert type(full) is float
            assert np.float64(full).tobytes() == np.float64(weak_form_rate(weights, s, kern)).tobytes()


@pytest.mark.parametrize("kern", ORACLE_KERNELS, ids=lambda kern: kern.name)
def test_identity_rates_cost_the_occupied_width_not_k(kern, rng, monkeypatch):
    # sizes past the widest occupied one add nothing: padding the states with 64 zero
    # sizes changes no rate, bit for bit, and no rate matrix is built wider than the
    # occupied width (at k = 1,024 with a front at 224, identity_audit fell from 6.6
    # to 0.45-0.48 s)
    widths = []
    rate_matrix = CoagulationKernel.rate_matrix

    def spy(self, k):
        widths.append(k)
        return rate_matrix(self, k)

    monkeypatch.setattr(CoagulationKernel, "rate_matrix", spy)
    k, pad = 40, 64
    X = rng.random((6, k)) * (np.arange(k) < 23)  # occupied widths 23, and 17 in one row
    X[2, 17:] = 0.0
    padded = np.hstack([X, np.zeros((len(X), pad))])
    narrow, wide = StateStack(X, np.arange(6.0)), StateStack(padded, np.arange(6.0))
    psi = rng.uniform(-1.0, 1.0, k)
    for q in (1, 2, 16, 22, 23, 24, 30, k):
        got = finite_identity_rate(psi[:q], narrow, kern, q)
        assert got.tobytes() == finite_identity_rate(psi[:q], wide, kern, q).tobytes(), q
        one = finite_identity_rate(psi[:q], state(X[2]), kern, q)
        assert np.float64(one).tobytes() == np.float64(finite_identity_rate(
            psi[:q], state(padded[2]), kern, q)).tobytes(), q
    assert weak_form_rate(psi, narrow, kern).tobytes() == \
        finite_identity_rate(psi, wide, kern, k).tobytes()
    assert widths and max(widths) == 23
    assert finite_identity_rate(psi[:5], state(np.zeros(k)), kern, 5) == 0.0


# stack heights around a block of 256 rows, the block at a = 32, and sizes a on
# both sides of 32 and of 512, past which every block is one row
FORM_ROWS = (1, 255, 256, 257, 1001)
FORM_SIZES = (1, 2, 32, 33, 512, 513)


@pytest.mark.parametrize("a", FORM_SIZES)
def test_blocked_identity_forms_match_an_fsum_oracle(a, rng):
    # each rate lies within a few ulps of its terms' magnitude sum from their
    # exact sum (3 ulps at most were seen); at a >= 512, where every block is
    # one row, the last row of each stack is checked
    kern = power_sum(1.0, 0.5)
    k = a + 1  # size k is +0.0 in every row, so the forms are taken on sizes 1..a
    g = kern.rate_matrix(k)
    psi = rng.uniform(-1.0, 1.0, k)
    for n in FORM_ROWS:
        X = np.zeros((n, k))
        X[:, :a] = rng.random((n, a)) + 0.01
        stack = StateStack(X, np.zeros(n))
        checked = np.arange(n) if a < 512 else np.array([n - 1])
        for q in sorted({max(1, a // 2), a, k}):
            if q == k:
                got = weak_form_rate(psi, stack, kern)
            else:
                got = finite_identity_rate(psi[:q], stack, kern, q)
            wants, sizes = _fsum_finite_identities(psi[:q], X[checked], g, q)
            for r, want, size in zip(checked.tolist(), wants, sizes):
                assert abs(got[r] - want) <= 8 * math.ulp(size), (n, q, r)


@pytest.mark.parametrize("a", FORM_SIZES)
def test_quadratic_forms_hand_matmul_single_thread_row_blocks(a, monkeypatch, rng):
    # OpenBLAS runs a gemm of at most GEMM_CELLS multiply-adds on the calling
    # thread: X @ A goes to np.matmul in blocks of max(1, GEMM_CELLS // a**2)
    # rows, the last one shorter, and nowhere else
    products = []
    matmul = np.matmul

    def spy(X, A, out):
        products.append((X.shape, A.shape))
        return matmul(X, A, out=out)

    monkeypatch.setattr(np, "matmul", spy)
    A = np.tril(rng.uniform(-1.0, 1.0, (a, a)))
    rows = max(1, GEMM_CELLS // a**2)
    for n in FORM_ROWS:
        X = rng.random((n, a))
        products.clear()
        got = _quadratic_forms(X, A, False)
        assert [shape for shape, _ in products] == [(min(rows, n - i), a) for i in range(0, n, rows)]
        assert all(m * a * a <= GEMM_CELLS or m == 1 for (m, _), _ in products)
        assert all(shape == (a, a) for _, shape in products)
        # one unblocked product gives the same forms up to rounding, not bit for
        # bit: a gemm row's last bits can depend on where the row sits in the
        # product, and a one-row block runs as a matrix-vector product
        want = np.einsum("nj,nj->n", matmul(X, A), X)
        size = np.einsum("nj,nj->n", matmul(X, np.abs(A)), X)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(size)), n
    products.clear()
    assert type(_quadratic_forms(X[:1], A, True)) is float
    assert [shape for shape, _ in products] == [(1, a)]


def test_single_state_identity_rate_is_a_python_float(rng):
    s = state(rng.random(6))
    kern = power_sum(1.0, 0.5)
    wf = weak_form_rate(np.ones(6), s, kern)
    fir = finite_identity_rate(np.ones(3), s, kern, 3)
    assert type(wf) is float and type(fir) is float
    assert wf == pytest.approx(weak_form_rate(np.ones(6), [s], kern)[0], rel=1e-14)
    assert fir == pytest.approx(finite_identity_rate(np.ones(3), [s], kern, 3)[0],
                                rel=1e-14)


def test_batched_identity_rates_validate_every_state():
    good = state([1.0, 0.5, 0.0])
    negative = state([1.0, -0.5, 0.0])
    with pytest.raises(ValueError, match="negative concentration xi_2"):
        weak_form_rate(np.ones(3), [good, negative], constant(1.0))
    with pytest.raises(NumericError):
        finite_identity_rate(np.ones(2), [good, state([np.inf, 0.0, 0.0])], constant(1.0), 2)
    with pytest.raises(ValueError):
        weak_form_rate(np.ones(3), [good, state([1.0, 0.5])], constant(1.0))  # mixed k
    with pytest.raises(ValueError):
        weak_form_rate(np.ones(3), [], constant(1.0))


def test_identity_routes_do_not_call_the_rhs(monkeypatch, rng):
    """The identity routes are independent of the right-hand side they audit."""
    def refuse(self, x):
        raise AssertionError("identity route evaluated the rhs")

    monkeypatch.setattr(RhsEvaluator, "__call__", refuse)
    for kern in ORACLE_KERNELS:
        states = [state(rng.random(8)) for _ in range(3)]
        assert np.all(np.isfinite(weak_form_rate(np.ones(8), states, kern)))
        assert np.all(np.isfinite(finite_identity_rate(np.ones(4), states, kern, 4)))
