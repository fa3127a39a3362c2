"""The truncated splash-coagulation system and its summation identities.

State is a vector (xi_1, ..., xi_k) of cluster concentrations. When an
i-mer collides with a j-mer (j <= i) the j-mer splashes into j monomers
which the i-mer absorbs one step at a time, so the evolution of xi_i is

    dxi_i/dt =   xi_{i-1} * sum_{j=1}^{i-1} j * rate(i-1, j) * xi_j
               - xi_i     * sum_{j=1}^{i}   j * rate(i, j)   * xi_j
               - xi_i     * sum_{j=i}^{k}       rate(i, j)   * xi_j

with the first sum empty at i = 1. The diagonal j = i appears in both
loss sums; that is part of the model, not double counting.

A rearranged form of the same dynamics is provided for cross checking:
``finite_identity_rate``, the truncated-range identity with boundary
flux for the partial sums up to any q <= k. Its q = k case is the
full-length test-vector identity ``weak_form_rate``. It is a summation
route independent of ``rhs`` and must agree with the inner product of
the test vector against it to rounding accuracy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .kernels import CoagulationKernel


@dataclass
class SizeDistribution:
    """Truncated concentration vector with a timestamp."""

    values: np.ndarray
    truncation_k: int
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.truncation_k = int(self.truncation_k)

    def validate(self) -> None:
        if self.truncation_k < 2:
            raise ValueError(f"truncation_k must be >= 2, got {self.truncation_k}")
        if self.values.ndim != 1 or self.values.size != self.truncation_k:
            raise ValueError(
                f"values must have length truncation_k={self.truncation_k}, got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise NumericError("state contains non-finite entries", time=self.time)
        if self.time < 0:
            raise ValueError(f"time must be nonnegative, got {self.time}")
        if np.any(self.values < 0):
            worst = int(np.argmin(self.values))
            raise ValueError(
                f"negative concentration xi_{worst + 1} = {self.values[worst]:.3e}"
            )

    def copy(self) -> "SizeDistribution":
        return SizeDistribution(self.values.copy(), self.truncation_k, self.time)


def monomer(k: int, scale: float = 1.0) -> SizeDistribution:
    """All mass in monomers: xi_1 = scale, rest zero."""
    v = np.zeros(k)
    v[0] = scale
    return SizeDistribution(v, k)


def geometric(k: int, ratio: float, mass: float = 1.0) -> SizeDistribution:
    """Geometric tail xi_i proportional to ratio**i for i = 1..k, scaled to M1 = mass."""
    if not 0 < ratio < 1:
        raise ValueError(f"geometric ratio must lie in (0, 1), got {ratio}")
    i = np.arange(1, k + 1)
    v = ratio**i
    return SizeDistribution(mass * v / np.dot(i, v), k)


def _as_weights(psi, q: int, what: str) -> np.ndarray:
    arr = np.asarray(psi, dtype=float)
    if arr.size != q:
        raise ValueError(f"{what} must have length {q}, got {arr.size}")
    return arr


def occupied_size(values: np.ndarray) -> int:
    """The largest size whose entry has a nonzero bit pattern (a -0.0 counts), 0 if none.

    Everything beyond it is +0.0. A set last entry costs one scalar read.
    """
    if values.size and values[-1]:
        return values.size
    held = (values.view(np.int64) != 0).nonzero()[0]
    return int(held[-1]) + 1 if held.size else 0


def occupied_sizes(rows: np.ndarray) -> np.ndarray:
    """``occupied_size`` of every row of a 2-D block, as one integer array."""
    held = rows.view(np.int64) != 0
    return (held * np.arange(1, rows.shape[1] + 1)).max(axis=1, initial=0)


def prefix_columns(need: int, k: int) -> int:
    """The smallest power of two >= need, capped at k: the width of a prefix evaluation.

    Widths come in at most floor(log2(k)) + 2 buckets, so views cached per
    width stay few and small.
    """
    return min(k, 1 << (need - 1).bit_length())


# cells (rows x k) in one block of states that integrate and identity_audit
# hand to an RhsEvaluator: a block's scratch and result stay this small
# whatever the number of samples
BLOCK_CELLS = 1 << 12

# multiply-adds (rows x a**2) in one block of the X @ A products of the
# identity forms (_quadratic_forms). OpenBLAS runs a gemm of m*n*k at most
# SMP_THRESHOLD_MIN (65,536) * GEMM_MULTITHREAD_THRESHOLD (4, its default)
# on the calling thread (interface/gemm.c); a larger one wakes its worker
# thread, which spins on after the product. Three products of 1001 x 32 x 32
# left the process 135 ms of CPU past their wall time by 0.5 s later; the
# same products in blocks of 256 rows, 0.1 ms (2-vCPU VM, OpenBLAS 0.3.31).
GEMM_CELLS = 1 << 18


def row_blocks(m: int, k: int) -> list[slice]:
    """Slices cutting m rows of length k into blocks of at most BLOCK_CELLS cells, one row at least."""
    rows = max(1, BLOCK_CELLS // k)
    return [slice(i, i + rows) for i in range(0, m, rows)]


class RhsEvaluator:
    """Precomputed right-hand-side apparatus for one (kernel, k) pair.

    Separable kernels rate = a * (i**d + j**d) use O(k) prefix/suffix
    sums of four weighted vectors. They sit as the real and imaginary
    parts of two complex scratch rows, so one accumulate along the rows
    sums them all: a complex sum adds the real parts and the imaginary
    parts apart, each rounded as its float sum. With d == 0 (the constant
    kernel) the two rows are equal, their weights being 1 and i**0 = 1,
    so one row is summed and doubled: 1.0 * P + P is P + P exactly.
    Everything else goes through cached lower/upper triangular rate
    matrices and two matrix-vector products (O(k^2), fixed summation
    order).

    Every call runs one statement body, ``_eval``, on the first n columns
    of its input. With m = occupied_size(x), component i reads x_{i-1}
    and x_i, so the derivative vanishes beyond size m + 1 and the first
    n = prefix_columns(m + 1, k) columns hold it. On those columns the
    arithmetic is the full-length one with the trailing zeros left out.
    Prefix sums stop where the entries stop. The suffix sums of T, taken
    from the far end, would first add up nothing but +0.0 entries (entry
    n is one, since a -0.0 counts as occupied), and +0.0 + v is v. The
    BLAS matrix-vector product adds a row's nonzero terms in the same
    order whatever the row length (the oracle tests check both paths).
    Beyond n the full-length formula gives 0 * S_{i-1} - S_i * 0: +0.0
    for a state without negative entries, possibly -0.0 for a stage input
    with some, and a trial step adds that zero to the +0.0 tail of y,
    which drops its sign. The weights are cut from rows as wide as the
    widest call so far, which a wider call replaces, so an evaluator whose
    calls stay far below k holds no length-k row (only the matrix path's
    rate matrices are k x k, built with the evaluator).

    A call takes one of two routes. ``f(x, out=row)``, a trial step's
    stage, writes the derivative at the one state x into ``row`` and
    returns it; x is not checked. The row has a width w <= k that is k or
    a power of two above occupied_size(x), as a trial step's rows are,
    and x is +0.0 past its first w sizes, so the call does no length-k
    work. The row gets the derivative on its first n columns and +0.0 on
    the rest. The separable route runs on all w columns, with no search
    for x's occupied size, and gives those bits: on the first n columns
    the arithmetic is the one above, and past them the whole-row formula
    gives a zero, 0 * S_{i-1} - 0 * (S_i + T_i), whose sign the call
    fixes (``__call__``). The matrix route finds x's occupied size on
    x[:w] and runs on the first n columns only (``_into``), since its
    cost grows with the square of the columns. Both work on views of the
    evaluator's own scratch rows, cached per width: at most
    floor(log2(k)) + 2 widths. A non-finite entry of x leaves the
    derivative non-finite at its size (``integrator._dp_step`` gives the
    argument), so the caller finds it by checking the rows it gets back.

    ``f(x)`` takes a state, x of length k, or an (m, c) block of states,
    one per row, on sizes 1..c: c is k, or c < k and every row is +0.0 in
    its column c, so each derivative vanishes past c. Any other shape
    raises ValueError. A state is the one-row block and comes back as one
    row. The call checks the rows' occupied prefixes for non-finite
    entries (NaN and +-inf have nonzero bit patterns, so none lies past
    them) and runs the body once, with a leading row axis, on fresh
    scratch and on the widest n of its rows, capped at c (a row's extra
    columns are +0.0 and change none of its sums, as above); it sets each
    row's columns past its own n to +0.0. So the (m, c) result equals bit
    for bit the first c entries of the results of the rows, padded to k,
    as states, whatever m; n_evals counts states, not calls. The matrix
    path does one matrix-vector product per row (``_row_products``). The
    scratch is allocated per call, so callers keep blocks small
    (``row_blocks``).

    Without ``out`` every call returns a fresh array, so the results of
    earlier calls stay valid. The scratch is reused across calls, so one
    evaluator must not be called from two threads at once.
    """

    def __init__(self, kernel: CoagulationKernel, k: int):
        if k < 2:
            raise ValueError(f"truncation size must be >= 2, got {k}")
        self.kernel = kernel
        self.k = int(k)
        self.n_evals = 0
        if kernel.separable is not None:
            a, d = kernel.separable
            self._a, self._d = float(a), d
        else:
            g = kernel.rate_matrix(k)
            self._gamma_low = np.tril(g)
            self._gamma_up = np.triu(g)
            self._a = None
        self._loss = np.empty(0)  # with the other rows, grown to the widest call so far
        self._widths = {}

    def _grow(self, n: int) -> None:
        """Build the length-n rows the views of every width up to n are cut from.

        Each entry depends on its size alone, so a row built at width n
        agrees bit for bit with the first n entries of the length-k one.
        The shift row has one entry more, n + 1: its entry 0 is +0.0 and no
        call writes it.
        """
        self._sizes = np.arange(1, n + 1, dtype=float)
        self._loss = np.empty(n)
        self._shift = np.zeros(n + 1)
        if self._a is not None:
            rows = 1 if self._d == 0 else 2
            self._ipow = self._sizes**self._d
            self._rev_weights = np.vstack([np.ones(n), self._ipow][:rows])
            self._fwd_weights = np.vstack([self._sizes, self._sizes ** (1.0 + self._d)][:rows])
            self._sums = np.empty((rows, n), dtype=complex)
        self._widths.clear()  # the narrower views are cut from the old rows

    def _width(self, n: int, m: int | None = None) -> tuple:
        """Views on the first n columns, of one state or of a block of m rows.

        A state's views (m None) are cut from the evaluator's rows and
        cached per width; a block's scratch is fresh, with a leading row axis.
        """
        if n > self._loss.size:
            self._grow(n)
        if m is None:
            loss, shift = self._loss[:n], self._shift[:n + 1]
        else:
            loss, shift = np.empty((m, n)), np.zeros((m, n + 1))
        if self._a is not None:
            # complex row 0 sums x reversed (real) and i * x (imaginary), row 1
            # i**d * x reversed and i**(1+d) * x, the reversed products written
            # through a reversed view; after the accumulate row 0's float pairs
            # are weighed by i**d reversed and i**d, row 1's added, and row 0
            # holds T reversed (real) and S (imaginary); with d == 0 row 0 alone
            # is kept, and its pairs are doubled instead. A block's weights are
            # shaped (r, 1, n): (2, n) would broadcast along a 2-row block's rows
            cols = np.s_[:, :n] if m is None else np.s_[:, None, :n]
            Z = self._sums[:, :n] if m is None else np.empty((len(self._sums), m, n), dtype=complex)
            parts = Z.view(float)
            pair = parts[0]
            pair_weights = rest = None
            if len(Z) == 2:
                ipow = self._ipow[:n]
                pair_weights = np.empty(2 * n)
                pair_weights[0::2], pair_weights[1::2] = ipow[::-1], ipow
                rest = parts[1]
            views = (self._rev_weights[cols], self._fwd_weights[cols], pair_weights, Z,
                     parts[..., 0::2][..., ::-1], parts[..., 1::2], pair, rest, pair[..., 1::2],
                     pair[..., 0::2][..., ::-1], loss, shift[..., :n], shift[..., 1:])
        else:
            views = (np.matmul if m is None else _row_products, self._sizes[:n], self._gamma_low[:n, :n],
                     self._gamma_up[:n, :n], loss, shift[..., :n], shift[..., 1:])
        if m is None:
            self._widths[n] = views
        return views

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is not None:
            if self._a is None:
                return self._into(x, occupied_size(x[:out.size]), out)
            self.n_evals += 1
            n = out.size
            xn = x[:n]
            views = self._widths.get(n) or self._width(n)
            self._eval(views, xn, out)
            # Past x's occupied size m, T_i = +0.0 and S_i = a * (i**d * P + Q)
            # (a > 0; P, Q the sums of j * x_j and j**(1+d) * x_j, neither -0.0
            # there), so the zero 0 * S_{i-1} - 0 * S_i is -0.0 only where
            # S_{i-1} < 0 <= S_i. S is constant past m when d == 0 and monotone
            # in i otherwise, so that needs d != 0 and Q < 0 <= S_n: a stage
            # input with negative entries. Then the columns past the trimmed
            # width are set to +0.0, as a trimmed call (``_into``) sets them.
            rest, S = views[7:9]  # row 1's float pairs, whose last is Q, and S
            if rest is not None and rest[-1] < 0.0 <= S[-1]:
                out[prefix_columns(occupied_size(xn) + 1, self.k):] = 0.0
            return out
        X = x if x.ndim == 2 else x[None]
        m, c = X.shape
        sizes = occupied_sizes(X)
        top = int(sizes.max(initial=0))
        if c != self.k and not (X is x and top < c < self.k):
            raise ValueError(f"states of shape {x.shape} do not fit k={self.k}: a state needs k entries, "
                             "and a block narrower than k needs +0.0 in its last column")
        n = prefix_columns(top + 1, c)
        Xn = X[:, :n]
        if not np.isfinite(Xn).all():  # every row's occupied prefix lies within n
            raise NumericError("non-finite state entries passed to rhs")
        self.n_evals += m
        block = np.zeros((m, c))
        self._eval(self._width(n, m), Xn, block[:, :n])
        for row, size in zip(block, sizes.tolist()):
            row[prefix_columns(size + 1, c):n] = 0.0
        return block if X is x else block[0]

    def _into(self, x: np.ndarray, m: int, out: np.ndarray) -> np.ndarray:
        """The derivative at one state of occupied size m, written into the row out."""
        self.n_evals += 1
        n = min(prefix_columns(m + 1, self.k), out.size)
        self._eval(self._widths.get(n) or self._width(n), x[:n], out[:n])
        if n < out.size:
            out[n:] = 0.0
        return out

    def _eval(self, views: tuple, xn: np.ndarray, out: np.ndarray) -> None:
        """The derivative at xn, one state or a block of rows on n columns, into out of xn's shape.

        The statements of every call; views are ``_width``'s for xn's shape.
        """
        if self._a is not None:
            # S_i = sum_{j<=i} j*rate(i,j)*xi_j
            #     = a * (i**d * sum_{j<=i} j*xi_j + sum_{j<=i} j**(1+d)*xi_j)
            # T_i = sum_{j>=i} rate(i,j)*xi_j
            #     = a * (i**d * sum_{j>=i} xi_j + sum_{j>=i} j**d*xi_j)
            # The suffix sums of T are prefix sums of reversed vectors (the
            # real parts; the imaginary ones weigh x by j and j**(1+d)), so one
            # accumulate takes all four.
            (rev_weights, fwd_weights, pair_weights, Z, rev_parts, fwd_parts, pair, rest, S, T, loss,
             shift, shifted) = views
            np.multiply(rev_weights, xn, out=rev_parts)
            np.multiply(fwd_weights, xn, out=fwd_parts)
            np.add.accumulate(Z, axis=-1, out=Z)
            if pair_weights is None:
                pair += pair
            else:
                pair *= pair_weights
                pair += rest
            if self._a != 1.0:  # x * 1.0 is x, bit for bit
                pair *= self._a
        else:
            matvec, sizes, low, up, loss, shift, shifted = views
            S = matvec(low, sizes * xn)
            T = matvec(up, xn)
        # shift holds x_{i-1} * S_{i-1} after its entry 0, +0.0, so out[0] is 0.0 - loss[0]
        np.multiply(xn, S, out=shifted)
        np.add(S, T, out=loss)
        loss *= xn
        np.subtract(shift, loss, out=out)


def _row_products(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A @ x for every row x of X, one matrix-vector product (BLAS gemv) per row.

    numpy runs a stack of matrix-vector products as one gemv each, which
    gives every row the bits of ``A @ x``; a matrix-matrix product would
    group the sums differently.
    """
    return np.matmul(A, X[..., None])[..., 0]


def rhs(state: SizeDistribution, kernel: CoagulationKernel) -> np.ndarray:
    """Time derivative of every component of the truncated system."""
    state.validate()
    return RhsEvaluator(kernel, state.truncation_k)(state.values)


class StateStack:
    """States as the rows of one (n, c) matrix, checked once with their times.

    The rows hold the sizes 1..c of states truncated at ``truncation_k``
    (default c), whose sizes past c are +0.0. Every row gets the checks
    of ``SizeDistribution.validate``, applied to the whole matrix at once;
    the first failing row raises through ``validate`` itself, so the
    error is the same as for a single state. The identity rates take a
    stack as it is, so one stack serves any number of them without being
    stacked or checked again. ``width`` is the widest occupied size of
    the rows, at least 1: the identity forms are taken on sizes 1..width.
    """

    def __init__(self, values: np.ndarray, times: np.ndarray, truncation_k: int | None = None):
        values = np.asarray(values, dtype=float)
        times = np.asarray(times, dtype=float)
        if values.ndim != 2 or times.shape != values.shape[:1]:
            raise ValueError(f"states {values.shape} and times {times.shape} do not pair up")
        if not values.size:
            raise ValueError("no states given")
        k = values.shape[1]
        bad = ~np.all(np.isfinite(values), axis=1) | np.any(values < 0, axis=1) | (times < 0)
        if k < 2 or bad.any():
            i = int(np.argmax(bad))
            SizeDistribution(values[i], k, float(times[i])).validate()
        self.values = values
        self.truncation_k = k if truncation_k is None else int(truncation_k)
        self.width = max(1, int(occupied_sizes(values).max()))


def _stacked_values(states) -> tuple[StateStack, bool]:
    """One state, a sequence of states or a ``StateStack``, as a ``StateStack``.

    States are checked as ``StateStack`` checks its rows; a stack is taken
    as it is. The flag tells whether a single state was given.
    """
    if isinstance(states, StateStack):
        return states, False
    single = isinstance(states, SizeDistribution)
    batch = [states] if single else list(states)
    if not batch:
        raise ValueError("no states given")
    k = batch[0].truncation_k
    for s in batch:
        if k < 2 or s.truncation_k != k or s.values.shape != (k,):
            s.validate()
            raise ValueError(f"states mix truncation sizes {k} and {s.truncation_k}")
    return StateStack(np.array([s.values for s in batch]), [s.time for s in batch]), single


def _quadratic_forms(X: np.ndarray, A: np.ndarray, single: bool):
    """x^T A x for every row x of X: a float for a single state, else an array.

    X @ A is written into one (n, a) array a row block at a time, each
    block at most GEMM_CELLS multiply-adds and one row at least, so that
    OpenBLAS keeps every product on the calling thread. At 1001 x 32 x 32
    the blocked product takes 42 us, numpy's own einsum loop 350-390 us.
    Blocked and unblocked products agree to rounding, not bit for bit: a
    gemm row's last bits can depend on where the row sits in the product,
    and a one-row block runs as a matrix-vector product.
    """
    n, a = X.shape
    XA = np.empty((n, a))
    rows = max(1, GEMM_CELLS // (a * a))
    for i in range(0, n, rows):
        np.matmul(X[i:i + rows], A, out=XA[i:i + rows])
    rates = np.einsum("nj,nj->n", XA, X)
    return float(rates[0]) if single else rates


def weak_form_rate(psi, states, kernel: CoagulationKernel) -> float | np.ndarray:
    """Rearranged time derivative of sum_i psi_i xi_i over the full state.

    Computes

        sum_{i=1}^{k-1} sum_{j=1}^{i} j psi_{i+1} rate(i,j) xi_i xi_j
      - sum_{i=1}^{k}   sum_{j=1}^{i} (j psi_i + psi_j) rate(i,j) xi_i xi_j

    which equals <psi, rhs(state)> as an algebraic identity. It is the
    q = k case of ``finite_identity_rate``, whose boundary block is then
    empty; psi must have length k. ``states`` is taken as there.
    """
    stack, single = _stacked_values(states)
    k = stack.truncation_k
    return _identity_rate(_as_weights(psi, k, "psi"), stack, single, kernel, k)


def finite_identity_rate(
    phi, states, kernel: CoagulationKernel, q: int
) -> float | np.ndarray:
    """Time derivative of the partial sum sum_{i<=q} phi_i xi_i, 1 <= q <= k.

    Three index blocks contribute:

        P1 = {1 <= i <= q-1, 1 <= j <= i}:  + j phi_{i+1} rate(i,j) xi_i xi_j
        P2 = {1 <= i <= q,   1 <= j <= i}:  - (j phi_i + phi_j) rate(i,j) xi_i xi_j
        P3 = {q+1 <= i <= k, 1 <= j <= q}:  - phi_j rate(i,j) xi_i xi_j

    The P3 block runs to infinity for the untruncated system; components
    above k are identically zero here, so cutting it at k is exact. At
    q = k it is empty and this is the weak form. ``states`` is one
    ``SizeDistribution`` (returns a float), or a sequence of them with a
    common truncation size or a ``StateStack`` (returns one rate per
    state). The three blocks
    fold into one lower-triangular coefficient matrix (P3 lies below the
    diagonal because j <= q < i), so every state costs a quadratic form.
    """
    stack, single = _stacked_values(states)
    k = stack.truncation_k
    q = int(q)
    if not 1 <= q <= k:
        raise ValueError(f"q must lie in 1..truncation_k={k}, got {q}")
    return _identity_rate(_as_weights(phi, q, "phi"), stack, single, kernel, q)


def _identity_rate(f: np.ndarray, stack: StateStack, single: bool, kernel, q: int):
    """The P1 - P2 - P3 quadratic forms of ``finite_identity_rate`` for the rows of a stack.

    Sizes past a = stack.width, the widest occupied size of the rows, are
    +0.0 in every row and add nothing, so the forms are taken on sizes
    1..a: their cost follows the front of the states, not k.
    """
    a = stack.width
    b = min(q, a)
    jv = np.arange(1, b + 1, dtype=float)
    coef = np.zeros((a, a))
    coef[:b, :b] = -(jv[None, :] * f[:b, None] + f[None, :b])
    coef[: min(q - 1, a), :b] += jv[None, :] * f[1: min(q, a + 1), None]
    coef[q:, :b] = -f[None, :b]
    return _quadratic_forms(stack.values[:, :a], np.tril(kernel.rate_matrix(a) * coef), single)


def mass_leak_rate(state: SizeDistribution, kernel: CoagulationKernel) -> float:
    """Instantaneous mass outflow through the truncation boundary.

    Setting psi_i = i in the weak form telescopes to

        d/dt sum i xi_i = -(k+1) * xi_k * sum_{j=1}^{k} j rate(k,j) xi_j

    so this returns the nonnegative leak (k+1) * xi_k * S_k. It is the
    exact rate at which the truncated system loses mass, measurable far
    below the floating-point resolution of the mass itself.
    """
    return mass_leak_rates(state.values[None], kernel, state.truncation_k)[0]


def mass_leak_rates(rows: np.ndarray, kernel: CoagulationKernel, k: int) -> list[float]:
    """``mass_leak_rate`` of every row of a block of states stored on sizes 1..w, w <= k.

    Only a row of width k can hold xi_k, and a row whose xi_k is zero (of
    either sign) leaks 0.0. The kernel row rate(k, .) is built once per
    call, and only if some row leaks; the leaking rows are weighted by it
    in one product, and each then takes its own dot product with the
    sizes, as a one-state call does.
    """
    leaks = [0.0] * len(rows)
    leaking = np.flatnonzero(rows[:, k - 1]) if rows.shape[1] == k else []
    if len(leaking):
        jv = np.arange(1, k + 1, dtype=float)
        rate = np.asarray(kernel.rule(np.full(k, k), np.arange(1, k + 1)), dtype=float)
        X = rows[leaking]
        for r, last, weighted in zip(leaking.tolist(), X[:, -1].tolist(), rate * X):
            leaks[r] = (k + 1.0) * last * float(np.dot(jv, weighted))
    return leaks
