"""Positivity-budgeted adaptive time integration of the truncated system.

The workhorse is an embedded Runge-Kutta pair: the higher order solution
is propagated and its difference to the embedded lower order ones drives
step control. At rel_tol above DOP853_REL_TOL, the 1e-8 default
included, that is the Dormand-Prince 5(4) pair. At or below it, it is
Dormand-Prince 8(5,3) (DOP853). One routine samples every tableau, the
nested dense-output polynomial of DOP853. DOP853 takes all seven of its
rows, whose three extra stages only a step that holds a sample
evaluates; Dormand-Prince 5(4) and RK4 take the first three, which are
cubic Hermite interpolation on the stored derivatives. Each tableau has
its reach, the sizes past a state's occupied size that a step from it
and the step's samples can reach: 7 for Dormand-Prince 5(4) and RK4
(STEP_REACH), 16 for DOP853.

The right-hand side is quasi-positive (a vanished component can only be
created), so negative values are pure discretization overshoot: clamped
to zero, with their size-weighted mass charged to one run budget
MASS_BUDGET_REL * M1(0), of which a trial step may take its share by h,
else it is rejected.

A fixed-step classical RK4 mode, an independent method, is the oracle for
accuracy cross checks. It runs as a third tableau through the same trial
step and loop, never rejecting; its independent code route is
``tests/oracles.rk4_oracle``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .diagnostics import DiagnosticsRecord, compute_record, moment
from .errors import ConfigError, IntegrationStalledError, NumericError
from .kernels import CoagulationKernel
from .system import RhsEvaluator, SizeDistribution, occupied_size, occupied_sizes, prefix_columns, row_blocks


def _columns(rows) -> tuple:
    """Each row of tableau weights as a column, to multiply stage rows by."""
    return tuple(np.array(row)[:, None] for row in rows)


def _stack(rows) -> np.ndarray:
    """Rows of tableau weights, all over the same stages, as one (rows, stages, 1) stack of columns."""
    return np.array(rows, dtype=float).reshape(len(rows), -1 if len(rows) else 1, 1)


# Dormand-Prince 5(4) tableau
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
# stage couplings of stages 2..7, each a column over the stages before it; the
# last is the 5th order weights (first same as last)
_DP_A = _columns((
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    _DP_B5[:6],
))
# classical RK4 in the same form, with no embedded error estimate
_RK4_A = _columns((
    (1 / 2,),
    (0.0, 1 / 2),
    (0.0, 0.0, 1.0),
    (1 / 6, 1 / 3, 1 / 3, 1 / 6),
))

# Dormand-Prince 8(5,3) (DOP853; Hairer, Norsett & Wanner, Solving ODEs I, II.5-II.6),
# the decimal literals of scipy/integrate/_ivp/dop853_coefficients.py. Stage couplings
# of stages 2..12, then the 8th order weights; f at the new state is stage 13.
_DOP853_A = (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1, 6.02165389804559606850219397283e-2,
     -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
    (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
     1.89151789931450038304281599044, -5.8012039600105847814672114227,
     3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
     2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2),
)
# the couplings of the three dense-output stages 14..16, over stages 1..13 and each other
_DOP853_A_DENSE = (
    (5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0, 2.53500210216624811088794765333e-1,
     -2.46239037470802489917441475441e-1, -1.24191423263816360469010140626e-1,
     1.5329179827876569731206322685e-1, 8.20105229563468988491666602057e-3,
     7.56789766054569976138603589584e-3, -8.298e-3),
    (3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0, 2.83009096723667755288322961402e-2,
     5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2, 0.0, 0.0,
     -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
     -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1),
    (-4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0, -4.69762141536116384314449447206,
     7.68342119606259904184240953878, 4.06898981839711007970213554331,
     3.56727187455281109270669543021e-1, 0.0, 0.0, 0.0, -1.39902416515901462129418009734e-3,
     2.9475147891527723389556272149, -9.15095847217987001081870187138),
)
_DOP853_B = np.array(_DOP853_A[-1])
# the 5th order error weights, and the 3rd order ones as the 8th order weights less bhh
_DOP853_E5 = np.array([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1, 0.0])
_DOP853_BHH = np.zeros(12)
_DOP853_BHH[[0, 8, 11]] = (0.244094488188976377952755905512, 0.733846688281611857341361741547,
                           0.220588235294117647058823529412e-1)
_DOP853_E3 = np.append(_DOP853_B - _DOP853_BHH, 0.0)
# interpolant rows F3..F6 over stages 1..16, each times h (F0..F2 come from the step's ends)
_DOP853_D = np.array([
    (-0.84289382761090128651353491142e+1, 0.0, 0.0, 0.0, 0.0, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1),
    (0.10427508642579134603413151009e+2, 0.0, 0.0, 0.0, 0.0, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
     0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2),
    (0.19985053242002433820987653617e+2, 0.0, 0.0, 0.0, 0.0, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
     0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2),
    (-0.25693933462703749003312586129e+2, 0.0, 0.0, 0.0, 0.0, -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3),
])

# PI step controller: exponents 0.7 / q and 0.4 / q, rejection exponent -1 / q,
# q the order of the tableau; safety 0.9, per-step growth clamped to [0.2, 5].
_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0

# run budget for clamped mass and for a rise of sampled mass, relative to M1(0)
MASS_BUDGET_REL = 1e-9

# Sizes past y's occupied size that one trial step from y, and the samples formed
# from it, can reach under Dormand-Prince 5(4) and RK4: each of the 7 Dormand-Prince
# stages reaches one size further than its input (the 5 rows of an RK4 step reach
# less), and a sample of these tableaux, with no dense-output stage (cubic Hermite,
# ``_dense_samples`` on F0..F2), reaches no further than f at the new state. No
# state a step hands to the right-hand side, and no sample formed from the step,
# holds anything past it. DOP853 reaches 16: 13 stages, then 3 dense-output stages.
STEP_REACH = 7

# Adaptive runs at rel_tol at or below this take DOP853, the others Dormand-Prince
# 5(4): the loosest rel_tol at which DOP853 took no more right-hand-side evaluations
# on any of the measured cases (README, "Which pair runs").
DOP853_REL_TOL = 1e-10

# Steps on at most this many columns multiply their stage rows by weight planes, the
# tableau's weights repeated along the columns, so each product is one coalesced loop.
# Wider steps take the (..., 1) columns themselves: at n = 65,536 and 131,072 planes
# ran 8-20 % slower and held 2.4-3.3 times the step's memory (README, "Weight planes").
PLANE_COLUMNS = 256


@dataclass(frozen=True)
class _Tableau:
    """An explicit Runge-Kutta tableau as ``_dp_step`` takes it.

    ``couplings`` are columns in ``_DP_A``'s form, stages 2.. then the
    weights of the new state, whose f is the last stage. ``errors`` stacks
    the error weight rows over all those stages: none (RK4), one
    (Dormand-Prince 5(4)) or two, E5 and E3 (DOP853). ``order`` is the q
    of the PI controller. ``reach`` is how many sizes past y's occupied
    size a step and its samples can reach. ``dense`` are the couplings of
    the dense-output stages and ``interpolant`` stacks the rows that weigh
    every stage into F3, F4, ... of ``_dense_samples``; a tableau without
    them samples by F0..F2 alone, the cubic Hermite interpolant. Both
    stacks are ``_stack``s, (rows, stages, 1).
    """

    name: str
    couplings: tuple
    errors: np.ndarray
    order: int
    reach: int
    dense: tuple
    interpolant: np.ndarray


_DOPRI5 = _Tableau("dopri5", _DP_A, _stack((_DP_B5 - _DP_B4,)), 5, STEP_REACH, (), _stack(()))
_RK4 = _Tableau("rk4", _RK4_A, _stack(()), 4, STEP_REACH, (), _stack(()))
_DOP853 = _Tableau("dop853", _columns(_DOP853_A), _stack((_DOP853_E5, _DOP853_E3)), 8, 16,
                   _columns(_DOP853_A_DENSE), _stack(_DOP853_D))
_TABLEAUX = {t.name: t for t in (_DOPRI5, _DOP853, _RK4)}

MODE_ADAPTIVE = "adaptive"
MODE_FIXED = "fixed_step"


@dataclass
class SolverConfig:
    t_end: float
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step: float | None = None
    mode: str = MODE_ADAPTIVE
    fixed_h: float | None = None
    sample_times: np.ndarray | None = None

    def __post_init__(self):
        if self.sample_times is not None:
            self.sample_times = np.asarray(self.sample_times, dtype=float)

    def validate(self) -> None:
        # json.load accepts NaN and Infinity, so each number is bounded on both sides
        if not 0 < self.t_end < np.inf:
            raise ConfigError("solver.t_end", f"must be positive and finite, got {self.t_end}")
        if not 0 < self.rel_tol < np.inf:
            raise ConfigError("solver.rel_tol", f"must be positive and finite, got {self.rel_tol}")
        if not 0 < self.abs_tol < np.inf:
            raise ConfigError("solver.abs_tol", f"must be positive and finite, got {self.abs_tol}")
        if self.max_step is not None and not 0 < self.max_step < np.inf:
            raise ConfigError("solver.max_step", f"must be positive and finite, got {self.max_step}")
        if self.mode not in (MODE_ADAPTIVE, MODE_FIXED):
            raise ConfigError("solver.mode", f"unknown mode {self.mode!r}")
        if self.mode == MODE_FIXED and (self.fixed_h is None or not 0 < self.fixed_h < np.inf):
            raise ConfigError("solver.fixed_h", "fixed_step mode needs a positive finite step size")
        if self.mode != MODE_FIXED and self.fixed_h is not None:
            raise ConfigError("solver.fixed_h", f"applies to fixed_step mode only, mode is {self.mode!r}")
        ts = self.resolved_sample_times()
        if not np.all(np.isfinite(ts)):
            raise ConfigError("solver.sample_times", "must all be finite")
        if ts[0] != 0.0 or abs(ts[-1] - self.t_end) > 1e-12 * max(1.0, self.t_end):
            raise ConfigError("solver.sample_times", "must start at 0 and end at t_end")
        if np.any(np.diff(ts) <= 0):
            raise ConfigError("solver.sample_times", "must be strictly ascending")

    def resolved_sample_times(self) -> np.ndarray:
        if self.sample_times is None:
            return np.linspace(0.0, self.t_end, 101)
        return self.sample_times

    def resolved_max_step(self) -> float:
        return self.max_step if self.max_step is not None else self.t_end / 10.0

    def to_dict(self) -> dict:
        return {
            "t_end": self.t_end,
            "rel_tol": self.rel_tol,
            "abs_tol": self.abs_tol,
            "max_step": self.resolved_max_step(),
            "mode": self.mode,
            "fixed_h": self.fixed_h,
            "sample_times": [float(t) for t in self.resolved_sample_times()],
        }


@dataclass
class StepStats:
    n_accepted: int = 0
    n_rejected_error: int = 0
    n_rejected_positivity: int = 0
    min_step: float = np.inf
    max_step: float = 0.0
    clamped_mass_step: float = 0.0
    clamped_mass_sample: float = 0.0
    n_rhs_evals: int = 0
    # largest occupied_size over the initial and every accepted state; k once the front reached k
    max_occupied_size: int = 0
    # the tableau that ran: "dopri5", "dop853" or "rk4"
    tableau: str = "dopri5"

    @property
    def reach(self) -> int:
        """Sizes past an accepted state's occupied size that a step of the run and its samples can reach."""
        return _TABLEAUX[self.tableau].reach

    @property
    def n_rejected(self) -> int:
        """Rejected trial steps of either cause: error norm above 1, or over the positivity budget."""
        return self.n_rejected_error + self.n_rejected_positivity

    def to_dict(self) -> dict:
        return {
            "tableau": self.tableau,
            "n_accepted": self.n_accepted,
            "n_rejected": self.n_rejected,
            "n_rejected_error": self.n_rejected_error,
            "n_rejected_positivity": self.n_rejected_positivity,
            "min_step": self.min_step if np.isfinite(self.min_step) else None,
            "max_step": self.max_step,
            "clamped_mass_step": self.clamped_mass_step,
            "clamped_mass_sample": self.clamped_mass_sample,
            "n_rhs_evals": self.n_rhs_evals,
            "max_occupied_size": self.max_occupied_size,
        }


@dataclass
class Trajectory:
    """A sampled run of ``kernel``: sample i is taken at times[i] and holds states[i].

    ``states`` is a (samples x w) matrix, w being the largest
    ``occupied_size`` of any sample. Row i holds sample i's concentrations
    of sizes 1..w; every size past w, up to truncation_k, is +0.0 in every
    sample. So the matrix loses nothing, and its memory follows the front
    of the run, not k. ``state``, ``final`` and ``states_matrix`` rebuild
    full-length rows from it.

    ``diagnostics`` is derived from ``states`` on first read and kept, so
    a caller that reads no record pays for none.
    """

    times: np.ndarray
    states: np.ndarray
    truncation_k: int
    kernel: CoagulationKernel
    step_stats: StepStats
    config: SolverConfig

    @cached_property
    def diagnostics(self) -> list[DiagnosticsRecord]:
        """One record per sample, computed on first read.

        One ``compute_record`` call per block of ``system.row_blocks`` of
        the stored rows, each evaluating its block's right-hand side inside
        the call on the prefix_columns(w + 1, k) columns it pads the block
        to, w being the stored width: the blocks are cut for that width, so
        the read's time and memory follow the front of the run, not k. The
        blocks share one ``RhsEvaluator``, built by this read and dropped
        after it: the trajectory keeps none, so a table kernel's k x k rate
        matrices do not outlive the read.
        """
        rhs = RhsEvaluator(self.kernel, self.truncation_k)
        records = []
        width = prefix_columns(self.states.shape[1] + 1, self.truncation_k)
        for rows in row_blocks(self.times.size, width):
            records += compute_record(self.states[rows], self.kernel, rhs)
        return records

    def states_matrix(self, width: int | None = None) -> np.ndarray:
        """The samples as the rows of a fresh matrix on sizes 1..width (default truncation_k)."""
        width = self.truncation_k if width is None else width
        out = np.zeros((self.times.size, width))
        out[:, : self.states.shape[1]] = self.states[:, :width]
        return out

    def state(self, i: int) -> SizeDistribution:
        """Sample i (negative counts from the end) as a fresh full-length state."""
        values = np.zeros(self.truncation_k)
        row = self.states[i]
        values[: row.size] = row
        return SizeDistribution(values, self.truncation_k, float(self.times[i]))

    def mass_series(self) -> np.ndarray:
        return np.array([d.moment_1 for d in self.diagnostics])

    def number_series(self) -> np.ndarray:
        return np.array([d.moment_0 for d in self.diagnostics])

    def final(self) -> SizeDistribution:
        return self.state(-1)

    def check_invariants(self) -> list[str]:
        """Return human-readable violations (empty list = all good).

        Checks strictly ascending sample times, componentwise positivity,
        mass monotonicity and the clamped-mass budget, both at
        MASS_BUDGET_REL * M1(0).
        """
        problems: list[str] = []
        times = self.times
        if np.any(np.diff(times) <= 0):
            problems.append("sample times are not strictly ascending")
        negative = (self.states < 0).any(axis=1)
        if negative.any():
            r = int(np.argmax(negative))
            i = int(np.argmin(self.states[r]))
            problems.append(f"negative component xi_{i + 1} = {self.states[r, i]:.3e} "
                            f"in sample at t={times[r]:.6g}")
        m1 = self.mass_series()
        budget = MASS_BUDGET_REL * m1[0]
        rises = np.diff(m1) > budget
        if rises.any():
            idx = int(np.argmax(rises))
            problems.append(
                f"mass increased by {m1[idx + 1] - m1[idx]:.3e} between "
                f"t={times[idx]:.6g} and t={times[idx + 1]:.6g} (budget {budget:.3e})"
            )
        step, sample = self.step_stats.clamped_mass_step, self.step_stats.clamped_mass_sample
        if step + sample > budget:
            problems.append(f"clamped mass {step + sample:.3e} (steps {step:.3e}, samples "
                            f"{sample:.3e}) exceeds budget {budget:.3e}")
        return problems


def _clamp(block: np.ndarray, sizes: np.ndarray) -> list[float]:
    """Zero the negative entries of a block of rows in place.

    Returns the size-weighted mass each row with a negative entry gave up,
    in row order, for the caller to charge row after row. A trial step
    clamps its new state as a one-row block; an empty list means the block
    is unchanged.
    """
    if block.min(initial=0.0) >= 0.0:
        return []
    neg = block < 0.0
    held = sizes[: block.shape[1]]
    masses = [float(np.dot(held[neg[r]], -block[r, neg[r]])) for r in np.flatnonzero(neg.any(axis=1))]
    block[neg] = 0.0
    return masses


class _StepWork:
    """The tableau every trial step of one run takes, and the scratch it reuses.

    ``tableau`` is a ``_Tableau``, Dormand-Prince 5(4) by default.
    ``stages`` holds the stages as rows: the step's, the last being f at
    the new state, then the dense-output stages, if any. ``terms`` holds
    the tableau-weighted copies of the stage rows that ``_combine`` adds
    up, one plane per row of the widest stack. ``vec`` holds the error
    scale, then rows shared in turn by each stage input, y5, the error
    estimates and the rows F of ``_dense_samples``. A step uses their
    first n columns, through views built once per width. All three are as
    wide as the widest step so far: a wider step replaces them by fresh
    ones of its own width, a power of two or k (``prefix_columns``), so a
    run whose front stays far below k never holds k columns. A step reads
    no column of them past its own n, so what a wider step left there does
    not matter.
    """

    def __init__(self, tableau: _Tableau = _DOPRI5):
        self.tableau = tableau
        rows = len(tableau.couplings) + 1 + len(tableau.dense)
        self.stages = np.empty((rows, 0))
        self.terms = np.empty((max(1, len(tableau.errors), len(tableau.interpolant)), rows, 0))
        self.vec = np.empty((4 + len(tableau.interpolant), 0))  # the scale row and F0, F1, F2, ...
        self._widths = {}

    def width(self, n: int) -> tuple:
        """(stages, rows, combos, head, scale, F) on the first n columns.

        ``rows`` are the rows of stages, one view each, kept with the width
        so that a stage loop cuts none. A combo is what ``_combine`` takes:
        tableau weights, as their ``_plane`` for the width, the stage rows
        they weigh, the scratch their products go to and the rows of vec
        their sums go to. There is one
        per coupling and then per dense-output coupling, in stage order,
        each summing into head, then one for the error stack and one for
        the interpolant stack, which sums into F3, F4, ... head, scale and
        F are rows of vec.
        """
        views = self._widths.get(n)
        if views is None:
            if n > self.vec.shape[1]:
                self.stages = np.empty((len(self.stages), n))
                self.terms = np.empty(self.terms.shape[:2] + (n,))
                self.vec = np.empty((len(self.vec), n))
                self._widths.clear()
            t, stages, terms, vec = self.tableau, self.stages[:, :n], self.terms[..., :n], self.vec[:, :n]
            last, errors, head = len(t.couplings) + 1, len(t.errors), vec[1]
            combos = tuple((col, stages[:s], terms[0, :s], head) for s, col in enumerate(t.couplings + t.dense, start=1))
            combos += ((t.errors, stages[:last], terms[:errors, :last], vec[1:1 + errors]),
                       (t.interpolant, stages, terms[: len(t.interpolant)], vec[4:]))
            combos = tuple((_plane(w, out), rows, out, sums) for w, rows, out, sums in combos)
            views = self._widths[n] = (stages, tuple(stages), combos, head, vec[0], vec[1:])
        return views


def _plane(weights: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Tableau weights as ``_combine`` takes them into ``terms``.

    On at most PLANE_COLUMNS columns, a fresh C-contiguous plane of the
    terms' shape, the (..., 1) weights repeated along the columns; on more,
    the weights themselves, which the multiply broadcasts. Either way each
    product is the same multiply of the same two floats.
    """
    if terms.shape[-1] > PLANE_COLUMNS:
        return weights
    plane = np.empty(terms.shape)
    plane[...] = weights
    return plane


def _combine(weights: np.ndarray, rows: np.ndarray, terms: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sum_j weights[..., j] * rows[j] into out, for one tableau column or a ``_stack`` of them.

    One multiply of the stage rows by the column or columns, or by their
    ``_plane``, into ``terms``,
    then one np.add.reduce over the stage axis. That reduction adds whole
    rows one after another, first to last, so each sum rounds exactly like
    the left-to-right sum of its terms.
    """
    np.multiply(weights, rows, out=terms)
    return np.add.reduce(terms, axis=-2, out=out)


def _stages(f, y, h, combos, rows, head, first: int) -> None:
    """Stages first, first + 1, ... into their ``rows``, one per combo.

    The input of stage s is y + h * sum_j c_j * stage_j over the stages
    before it, formed in the combos' output row ``head``; f writes the
    stage straight into its row and checks nothing.
    """
    for s, combo in enumerate(combos, start=first):
        _combine(*combo)
        head *= h
        head += y
        f(head, out=rows[s])


def _dp_step(f, y, f0, h, rel_tol, abs_tol, work: _StepWork, occupied: int):
    """One trial step of size h from y, where f0 = f(y), of the tableau in ``work``.

    Stage 1 is the caller's f0 and the last stage is f at the new state
    (Dormand-Prince is first-same-as-last; RK4 takes it for the same reuse).
    Returns (y5, err_norm, f_last) with y5 the new state, err_norm the norm
    of the error estimate, weighted by abs_tol + rel_tol * max(|y|, |y5|),
    or 0.0 for a tableau without one (RK4), and f_last = f(y5); both arrays
    are fresh, and work.stages holds the stages until the next call.

    ``occupied`` is occupied_size(y). Each stage reaches one size further
    than its input, so no stage, stage input, y5 or f_last holds anything
    beyond size occupied + reach, the tableau's reach, and the step works
    on the first n = prefix_columns(occupied + reach, k) columns only.
    Beyond them the full-length arithmetic adds zeros to the +0.0 tail of
    y, which gives +0.0 whatever the signs of those zeros: that is the tail
    of y5. Every stage input, y5 the last, is formed in the n-column row
    ``head`` of ``work.vec``, and f writes each stage straight into its row
    (``f(x, out=row)``).

    The norm is that of Hairer, Norsett & Wanner (Solving ODEs I, II.4)
    over the components that can be nonzero, the support, the first
    min(k, occupied + reach) sizes. Dormand-Prince 5(4) takes the RMS of
    the scaled error h * sum_i e_i k_i: the squares are summed over the
    support (one pairwise np.add.reduce) and divided by its size. DOP853
    takes Hairer's combined norm h * s5 / sqrt((s5 + 0.01 * s3) * support),
    s5 and s3 the sums of squares of the scaled E5 and E3 combinations
    (the estimate of Hairer's DOP853 code), and inf when either sum
    overflows. The error past the support
    is exactly zero, so dividing by k instead would loosen the tolerance by
    about sqrt(k / support). The sums run over the support alone, not over
    the n columns: numpy groups a pairwise sum by its length, and n depends
    on k where k is not a power of two. So while occupied + reach < k, the
    step gives the same bits at every k.

    Every tableau-weighted sum of stage rows is one ``_combine``: one per
    stage input (``_stages``), one for y5, whose coupling row gives the
    last stage weight zero, and one for all the error rows at once.

    The step checks finiteness over y5, before it evaluates the last
    stage, and over the last stage; f checks no stage input. That raises
    ``NumericError`` in the same trial steps as checking every stage
    input, every stage, y5 and f_last would. Component i of f(x) ends in
    - x_i * (S_i + T_i), and the product of a NaN or an infinity with any
    float, zero included, is NaN or infinite, as is a sum or difference
    with one. So a non-finite stage input gives a non-finite stage,
    through the separable and the matrix route alike, and a non-finite
    stage a non-finite y5: y5's sum weighs every stage before the last,
    zero weights included, and h is finite. The last stage is checked on
    all n columns, not through the norm: a rate sum that overflows past
    the support gives 0 * inf there, which the norm does not read. A step
    of finite stages whose error overflows has err_norm inf and is
    rejected.
    """
    k = y.size
    tableau = work.tableau
    support = min(k, occupied + tableau.reach)
    n = prefix_columns(support, k)
    _, rows, combos, head, scale, _ = work.width(n)
    last = len(tableau.couplings)  # the row of f at the new state
    yn = y[:n]

    rows[0][:] = f0[:n]
    _stages(f, yn, h, combos[: last - 1], rows, head, 1)
    # y5 is formed in head like a stage input, and f(y5) is the last stage
    _combine(*combos[last - 1])
    head *= h
    head += yn
    if not np.isfinite(head).all():
        raise NumericError("non-finite values in trial step")
    y5 = np.zeros(k)
    y5[:n] = head
    f(head, out=rows[last])
    if not np.isfinite(rows[last]).all():
        raise NumericError("non-finite values in trial step")
    f_last = np.zeros(k)
    f_last[:n] = rows[last]
    if not len(tableau.errors):
        return y5, 0.0, f_last
    np.abs(yn, out=scale)
    np.maximum(scale, np.abs(head, out=head), out=scale)
    scale *= rel_tol
    scale += abs_tol
    err = _combine(*combos[-2])
    if len(err) == 1:  # Dormand-Prince 5(4) scales the estimate by h, DOP853 the norm
        err *= h
    err /= scale
    err *= err
    squares = [float(np.add.reduce(row[:support])) for row in err]
    if len(squares) == 1:
        return y5, math.sqrt(squares[0] / support), f_last
    s5, s3 = squares
    if not math.isfinite(s5 + s3):
        return y5, math.inf, f_last
    if s5 == 0.0:
        return y5, 0.0, f_last
    return y5, h * s5 / math.sqrt((s5 + 0.01 * s3) * support), f_last


def _dense_samples(f, work: _StepWork, t0, h, y0, f0, y1, f1, times, n, sizes, stats) -> np.ndarray:
    """Samples at the times in (t0, t0 + h) of a nonempty list, as rows of a fresh block.

    The step of size h from y0, where f0 = f(y0), left its stages in
    ``work`` on its n = prefix_columns(occupied_size(y0) + reach, k)
    columns, and was accepted as y1, f1 = f(y1): y1 is its new state, or
    that state clamped. This evaluates the tableau's dense-output stages,
    if any, into the rows after the step's (``_stages``) and forms the
    nested polynomial of Hairer, Norsett & Wanner (Solving ODEs I, II.6,
    as scipy's DOP853): F0 = y1 - y0, F1 = h f0 - F0, F2 = 2 F0 - h (f1 +
    f0), then h * D K over all stages for every ``interpolant`` row D, in
    one ``_combine``. A row at theta = (t - t0) / (t1 - t0) is y0 + theta
    (F0 + (1 - theta) (F1 + theta (F2 + ...))): the factor after F_i is
    theta for an even i and 1 - theta for an odd one, the last row's
    included. It is formed for all rows at once. With F0..F2 alone
    (Dormand-Prince 5(4), RK4) this is the cubic Hermite interpolant on
    (y0, h f0, y1, h f1); DOP853's F3..F6 make it that tableau's
    7th-degree dense output. Either way the polynomial passes through y1
    at theta = 1, clamped or not. The block holds the n columns, past
    which every sample is +0.0; its rows are clamped by ``_clamp`` and
    charged to stats.clamped_mass_sample row after row. A non-finite
    dense-output stage raises ``NumericError``.
    """
    stages, rows, combos, head, _, F = work.width(n)
    tableau = work.tableau
    first = len(tableau.couplings) + 1  # the row of the first dense-output stage
    y0n, f0n = y0[:n], f0[:n]
    if tableau.dense:
        _stages(f, y0n, h, combos[first - 1:-2], rows, head, first)
        if not np.isfinite(stages[first:]).all():
            raise NumericError("non-finite values in dense output")
    np.subtract(y1[:n], y0n, out=F[0])
    np.subtract(h * f0n, F[0], out=F[1])
    np.subtract(2 * F[0], h * (f1[:n] + f0n), out=F[2])
    if len(tableau.interpolant):
        _combine(*combos[-1])
        F[3:] *= h
    t1 = t0 + h
    theta = np.array([(t - t0) / (t1 - t0) for t in times])[:, None]
    odd = 1 - theta  # the factor after an odd-indexed row
    last = len(F) - 1
    vals = F[last] * (odd if last % 2 else theta)
    for i in range(last - 1, -1, -1):
        vals += F[i]
        vals *= odd if i % 2 else theta
    vals += y0n
    for mass in _clamp(vals, sizes):
        stats.clamped_mass_sample += mass
    return vals


def integrate(
    init: SizeDistribution,
    kernel: CoagulationKernel,
    config: SolverConfig,
) -> Trajectory:
    """Integrate the truncated system and sample it on the output grid.

    One loop serves every tableau, which sets only its parameters.
    Adaptive mode runs an embedded pair under PI step control between
    min_step = 1e-12 * t_end and max_step: DOP853 when rel_tol is at or
    below ``DOP853_REL_TOL``, else Dormand-Prince 5(4). fixed_step mode
    runs the RK4 tableau with max_step = fixed_h, no stall floor and no
    rejection: its err_norm is 0.0, so the PI update raises h and the cap
    returns it to fixed_h. The samples of one step are formed as one
    block by the tableau's nested dense-output polynomial
    (``_dense_samples``): DOP853's own, whose three extra stages only a
    step holding such a sample evaluates, and for the other tableaux its
    three-row case, cubic Hermite on the stored derivatives. A sample at
    a step's end is that state. Steps and samples are clamped nonnegative,
    charging the run budget by source; an adaptive trial step that would
    charge more than budget * h / t_end is halved.

    Each sample goes into ``Trajectory.states`` on its occupied prefix: a
    block is kept on the sizes up to its widest occupied row, not on the
    step's whole window, a sample at a step end
    copies the state's occupied prefix, and the rows are joined once, at
    the width of the widest. So k caps the sizes but sets neither the
    samples' memory nor the stage scratch (``_StepWork``), which follow
    the front of the run. Nor does k enter the step control, whose error
    norm is taken over each step's support (``_dp_step``): a run whose
    front stays below k, m + reach < k, is the same run at every such k.

    The run stops after its last step: it evaluates the right-hand side
    exactly ``step_stats.n_rhs_evals`` times, and the diagnostics records
    are left to the first read of ``Trajectory.diagnostics``. Overflow
    and invalid-value warnings are silenced while stepping, since the
    finiteness checks turn those values into a ``NumericError``. One raised
    while stepping (``IntegrationStalledError`` included) carries the
    run's ``max_occupied_size`` so far and the tableau's ``reach``, whose
    sum bounds the sizes whose rates any right-hand-side call of the run
    read.
    """
    config.validate()
    init.validate()
    if init.time != 0.0:
        raise ValueError(f"initial state must carry time 0, got {init.time}")
    k = init.truncation_k

    if config.mode == MODE_FIXED:
        tableau = _RK4
    else:
        tableau = _DOP853 if config.rel_tol <= DOP853_REL_TOL else _DOPRI5
    reach = tableau.reach
    alpha, beta, reject = 0.7 / tableau.order, 0.4 / tableau.order, -1.0 / tableau.order
    f = RhsEvaluator(kernel, k)
    work = _StepWork(tableau)
    stats = StepStats(tableau=tableau.name)
    sample_times = config.resolved_sample_times()
    sizes = np.arange(1, k + 1, dtype=float)

    times = sample_times.copy()
    times[0] = init.time
    occupied = stats.max_occupied_size = occupied_size(init.values)
    # the samples in order, as blocks of rows on a prefix of the sizes; widest
    # is the largest occupied_size of any of their rows
    blocks = [init.values[None, :occupied].copy()]
    widest = occupied
    next_sample = 1

    def emit(t0, h, y0, f0, y1, f1):
        # Take the accepted state y1 at t1 = t0 + h; form all samples in (t0, t1]
        # as one block, with exact endpoint reuse. Past the step's window y0 and
        # y1 are +0.0, and f0, f1 and the stages zeros, so every sample is +0.0 there.
        nonlocal next_sample, occupied, widest
        window = prefix_columns(occupied + reach, k)
        held = occupied_size(y1[:window])
        stats.max_occupied_size = max(stats.max_occupied_size, held)
        occupied = held
        t1 = t0 + h
        first = next_sample
        while next_sample < sample_times.size and sample_times[next_sample] <= t1 + 1e-14 * max(1.0, t1):
            next_sample += 1
        if next_sample == first:
            return
        due = sample_times[first:next_sample].tolist()
        # the samples at t1 (a suffix, times being ascending) take y1 itself
        inner = len(due)
        while inner and abs(due[inner - 1] - t1) <= 1e-12 * max(1.0, config.t_end):
            inner -= 1
        if inner:
            block = _dense_samples(f, work, t0, h, y0, f0, y1, f1, due[:inner], window, sizes, stats)
            # kept at its widest occupied row: the window's columns past it are +0.0
            used = int(occupied_sizes(block).max())
            blocks.append(block[:, :used].copy() if used < window else block)
            widest = max(widest, used)
        if inner < len(due):
            blocks.append(np.repeat(y1[None, :held], len(due) - inner, axis=0))
            widest = max(widest, held)

    t = 0.0
    y = init.values.copy()
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            fy = f(y)
            if config.mode == MODE_FIXED:
                # RK4 estimates no error, so every step is accepted; the PI update
                # then raises h, and max_step brings it back to fixed_h
                h = max_step = float(config.fixed_h)
                min_step, budget_rate = 0.0, math.inf  # no stall floor; clamps are charged, never rejected
            else:
                max_step = config.resolved_max_step()
                min_step = 1e-12 * config.t_end
                # M1(0) summed on the occupied prefix (fsum), as Trajectory.check_invariants reads it
                budget_rate = MASS_BUDGET_REL * moment(init, 1) / config.t_end
                # initial step from the derivative scale
                fnorm = float(np.max(np.abs(fy)))
                ynorm = float(np.max(np.abs(y)))
                if fnorm > 0:
                    h = min(max_step, 0.01 * (ynorm + config.abs_tol) / fnorm, config.t_end)
                else:
                    h = min(max_step, config.t_end)
            err_prev = 1.0
            while t < config.t_end - 1e-14 * config.t_end:
                h = min(h, config.t_end - t, max_step)
                if h < min_step:
                    raise IntegrationStalledError(
                        f"step size underflow (h={h:.3e} < {min_step:.3e})",
                        time=t,
                        last_state=SizeDistribution(y.copy(), k, t),
                    )
                y5, err_norm, f_last = _dp_step(f, y, fy, h, config.rel_tol, config.abs_tol, work, occupied)
                if err_norm > 1.0:
                    stats.n_rejected_error += 1
                    h *= max(_FAC_MIN, _SAFETY * err_norm ** reject)
                    continue
                clamped = sum(_clamp(y5[None, : prefix_columns(occupied + reach, k)], sizes))
                if clamped > budget_rate * h:
                    stats.n_rejected_positivity += 1
                    h *= 0.5
                    continue
                stats.clamped_mass_step += clamped
                # the last stage is f(y5); a state that gave up mass needs a fresh evaluation
                f_new = f(y5) if clamped else f_last
                emit(t, h, y, fy, y5, f_new)
                stats.n_accepted += 1
                stats.min_step = min(stats.min_step, h)
                stats.max_step = max(stats.max_step, h)
                t += h
                y = y5
                fy = f_new
                # PI update: react to the current error, damp with the previous
                err_norm = max(err_norm, 1e-10)
                fac = _SAFETY * err_norm**-alpha * err_prev**beta
                h *= min(_FAC_MAX, max(_FAC_MIN, fac))
                err_prev = err_norm
    except NumericError as exc:
        exc.max_occupied_size, exc.reach = stats.max_occupied_size, reach
        raise

    if next_sample < sample_times.size:
        # end-of-run numerical fuzz: remaining samples sit at t_end
        blocks.append(np.repeat(y[None, :occupied], sample_times.size - next_sample, axis=0))
        widest = max(widest, occupied)

    states = np.zeros((times.size, widest))
    row = 0
    for block in blocks:
        states[row:row + len(block), : block.shape[1]] = block[:, :widest]
        row += len(block)

    stats.n_rhs_evals = f.n_evals
    return Trajectory(
        times=times,
        states=states,
        truncation_k=k,
        kernel=kernel,
        step_stats=stats,
        config=config,
    )
