"""Temperature diagnostics: fidelity, Mandel Q and the Wigner function.

Each diagnostic has a first-principles numeric path computed from the
density matrix, and the published closed-form series evaluated exactly as
printed.  The numeric paths are cross-checked against each other and act
as ground truth; the closed forms are *audited*, never trusted, because
several of them carry typos.  `ObservableReport` carries both values and
their discrepancy so the audit is always visible.

The Wigner function has a third, exact route: `wigner_exact` applies the
Bopp operators of f(a^dagger) to the thermal Gaussian, which gives the
untruncated heated state's W as a Gaussian times a polynomial of degree 8
in (q, p), with no cutoff.  Its Riemann sum over a grid is separable and
costs a small fraction of a kernel pass, so `heated_wigner` uses it to
start the widening on the first default grid the kernel would accept; every
value it returns still comes from the kernel.

The numeric paths read only the entries of rho they need, from the same
ladder families as `thermal_state_density_expansion`: the fidelity the
leading 5 x 5 block (the target lives on |0>, |1>, |2>, |4>), Mandel Q the
diagonal.  Only the Wigner function builds the full matrix.  The 5 x 5
block's entries do not depend on the cutoff, so the fidelity takes
none: it has no cutoff cap, and its only limit is the printed series'
u^8 = (1 + n_bar)^4, which overflows from n_bar ~ 1.2e77.

Fidelity and Mandel Q are evaluated in blocks of n_bar: `fidelity_columns`
and `mandel_columns` return the numeric, closed-form and discrepancy
columns of a whole block, as array expressions over a leading n_bar
axis, and the sweeps call them once per bounded block of points.  The
point-by-point functions are one-point calls of the same readers, and
every value has the bits a point-by-point evaluation gives.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import GridWideningError, MandelUndefinedError
from .thermal import (
    TAIL_TOL_DEFAULT,
    PhysicalAmplitudes,
    ThermalParams,
    _complex_div,
    _density_entries,
    _float_pow,
    _ladder_coefficients,
    resolve_cutoff,
    thermal_state_density_expansion,
    validate_cutoff,
)

GRID_TOL_DEFAULT = 1e-6
# The exact route rules a grid out only when its Riemann sum misses 1 by
# this much more than GRID_TOL_DEFAULT.  Where the kernel's envelope
# exp(-q^2 - p^2) is a normal double (q^2 + p^2 <= 708, all of the
# [-8, 8]^2 and [-16, 16]^2 default grids) the kernel's sum stays within
# about 1 - trace(rho), at most 1e-10, of the exact one below the cutoff
# cap.  Past that radius the kernel drops the far field (1.5e-7 of the sum
# at n_bar = 14.4 on [-32, 32]^2); `heated_wigner` reaches it only on its
# last grid, which it never rules out.
_EXACT_SUM_MARGIN = 1e-8
_TARGET_SIZE = 5  # the target state lives on |0>, |1>, |2>, |4>
_MEAN_OCCUPATION_EPS = 1e-12  # below this <N> the Mandel Q is undefined

# Our Wigner normalization is integral(W dq dp) = trace(rho); the printed
# closed-form series carries no 1/(2 pi hbar) prefactor, so our output is
# the printed series times this constant (hbar = 1).
CLOSED_FORM_WIGNER_SCALE = 1.0 / (2.0 * math.pi)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular phase-space grid in oscillator units."""

    q_min: float = -8.0
    q_max: float = 8.0
    p_min: float = -8.0
    p_max: float = 8.0
    nq: int = 257
    np: int = 257

    def __post_init__(self):
        if self.nq < 2 or self.np < 2:
            raise ValueError("grid needs at least 2 points per axis")
        if not all(map(math.isfinite,
                       (self.q_min, self.q_max, self.p_min, self.p_max))):
            raise ValueError("grid bounds must be finite")
        if not (self.q_max > self.q_min and self.p_max > self.p_min):
            raise ValueError("grid bounds must be increasing")

    def q_axis(self) -> np.ndarray:
        return np.linspace(self.q_min, self.q_max, self.nq)

    def p_axis(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.np)

    @property
    def cell_area(self) -> float:
        dq = (self.q_max - self.q_min) / (self.nq - 1)
        dp = (self.p_max - self.p_min) / (self.np - 1)
        return dq * dp

    @property
    def _radial(self):
        """`_radial_grid` of this grid, shared by the passes on it (the
        numeric kernel, the closed-form series) through `_radial_of`."""
        return _radial_of(self.q_axis().tobytes(), self.p_axis().tobytes())

    def doubled(self) -> "GridSpec":
        return GridSpec(2 * self.q_min, 2 * self.q_max,
                        2 * self.p_min, 2 * self.p_max,
                        self.nq, self.np)


@dataclass(frozen=True)
class WignerGrid:
    """Real Wigner values W(q_i, p_j) plus the grid geometry.

    values[i, j] corresponds to (q_axis[i], p_axis[j]).  Normalization
    convention: the Riemann sum values * cell_area approximates trace(rho).
    """

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.spec.nq, self.spec.np):
            raise ValueError(f"values shape {vals.shape} does not match grid "
                             f"({self.spec.nq}, {self.spec.np})")

    @property
    def cell_area(self) -> float:
        return self.spec.cell_area

    def integral(self) -> float:
        return float(self.values.sum() * self.cell_area)


@dataclass(frozen=True)
class ObservableReport:
    """Numeric value, closed-form value and their absolute discrepancy.

    `params` echoes the inputs (amplitudes, n_bar and the cutoff of a
    truncated route) and any extra diagnostics a caller attaches.
    """

    value_numeric: float
    value_closed_form: float | None = None
    abs_discrepancy: float | None = None
    params: dict = field(default_factory=dict)

    @classmethod
    def compare(cls, numeric: float, closed_form: float, params: dict
                ) -> "ObservableReport":
        return cls(
            value_numeric=float(numeric),
            value_closed_form=float(closed_form),
            abs_discrepancy=abs(float(numeric) - float(closed_form)),
            params=params,
        )


def _echo_params(amps: PhysicalAmplitudes, params: ThermalParams,
                 **extra) -> dict:
    out = {
        "amps": [repr(a) for a in amps.as_tuple()],
        "n_bar": params.n_bar,
    }
    out.update(extra)
    return out


def _block_n_bar(n_bar) -> np.ndarray:
    """A block reader's n_bar as a float array; ValueError at the first
    value that is not finite and nonnegative."""
    n_bar = np.asarray(n_bar, dtype=float)
    bad = np.flatnonzero(~(np.isfinite(n_bar) & (n_bar >= 0.0)))
    if bad.size:
        raise ValueError(f"n_bar must be finite and nonnegative, got "
                         f"{float(n_bar[bad[0]])}")
    return n_bar


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------

def _fidelity_values(amps: PhysicalAmplitudes, n_bar: np.ndarray) -> np.ndarray:
    """sqrt(<Psi| rho |Psi>) at every n_bar of a block.

    The contraction with the target is one BLAS call per point on that
    point's 5 x 5 block, as a single point has always been evaluated:
    numpy's stacked matmul sums in another order, which would make a
    value depend on its block.
    """
    rho = _density_entries(amps, n_bar, _TARGET_SIZE)
    psi = amps.as_vector(_TARGET_SIZE - 1)
    psi_conj = psi.conj()
    val = np.array([np.real(psi_conj @ block @ psi) for block in rho])
    above = np.flatnonzero(val > 1.0 + 1e-10)
    if above.size:
        raise ArithmeticError(f"fidelity^2 = {float(val[above[0]])} exceeds 1 "
                              f"beyond tolerance")
    return np.sqrt(np.maximum(val, 0.0))


def _fidelity_n_bar(n_bar) -> np.ndarray:
    """`_block_n_bar` of a fidelity reader; FloatingPointError at the first
    value whose u^8, the printed series' highest power, overflows."""
    n_bar = _block_n_bar(n_bar)
    for value in n_bar.tolist():
        # u^8 as `_float_pow` computes it
        try:
            math.sqrt(1.0 + value) ** 8
        except OverflowError:
            raise FloatingPointError(f"u^8 = (1 + n_bar)^4 overflows at "
                                     f"n_bar = {value}") from None
    return n_bar


def fidelity_numeric(amps: PhysicalAmplitudes, params: ThermalParams
                     ) -> float:
    """sqrt(<Psi| rho |Psi>) between the pure target and its heated state,
    from rho's leading 5 x 5 block, whose entries take no cutoff.  Its
    n_bar is checked as `fidelity_columns` checks one."""
    amps.require_normalized()
    return float(_fidelity_values(amps, _fidelity_n_bar([params.n_bar]))[0])


def _fidelity_series_terms(amps: PhysicalAmplitudes, u: np.ndarray):
    """The 26 printed terms of the closed-form fidelity series, verbatim,
    over an array u of Bogoliubov factors.

    Each entry is (coefficient, power of k1).  k1^0 is taken as 1 even at
    zero temperature (0^0 = 1).  Several terms are structurally suspect
    (unconjugated products, odd u powers); they are evaluated as printed.
    Every coefficient has the bits of the scalar series: powers of u go
    through `_float_pow`, and a Python complex numerator divides through
    `_complex_div` (the np.conj ones divide as numpy complex scalars do).
    """
    x, y, z, w = [complex(a) for a in amps.as_tuple()]
    up = {j: _float_pow(u, j) for j in (2, 3, 4, 5, 6, 8)}
    up[1] = u
    ax2, ay2 = abs(x) ** 2, abs(y) ** 2
    az2, aw2 = abs(z) ** 2, abs(w) ** 2
    s2, s6, s24 = math.sqrt(2.0), math.sqrt(6.0), math.sqrt(24.0)
    return [
        (ax2 ** 2, 0),
        (ax2 * ay2 / up[1], 0),
        (ax2 * az2 / (s2 * up[2]), 0),
        (ax2 * aw2 / (s24 * up[4]), 0),
        (ax2 * ay2 / up[1], 0),
        (ax2 ** 2 * ay2 / up[2], 1),
        (ay2 ** 2 / up[2], 0),
        (_complex_div(s2 * ay2 * x * z, up[1]), 1),
        (ay2 * az2 / up[3], 0),
        (s24 * ay2 * aw2 / (s24 * up[5]), 0),
        (s2 * ax2 * az2 / up[2], 0),
        (s2 * np.conj(x) * np.conj(z) * y**2 / up[1], 1),
        (ay2 * az2 / up[3], 0),
        (ax2 * az2, 2),
        (2 * ay2 * az2 / up[2], 1),
        (az2 ** 2 / up[4], 2),
        (_complex_div(s6 * x * w * az2, up[2]), 2),
        (s6 * az2 * aw2 / (s24 * up[6]), 0),
        (s24 * x * np.conj(w) / (s24 * up[4]), 0),
        (s24 * az2 * aw2 / (s24 * up[5]), 0),
        (s6 * x**2 * z**2 * np.conj(w) / up[4], 2),
        (2 * s6 * az2 * aw2 / (s24 * up[4]), 0),
        (ax2 * aw2, 4),
        (4 * ay2 * aw2 / up[2], 3),
        (az2 * aw2 / (2 * up[4]), 2),
        (24 * aw2 ** 2 / (24 * up[8]), 0),
    ]


def _fidelity_series(amps: PhysicalAmplitudes, n_bar: np.ndarray) -> np.ndarray:
    """The printed fidelity series at every n_bar of a block: summed term
    by term and square-rooted (NaN where the sum is negative)."""
    k = 1.0 / (1.0 + n_bar)
    k1 = n_bar / (1.0 + n_bar)
    k1_pow = {j: _float_pow(k1, j) for j in range(1, 5)}
    total = np.zeros(len(n_bar), dtype=complex)
    for coef, npow in _fidelity_series_terms(amps, np.sqrt(1.0 + n_bar)):
        total += coef * k * (k1_pow[npow] if npow else 1.0)
    re = total.real
    return np.sqrt(np.where(re >= 0, re, np.nan))


def fidelity_columns(amps: PhysicalAmplitudes, n_bar
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Numeric fidelity, printed closed form and their absolute discrepancy
    at every n_bar of a block, as three arrays.

    The values are those `fidelity_closed_form` reports point by point,
    bit for bit.  No cutoff is taken: the numeric path reads only the
    cutoff-free 5 x 5 block.  Raises ValueError at the first n_bar that is
    not finite and nonnegative, FloatingPointError at the first whose
    u^8 overflows, and ArithmeticError at the first point whose
    fidelity^2 exceeds 1 beyond tolerance.
    """
    amps.require_normalized()
    n_bar = _fidelity_n_bar(n_bar)
    closed = _fidelity_series(amps, n_bar)
    numeric = _fidelity_values(amps, n_bar)
    return numeric, closed, np.abs(numeric - closed)


def fidelity_closed_form(amps: PhysicalAmplitudes, params: ThermalParams
                         ) -> ObservableReport:
    """Audit of the published closed-form fidelity against the numeric path.

    The printed series is summed verbatim and square-rooted; the report
    carries its discrepancy against `fidelity_numeric`, which is the
    ground truth.  No tolerance is implied: the series is known to drift
    from the numeric value (it disagrees even at zero temperature, where
    the fidelity is exactly 1).
    """
    numeric, closed, _ = fidelity_columns(amps, [params.n_bar])
    return ObservableReport.compare(numeric[0], closed[0],
                                    _echo_params(amps, params))


# ---------------------------------------------------------------------------
# Mandel Q
# ---------------------------------------------------------------------------

def _mandel_values(amps: PhysicalAmplitudes, n_bar: np.ndarray, cutoffs
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(Q, <N>) at every n_bar of a block, each point on rho's diagonal up
    to its own cutoff; Q is NaN where <N> is below _MEAN_OCCUPATION_EPS.

    The block's diagonals are padded to its largest cutoff.  The two
    moments are one BLAS dot per point over that point's own entries, as
    a single point has always been evaluated, so the padding moves no
    bit.
    """
    sizes = [cutoff + 1 for cutoff in cutoffs]
    diag = _density_entries(amps, n_bar, max(sizes), diagonal=True)
    n = np.arange(max(sizes), dtype=float)
    n2 = n * n
    q = np.full(len(sizes), np.nan)
    mean = np.empty(len(sizes))
    for i, (row, size) in enumerate(zip(diag, sizes)):
        n_diag = row[:size].real
        mean_n = mean[i] = float(n_diag @ n[:size])
        if mean_n >= _MEAN_OCCUPATION_EPS:
            mean_n2 = float(n_diag @ n2[:size])
            q[i] = (mean_n2 - mean_n**2 - mean_n) / mean_n
    return q, mean


def _mandel_point(amps: PhysicalAmplitudes, params: ThermalParams,
                  cutoff: int) -> float:
    """`mandel_numeric` at a resolved cutoff."""
    q, mean_n = _mandel_values(amps, np.array([params.n_bar]), [cutoff])
    if mean_n[0] < _MEAN_OCCUPATION_EPS:
        raise MandelUndefinedError(
            f"<N> = {mean_n[0]:.3e}: Mandel Q undefined on a zero-occupation "
            f"state")
    return float(q[0])


def mandel_numeric(amps: PhysicalAmplitudes, params: ThermalParams,
                   cutoff=None) -> float:
    """Q = (<N^2> - <N>^2 - <N>) / <N> on the heated state."""
    amps.require_normalized()
    return _mandel_point(amps, params, resolve_cutoff(cutoff, params))


def _mandel_coefficients(amps: PhysicalAmplitudes) -> dict:
    """The printed c1..c8 coefficient table (c9 is announced but never
    defined in the source; it does not appear in the formula)."""
    x, y, z, w = amps.as_tuple()
    ax2, ay2 = abs(x) ** 2, abs(y) ** 2
    az2, aw2 = abs(z) ** 2, abs(w) ** 2
    return {
        "c1": ax2 + ay2 + az2 + aw2,
        "c2": ay2 + 2 * az2 + 4 * aw2,
        "c3": (ax2**2 + 2 * ax2 * ay2 + 2 * ax2 * az2 + 2 * ax2 * aw2
               + ay2**2 + 2 * ay2 * az2 + 2 * ay2 * aw2
               + az2**2 + 2 * az2 * aw2 + aw2**2),
        "c4": (ax2 * ay2 + ay2**2 + 3 * ay2 * az2 + 5 * ay2 * aw2
               + 2 * ax2 * az2 + 2 * az2**2 + 6 * az2 * aw2
               + 4 * ax2 * aw2 + 4 * aw2**2),
        "c5": (ay2**2 + 4 * ay2 * az2 + 8 * ay2 * aw2
               + 4 * az2**2 + 16 * az2 * aw2 + 16 * aw2**2),
        "c6": ax2 + ay2 + 4 * ay2 + 7 * az2 + 8 * aw2,
        "c7": ax2 + ay2 + aw2 + az2,
        "c8": ay2 + 4 * az2 + 16 * aw2,
    }


def _mandel_series(amps: PhysicalAmplitudes, n_bar: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(printed Q, its denominator c1 v^2 + c2 u^2) at every n_bar of a
    block; Q is NaN where the denominator is below _MEAN_OCCUPATION_EPS."""
    c = _mandel_coefficients(amps)
    u2 = _float_pow(np.sqrt(1.0 + n_bar), 2)
    v2 = _float_pow(np.sqrt(n_bar), 2)
    den = c["c1"] * v2 + c["c2"] * u2
    num = ((c["c6"] - c["c4"]) * u2 * v2
           + (c["c7"] - c["c3"]) * _float_pow(v2, 2)
           + (c["c8"] - c["c5"]) * _float_pow(u2, 2) - c["c1"] * v2 - c["c2"] * u2)
    defined = den >= _MEAN_OCCUPATION_EPS
    closed = np.full(len(den), np.nan)
    closed[defined] = num[defined] / den[defined]
    return closed, den


def mandel_columns(amps: PhysicalAmplitudes, n_bar, cutoffs
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Numeric Mandel Q, printed closed form and their absolute discrepancy
    at every n_bar of a block, each point truncated at its cutoff.

    The values are those `mandel_closed_form` reports point by point, bit
    for bit.  Where either form is undefined (a zero-occupation state,
    where the point-by-point functions raise MandelUndefinedError) all
    three are NaN.  Raises ValueError at the first n_bar that is not
    finite and nonnegative, for a cutoff count other than the n_bar count
    or a cutoff that is not an integer, and CutoffError at the first
    cutoff `validate_cutoff` rejects at its n_bar.
    """
    amps.require_normalized()
    n_bar = _block_n_bar(n_bar)
    cutoffs = list(cutoffs)
    if len(cutoffs) != len(n_bar):
        raise ValueError(f"{len(cutoffs)} cutoffs for {len(n_bar)} n_bar "
                         f"values")
    for value, cutoff in zip(n_bar.tolist(), cutoffs):
        if not isinstance(cutoff, numbers.Integral):
            raise ValueError(f"cutoff must be an integer, got {cutoff!r}")
        validate_cutoff(cutoff, ThermalParams(value))
    closed, den = _mandel_series(amps, n_bar)
    numeric, mean_n = _mandel_values(amps, n_bar, cutoffs)
    undefined = (den < _MEAN_OCCUPATION_EPS) | (mean_n < _MEAN_OCCUPATION_EPS)
    closed[undefined] = numeric[undefined] = np.nan
    return numeric, closed, np.abs(numeric - closed)


def mandel_closed_form(amps: PhysicalAmplitudes, params: ThermalParams,
                       cutoff=None) -> ObservableReport:
    """Audit of the published closed-form Mandel Q against the numeric path.

    Evaluates, with the printed c1..c8,

        Q = [(c6-c4) u^2 v^2 + (c7-c3) v^4 + (c8-c5) u^4 - c1 v^2 - c2 u^2]
            / (c1 v^2 + c2 u^2)

    The closed form matches the numeric path at zero temperature and
    drifts for n_bar > 0: its u^2 v^2 coefficient c6 - c4 (4.24 at the
    default amplitudes) is wrong.  With 3 c2 + c1 - 2 c1 c2 (3.85) there,
    the formula matches `mandel_numeric` at cutoff 512 within 6e-14
    relative (n_bar = 0.1, 1, 10; real and complex amplitudes).  It is
    evaluated as printed; the numeric path arbitrates.
    """
    amps.require_normalized()
    closed, den = _mandel_series(amps, np.array([params.n_bar]))
    if den[0] < _MEAN_OCCUPATION_EPS:
        raise MandelUndefinedError(
            f"denominator c1 v^2 + c2 u^2 = {den[0]:.3e}: Mandel Q undefined")
    cutoff = resolve_cutoff(cutoff, params)
    numeric = _mandel_point(amps, params, cutoff)
    return ObservableReport.compare(
        numeric, closed[0], _echo_params(amps, params, cutoff=cutoff))


# ---------------------------------------------------------------------------
# associated Laguerre functions
# ---------------------------------------------------------------------------

def _laguerre_sums(ks, coef: np.ndarray, arg: np.ndarray,
                   envelope: np.ndarray) -> np.ndarray:
    """sums[i] = sum_m coef[i, m] L_m^ks[i](arg) envelope for each row i.

    L comes from the stable three-term recurrence
    L_m^k = ((2m - 1 + k - arg) L_{m-1}^k - (m - 1 + k) L_{m-2}^k) / m,
    with L_0 = 1 and L_1 = 1 + k - arg, run on the envelope-scaled
    functions, which is exact (it is linear) and keeps intermediates
    bounded where the bare polynomials would overflow.  Rows
    with the same superscript share one recurrence, up to the last nonzero
    coefficient of any of them; all superscripts step together in three
    reused buffers.  Each row is summed from +0 in increasing m, so zero
    coefficients add nothing and the other rows do not change its bits:
    an all-zero row stays +0, and where the envelope is 0 (every term an
    exact zero) nothing is evaluated.
    """
    sums = np.zeros((len(coef), arg.size))
    live = np.flatnonzero(envelope)
    arg, envelope = arg[live], envelope[live]
    summed = [i for i, row in enumerate(coef) if row.any()]
    tops = {}  # superscript -> the last degree any of its rows needs
    for i in summed:
        tops[ks[i]] = max(tops.get(ks[i], 0), np.flatnonzero(coef[i])[-1])
    order = sorted(tops, key=lambda kk: -tops[kk])  # longest recurrence first
    summed.sort(key=lambda i: order.index(ks[i]))
    # summed row j reads recurrence row src[j]; while the first `rows`
    # recurrences run, the first ends[rows - 1] summed rows do
    src = [order.index(ks[i]) for i in summed]
    ends = np.searchsorted(src, np.arange(len(order)), side="right")
    c = coef[summed]
    acc = np.zeros((len(summed), live.size))
    k = np.asarray(order, dtype=float)[:, None]
    prev, cur, nxt = (np.empty((len(order), live.size)) for _ in range(3))
    cur[...] = envelope
    rows = len(order)
    for m in range(max(tops.values(), default=-1) + 1):
        while tops[order[rows - 1]] < m:
            rows -= 1
        out, kr = nxt[:rows], k[:rows]
        if m == 1:
            np.subtract(1.0 + kr, arg, out=out)
            np.multiply(out, envelope, out=out)
        elif m > 1:
            np.subtract(2 * m - 1 + kr, arg, out=out)
            np.multiply(out, cur[:rows], out=out)
            back = prev[:rows]  # L_{m-2} is not needed after this step
            np.multiply(m - 1 + kr, back, out=back)
            np.subtract(out, back, out=out)
            np.divide(out, m, out=out)
        if m:
            prev, cur, nxt = cur, nxt, prev
        n = ends[rows - 1]
        acc[:n] += c[:n, m, None] * cur[src[:n]]
    sums[np.ix_(summed, live)] = acc
    return sums


# ---------------------------------------------------------------------------
# Wigner function, numeric path
# ---------------------------------------------------------------------------

def _radial_grid(q: np.ndarray, p: np.ndarray):
    """Meshgrid of (q, p), the distinct r^2 = q^2 + p^2 on it (sorted), and
    for each grid point the index of its r^2 among them.  The arrays are
    read-only, since `_radial_of` hands one copy to every pass on its grid;
    the meshgrid is broadcast views of the axes, so what that cache keeps
    alive between passes is the r^2 and their index alone."""
    qg, pg = np.meshgrid(q, p, indexing="ij", copy=False)
    r2, inv = np.unique((qg**2 + pg**2).ravel(), return_inverse=True)
    radial = (qg, pg, r2, inv.reshape(qg.shape))
    for arr in radial:
        arr.setflags(write=False)
    return radial


@lru_cache(maxsize=1)
def _radial_of(q: bytes, p: bytes):
    """`_radial_grid` of the axes with these bytes, kept for the last grid
    only.  Keyed on the axes, so every GridSpec of one grid shares it
    (`heated_wigner` makes a new default one per call), and specs that
    compare equal but differ in a zero bound's sign do not."""
    return _radial_grid(np.frombuffer(q), np.frombuffer(p))


def _wigner_values(rho: np.ndarray, spec: GridSpec) -> np.ndarray:
    """W(q, p) = sum_{m,n} rho[m, n] K[n, m] with the Fock-basis kernel.

    With alpha = (q + ip)/sqrt(2) and m >= n the kernel is
    (1/pi) (-1)^n sqrt(n!/m!) (2 conj(alpha))^(m-n) e^{-2|alpha|^2}
    L_n^{m-n}(4|alpha|^2); the m < n entries follow by conjugation.  rho
    is taken to be Hermitian and only its lower triangle is read: each
    upper diagonal adds the conjugate of the lower one's term.  The sum is
    organized by diagonal offset with a fixed loop order so results are
    deterministic, and the Gaussian envelope is folded into the Laguerre
    recurrence to avoid overflow.

    Radial factorization: the offset-m term is (2 conj(alpha))^m times a
    function of r^2 alone, so the recurrence and the diagonal sums run
    only on the distinct r^2 of the grid (5,924 of 66,049 points on the
    default grid) and are scattered back once per offset before the phase
    factor is applied.  Only the offsets of rho's nonzero lower diagonals
    take part (5 of 360 for the heated state at n_bar = 10), all in one
    `_laguerre_sums` call, the accumulator the printed series
    (`wigner_closed_form`) runs too.  Every grid point goes through the
    same arithmetic as a point-by-point evaluation, so the values do not
    depend on the factorization.
    """
    dim = rho.shape[0]
    qg, pg, r2, inv = spec._radial
    with np.errstate(under="ignore"):
        envelope = np.exp(-r2)          # = exp(-2 |alpha|^2)
    rows_nz, cols_nz = np.nonzero(np.tril(rho))
    # not np.unique, which imports numpy.ma
    offsets = np.flatnonzero(np.bincount(rows_nz - cols_nz)).tolist()
    log_fact = np.array([math.lgamma(m + 1.0) for m in range(dim)])  # log m!
    # coef[j, i, n] for the i-th offset: the real (j = 0) and imaginary
    # (j = 1) parts of rho[n+off, n] * weight_n, zero past n = dim-1-off
    coef = np.zeros((2, len(offsets), dim))
    for i, off in enumerate(offsets):
        n_top = dim - 1 - off
        weights = ((-1.0) ** np.arange(n_top + 1)
                   * np.exp(0.5 * (log_fact[: n_top + 1] - log_fact[off:])))
        lower = np.diagonal(rho, -off) * weights
        coef[:, i, : n_top + 1] = lower.real, lower.imag
    # A complex sum of c * L over real L is, bit for bit, the pair of real
    # sums of Re(c) * L and Im(c) * L (both start at +0).
    radial = _laguerre_sums(offsets * 2, coef.reshape(-1, dim), 2.0 * r2,
                            envelope).reshape(2, len(offsets), r2.size)
    sums = np.empty((len(offsets), r2.size), dtype=complex)
    sums.real, sums.imag = radial

    w = np.zeros(qg.shape, dtype=complex)
    base = np.sqrt(2.0) * (qg - 1j * pg)  # 2 conj(alpha)
    for acc, off in zip(sums, offsets):
        if off == 0:
            w += acc[inv]
        else:
            w += 2 * (base ** off * acc[inv]).real
    w /= math.pi  # complex division, which rounds unlike w.real / math.pi
    return w.real


def wigner_from_density(rho: np.ndarray, grid: GridSpec | None = None, *,
                        widen: bool | None = None) -> WignerGrid:
    """Wigner function of any Hermitian single-mode density matrix on a
    (q, p) grid; ValueError unless rho is square with
    max |rho - rho^+| <= 1e-10.

    When no grid is given, the default [-8, 8]^2 / 257^2 grid is used and
    the bounds are doubled (up to [-32, 32]^2) until the Riemann sum of W
    matches trace(rho) within GRID_TOL_DEFAULT; an explicit grid is used
    as-is unless widen=True.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape "
                         f"{rho.shape}")
    residual = float(np.abs(rho - rho.conj().T).max())
    if not residual <= 1e-10:  # also rejects NaN
        raise ValueError(f"density matrix not Hermitian: max |rho - rho^+| "
                         f"= {residual:.3e} > 1e-10")
    if widen is None:
        widen = grid is None
    spec = grid if grid is not None else GridSpec()
    target = float(np.trace(rho).real)
    attempts = 0
    while True:
        result = WignerGrid(spec, _wigner_values(rho, spec))
        error = abs(result.integral() - target)
        if not widen or error <= GRID_TOL_DEFAULT:
            return result
        if spec.q_max >= 32 or attempts >= 3:
            raise GridWideningError(
                f"normalization |integral - trace| = {error:.3e} > "
                f"{GRID_TOL_DEFAULT} on [{spec.q_min}, {spec.q_max}]^2; "
                f"no wider grid allowed")
        spec = spec.doubled()
        attempts += 1


def wigner_negativity(grid: WignerGrid) -> float:
    """Integral of the negative part: sum of max(0, -W) * cell_area."""
    return float(np.maximum(0.0, -grid.values).sum() * grid.cell_area)


# ---------------------------------------------------------------------------
# Wigner function, exact route
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactWigner:
    """Wigner function of an untruncated heated state, in closed form:

        W(q, p) = exp(-(q^2 + p^2) / s) / (pi s) * sum_ab coef[a, b] q^a p^b

    with s = 2 n_bar + 1 and a real coefficient array of total degree 8.
    The Gaussian factors per axis, so W on a grid is a product of three
    small matrices and its Riemann sum a product of their column sums.
    """

    s: float
    coef: np.ndarray

    def __post_init__(self):
        self.coef.setflags(write=False)

    def _axis_factors(self, axis: np.ndarray) -> np.ndarray:
        """axis^a exp(-axis^2 / s) for a = 0..degree, one row per point."""
        with np.errstate(under="ignore"):
            gauss = np.exp(-axis**2 / self.s)
        return axis[:, None] ** np.arange(len(self.coef)) * gauss[:, None]

    def values(self, spec: GridSpec) -> np.ndarray:
        """W(q_i, p_j) on the grid, laid out as `WignerGrid.values`."""
        q = self._axis_factors(spec.q_axis())
        p = self._axis_factors(spec.p_axis())
        return q @ self.coef @ p.T / (math.pi * self.s)

    def riemann_sum(self, spec: GridSpec) -> float:
        """values(spec).sum() * cell_area, without forming the grid."""
        q = self._axis_factors(spec.q_axis()).sum(axis=0)
        p = self._axis_factors(spec.p_axis()).sum(axis=0)
        return float(q @ self.coef @ p) * spec.cell_area / (math.pi * self.s)


def _bopp_step(coef: np.ndarray, s: float, sign: int) -> np.ndarray:
    """Coefficients of the Bopp image of a^+ rho (sign = -1) or of rho a
    (sign = +1) of the W = Gaussian * sum coef[a, b] q^a p^b in
    `ExactWigner`.

    With alpha = (q + i p)/sqrt2, a^+ rho and rho a correspond to
    (alpha* - d_alpha / 2) W and (alpha - d_alpha* / 2) W (Cahill &
    Glauber, Phys. Rev. 177, 1882 (1969)).  On the Gaussian
    exp(-(q^2 + p^2) / s) both become
    [(1 + 1/s)(q + sign i p) - (d_q + sign i d_p) / 2] / sqrt2 on the
    polynomial, which raises its degree by one.
    """
    lift = 1.0 + 1.0 / s
    powers = np.arange(len(coef))
    out = np.zeros_like(coef)
    out[1:, :] += lift * coef[:-1, :]
    out[:, 1:] += sign * 1j * lift * coef[:, :-1]
    out[:-1, :] -= 0.5 * powers[1:, None] * coef[1:, :]
    out[:, :-1] -= sign * 0.5j * powers[None, 1:] * coef[:, 1:]
    return out / math.sqrt(2.0)


def wigner_exact(amps: PhysicalAmplitudes, params: ThermalParams
                 ) -> ExactWigner:
    """Exact, cutoff-free Wigner function of the heated state.

    The heated state is f(a^+) rho_th f(a^+)^+ with f = sum_p c_p a^+p of
    degree 4 (`thermal_state_density_expansion`) and rho_th the thermal
    state, whose W is the Gaussian exp(-(q^2 + p^2)/s) / (pi s),
    s = 2 n_bar + 1.  Each a^+ on the left and each a on the right is a
    `_bopp_step` on W; the two kinds commute, so
    W = sum_pq c_p conj(c_q) A^p B^q W_th is a polynomial times that
    Gaussian, with no truncation.  W is real for the Hermitian state, so
    the coefficients' imaginary parts are rounding and are dropped.
    """
    amps.require_normalized()
    s = 2.0 * params.n_bar + 1.0
    c = {p: complex(v[0]) for p, v in
         _ladder_coefficients(amps, np.array([params.u])).items()}
    top = max(c)
    term = np.zeros((2 * top + 1, 2 * top + 1), dtype=complex)
    term[0, 0] = 1.0
    right = np.zeros_like(term)  # sum_q conj(c_q) B^q 1
    for q in range(top + 1):
        if q in c:
            right += np.conj(c[q]) * term
        term = _bopp_step(term, s, +1)
    total = np.zeros_like(term)  # sum_p c_p A^p (sum_q conj(c_q) B^q 1)
    for p in range(top + 1):
        if p in c:
            total += c[p] * right
        right = _bopp_step(right, s, -1)
    return ExactWigner(s, total.real)


def heated_wigner(amps: PhysicalAmplitudes, params: ThermalParams,
                  cutoff: int, grid: GridSpec | None = None
                  ) -> tuple[np.ndarray, WignerGrid]:
    """The heated state's rho at this cutoff and its Wigner function on
    `grid`, or widened from the first default grid whose exact Riemann sum
    (`wigner_exact`) is within GRID_TOL_DEFAULT + _EXACT_SUM_MARGIN of 1,
    else [-32, 32]^2; from [-8, 8]^2 if 1 - trace(rho) > TAIL_TOL_DEFAULT.
    """
    rho = thermal_state_density_expansion(amps, params, cutoff)
    start = GridSpec() if grid is None else grid
    if grid is None and 1.0 - np.trace(rho).real <= TAIL_TOL_DEFAULT:
        exact = wigner_exact(amps, params)
        while (start.q_max < 32 and abs(exact.riemann_sum(start) - 1.0)
               > GRID_TOL_DEFAULT + _EXACT_SUM_MARGIN):
            start = start.doubled()
    return rho, wigner_from_density(rho, start, widen=grid is None)


# ---------------------------------------------------------------------------
# Wigner function, printed closed-form path
# ---------------------------------------------------------------------------

def _closed_form_families(amps: PhysicalAmplitudes, params: ThermalParams,
                          qg: np.ndarray, pg: np.ndarray, n: np.ndarray):
    """The ten printed Laguerre families: (superscript k, index shift s,
    phase-space prefactor grid, weights over the master-sum index n).

    Family f contributes prefactor * weight[n] * L_{n+s}^k(2 r^2) inside
    the master sum over n.  Transcribed verbatim, including the suspect
    pieces (the y^2 family's single u power, the xw family's quadratic
    polynomial, the yw family's sign).
    """
    x, y, z, w = [complex(a).real for a in amps.as_tuple()]
    u = params.u
    one = np.ones_like(qg)
    flat = np.ones_like(n)
    return [
        (0, 0, 2 * x**2 * one, flat),
        (0, 1, -(2 * y**2 / u) * one, n + 1.0),
        (0, 2, (z**2 / u**4) * one, (n + 1.0) * (n + 2.0)),
        (0, 4, (2 * w**2 / (24.0 * u**8)) * one,
         (n + 1.0) * (n + 2.0) * (n + 3.0) * (n + 4.0)),
        (1, 0, (4 * math.sqrt(2.0) * x * y / u) * qg, flat),
        (2, 0, (4 * math.sqrt(2.0) * x * z / u**2) * (qg**2 - pg**2), flat),
        (4, 0, (4 * math.sqrt(6.0) * x * w / (3 * u**4))
         * (qg**2 + pg**2 - 6 * qg**2 * pg**2), flat),
        (1, 1, -(4 * y * z / u**3) * qg, n + 1.0),
        (3, 1, (4 * math.sqrt(3.0) * y * w / (3 * u**5))
         * (qg**3 - 3 * qg * pg**2), n + 1.0),
        (2, 2, (2 * math.sqrt(3.0) * w * z / (3 * u**6)) * (qg**2 - pg**2),
         (n + 1.0) * (n + 2.0)),
    ]


def wigner_closed_form(amps: PhysicalAmplitudes, params: ThermalParams,
                       numeric: WignerGrid, cutoff: int
                       ) -> tuple[WignerGrid, ObservableReport]:
    """Published closed-form Wigner series on the grid of `numeric`, the
    Wigner function of the heated state at this cutoff, audited against it.

    Requires real amplitudes (the printed series uses unconjugated
    products).  The series is truncated at the cutoff, weighted by
    (-1)^n k1^n under the Gaussian envelope, and rescaled by
    CLOSED_FORM_WIGNER_SCALE so both paths share the
    integral-equals-trace normalization.  The returned report compares
    integrals and records the pointwise and L1 discrepancies in its
    params (the printed series is known to carry typos; the numeric grid
    is ground truth).

    The printed families are summed on the distinct r^2 of the grid by one
    `_laguerre_sums` call, the accumulator the numeric kernel
    (`_wigner_values`) runs too, and each is scattered back once, times
    its phase-space prefactor.
    """
    amps.require_normalized()
    if not amps.is_real():
        raise ValueError("closed-form Wigner series requires real amplitudes")
    spec = numeric.spec
    qg, pg, r2, inv = spec._radial
    n_signed = (-1.0) ** np.arange(cutoff + 1)
    with np.errstate(under="ignore"):
        envelope = np.exp(-r2)
        geom = params.k1 ** np.arange(cutoff + 1, dtype=float)

    # stably sorted by superscript: the order the families are summed in
    families = sorted(_closed_form_families(
        amps, params, qg, pg, np.arange(cutoff + 1, dtype=float)),
        key=lambda family: family[0])
    # a family of shift s reads degree m of its superscript's Laguerre
    # function at master-sum index n = m - s
    coef = np.zeros((len(families),
                     cutoff + 1 + max(family[1] for family in families)))
    for i, (_, shift, _, weight) in enumerate(families):
        coef[i, shift: shift + cutoff + 1] = geom * n_signed * weight
    radial = _laguerre_sums([family[0] for family in families], coef,
                            2.0 * r2, envelope)

    total = np.zeros_like(qg)
    for (_, _, pref, _), family_radial in zip(families, radial):
        total += pref * family_radial[inv]
    values = params.k * CLOSED_FORM_WIGNER_SCALE * total
    closed = WignerGrid(spec, values)

    diff = closed.values - numeric.values
    report = ObservableReport.compare(
        numeric.integral(), closed.integral(),
        _echo_params(
            amps, params, cutoff=cutoff,
            max_abs_discrepancy=float(np.abs(diff).max()),
            l1_discrepancy=float(np.abs(diff).sum() * spec.cell_area),
            closed_form_scale=CLOSED_FORM_WIGNER_SCALE,
            grid=[spec.q_min, spec.q_max, spec.p_min, spec.p_max,
                  spec.nq, spec.np],
        ))
    return closed, report
