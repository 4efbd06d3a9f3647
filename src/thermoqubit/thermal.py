"""Thermal-state machinery for a single bosonic mode.

A thermal occupation n_bar fixes the hyperbolic Bogoliubov angle theta
through u = cosh(theta) = sqrt(1 + n_bar), v = sinh(theta) = sqrt(n_bar).
The mixed state obtained by heating the pure superposition

    |Psi> = x|0> + y|1> + z|2> + w|4>

is constructed by three independent routes:

* `thermal_state_density_expansion` sums the sixteen explicit ladder
  families of the series form term by term;
* `thermal_state_density_operator` builds the creation-operator polynomial
  f(a^dagger) and conjugates the bare thermal density matrix with it;
* `thermal_number_states` purifies the thermal state on the doubled
  (original x tilde) space and reduces it back.

The three must agree to truncation accuracy; the verification suite and
tests lean on that triple agreement as the core cross-check.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CutoffError

TAIL_TOL_DEFAULT = 1e-10
CUTOFF_CAP = 512
_CUTOFF_FLOOR = 8  # must hold |4> plus the +4 ladder shift of the operators
_AMPLITUDE_TOL = 1e-12  # on |norm - 1| and on each imaginary part


@dataclass(frozen=True)
class ThermalParams:
    """Temperature scalars of one thermal occupation n_bar.

    n_bar is the one stored value; u = sqrt(1 + n_bar) and
    theta = arcsinh(sqrt(n_bar)) follow from it, so u = cosh(theta) and
    sqrt(n_bar) = sinh(theta) up to rounding.
    """

    n_bar: float

    def __post_init__(self):
        n_bar = float(self.n_bar)
        if not (math.isfinite(n_bar) and n_bar >= 0.0):
            raise ValueError(f"n_bar must be finite and nonnegative, got "
                             f"{n_bar}")
        object.__setattr__(self, "n_bar", n_bar)

    @property
    def u(self) -> float:
        return math.sqrt(1.0 + self.n_bar)

    @property
    def theta(self) -> float:
        return math.asinh(math.sqrt(self.n_bar))

    @property
    def k(self) -> float:
        """Ground-state weight 1/(1 + n_bar) of the thermal distribution."""
        return 1.0 / (1.0 + self.n_bar)

    @property
    def k1(self) -> float:
        """Geometric ratio n_bar/(1 + n_bar) of the thermal distribution."""
        return self.n_bar / (1.0 + self.n_bar)


@dataclass(frozen=True)
class PhysicalAmplitudes:
    """Amplitudes (x, y, z, w) on the Fock states |0>, |1>, |2>, |4>."""

    x: complex
    y: complex
    z: complex
    w: complex

    def norm(self) -> float:
        """Euclidean norm; inf when a squared modulus overflows."""
        try:
            return math.sqrt(abs(self.x) ** 2 + abs(self.y) ** 2
                             + abs(self.z) ** 2 + abs(self.w) ** 2)
        except OverflowError:
            return math.inf

    def require_normalized(self):
        if not abs(self.norm() - 1.0) <= _AMPLITUDE_TOL:  # also rejects NaN
            raise ValueError(f"amplitudes not normalized: |norm-1| = "
                             f"{abs(self.norm() - 1.0):.3e}")

    def normalized(self) -> "PhysicalAmplitudes":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero amplitude vector")
        return PhysicalAmplitudes(self.x / n, self.y / n, self.z / n, self.w / n)

    def as_tuple(self) -> tuple[complex, complex, complex, complex]:
        return (complex(self.x), complex(self.y), complex(self.z), complex(self.w))

    def as_vector(self, cutoff: int) -> np.ndarray:
        """Embed as a single-mode Fock vector (needs cutoff >= 4)."""
        if cutoff < 4:
            raise ValueError("cutoff must be at least 4 to hold |4>")
        vec = np.zeros(cutoff + 1, dtype=complex)
        vec[0], vec[1], vec[2], vec[4] = self.as_tuple()
        return vec

    def is_real(self) -> bool:
        return all(abs(complex(a).imag) <= _AMPLITUDE_TOL
                   for a in self.as_tuple())


# Amplitude set used throughout the temperature studies and as CLI default.
DEFAULT_AMPLITUDES = PhysicalAmplitudes(0.2, 0.3, 0.6, math.sqrt(0.51))


def _ladder_coefficients(amps: PhysicalAmplitudes, u: np.ndarray) -> dict:
    """Coefficients of f = x + (y/u) a^+ + (z/(sqrt2 u^2)) a^+2 + (w/(sqrt24 u^4)) a^+4,
    keyed by the power of the raising operator: one complex array over u."""
    x, y, z, w = amps.as_tuple()
    return {
        0: np.full(u.shape, x),
        1: y / u,
        2: z / (math.sqrt(2.0) * u ** 2),
        4: w / (math.sqrt(24.0) * u ** 4),
    }


# The candidate cutoffs, and for the index m = max(cutoff - 3, 0) of each
# the binomials C(m + 4, 4 - j), j = 0..4, of auto_cutoff's closed-form tail.
_CUTOFF_CANDIDATES = np.arange(_CUTOFF_FLOOR, CUTOFF_CAP + 1)
_TAIL_INDEX = np.maximum(_CUTOFF_CANDIDATES - 3, 0).astype(float)
_TAIL_BINOMIALS = np.array([[math.comb(int(m) + 4, 4 - j) for m in _TAIL_INDEX]
                            for j in range(5)], dtype=float)
for _table in (_CUTOFF_CANDIDATES, _TAIL_INDEX, _TAIL_BINOMIALS):
    _table.setflags(write=False)
del _table


def auto_cutoff(n_bar: float, tail_tol: float = TAIL_TOL_DEFAULT) -> int:
    """Smallest cutoff whose neglected tail is below tail_tol.

    Two conditions must hold: the bare geometric tail k1^(N+1) must be
    below tail_tol*(1-k1), and the quartically weighted tail of the
    heaviest ladder family (the a^+4 one, bounded with unit amplitude)
    must be below tail_tol.  The quartic condition is what keeps traces
    and number moments of the full mixed state accurate, not just those
    of the bare thermal vacuum.  Capped at CUTOFF_CAP with a hard error.
    """
    if n_bar < 0:
        raise ValueError(f"mean occupation must be nonnegative, got {n_bar}")
    if n_bar == 0:
        return _CUTOFF_FLOOR
    k1 = n_bar / (1.0 + n_bar)
    # k1 rounds to 1 from n_bar ~ 9.007e15: no cutoff passes, and neither
    # the tail below nor log(1 - k1) can be evaluated
    if k1 < 1.0:
        # Quartic tail from index m, sum_{n >= m} k k1^n (n+1)...(n+4) / (24 u^8),
        # in closed form: the negative-binomial tail
        # sum_{n >= m} C(n+4, 4) x^n = x^m sum_{j=0}^{4} C(m+4, 4-j) x^j (1-x)^-(j+1)
        # at x = k1, 1 - x = k, gives k1^m (1 + n_bar)^-4 sum_j C(m+4, 4-j) n_bar^j.
        poly = _TAIL_BINOMIALS[4]
        for j in range(3, -1, -1):
            poly = poly * n_bar + _TAIL_BINOMIALS[j]
        with np.errstate(under="ignore"):
            tail = np.exp(_TAIL_INDEX * math.log(k1)) * poly / (1.0 + n_bar) ** 4

        cand = _CUTOFF_CANDIDATES
        # written as "not failing" so a NaN comparison passes, as it always has
        ok = ~(((cand + 1) * math.log(k1) >= math.log(tail_tol * (1.0 - k1)))
               | (tail >= tail_tol))
        first = int(np.argmax(ok))
        if ok[first]:
            return int(cand[first])
    raise CutoffError(
        f"no cutoff <= {CUTOFF_CAP} reaches tail tolerance {tail_tol} at "
        f"n_bar = {n_bar}"
    )


def validate_cutoff(cutoff: int, params: ThermalParams,
                    tail_tol: float = TAIL_TOL_DEFAULT):
    """Check that the cutoff is an integer (ValueError) and the bare
    geometric tail condition k1^(cutoff+1) < tail_tol*(1-k1)."""
    if not isinstance(cutoff, numbers.Integral):
        raise ValueError(f"cutoff must be an integer, got {cutoff!r}")
    if cutoff < _CUTOFF_FLOOR:
        raise CutoffError(f"cutoff {cutoff} below the minimum {_CUTOFF_FLOOR}")
    if cutoff > CUTOFF_CAP:
        raise CutoffError(f"cutoff {cutoff} exceeds the hard cap {CUTOFF_CAP}")
    k1 = params.k1
    if k1 == 0.0:
        return
    # k1 rounds to 1 from n_bar ~ 9.007e15, where 1 - k1 has no logarithm
    if k1 == 1.0 or (cutoff + 1) * math.log(k1) >= math.log(
            tail_tol * (1.0 - k1)):
        raise CutoffError(
            f"cutoff {cutoff} leaves geometric tail mass above {tail_tol} "
            f"at n_bar = {params.n_bar}"
        )


def resolve_cutoff(cutoff, params: ThermalParams,
                   tail_tol: float = TAIL_TOL_DEFAULT) -> int:
    """Accept an explicit cutoff (validated) or None/'auto' (selected)."""
    if cutoff is None or cutoff == "auto":
        return auto_cutoff(params.n_bar, tail_tol)
    validate_cutoff(cutoff, params, tail_tol)
    return int(cutoff)


def _occupation_shift_root(n: np.ndarray, shift: int) -> np.ndarray:
    """sqrt((n+1)(n+2)...(n+shift)) for vector n.

    For shift <= 4 and n below the cutoff cap the product is an integer
    below 2^53, so it is exact in float64 before the one rounding of sqrt.
    """
    prod = np.ones_like(n, dtype=float)
    for j in range(1, shift + 1):
        prod = prod * (n + j)
    return np.sqrt(prod)


def _density_entries(amps: PhysicalAmplitudes, n_bar: np.ndarray, size: int,
                     diagonal: bool = False) -> np.ndarray:
    """Leading size x size block of `thermal_state_density_expansion` at
    every n_bar of a block, shape (len(n_bar), size, size); with
    diagonal=True only its diagonal, shape (len(n_bar), size), from the
    four p == q families.

    The (p, q) family puts its n-th term at (n+p, n+q) for the n that keep
    both indices below `size`.  No entry depends on `size` or on the
    cutoff, so a reader of the leading entries gets the bits of the full
    matrix, and a block of points padded to its largest size gives each
    point the entries of its own.  Every operation is elementwise along
    the n_bar axis, so a point's entries do not depend on its block.
    """
    n_bar = np.asarray(n_bar, dtype=float)
    k = 1.0 / (1.0 + n_bar)
    k1 = n_bar / (1.0 + n_bar)
    coeffs = _ladder_coefficients(amps, np.sqrt(1.0 + n_bar))
    n_all = np.arange(size, dtype=float)
    with np.errstate(under="ignore"):
        geom = k[:, None] * k1[:, None] ** n_all
    roots = {p: _occupation_shift_root(n_all, p) for p in coeffs}
    # a point's diagonal, or its flattened matrix, in which the (n + p, n + q)
    # entries are the run from p * size + q in steps of size + 1: each
    # family adds into a strided view
    flat = np.zeros((len(n_bar), size if diagonal else size * size),
                    dtype=complex)
    for p in coeffs:
        for q in coeffs:
            length = size - max(p, q)  # keep both |n+p> and <n+q|
            if length <= 0 or (diagonal and p != q):
                continue
            vals = ((coeffs[p] * np.conj(coeffs[q]))[:, None] * geom[:, :length]
                    * roots[p][:length] * roots[q][:length])
            start, step = (p, 1) if diagonal else (p * size + q, size + 1)
            flat[:, start: start + length * step: step] += vals
    return flat if diagonal else flat.reshape(len(n_bar), size, size)


def thermal_state_density_expansion(amps: PhysicalAmplitudes,
                                    params: ThermalParams, cutoff: int
                                    ) -> np.ndarray:
    """Mixed state of the heated superposition, summed family by family.

    Sixteen ladder families contribute, one per pair (p, q) of raising
    powers from {0, 1, 2, 4}: the (p, q) family adds

        c_p * conj(c_q) * k * k1^n * sqrt((n+p)!/n!) * sqrt((n+q)!/n!)

    at matrix position (n+p, n+q) for n = 0..cutoff, dropping terms whose
    ket or bra index exceeds the cutoff.  c_p are the 1/u-normalized
    amplitude coefficients of the creation polynomial; the conjugate
    always sits on the bra-side coefficient, which keeps the result
    Hermitian (the printed series form of the source derivation has a
    non-Hermitian y/z slip in one family; the conjugation structure of
    the expectation-value expansion fixes it).
    """
    amps.require_normalized()
    validate_cutoff(cutoff, params)
    return _density_entries(amps, np.array([params.n_bar]), cutoff + 1)[0]


def thermal_state_density_operator(amps: PhysicalAmplitudes,
                                   params: ThermalParams, cutoff: int
                                   ) -> np.ndarray:
    """Same mixed state, built as f rho_thermal f^dagger with explicit matrices.

    f is the creation polynomial x + (y/u) a^+ + (z/(sqrt2 u^2)) (a^+)^2 +
    (w/(sqrt24 u^4)) (a^+)^4.  Internally everything is assembled at
    cutoff+4 and cropped, so the +4 ladder shift never truncates a visible
    amplitude.  Serves as the independent oracle for the expansion path.

    f is written on its four nonzero diagonals, one per raising power, and
    the diagonal rho_thermal scales the columns of f, so the only matrix
    product is (f rho_thermal) f^dagger.
    """
    amps.require_normalized()
    validate_cutoff(cutoff, params)
    inner = cutoff + 4
    coeffs = {p: c[0] for p, c in
              _ladder_coefficients(amps, np.array([params.u])).items()}
    # (a^+)^p has the one nonzero diagonal p below the main one, whose
    # entry n is sqrt((n+1)...(n+p)), multiplied up as the real products
    # r @ r and r2 @ r2 multiply it
    sq = np.sqrt(np.arange(1.0, inner + 1))
    sq2 = sq[1:] * sq[:-1]
    f = np.zeros((inner + 1, inner + 1), dtype=complex)
    for p, root in ((0, np.ones(inner + 1)), (1, sq), (2, sq2),
                    (4, sq2[2:] * sq2[:-2])):
        np.fill_diagonal(f[p:], coeffs[p] * root)
    f_dagger = f.conj().T
    f *= params.k * params.k1 ** np.arange(inner + 1)
    rho_inner = f @ f_dagger
    return rho_inner[: cutoff + 1, : cutoff + 1]


def _pair_sector_indices(cutoff: int, sector: int) -> np.ndarray:
    """Composite indices of the sector with fixed n - n_tilde = sector."""
    d = cutoff + 1
    if sector >= 0:
        nt = np.arange(d - sector)
        n = nt + sector
    else:
        n = np.arange(d + sector)
        nt = n - sector
    return nt * d + n


def _sector_couplings(cutoff: int, sector: int) -> np.ndarray:
    """Sub-diagonal couplings sqrt((n+1)(nt+1)) of the pair generator's
    block in one n - n_tilde sector (see `_sector_eigensystem`)."""
    size = cutoff + 1 - abs(sector)
    j = np.arange(size - 1, dtype=float)
    if sector >= 0:
        return np.sqrt((j + sector + 1.0) * (j + 1.0))
    return np.sqrt((j + 1.0) * (j - sector + 1.0))


# the gate check applies U(beta) to the sectors 0, 1, 2 and 4 of one cutoff
# at every n_bar it runs, and the density checks the sector 0 of each of
# their five cutoffs: sixteen entries hold those nine, so a second verify
# run in one process diagonalizes nothing again
@functools.lru_cache(maxsize=16)
def _sector_eigensystem(cutoff: int, sector: int
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenpairs (w, Q), T = Q diag(w) Q^T, of one n - n_tilde
    sector's block of the pair generator G = a^+ a^+_tilde - a a_tilde.

    G couples |n, nt> only to |n+1, nt+1>, so it is block-diagonal over
    sectors, and each block is real antisymmetric tridiagonal with
    couplings c.  With S = diag(i^j), S^+ G S = -i T, where T is the real
    symmetric tridiagonal matrix with the same couplings.  T depends on
    the cutoff and the sector alone, so one diagonalization serves every
    temperature.
    """
    coup = _sector_couplings(cutoff, sector)
    w, q = np.linalg.eigh(np.diag(coup, -1) + np.diag(coup, 1))
    w.setflags(write=False)
    q.setflags(write=False)
    return w, q


_I_POWERS = np.array([1, 1j, -1, -1j])  # i^j for j mod 4, exact


def _sector_apply(theta: float, cutoff: int, sector: int, x: np.ndarray,
                  inverse: bool = False) -> np.ndarray:
    """U(beta) x, or U^+(beta) x with inverse=True, for the slice x of one
    n - n_tilde sector, as matrix-vector products: the block of U(beta) is
    not formed.

    From the cached eigensystem of the sector (see `_sector_eigensystem`),

        exp(theta G) = M = S Q diag(exp(-i theta w)) Q^T S^+.

    G is normal, so this spectral route is well conditioned (Moler & Van
    Loan, "Nineteen dubious ways to compute the exponential of a matrix",
    SIAM Rev. 45, 3 (2003)).  The block is real, Re M, up to rounding, so
    it applies to the real and imaginary parts of x separately, each as
    Re(M x); the inverse is the transposed block, which swaps S and S^+.
    In this real convention U(beta) maps the doubled vacuum to
    sum_n sech(theta) tanh(theta)^n |n, n>, all coefficients nonnegative.
    """
    w, q = _sector_eigensystem(cutoff, sector)
    s = _I_POWERS[np.arange(len(w)) % 4]
    left, right = (s.conj(), s) if inverse else (s, s.conj())
    # the columns Re x and Im x, each times S^+.  Viewed as floats, a
    # complex array is its (real, imaginary) pairs, so one real product
    # applies Q^T, or Q, to all four real columns at once
    parts = right[:, None] * np.asarray(x, dtype=complex
                                        ).view(float).reshape(-1, 2)
    parts = ((q.T @ parts.view(float)).view(complex)
             * np.exp(-1j * theta * w)[:, None])
    re_m = (left[:, None] * (q @ parts.view(float)).view(complex)).real
    return re_m[:, 0] + 1j * re_m[:, 1]  # Re(M) Re x + i Re(M) Im x


def _bogoliubov_apply(theta: float, cutoff: int, data: np.ndarray,
                      inverse: bool = False) -> np.ndarray:
    """U(beta) data, or U^+(beta) data with inverse=True, for a dense
    two-mode vector data in the composite index n_tilde * (cutoff + 1) + n
    (the gate check's form).

    U(beta) = exp(theta G) is block-diagonal over the n - n_tilde sectors,
    so `_sector_apply` acts on each sector's slice of the vector.  Only the
    sectors that data's nonzero entries occupy are applied; the others map
    zero to zero.
    """
    d = cutoff + 1
    occupied = np.flatnonzero(data)
    out = np.zeros(d * d, dtype=complex)
    # a sorted set, not np.unique, which imports numpy.ma
    for sector in sorted(set((occupied % d - occupied // d).tolist())):
        idx = _pair_sector_indices(cutoff, sector)
        out[idx] = _sector_apply(theta, cutoff, sector, data[idx], inverse)
    return out


def _thermal_vacuum_vector(params: ThermalParams, cutoff: int) -> dict:
    """U(beta)|0, 0_tilde> in sector form: the doubled vacuum lives in the
    n = n_tilde sector, which the pair generator never leaves, so it is
    that sector alone."""
    vac = np.zeros(cutoff + 1, dtype=complex)
    vac[0] = 1.0
    return {0: _sector_apply(params.theta, cutoff, 0, vac)}


def _apply_original(op: np.ndarray, data: np.ndarray) -> np.ndarray:
    """(op x I) applied to dense two-mode vector data without forming
    op x I: in the [n_tilde, n] view the original index is the column."""
    d = op.shape[0]
    return (data.reshape(d, d) @ op.T).reshape(-1)


def thermal_number_states(params: ThermalParams, cutoff: int
                          ) -> list[dict]:
    """Purified thermal Fock states |0(b)>, |1(b)>, |2(b)>, |4(b)>, each in
    the sector form of `fock` (one sector each: 0, 1, 2 and 4).

    |n(b)> = (a^dagger)^n |0(b)> / (u^n sqrt(n!)) on the doubled space;
    the 1/u^n factors make each state unit norm.  a^dagger x I moves sector
    p to sector p + 1, entry j times sqrt(j + p + 1), and drops the entry
    that would leave the cutoff.  Each power is raised from the unscaled
    power before it and then scaled in place, so the states hold about
    4 (cutoff + 1) complex entries between them.
    """
    validate_cutoff(cutoff, params)
    u = params.u
    v0 = _thermal_vacuum_vector(params, cutoff)[0]
    v1 = v0[:-1] * np.sqrt(np.arange(1.0, cutoff + 1))
    v2 = v1[:-1] * np.sqrt(np.arange(2.0, cutoff + 1))
    v1 /= u
    v3 = v2[:-1] * np.sqrt(np.arange(3.0, cutoff + 1))
    v2 /= math.sqrt(2.0) * u**2
    v4 = v3[:-1] * np.sqrt(np.arange(4.0, cutoff + 1))
    v4 /= math.sqrt(24.0) * u**4
    return [{0: v0}, {1: v1}, {2: v2}, {4: v4}]


def _superpose(amps: PhysicalAmplitudes, states: list[dict]) -> dict:
    """|Psi(b)> = x|0(b)> + y|1(b)> + z|2(b)> + w|4(b)> on the doubled
    space, in sector form, from `thermal_number_states` output: the four
    states occupy four different sectors, so each is only scaled."""
    return {sector: c * vec for c, state in zip(amps.as_tuple(), states)
            for sector, vec in state.items()}


def gate_thermalization_residual(gate: np.ndarray, amps_in: PhysicalAmplitudes,
                                 params: ThermalParams, cutoff: int) -> float:
    """Norm distance between heating-then-gating and gating-then-heating.

    Compares U(b) (gate x I) U^+(b) U(b)|psi', 0_tilde> against
    U(b) (gate|psi'>, 0_tilde) on the doubled truncated space.  Any
    residual is pure truncation/rounding: the truncated Bogoliubov
    unitary is exactly unitary, so the identity holds algebraically.
    """
    if gate.shape != (cutoff + 1, cutoff + 1):
        raise ValueError(f"gate shape {gate.shape} != {(cutoff + 1,) * 2} "
                         f"of cutoff {cutoff}")
    unit_dev = np.abs(gate.conj().T @ gate - np.eye(cutoff + 1)).max()
    if not unit_dev <= 1e-10:  # also rejects NaN
        raise ValueError(f"gate is not unitary: max |U^+U - I| = {unit_dev:.3e}")
    amps_in.require_normalized()

    theta = params.theta
    psi_prime = amps_in.as_vector(cutoff)
    vac = np.zeros(cutoff + 1, dtype=complex)
    vac[0] = 1.0
    doubled = np.kron(vac, psi_prime)  # |psi', 0_tilde>

    thermalized = _bogoliubov_apply(theta, cutoff, doubled)
    lhs = _bogoliubov_apply(theta, cutoff, _apply_original(
        gate, _bogoliubov_apply(theta, cutoff, thermalized, inverse=True)))
    rhs = _bogoliubov_apply(theta, cutoff, _apply_original(gate, doubled))
    return float(np.linalg.norm(lhs - rhs))
