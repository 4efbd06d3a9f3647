import math
from functools import lru_cache

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracles import thermal_vacuum_density
from thermoqubit import observables
from thermoqubit.errors import GridWideningError
from thermoqubit.observables import (
    CLOSED_FORM_WIGNER_SCALE,
    GridSpec,
    _closed_form_families,
    _laguerre_sums,
    _wigner_values,
    heated_wigner,
    wigner_closed_form,
    wigner_exact,
    wigner_from_density,
    wigner_negativity,
)
from thermoqubit.thermal import (
    DEFAULT_AMPLITUDES,
    PhysicalAmplitudes,
    ThermalParams,
    auto_cutoff,
    thermal_state_density_expansion,
)

GRID6 = GridSpec(-6, 6, -6, 6, 201, 201)
ORIGIN6 = 100  # index of q = p = 0 on GRID6


def fock_projector(n, cutoff=8):
    m = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    m[n, n] = 1.0
    return m


def params_for(n_bar):
    return ThermalParams(n_bar)


@lru_cache(maxsize=None)
def heated_rho(n_bar, amps=DEFAULT_AMPLITUDES):
    """The heated rho at the auto cutoff, shared by the tests that read it,
    so it is made read-only."""
    rho = thermal_state_density_expansion(
        amps, params_for(n_bar), auto_cutoff(n_bar))
    rho.setflags(write=False)
    return rho


def closed_form(amps, params, grid=None, cutoff=None):
    """`wigner_closed_form` on the numeric grid of the heated state: the
    auto cutoff when none is given, the widened default grid when no grid
    is.  Returns (numeric, closed form, max |discrepancy|, L1 discrepancy).
    """
    if cutoff is None:
        cutoff = auto_cutoff(params.n_bar)
    rho = thermal_state_density_expansion(amps, params, cutoff)
    numeric = wigner_from_density(rho, grid)
    return (numeric, *wigner_closed_form(amps, params, numeric, cutoff))


def test_vacuum_peak():
    w = wigner_from_density(fock_projector(0), GRID6)
    assert abs(w.values[ORIGIN6, ORIGIN6] - 1.0 / math.pi) < 1e-10
    assert abs(w.integral() - 1.0) < 1e-10


def test_single_photon_trough():
    w = wigner_from_density(fock_projector(1), GRID6)
    assert abs(w.values[ORIGIN6, ORIGIN6] + 1.0 / math.pi) < 1e-10


def test_vacuum_has_no_negativity():
    w = wigner_from_density(fock_projector(0), GRID6)
    assert wigner_negativity(w) < 1e-12


def test_single_photon_negativity_stable_under_refinement():
    coarse = wigner_from_density(fock_projector(1), GRID6)
    fine = wigner_from_density(fock_projector(1),
                               GridSpec(-6, 6, -6, 6, 401, 401))
    n_coarse = wigner_negativity(coarse)
    n_fine = wigner_negativity(fine)
    assert n_coarse > 0.0
    assert abs(n_coarse - n_fine) / n_fine < 0.01


def test_normalization_default_grid():
    w = wigner_from_density(heated_rho(0.3), GridSpec())
    assert abs(w.integral() - 1.0) < 1e-6


def test_linearity_of_mixtures():
    w0 = wigner_from_density(fock_projector(0), GRID6)
    w1 = wigner_from_density(fock_projector(1), GRID6)
    mix = 0.25 * fock_projector(0) + 0.75 * fock_projector(1)
    w_mix = wigner_from_density(mix, GRID6)
    assert np.abs(w_mix.values - 0.25 * w0.values - 0.75 * w1.values).max() < 1e-12


def test_parity_identity_at_origin():
    rho = heated_rho(0.3)
    w = wigner_from_density(rho, GRID6)
    parity = float(np.sum((-1.0) ** np.arange(len(rho))
                          * np.diag(rho).real)) / math.pi
    assert abs(w.values[ORIGIN6, ORIGIN6] - parity) < 1e-10


@pytest.mark.parametrize("shape", [(9, 8), (81,), (2, 9, 9)],
                         ids=["rectangular", "vector", "stacked"])
def test_rejects_non_square_input(shape):
    with pytest.raises(ValueError, match="must be square"):
        wigner_from_density(np.zeros(shape), GRID6)


def test_auto_widening_reaches_hot_state():
    # a hot state leaks past [-8, 8]; the default grid must widen until
    # the Riemann sum matches the trace
    w = wigner_from_density(heated_rho(10.0))
    assert w.spec.q_max > 8.0
    assert abs(w.integral() - 1.0) < 1e-6


def test_explicit_grid_used_as_is_or_widened():
    rho = heated_rho(10.0)
    small = GridSpec(-4, 4, -4, 4, 101, 101)
    grid = wigner_from_density(rho, small)  # as-is: no check, no widening
    assert grid.integral() < 0.9
    widened = wigner_from_density(rho, small, widen=True)
    assert widened.spec.q_max == 32.0
    assert abs(widened.integral() - 1.0) < 1e-6


def test_widening_exhausted_raises():
    # an already-wide but hopelessly coarse grid cannot be fixed by widening
    rho = heated_rho(0.1)
    coarse = GridSpec(-33, 33, -33, 33, 5, 5)
    with pytest.raises(GridWideningError):
        wigner_from_density(rho, coarse, widen=True)


def direct_wigner(rho, q, p):
    """Point-by-point Fock-kernel sum, one matrix element at a time, with
    L from scipy: no code shared with the kernel's recurrence."""
    dim = rho.shape[0]
    out = np.empty((len(q), len(p)), dtype=complex)
    for i, qv in enumerate(q):
        for j, pv in enumerate(p):
            alpha = complex(qv, pv) / math.sqrt(2.0)
            x = 4.0 * abs(alpha) ** 2
            total = 0j
            for m in range(dim):
                for n in range(dim):
                    lo, hi = min(m, n), max(m, n)
                    radial = ((-1) ** lo
                              * math.sqrt(math.factorial(lo) / math.factorial(hi))
                              * math.exp(-x / 2.0)
                              * scipy.special.eval_genlaguerre(lo, hi - lo, x))
                    phase = ((2.0 * alpha.conjugate()) ** (m - n) if m >= n
                             else (2.0 * alpha) ** (n - m))
                    total += rho[m, n] * phase * radial
            out[i, j] = total / math.pi
    return out


def random_complex_density(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("q, p", [
    # off-centre, nq != np: almost every r^2 is distinct
    (np.linspace(-1.3, 2.1, 7), np.linspace(-0.7, 1.9, 5)),
    # symmetric: most r^2 repeat, so the scatter reuses radial values
    (np.linspace(-2.0, 2.0, 9), np.linspace(-2.0, 2.0, 9)),
])
def test_kernel_matches_direct_sum(q, p):
    rho = random_complex_density(6, seed=7)
    upper = rho[np.triu_indices(6, 1)]  # complex, so every upper diagonal
    assert np.abs(upper.imag).min() > 0.0  # and its conjugate phase count
    reference = direct_wigner(rho, q, p)
    assert np.abs(reference.imag).max() < 1e-12
    spec = GridSpec(q[0], q[-1], p[0], p[-1], len(q), len(p))
    assert np.array_equal(spec.q_axis(), q) and np.array_equal(spec.p_axis(), p)
    got = _wigner_values(rho, spec)
    assert got.shape == (len(q), len(p))
    assert np.abs(got - reference.real).max() <= 1e-12


def scaled_laguerre_steps(k, top, arg, envelope):
    """The envelope-scaled Laguerre recurrence, one degree at a time."""
    prev, cur = None, envelope
    yield 0, cur
    if top == 0:
        return
    prev, cur = cur, (1.0 + k - arg) * envelope
    yield 1, cur
    for m in range(2, top + 1):
        prev, cur = cur, ((2 * m - 1 + k - arg) * cur - (m - 1 + k) * prev) / m
        yield m, cur


def laguerre_sums_by_row(ks, coef, arg, envelope):
    """Each row's sum of coef * L from +0 over every degree, one recurrence
    per row: the reference `_laguerre_sums` must match bit for bit."""
    sums = np.zeros((len(coef), arg.size))
    for k, row, acc in zip(ks, coef, sums):
        for m, scaled_l in scaled_laguerre_steps(k, len(row) - 1, arg, envelope):
            acc += row[m] * scaled_l
    return sums


def accumulator_rows():
    rng = np.random.default_rng(5)
    coef = np.zeros((7, 13))
    coef[0, :6] = rng.normal(size=6)    # k = 2, last nonzero degree 5
    coef[1] = rng.normal(size=13)       # k = 0, every degree ...
    coef[1, [3, 7]] = 0.0, -0.0         # ... but two, one a -0
    coef[2] = coef[0]                   # k = 2 again, the same row
    coef[3, ::2] = -0.0                 # k = 0, all zero: stays +0
    coef[4, 7] = 1.0                    # k = 3, one-hot at degree 7
    coef[5, :10] = rng.normal(size=10)  # k = 1, last nonzero degree 9
    coef[6] = coef[1]                   # row 1's coefficients at k = 2
    return [2, 0, 2, 0, 3, 1, 2], coef


LAGUERRE_ARGS = np.array([0.0, 0.5, 1.0, 4.0, 7.5, 40.0, 700.0, 1500.0])


@pytest.mark.parametrize("envelope", ["unit", "gaussian"])
def test_laguerre_sums_match_row_by_row_recurrence(envelope):
    ks, coef = accumulator_rows()
    with np.errstate(under="ignore"):
        env = (np.ones_like(LAGUERRE_ARGS) if envelope == "unit"
               else np.exp(-LAGUERRE_ARGS / 2.0))
    sums = _laguerre_sums(ks, coef, LAGUERRE_ARGS, env)
    assert_bit_identical(sums, laguerre_sums_by_row(ks, coef, LAGUERRE_ARGS, env))
    assert_bit_identical(sums[2], sums[0])
    assert_bit_identical(sums[3], np.zeros_like(LAGUERRE_ARGS))
    assert not np.array_equal(sums[6], sums[1])
    if envelope == "unit":
        # the one-hot row alone, as the other rows leave its bits alone
        alone = _laguerre_sums([3], np.eye(1, 8, 7), LAGUERRE_ARGS, env)
        assert_bit_identical(sums[4], alone[0])


def test_laguerre_sums_all_zero():
    ks, coef = accumulator_rows()
    sums = _laguerre_sums(ks, 0.0 * coef, LAGUERRE_ARGS,
                          np.ones_like(LAGUERRE_ARGS))
    assert_bit_identical(sums, np.zeros((len(ks), LAGUERRE_ARGS.size)))


def wigner_by_offset(rho, q, p):
    """The kernel as one recurrence per diagonal offset, scanning every
    offset and every distinct r^2: the loop the band-only kernel replaced,
    kept as its bit-for-bit reference."""
    dim = rho.shape[0]
    qg, pg = np.meshgrid(q, p, indexing="ij")
    r2, inv = np.unique((qg**2 + pg**2).ravel(), return_inverse=True)
    inv = inv.reshape(qg.shape)
    x_arg = 2.0 * r2
    with np.errstate(under="ignore"):
        envelope = np.exp(-r2)
    log_fact = np.array([math.lgamma(m + 1.0) for m in range(dim)])
    w = np.zeros(qg.shape, dtype=complex)
    for off in range(dim):
        lower = np.diagonal(rho, -off)
        upper = np.diagonal(rho, off)
        if not (np.any(lower) or np.any(upper)):
            continue
        n_top = dim - 1 - off
        weights = ((-1.0) ** np.arange(n_top + 1)
                   * np.exp(0.5 * (log_fact[: n_top + 1] - log_fact[off:])))
        acc_lower = np.zeros(r2.shape, dtype=complex)
        acc_upper = np.zeros(r2.shape, dtype=complex)
        for n, scaled_l in scaled_laguerre_steps(off, n_top, x_arg, envelope):
            acc_lower += (lower[n] * weights[n]) * scaled_l
            if off:
                acc_upper += (upper[n] * weights[n]) * scaled_l
        if off == 0:
            w += acc_lower[inv]
        else:
            factor = (np.sqrt(2.0) * (qg - 1j * pg)) ** off
            w += factor * acc_lower[inv] + np.conj(factor) * acc_upper[inv]
    w /= math.pi
    return w.real


def assert_bit_identical(got, expected):
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


DEFAULT_GRIDS = [GridSpec(), GridSpec().doubled(), GridSpec().doubled().doubled()]


def hollow_density():
    # every diagonal nonzero except the interior offset 2, in both triangles
    rho = random_complex_density(6, seed=7)
    rows = np.arange(4)
    rho[rows + 2, rows] = 0.0
    rho[rows, rows + 2] = 0.0
    return rho


def hermitian_completion(rho):
    """The Hermitian matrix with rho's lower triangle: what the kernel,
    which reads only that triangle, takes rho to be."""
    return np.tril(rho) + np.tril(rho, -1).conj().T


def assert_kernel_matches_per_offset_loop(rho, grid):
    got = _wigner_values(rho, grid)
    q, p = grid.q_axis(), grid.p_axis()
    assert_bit_identical(got, wigner_by_offset(hermitian_completion(rho), q, p))
    # rho is Hermitian only to rounding: summing both its triangles moves W
    # by no more than that
    raw = wigner_by_offset(rho, q, p)
    assert np.abs(got - raw).max() <= 1e-15 * np.abs(got).max()


@pytest.mark.parametrize("n_bar", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("grid", DEFAULT_GRIDS, ids=["8", "16", "32"])
def test_kernel_matches_per_offset_loop_heated(n_bar, grid):
    # the heated state has 5 nonzero diagonals; on [-32, 32]^2 the envelope
    # underflows on 28,576 of the 66,049 points
    assert_kernel_matches_per_offset_loop(heated_rho(n_bar), grid)


@pytest.mark.parametrize("rho", [random_complex_density(6, seed=7),
                                 hollow_density()],
                         ids=["all-diagonals", "zero-interior-diagonal"])
@pytest.mark.parametrize("grid", [GRID6, DEFAULT_GRIDS[2]], ids=["6", "32"])
def test_kernel_matches_per_offset_loop_complex(rho, grid):
    assert_kernel_matches_per_offset_loop(rho, grid)


def test_non_hermitian_density_rejected_before_kernel(monkeypatch):
    data = np.array(heated_rho(1.0))
    data[3, 1] += 1e-8
    grids = counted_kernel(monkeypatch)
    with pytest.raises(ValueError) as err:
        wigner_from_density(data)
    assert str(err.value) == ("density matrix not Hermitian: "
                              "max |rho - rho^+| = 1.000e-08 > 1e-10")
    assert grids == []


def laguerre_rows_per_pass(monkeypatch) -> list:
    """The number of nonzero rows of each `_laguerre_sums` call from now
    on: one real and one imaginary row per nonzero lower diagonal."""
    counts = []
    sums = observables._laguerre_sums

    def counted(ks, coef, arg, envelope):
        counts.append(int(np.count_nonzero(coef.any(axis=1))))
        return sums(ks, coef, arg, envelope)

    monkeypatch.setattr(observables, "_laguerre_sums", counted)
    return counts


@pytest.mark.parametrize("n_bar", [0.1, 1.0, 10.0])
def test_heated_density_accepted_with_one_row_per_offset(monkeypatch, n_bar):
    # the heated rho's transposed diagonals differ by rounding, yet its
    # real lower diagonals give one row each
    rho = heated_rho(n_bar)
    assert 0.0 < np.abs(rho - rho.conj().T).max() < 1e-15
    counts = laguerre_rows_per_pass(monkeypatch)
    wigner_from_density(heated_rho(n_bar))
    assert counts and counts == [5] * len(counts)


def test_complex_density_rows_per_pass(monkeypatch):
    counts = laguerre_rows_per_pass(monkeypatch)
    _wigner_values(random_complex_density(6, seed=7), GRID6)
    assert len(counts) == 1 and counts[0] <= 12


def test_deterministic_values():
    rho = heated_rho(0.1)
    a = wigner_from_density(rho, GRID6)
    b = wigner_from_density(rho, GRID6)
    assert np.array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# printed closed-form series
# ---------------------------------------------------------------------------

def test_closed_form_thermal_family_matches_numeric():
    # with amplitudes (1, 0, 0, 0) only the typo-free first family
    # survives, so the printed series must agree with the numeric kernel
    amps = PhysicalAmplitudes(1, 0, 0, 0)
    params = params_for(0.3)
    _, closed, max_abs, _ = closed_form(amps, params, GRID6, cutoff=60)
    numeric = wigner_from_density(
        thermal_vacuum_density(params, 60), GRID6)
    assert np.abs(closed.values - numeric.values).max() < 1e-8
    assert max_abs < 1e-8


def closed_form_by_family(amps, params, spec, cutoff):
    """The printed series with one recurrence per superscript and the
    families read one degree at a time: the loop the batched series
    replaced, kept as its bit-for-bit reference."""
    qg, pg = np.meshgrid(spec.q_axis(), spec.p_axis(), indexing="ij")
    r2, inv = np.unique((qg**2 + pg**2).ravel(), return_inverse=True)
    inv = inv.reshape(qg.shape)
    x_arg = 2.0 * r2
    with np.errstate(under="ignore"):
        envelope = np.exp(-x_arg / 2.0)
        geom = params.k1 ** np.arange(cutoff + 1, dtype=float)
    n_signed = (-1.0) ** np.arange(cutoff + 1)
    by_k = {}
    for kk, shift, pref, weight in _closed_form_families(
            amps, params, qg, pg, np.arange(cutoff + 1, dtype=float)):
        by_k.setdefault(kk, []).append((shift, pref, weight))
    total = np.zeros_like(qg)
    for kk in sorted(by_k):
        group = by_k[kk]
        radial = [np.zeros_like(r2) for _ in group]
        top = cutoff + max(shift for shift, _, _ in group)
        for m, scaled_l in scaled_laguerre_steps(kk, top, x_arg, envelope):
            for (shift, _, weight), acc in zip(group, radial):
                n = m - shift
                if 0 <= n <= cutoff:
                    acc += (geom[n] * n_signed[n] * float(weight[n])) * scaled_l
        for (_, pref, _), acc in zip(group, radial):
            total += pref * acc[inv]
    return params.k * CLOSED_FORM_WIGNER_SCALE * total


@pytest.mark.parametrize("n_bar", [0.1, 10.0])
def test_closed_form_matches_per_family_loop(n_bar):
    params = params_for(n_bar)
    cutoff = auto_cutoff(n_bar)
    _, closed, _, _ = closed_form(DEFAULT_AMPLITUDES, params, cutoff=cutoff)
    assert_bit_identical(
        closed.values,
        closed_form_by_family(DEFAULT_AMPLITUDES, params, closed.spec, cutoff))


def test_closed_form_grid_negative_region_cold():
    closed = closed_form(DEFAULT_AMPLITUDES, params_for(0.1))[1]
    assert closed.values.min() < 0.0


def test_closed_form_requires_real_amplitudes():
    raw = np.array([0.2 + 0.1j, 0.3, 0.6, math.sqrt(0.51 - 0.05)])
    raw /= np.linalg.norm(raw)
    with pytest.raises(ValueError):
        closed_form(PhysicalAmplitudes(*raw), params_for(0.1))


def test_closed_form_discrepancy_reported():
    numeric, closed, max_abs, l1 = closed_form(DEFAULT_AMPLITUDES,
                                               params_for(0.1))
    diff = np.abs(closed.values - numeric.values)
    assert max_abs == diff.max() > 0.0
    assert l1 == diff.sum() * numeric.cell_area > 0.0


def test_negativity_fades_with_temperature():
    cold = closed_form(DEFAULT_AMPLITUDES, params_for(0.1))[1]
    numeric_cold = wigner_from_density(heated_rho(0.1))
    numeric_hot = wigner_from_density(heated_rho(10.0))
    assert wigner_negativity(numeric_hot) < wigner_negativity(numeric_cold)
    # the closed-form grid at the same temperature shows negativity too
    assert wigner_negativity(cold) > 0.0


def test_radial_grid_is_shared_by_equal_axes_only():
    # one factorization serves every GridSpec of a grid; grids whose specs
    # compare equal but whose axes differ in a zero's sign get their own
    assert GridSpec()._radial is GridSpec()._radial
    qg_plus = GridSpec(-1.0, 0.0, -1.0, 1.0, 3, 3)._radial[0]
    qg_minus = GridSpec(-1.0, -0.0, -1.0, 1.0, 3, 3)._radial[0]
    assert GridSpec(-1.0, 0.0) == GridSpec(-1.0, -0.0)
    assert not np.signbit(qg_plus[-1]).any() and np.signbit(qg_minus[-1]).all()


# ---------------------------------------------------------------------------
# exact route
# ---------------------------------------------------------------------------

@st.composite
def amplitude_sets(draw):
    """Normalized amplitudes, real or complex."""
    parts = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=8,
                                   max_size=8)))
    raw = parts[0::2] + (1j * parts[1::2] if draw(st.booleans()) else 0.0)
    norm = np.linalg.norm(raw)
    if norm < 1e-3:
        raw, norm = np.array([1.0, 0.0, 0.0, 0.0]), 1.0
    return PhysicalAmplitudes(*(raw / norm))


def kernel_envelope_normal(spec):
    """The grid points where the kernel's envelope exp(-q^2 - p^2) is a
    normal double: all of [-16, 16]^2, within q^2 + p^2 <= 708 beyond it
    (see test_kernel_far_field_at_high_n_bar)."""
    qg, pg, _, _ = spec._radial
    with np.errstate(under="ignore"):
        return np.exp(-(qg**2 + pg**2)) >= np.finfo(float).tiny


@settings(max_examples=10, deadline=None, database=None)
@given(amps=amplitude_sets(), n_bar=st.floats(0.0, 14.0))
def test_exact_route_matches_kernel(amps, n_bar):
    # the cutoff-free route agrees with the kernel on each default-grid
    # candidate to the kernel's truncation, and the grid heated_wigner
    # starts on from it is the one the plain widening keeps, bit for bit
    params = params_for(n_bar)
    rho, started = heated_wigner(amps, params, auto_cutoff(n_bar))
    exact = wigner_exact(amps, params)
    for spec in DEFAULT_GRIDS:
        kernel = _wigner_values(rho, spec)
        values = exact.values(spec)
        normal = kernel_envelope_normal(spec)
        assert normal.all() or spec.q_max == 32
        diff = (values - kernel)[normal]
        assert np.abs(diff).max() <= 1e-9 * np.abs(kernel).max()
        assert abs(diff.sum() * spec.cell_area) <= 1e-9
        assert exact.riemann_sum(spec) == pytest.approx(
            values.sum() * spec.cell_area, rel=0, abs=1e-13)
    plain = wigner_from_density(rho)
    assert started.spec == plain.spec
    assert started.values.tobytes() == plain.values.tobytes()


@pytest.mark.xfail(strict=True, reason=(
    "the kernel's envelope exp(-q^2 - p^2) leaves the normal doubles at "
    "q^2 + p^2 = 708; past it the kernel's W is 0 or loses its bits, and "
    "at n_bar = 14 that misses 1.6e-7 of max|W|"))
def test_kernel_far_field_at_high_n_bar():
    params = params_for(14.0)
    spec = DEFAULT_GRIDS[2]
    kernel = _wigner_values(heated_rho(14.0), spec)
    values = wigner_exact(DEFAULT_AMPLITUDES, params).values(spec)
    assert np.abs(values - kernel).max() <= 1e-9 * np.abs(kernel).max()


def counted_kernel(monkeypatch) -> list:
    """The q_max of each grid `_wigner_values` is run on from now on."""
    evaluated = []
    kernel = observables._wigner_values

    def counted(rho, spec):
        evaluated.append(spec.q_max)
        return kernel(rho, spec)

    monkeypatch.setattr(observables, "_wigner_values", counted)
    return evaluated


@pytest.mark.parametrize("n_bar, grid, evaluated", [
    (1.0, GridSpec(-2, 2, -2, 2, 9, 9), [2, 4, 8, 16]),  # last: 3 doublings
    (0.1, GridSpec(-33, 33, -33, 33, 5, 5), [33]),        # last: q_max >= 32
], ids=["attempts", "q-max"])
def test_widening_error_names_last_grid(monkeypatch, n_bar, grid, evaluated):
    # the widening runs the kernel on each grid up to the last one allowed,
    # and the error carries that grid and its normalization error
    rho = heated_rho(n_bar)
    grids = counted_kernel(monkeypatch)
    with pytest.raises(GridWideningError) as err:
        wigner_from_density(rho, grid, widen=True)
    last = evaluated[-1]
    assert str(err.value).endswith(
        f"> {observables.GRID_TOL_DEFAULT} on [{-last}, {last}]^2; "
        f"no wider grid allowed")
    assert grids == evaluated


def test_heated_wigner_widening_error(monkeypatch):
    # at n_bar = 10 the exact route rules out [-8, 8]^2 and [-16, 16]^2, so
    # heated_wigner starts on [-32, 32]^2; with no tolerance left the
    # kernel's one pass there raises the plain loop's error
    monkeypatch.setattr(observables, "GRID_TOL_DEFAULT", 0.0)
    rho = heated_rho(10.0)
    with pytest.raises(GridWideningError) as plain:
        wigner_from_density(rho, DEFAULT_GRIDS[2], widen=True)
    grids = counted_kernel(monkeypatch)
    with pytest.raises(GridWideningError) as err:
        heated_wigner(DEFAULT_AMPLITUDES, params_for(10.0), auto_cutoff(10.0))
    assert str(err.value) == str(plain.value)
    assert "on [-32.0, 32.0]^2" in str(err.value)
    assert grids == [32]
