import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoqubit.errors import MandelUndefinedError
from thermoqubit.observables import (
    _laguerre_sums,
    _mandel_coefficients,
    fidelity_closed_form,
    fidelity_columns,
    fidelity_numeric,
    mandel_closed_form,
    mandel_numeric,
)
from thermoqubit.thermal import (
    DEFAULT_AMPLITUDES,
    PhysicalAmplitudes,
    ThermalParams,
    auto_cutoff,
    thermal_state_density_expansion,
    thermal_state_density_operator,
)

RNG = np.random.default_rng(2718)


def params_for(n_bar):
    return ThermalParams(n_bar)


def random_amps():
    raw = RNG.normal(size=4) + 1j * RNG.normal(size=4)
    raw /= np.linalg.norm(raw)
    return PhysicalAmplitudes(*raw)


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------

def test_fidelity_pure_limit():
    assert abs(fidelity_numeric(DEFAULT_AMPLITUDES, params_for(0.0)) - 1.0) < 1e-12
    for _ in range(20):
        f = fidelity_numeric(random_amps(), params_for(0.0))
        assert abs(f - 1.0) < 1e-12


def test_fidelity_vacuum_amplitudes():
    # the heated vacuum keeps ground-state weight k = 1/(1+n_bar)
    f = fidelity_numeric(PhysicalAmplitudes(1, 0, 0, 0), params_for(1.0))
    assert abs(f - math.sqrt(0.5)) < 1e-12


def test_fidelity_dual_path_oracle():
    # brute-force fidelity through the operator-constructed density matrix
    params = params_for(0.5)
    cutoff = 60
    rho = thermal_state_density_operator(DEFAULT_AMPLITUDES, params, cutoff)
    psi = DEFAULT_AMPLITUDES.as_vector(cutoff)
    brute = math.sqrt(float(np.real(psi.conj() @ rho @ psi)))
    fast = fidelity_numeric(DEFAULT_AMPLITUDES, params)
    assert abs(fast - brute) < 1e-10


def test_fidelity_global_phase_invariance():
    params = params_for(0.4)
    base = fidelity_numeric(DEFAULT_AMPLITUDES, params)
    phase = complex(math.cos(1.1), math.sin(1.1))
    rotated = PhysicalAmplitudes(*(phase * a for a in DEFAULT_AMPLITUDES.as_tuple()))
    assert abs(fidelity_numeric(rotated, params) - base) < 1e-10


def test_fidelity_closed_form_vacuum_case():
    report = fidelity_closed_form(PhysicalAmplitudes(1, 0, 0, 0), params_for(0.0))
    assert report.value_closed_form == pytest.approx(1.0, abs=1e-14)
    assert report.abs_discrepancy == pytest.approx(0.0, abs=1e-12)


def test_fidelity_closed_form_reports_drift_at_zero_temperature():
    # the numeric value is exactly 1 at n_bar = 0, so any discrepancy is
    # the printed series' own error; it is known to be nonzero
    report = fidelity_closed_form(DEFAULT_AMPLITUDES, params_for(0.0))
    assert abs(report.value_numeric - 1.0) < 1e-12
    assert report.abs_discrepancy == pytest.approx(
        abs(report.value_closed_form - 1.0), abs=1e-12)
    assert report.abs_discrepancy > 1e-6


@pytest.mark.parametrize("n_bar", [0.1, 0.3, 1.0])
def test_fidelity_closed_form_series_logged(n_bar):
    report = fidelity_closed_form(DEFAULT_AMPLITUDES, params_for(n_bar))
    assert math.isfinite(report.value_closed_form)
    assert report.abs_discrepancy >= 0.0
    assert report.params["n_bar"] == n_bar


# ---------------------------------------------------------------------------
# Mandel Q
# ---------------------------------------------------------------------------

def test_mandel_pure_state_value():
    # direct evaluation on the pure state: <N> = 2.85, <N^2> = 9.69
    q = mandel_numeric(DEFAULT_AMPLITUDES, params_for(0.0))
    assert abs(q - (-0.45)) < 1e-9


def test_mandel_thermal_statistics():
    q = mandel_numeric(PhysicalAmplitudes(1, 0, 0, 0), params_for(0.7))
    assert abs(q - 0.7) < 1e-9


def test_mandel_sign_change():
    q_cold = mandel_numeric(DEFAULT_AMPLITUDES, params_for(0.2))
    q_warm = mandel_numeric(DEFAULT_AMPLITUDES, params_for(0.4))
    assert q_cold < 0.0 < q_warm


def test_mandel_undefined_on_vacuum():
    with pytest.raises(MandelUndefinedError):
        mandel_numeric(PhysicalAmplitudes(1, 0, 0, 0), params_for(0.0))


def test_mandel_closed_form_zero_temperature():
    report = mandel_closed_form(DEFAULT_AMPLITUDES, params_for(0.0))
    # hand evaluation of the printed coefficients: c2 = 2.85, c5 = 8.1225,
    # c8 = 9.69, so Q = (c8 - c5)/c2 - 1 = -0.45
    assert abs(report.value_closed_form - (-0.45)) < 1e-12
    assert report.abs_discrepancy < 1e-9


def test_mandel_closed_form_undefined_denominator():
    with pytest.raises(MandelUndefinedError):
        mandel_closed_form(PhysicalAmplitudes(1, 0, 0, 0), params_for(0.0))


@pytest.mark.parametrize("n_bar", [0.1, 0.3, 1.0, 10.0])
def test_mandel_closed_form_discrepancy_logged(n_bar):
    # one printed coefficient is wrong (see below); the numeric path is
    # ground truth and the report only documents the drift
    report = mandel_closed_form(DEFAULT_AMPLITUDES, params_for(n_bar))
    assert math.isfinite(report.value_closed_form)
    assert report.abs_discrepancy == pytest.approx(
        abs(report.value_numeric - report.value_closed_form), rel=1e-12)


def mandel_one_coefficient_fixed(amps, n_bar):
    """The printed Mandel formula with its u^2 v^2 coefficient c6 - c4
    replaced by 3 c2 + c1 - 2 c1 c2, every other printed coefficient kept."""
    c = _mandel_coefficients(amps)
    u2, v2 = 1.0 + n_bar, n_bar
    num = ((3 * c["c2"] + c["c1"] - 2 * c["c1"] * c["c2"]) * u2 * v2
           + (c["c7"] - c["c3"]) * v2**2 + (c["c8"] - c["c5"]) * u2**2
           - c["c1"] * v2 - c["c2"] * u2)
    return num / (c["c1"] * v2 + c["c2"] * u2)


def test_mandel_wrong_printed_coefficient_at_default_amplitudes():
    c = _mandel_coefficients(DEFAULT_AMPLITUDES)
    assert c["c6"] - c["c4"] == pytest.approx(4.24, abs=1e-12)
    assert 3 * c["c2"] + c["c1"] - 2 * c["c1"] * c["c2"] == pytest.approx(
        3.85, abs=1e-12)


def _unit(raw):
    return PhysicalAmplitudes(*(raw / np.linalg.norm(raw)))


_MANDEL_RNG = np.random.default_rng(1093)
MANDEL_AMPS = ([DEFAULT_AMPLITUDES]
               + [_unit(_MANDEL_RNG.normal(size=4)) for _ in range(3)]
               + [_unit(_MANDEL_RNG.normal(size=4)
                        + 1j * _MANDEL_RNG.normal(size=4)) for _ in range(3)])


@pytest.mark.parametrize("amps", MANDEL_AMPS,
                         ids=["default", "real-0", "real-1", "real-2",
                              "complex-0", "complex-1", "complex-2"])
@pytest.mark.parametrize("n_bar", [0.1, 1.0, 10.0])
def test_mandel_printed_formula_exact_with_one_coefficient_fixed(amps, n_bar):
    q = mandel_numeric(amps, params_for(n_bar), cutoff=512)
    fixed = mandel_one_coefficient_fixed(amps, n_bar)
    assert abs(fixed - q) <= 1e-12 * max(1.0, abs(q))


# ---------------------------------------------------------------------------
# fidelity and Mandel Q read only the entries of rho they need
# ---------------------------------------------------------------------------

def _close(a, b, rel=1e-14):
    return abs(a - b) <= rel * abs(b)


@st.composite
def amplitude_sets(draw):
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
    raw = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    norm = np.linalg.norm(raw)
    if norm < 1e-3:
        raw, norm = np.array([1.0, 0.0, 0.0, 0.0]), 1.0
    return PhysicalAmplitudes(*(raw / norm))


@settings(max_examples=60, deadline=None, database=None)
@given(amps=amplitude_sets(), n_bar=st.floats(0.0, 14.0))
def test_readers_match_dense_expansion(amps, n_bar):
    # the leading block and the diagonal give what the full matrix gives
    params = params_for(n_bar)
    cutoff = auto_cutoff(n_bar)
    rho = thermal_state_density_expansion(amps, params, cutoff)
    psi = amps.as_vector(cutoff)
    dense_fidelity = math.sqrt(max(float(np.real(psi.conj() @ rho @ psi)), 0.0))
    assert _close(fidelity_numeric(amps, params), dense_fidelity)

    n = np.arange(cutoff + 1, dtype=float)
    diag = np.diag(rho).real
    mean_n, mean_n2 = float(diag @ n), float(diag @ (n * n))
    if mean_n < 1e-12:
        with pytest.raises(MandelUndefinedError):
            mandel_numeric(amps, params)
        return
    dense_q = (mean_n2 - mean_n**2 - mean_n) / mean_n
    assert _close(mandel_numeric(amps, params), dense_q)


@pytest.mark.parametrize("n_bar", [0.1, 1.0, 10.0])
def test_fidelity_independent_of_cutoff(n_bar):
    # the fidelity takes no cutoff: its bits are psi^+ rho psi on the
    # leading 5 x 5 block of the expanded rho at any cutoff (at n_bar = 10
    # cutoff 51 leaves too much tail, so the auto cutoff stands in)
    params = params_for(n_bar)
    amps = random_amps()
    psi = amps.as_vector(4)
    fidelity = fidelity_columns(amps, [n_bar])[0][0]
    for cutoff in (51 if n_bar < 10 else auto_cutoff(n_bar), 512):
        rho = thermal_state_density_expansion(amps, params, cutoff)
        block = np.ascontiguousarray(rho[:5, :5])
        value = float(np.real(psi.conj() @ block @ psi))
        assert fidelity == math.sqrt(max(value, 0.0))


def test_fidelity_numeric_overflow_matches_block_reader():
    # u^8 overflows at n_bar = 1e200; the point reader raises the block
    # reader's error, not the OverflowError of u^4 deeper down
    with pytest.raises(FloatingPointError) as block:
        fidelity_columns(DEFAULT_AMPLITUDES, [1e200])
    with pytest.raises(FloatingPointError) as point:
        fidelity_numeric(DEFAULT_AMPLITUDES, params_for(1e200))
    assert str(point.value) == str(block.value)
    assert "overflows" in str(point.value)


# ---------------------------------------------------------------------------
# associated Laguerre recurrence
# ---------------------------------------------------------------------------

def laguerre_exact(n, k, arg: Fraction) -> Fraction:
    """Exact rational L_n^k via the finite sum, independent of the recurrence."""
    total = Fraction(0)
    for i in range(n + 1):
        total += (Fraction(-1) ** i * Fraction(math.comb(n + k, n - i))
                  * arg**i / Fraction(math.factorial(i)))
    return total


def laguerre_row(n, k, arg):
    """L_n^k at each point of arg: one one-hot row of `_laguerre_sums`
    under a unit envelope."""
    arg = np.atleast_1d(np.asarray(arg, dtype=float))
    return _laguerre_sums([k], np.eye(1, n + 1, n), arg, np.ones(arg.size))[0]


def test_laguerre_constant_order():
    for k in (0, 1, 5):
        for arg in (0.0, 0.5, 3.7):
            assert laguerre_row(0, k, arg)[0] == 1.0


def test_laguerre_first_order():
    assert laguerre_row(1, 2, 3.0)[0] == pytest.approx(0.0, abs=1e-14)


def test_laguerre_second_order():
    # L_2^1(x) = x^2/2 - 3x + 3
    assert laguerre_row(2, 1, 2.0)[0] == pytest.approx(-1.0, abs=1e-14)


def test_laguerre_against_exact_rational():
    for n in range(21):
        for k in (0, 1, 2, 3, 4):
            for arg in (Fraction(1, 4), Fraction(2), Fraction(27, 5)):
                exact = float(laguerre_exact(n, k, arg))
                got = laguerre_row(n, k, float(arg))[0]
                scale = max(1.0, abs(exact))
                assert abs(got - exact) / scale < 1e-10, (n, k, arg)


def test_laguerre_vectorized():
    # a point's value does not depend on the other points of its row
    xs = np.linspace(0.0, 12.0, 7)
    vec = laguerre_row(5, 2, xs)
    for xi, vi in zip(xs, vec):
        assert vi == pytest.approx(laguerre_row(5, 2, xi)[0], rel=1e-12)
