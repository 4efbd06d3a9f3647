import math
from functools import lru_cache

import numpy as np
import pytest

from thermoqubit.errors import GridWideningError
from thermoqubit.fock import FockMatrix
from thermoqubit.observables import (
    CLOSED_FORM_WIGNER_SCALE,
    GridSpec,
    _wigner_values,
    laguerre_assoc,
    wigner_closed_form,
    wigner_from_density,
    wigner_negativity,
)
from thermoqubit.thermal import (
    DEFAULT_AMPLITUDES,
    PhysicalAmplitudes,
    ThermalParams,
    auto_cutoff,
    thermal_state_density_expansion,
    thermal_vacuum_density,
)

GRID6 = GridSpec(-6, 6, -6, 6, 201, 201)
ORIGIN6 = 100  # index of q = p = 0 on GRID6


def fock_projector(n, cutoff=8):
    m = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    m[n, n] = 1.0
    return FockMatrix(m, cutoff)


def params_for(n_bar):
    return ThermalParams.from_mean_occupation(n_bar)


@lru_cache(maxsize=None)
def heated_rho(n_bar, amps=DEFAULT_AMPLITUDES):
    return thermal_state_density_expansion(
        amps, params_for(n_bar), auto_cutoff(n_bar))


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
    mix = FockMatrix(0.25 * fock_projector(0).data + 0.75 * fock_projector(1).data, 8)
    w_mix = wigner_from_density(mix, GRID6)
    assert np.abs(w_mix.values - 0.25 * w0.values - 0.75 * w1.values).max() < 1e-12


def test_parity_identity_at_origin():
    rho = heated_rho(0.3)
    w = wigner_from_density(rho, GRID6)
    parity = float(np.sum((-1.0) ** np.arange(rho.dim)
                          * np.diag(rho.data).real)) / math.pi
    assert abs(w.values[ORIGIN6, ORIGIN6] - parity) < 1e-10


def test_rejects_two_mode_input():
    from thermoqubit.fock import tensor_product

    joint = tensor_product(fock_projector(0, 4), fock_projector(0, 4))
    with pytest.raises(ValueError):
        wigner_from_density(joint, GRID6)


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
    """Point-by-point Fock-kernel sum, one matrix element at a time."""
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
                              * laguerre_assoc(lo, hi - lo, x))
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
    got = _wigner_values(rho, q, p)
    assert got.shape == (len(q), len(p))
    assert np.abs(got - reference.real).max() <= 1e-12


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
    closed, report = wigner_closed_form(amps, params, GRID6, cutoff=60)
    numeric = wigner_from_density(
        thermal_vacuum_density(params, 60), GRID6)
    assert np.abs(closed.values - numeric.values).max() < 1e-8
    assert report.params["max_abs_discrepancy"] < 1e-8


def test_closed_form_grid_negative_region_cold():
    closed, _ = wigner_closed_form(DEFAULT_AMPLITUDES, params_for(0.1))
    assert closed.values.min() < 0.0


def test_closed_form_requires_real_amplitudes():
    raw = np.array([0.2 + 0.1j, 0.3, 0.6, math.sqrt(0.51 - 0.05)])
    raw /= np.linalg.norm(raw)
    with pytest.raises(ValueError):
        wigner_closed_form(PhysicalAmplitudes(*raw), params_for(0.1))


def test_closed_form_discrepancy_reported():
    closed, report = wigner_closed_form(DEFAULT_AMPLITUDES, params_for(0.1))
    assert report.params["max_abs_discrepancy"] > 0.0
    assert report.params["l1_discrepancy"] > 0.0
    assert report.params["closed_form_scale"] == CLOSED_FORM_WIGNER_SCALE
    assert report.abs_discrepancy == pytest.approx(
        abs(report.value_numeric - report.value_closed_form), rel=1e-12)


def test_negativity_fades_with_temperature():
    cold, _ = wigner_closed_form(DEFAULT_AMPLITUDES, params_for(0.1))
    numeric_cold = wigner_from_density(heated_rho(0.1))
    numeric_hot = wigner_from_density(heated_rho(10.0))
    assert wigner_negativity(numeric_hot) < wigner_negativity(numeric_cold)
    # the closed-form grid at the same temperature shows negativity too
    assert wigner_negativity(cold) > 0.0
