import math

import numpy as np
import pytest
import scipy.linalg

from thermoqubit import thermal
from thermoqubit.errors import CutoffError
from thermoqubit.fock import (
    FockMatrix,
    FockVector,
    build_ladder,
    identity,
    reduce_pure_state,
    tensor_product,
)
from thermoqubit.gates import half_period_gate_matrix
from thermoqubit.thermal import (
    DEFAULT_AMPLITUDES,
    _apply_original,
    _bogoliubov_apply,
    _sector_exponential,
    _sector_generator,
    PhysicalAmplitudes,
    ThermalParams,
    auto_cutoff,
    beta_omega_from_occupation,
    bogoliubov_unitary,
    gate_thermalization_residual,
    mean_occupation,
    thermal_number_states,
    thermal_state_density_expansion,
    thermal_state_density_operator,
    thermal_superposition_state,
    thermal_vacuum_density,
    validate_cutoff,
)

RNG = np.random.default_rng(987)


def params_for(n_bar):
    return ThermalParams.from_mean_occupation(n_bar)


def doubled_vacuum(cutoff):
    vac = np.zeros((cutoff + 1) ** 2)
    vac[0] = 1.0
    return FockVector(vac, cutoff, mode_count=2)


# ---------------------------------------------------------------------------
# temperature scalars
# ---------------------------------------------------------------------------

def test_mean_occupation_known_values():
    assert mean_occupation(math.log(2.0)) == pytest.approx(1.0, abs=1e-14)
    assert mean_occupation(math.log(4.0 / 3.0)) == pytest.approx(3.0, abs=1e-12)
    assert mean_occupation(50.0) < 1e-21


def test_mean_occupation_rejects_nonpositive():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            mean_occupation(bad)


def test_occupation_round_trip():
    for n_bar in (0.05, 0.3, 1.0, 7.5):
        back = mean_occupation(beta_omega_from_occupation(n_bar))
        assert abs(back - n_bar) < 1e-12 * max(1.0, n_bar)
    a = ThermalParams.from_beta_omega(math.log(2.0))
    b = ThermalParams.from_mean_occupation(1.0)
    assert abs(a.n_bar - b.n_bar) < 1e-12
    assert abs(a.u - b.u) < 1e-12


def test_bogoliubov_factors_zero_temperature():
    p = params_for(0.0)
    assert (p.u, p.v, p.theta) == (1.0, 0.0, 0.0)
    assert p.beta_omega == math.inf


def test_bogoliubov_factors_unit_occupation():
    p = params_for(1.0)
    assert p.u == pytest.approx(math.sqrt(2.0), abs=1e-14)
    assert p.v == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n_bar", [0.1, 0.3, 10.0])
def test_hyperbolic_identity(n_bar):
    p = params_for(n_bar)
    assert abs(p.u**2 - p.v**2 - 1.0) < 1e-12
    assert abs(p.u - math.cosh(p.theta)) < 1e-12
    assert abs(p.v - math.sinh(p.theta)) < 1e-12


def test_negative_occupation_rejected():
    with pytest.raises(ValueError):
        params_for(-0.1)


# ---------------------------------------------------------------------------
# cutoff selection
# ---------------------------------------------------------------------------

def test_auto_cutoff_tail_bound():
    for n_bar in (0.1, 0.5, 1.0, 10.0):
        c = auto_cutoff(n_bar)
        k1 = n_bar / (1.0 + n_bar)
        assert k1 ** (c + 1) < 1e-10 * (1.0 - k1)
        assert c <= 512


def test_auto_cutoff_grows_with_occupation():
    cuts = [auto_cutoff(nb) for nb in (0.1, 0.5, 1.0, 5.0, 10.0)]
    assert cuts == sorted(cuts)


def test_cutoff_cap_error():
    # k1 = 200/201 cannot reach 1e-10 below the cap; from n_bar ~ 9.007e15
    # k1 rounds to 1, and from ~1.158e77 (1 + n_bar)^4 overflows
    for n_bar in (200.0, 1e16, 1e300):
        with pytest.raises(CutoffError, match="no cutoff <= 512"):
            auto_cutoff(n_bar)
    with pytest.raises(CutoffError, match="leaves geometric tail mass"):
        validate_cutoff(100, ThermalParams.from_mean_occupation(1e16))


def _auto_cutoff_loop(n_bar, tail_tol):
    """The candidate-by-candidate scan `auto_cutoff` used before it was
    vectorized, kept whole as the reference: its quartic tail is the
    exp/cumsum table summed to n = 2011, where `auto_cutoff` now takes the
    closed-form infinite sum."""
    if n_bar == 0:
        return 8
    k = 1.0 / (1.0 + n_bar)
    k1 = n_bar / (1.0 + n_bar)
    u8 = (1.0 + n_bar) ** 4
    n = np.arange(0, 512 + 1500, dtype=float)
    with np.errstate(under="ignore"):
        log_terms = (math.log(k) + n * math.log(k1)
                     + np.log(n + 1) + np.log(n + 2) + np.log(n + 3) + np.log(n + 4)
                     - math.log(24.0 * u8))
        terms = np.exp(log_terms)
    suffix = np.cumsum(terms[::-1])[::-1]
    log_k1 = math.log(k1)
    for cand in range(8, 512 + 1):
        if (cand + 1) * log_k1 >= math.log(tail_tol * (1.0 - k1)):
            continue
        if suffix[max(cand - 3, 0)] >= tail_tol:
            continue
        return cand
    raise CutoffError("no cutoff <= 512")


@pytest.mark.parametrize("tail_tol", [1e-10, 1e-12, 1e-14])
def test_auto_cutoff_scan_matches_loop(tail_tol):
    # n_bar step 0.01 over [0, 15]: every cutoff from 8 up to the cap, and
    # past n_bar ~ 14.5 (earlier for tighter tolerances) the CutoffError
    failures = 0
    for n_bar in np.linspace(0.0, 15.0, 1501).tolist():
        try:
            expected = _auto_cutoff_loop(n_bar, tail_tol)
        except CutoffError:
            failures += 1
            with pytest.raises(CutoffError):
                auto_cutoff(n_bar, tail_tol)
            continue
        assert auto_cutoff(n_bar, tail_tol) == expected, n_bar
    assert failures > 0


def test_auto_cutoff_matches_loop_on_benchmark_sweeps():
    # every n_bar of the benchmark's four sweep commands (their cutoffs
    # reach 496 of the 512 cap)
    for n_bar in np.concatenate([np.linspace(0.0, 14.0, 400),
                                 np.linspace(0.0, 2.0, 50),
                                 np.linspace(0.0, 1.0, 41)]).tolist():
        assert auto_cutoff(n_bar) == _auto_cutoff_loop(n_bar, 1e-10), n_bar


def test_insufficient_cutoff_rejected():
    with pytest.raises(CutoffError):
        thermal_vacuum_density(params_for(10.0), 20)


# ---------------------------------------------------------------------------
# thermal vacuum density
# ---------------------------------------------------------------------------

def test_thermal_vacuum_zero_temperature():
    rho = thermal_vacuum_density(params_for(0.0), 12)
    expect = np.zeros((13, 13))
    expect[0, 0] = 1.0
    assert np.abs(rho.data - expect).max() == 0.0


def test_thermal_vacuum_mean_occupation():
    rho = thermal_vacuum_density(params_for(0.5), 40)
    mean = np.diag(rho.data).real @ np.arange(41.0)
    assert abs(mean - 0.5) < 1e-10


def test_thermal_vacuum_unit_occupation_entries():
    rho = thermal_vacuum_density(params_for(1.0), 40)
    assert abs(rho.data[0, 0] - 0.5) < 1e-14
    assert abs(rho.data[1, 1] - 0.25) < 1e-14


# ---------------------------------------------------------------------------
# heated superposition: expansion and operator routes
# ---------------------------------------------------------------------------

def pure_projector(amps, cutoff):
    psi = amps.as_vector(cutoff)
    return np.outer(psi.data, psi.data.conj())


def test_expansion_zero_temperature_is_pure():
    rho = thermal_state_density_expansion(DEFAULT_AMPLITUDES, params_for(0.0), 20)
    assert np.abs(rho.data - pure_projector(DEFAULT_AMPLITUDES, 20)).max() < 1e-15


def test_expansion_vacuum_amplitudes_give_thermal_vacuum():
    amps = PhysicalAmplitudes(1, 0, 0, 0)
    rho = thermal_state_density_expansion(amps, params_for(0.7), 40)
    expect = thermal_vacuum_density(params_for(0.7), 40)
    assert np.abs(rho.data - expect.data).max() < 1e-15


def test_expansion_matches_operator_route():
    rho_e = thermal_state_density_expansion(DEFAULT_AMPLITUDES, params_for(0.5), 60)
    rho_o = thermal_state_density_operator(DEFAULT_AMPLITUDES, params_for(0.5), 60)
    assert np.abs(rho_e.data - rho_o.data).max() < 1e-10


def test_expansion_hermitian():
    for n_bar in (0.1, 0.5, 2.0):
        rho = thermal_state_density_expansion(
            DEFAULT_AMPLITUDES, params_for(n_bar), auto_cutoff(n_bar))
        assert np.abs(rho.data - rho.data.conj().T).max() < 1e-12


def test_expansion_complex_amplitudes_stay_hermitian():
    raw = RNG.normal(size=4) + 1j * RNG.normal(size=4)
    raw /= np.linalg.norm(raw)
    amps = PhysicalAmplitudes(*raw)
    rho_e = thermal_state_density_expansion(amps, params_for(0.4), 50)
    rho_o = thermal_state_density_operator(amps, params_for(0.4), 50)
    assert np.abs(rho_e.data - rho_e.data.conj().T).max() < 1e-12
    assert np.abs(rho_e.data - rho_o.data).max() < 1e-12


def test_operator_zero_temperature_projectors():
    rho = thermal_state_density_operator(DEFAULT_AMPLITUDES, params_for(0.0), 20)
    assert np.abs(rho.data - pure_projector(DEFAULT_AMPLITUDES, 20)).max() < 1e-14

    one = PhysicalAmplitudes(0, 1, 0, 0)
    rho1 = thermal_state_density_operator(one, params_for(0.0), 12)
    expect = np.zeros((13, 13), dtype=complex)
    expect[1, 1] = 1.0
    assert np.abs(rho1.data - expect).max() < 1e-14


@pytest.mark.parametrize("n_bar", [0.1, 1.0, 10.0])
def test_operator_route_unit_trace(n_bar):
    cutoff = auto_cutoff(n_bar)
    rho = thermal_state_density_operator(DEFAULT_AMPLITUDES, params_for(n_bar), cutoff)
    assert abs(rho.trace().real - 1.0) < 1e-10


def test_unnormalized_amplitudes_rejected():
    bad = PhysicalAmplitudes(1.0, 0.5, 0, 0)
    with pytest.raises(ValueError):
        thermal_state_density_expansion(bad, params_for(0.1), 20)


def test_nan_amplitudes_rejected():
    # a NaN norm passes every `>` comparison, so the check must not use one
    amps = PhysicalAmplitudes(1.0, math.nan, 0, 0)
    with pytest.raises(ValueError, match="not normalized"):
        amps.require_normalized()


# ---------------------------------------------------------------------------
# doubled space: Bogoliubov unitary and thermal number states
# ---------------------------------------------------------------------------

def test_bogoliubov_unitary_zero_angle_is_identity():
    u = bogoliubov_unitary(params_for(0.0), 10)
    assert np.abs(u.data - np.eye(121)).max() < 1e-14


def test_bogoliubov_unitary_is_unitary():
    u = bogoliubov_unitary(params_for(0.4), 24)
    dense = np.asarray(u.data)
    assert np.abs(dense.conj().T @ dense - np.eye(dense.shape[0])).max() < 1e-11


def test_bogoliubov_matches_dense_exponential():
    # sector-blocked construction vs direct exponentiation of the generator
    p = params_for(0.36)
    cutoff = 20
    low, rai = build_ladder(cutoff)
    gen = p.theta * (tensor_product(rai, rai).data
                     - tensor_product(low, low).data)
    dense = scipy.linalg.expm(gen)
    blocked = bogoliubov_unitary(p, cutoff)
    assert np.abs(dense - blocked.data).max() < 1e-12


def sectors_of(cutoff):
    """Every n - n_tilde sector up to cutoff 64; above it 21 evenly spread
    ones, 0 and +-cutoff among them (scipy's expm of all 719 sectors at
    cutoff 359 takes about a minute)."""
    if cutoff <= 64:
        return range(-cutoff, cutoff + 1)
    return np.linspace(-cutoff, cutoff, 21).round().astype(int).tolist()


@pytest.mark.parametrize("n_bar", [0.1, 1.0, 10.0])
def test_sector_exponential_matches_expm(n_bar):
    # the spectral route against scipy's expm at the auto cutoff (16, 51
    # and 359)
    p = params_for(n_bar)
    cutoff = auto_cutoff(n_bar)
    worst = max(
        np.abs(_sector_exponential(p.theta, cutoff, sector)
               - scipy.linalg.expm(p.theta * _sector_generator(cutoff, sector))
               ).max()
        for sector in sectors_of(cutoff))
    assert worst <= 1e-11


@pytest.mark.parametrize("n_bar", [0.1, 1.0, 10.0])
def test_sector_exponential_is_orthogonal(n_bar):
    p = params_for(n_bar)
    cutoff = auto_cutoff(n_bar)
    for sector in sectors_of(cutoff):
        block = _sector_exponential(p.theta, cutoff, sector)
        assert block.dtype == float
        assert np.abs(block @ block.T - np.eye(len(block))).max() <= 1e-13


@pytest.mark.parametrize("n_bar, cutoff", [(0.1, 40), (math.sinh(0.5) ** 2, 40),
                                           (1.0, 120)])
def test_sector_exponential_vacuum_column_is_geometric(n_bar, cutoff):
    # the n = n_tilde sector maps |0, 0_tilde> to sech(theta) tanh(theta)^n
    # (cutoffs where the truncated tail is negligible)
    theta = params_for(n_bar).theta
    column = _sector_exponential(theta, cutoff, 0)[:, 0]
    expect = np.tanh(theta) ** np.arange(cutoff + 1) / np.cosh(theta)
    assert np.abs(column - expect).max() < 1e-10


def test_apply_original_matches_tensor_product():
    cutoff = 40
    d = cutoff + 1
    gate, _ = np.linalg.qr(RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d)))
    vec = RNG.normal(size=d * d) + 1j * RNG.normal(size=d * d)
    vec /= np.linalg.norm(vec)
    dense = tensor_product(FockMatrix(gate, cutoff), identity(cutoff)).data
    assert np.abs(_apply_original(gate, vec) - dense @ vec).max() <= 1e-14


def test_bogoliubov_vacuum_reduction_is_geometric():
    theta = 0.6
    p = params_for(math.sinh(theta) ** 2)
    cutoff = 40
    u = bogoliubov_unitary(p, cutoff)
    state = u @ doubled_vacuum(cutoff)
    red = reduce_pure_state(state, keep="original")
    expect = thermal_vacuum_density(p, cutoff)
    assert np.abs(red.data - expect.data).max() < 1e-10


def test_doubled_space_mean_occupation():
    p = params_for(0.5)
    cutoff = 40
    u = bogoliubov_unitary(p, cutoff)
    state = (u @ doubled_vacuum(cutoff)).data
    # N x I is diagonal: entry n at composite index n_tilde*(cutoff+1) + n
    n_two_mode = np.tile(np.arange(cutoff + 1.0), cutoff + 1)
    mean = np.vdot(state, n_two_mode * state).real
    assert abs(mean - 0.5) < 1e-10


@pytest.mark.parametrize("a_op", ["number", "number_squared"])
def test_doubled_expectation_equals_thermal_trace(a_op):
    # pure-state average on the doubled space vs statistical average
    p = params_for(0.8)
    cutoff = auto_cutoff(0.8)
    vac = thermal_number_states(p, cutoff)[0]
    d = cutoff + 1
    occ = np.arange(d, dtype=float)
    weights = occ if a_op == "number" else occ**2
    lhs = float(np.sum(np.abs(vac.data.reshape(d, d)) ** 2 * weights[None, :]))
    diag = np.diag(thermal_vacuum_density(p, cutoff).data).real
    rhs = float(diag @ weights)
    assert abs(lhs - rhs) < 1e-9


def test_thermal_number_states_zero_temperature():
    states = thermal_number_states(params_for(0.0), 12)
    for vec, n in zip(states, (0, 1, 2, 4)):
        d = 13
        full = np.zeros(d * d, dtype=complex)
        full[n] = 1.0  # |n, 0_tilde> sits at composite index n
        assert np.abs(vec.data - full).max() < 1e-14


def test_thermal_number_states_unit_norm():
    p = params_for(math.sinh(0.5) ** 2)
    for vec in thermal_number_states(p, 40):
        assert abs(vec.norm() - 1.0) < 1e-9


def test_superposition_reduction_matches_expansion():
    # strongest cross-oracle: doubled-space construction vs explicit series
    p = params_for(0.3)
    cutoff = 40
    state = thermal_superposition_state(DEFAULT_AMPLITUDES, p, cutoff)
    red = reduce_pure_state(state, keep="original")
    rho = thermal_state_density_expansion(DEFAULT_AMPLITUDES, p, cutoff)
    assert np.abs(red.data - rho.data).max() < 1e-9


# ---------------------------------------------------------------------------
# thermalized-gate identity
# ---------------------------------------------------------------------------

def test_gate_residual_zero_angle():
    gate = half_period_gate_matrix(20)
    res = gate_thermalization_residual(gate, DEFAULT_AMPLITUDES, params_for(0.0), 20)
    assert res < 1e-12


def test_gate_residual_identity_gate():
    res = gate_thermalization_residual(
        identity(30), DEFAULT_AMPLITUDES, params_for(0.6), 30)
    assert res < 1e-12


def test_gate_residual_parity_gate():
    gate = half_period_gate_matrix(40)
    res = gate_thermalization_residual(gate, DEFAULT_AMPLITUDES, params_for(0.2), 40)
    assert res < 1e-8


def test_bogoliubov_apply_matches_dense_unitary(monkeypatch):
    # U(beta) v and U^+(beta) v sector by sector, against the dense U(beta),
    # for |psi', 0_tilde> (sectors 0, 1, 2 and 4 only) and a full vector
    p = params_for(0.2)
    cutoff = 16
    d = cutoff + 1
    dense = np.asarray(bogoliubov_unitary(p, cutoff).data)
    sparse = np.zeros(d * d, dtype=complex)
    sparse[:d] = DEFAULT_AMPLITUDES.as_vector(cutoff).data
    full = RNG.normal(size=d * d) + 1j * RNG.normal(size=d * d)
    sectors = []
    exponential = thermal._sector_exponential

    def counted(theta, cutoff, sector):
        sectors.append(sector)
        return exponential(theta, cutoff, sector)

    monkeypatch.setattr(thermal, "_sector_exponential", counted)
    for vec in (sparse, full):
        assert np.abs(_bogoliubov_apply(p.theta, cutoff, vec)
                      - dense @ vec).max() <= 1e-14
        assert np.abs(_bogoliubov_apply(p.theta, cutoff, vec, inverse=True)
                      - dense.conj().T @ vec).max() <= 1e-14
    assert sectors[:8] == [0, 1, 2, 4] * 2
    assert sorted(sectors[8:]) == sorted(2 * list(range(-cutoff, cutoff + 1)))


def dense_gate_residual(gate, amps, params, cutoff):
    """The gate-thermalization residual through the dense U(beta)."""
    u = np.asarray(bogoliubov_unitary(params, cutoff).data)
    doubled = np.zeros((cutoff + 1) ** 2, dtype=complex)
    doubled[: cutoff + 1] = amps.as_vector(cutoff).data  # |psi', 0_tilde>
    lhs = u @ _apply_original(gate.data, u.conj().T @ (u @ doubled))
    rhs = u @ _apply_original(gate.data, doubled)
    return float(np.linalg.norm(lhs - rhs))


@pytest.mark.parametrize("gate_kind", ["parity", "random"])
def test_gate_residual_sector_wise_matches_dense(monkeypatch, gate_kind):
    # the random unitary mixes every occupation, so every sector is occupied
    p = params_for(0.2)
    cutoff = 20
    d = cutoff + 1
    if gate_kind == "parity":
        gate = half_period_gate_matrix(cutoff)
    else:
        q, _ = np.linalg.qr(RNG.normal(size=(d, d))
                            + 1j * RNG.normal(size=(d, d)))
        gate = FockMatrix(q, cutoff)
    dense = dense_gate_residual(gate, DEFAULT_AMPLITUDES, p, cutoff)

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle built the dense U(beta)")

    monkeypatch.setattr(thermal, "bogoliubov_unitary", forbidden)
    res = gate_thermalization_residual(gate, DEFAULT_AMPLITUDES, p, cutoff)
    assert dense <= 1e-12 and res <= 1e-12
    assert abs(res - dense) <= 1e-13


def test_gate_residual_rejects_nonunitary():
    bad = FockMatrix(0.5 * np.eye(21), 20)
    with pytest.raises(ValueError):
        gate_thermalization_residual(bad, DEFAULT_AMPLITUDES, params_for(0.1), 20)
