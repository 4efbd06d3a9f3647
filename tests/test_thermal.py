import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from dense_oracles import (
    bogoliubov_unitary,
    build_ladder,
    dense_partial_trace,
    identity,
    number_states,
    operator_route_density,
    sector_exponential,
    sector_generator,
    superpose,
    tensor_product,
    thermal_vacuum_density,
    to_dense,
    to_sectors,
)
from thermoqubit import thermal
from thermoqubit.errors import CutoffError
from thermoqubit.fock import reduce_pure_state
from thermoqubit.gates import half_period_gate_matrix
from thermoqubit.observables import GridSpec, heated_wigner
from thermoqubit.thermal import (
    DEFAULT_AMPLITUDES,
    _apply_original,
    _bogoliubov_apply,
    _superpose,
    PhysicalAmplitudes,
    ThermalParams,
    auto_cutoff,
    gate_thermalization_residual,
    resolve_cutoff,
    thermal_number_states,
    thermal_state_density_expansion,
    thermal_state_density_operator,
    validate_cutoff,
)

RNG = np.random.default_rng(987)


def params_for(n_bar):
    return ThermalParams(n_bar)


def doubled_vacuum(cutoff):
    vac = np.zeros((cutoff + 1) ** 2)
    vac[0] = 1.0
    return vac


# ---------------------------------------------------------------------------
# temperature scalars
# ---------------------------------------------------------------------------

def test_bogoliubov_factors_zero_temperature():
    p = params_for(0.0)
    assert (p.u, math.sqrt(p.n_bar), p.theta) == (1.0, 0.0, 0.0)


def test_bogoliubov_factors_unit_occupation():
    p = params_for(1.0)
    assert p.u == pytest.approx(math.sqrt(2.0), abs=1e-14)
    assert math.sqrt(p.n_bar) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n_bar", [0.1, 0.3, 10.0])
def test_hyperbolic_identity(n_bar):
    p = params_for(n_bar)
    v = math.sqrt(n_bar)
    assert abs(p.u**2 - v**2 - 1.0) < 1e-12
    assert abs(p.u - math.cosh(p.theta)) < 1e-12
    assert abs(v - math.sinh(p.theta)) < 1e-12


def test_negative_occupation_rejected():
    with pytest.raises(ValueError):
        params_for(-0.1)


@pytest.mark.parametrize("n_bar", [math.nan, math.inf])
def test_nonfinite_occupation_rejected(n_bar):
    with pytest.raises(ValueError, match="n_bar must be finite and nonnegative"):
        params_for(n_bar)


@pytest.mark.parametrize("n_bar", [math.nan, math.inf, -1.0])
def test_direct_construction_rejects_bad_occupation(n_bar):
    with pytest.raises(ValueError, match="n_bar must be finite and nonnegative"):
        ThermalParams(n_bar)


@pytest.mark.parametrize("n_bar", [0.0, 0.1, 10.0, 1e15])
def test_derived_scalars_keep_their_bits(n_bar):
    # n_bar is the one stored value; the others have the bits of the
    # expressions they were stored from
    p = ThermalParams(np.float64(n_bar))
    assert [f.name for f in dataclasses.fields(p)] == ["n_bar"]
    assert type(p.n_bar) is float
    got = (p.u, p.theta)
    expect = (math.sqrt(1.0 + n_bar), math.asinh(math.sqrt(n_bar)))
    assert [float.hex(x) for x in got] == [float.hex(x) for x in expect]
    assert p == params_for(n_bar)


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
        validate_cutoff(100, ThermalParams(1e16))


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


NON_INTEGER_CALLS = {
    "resolve_cutoff": lambda c: resolve_cutoff(c, params_for(1.0)),
    "expansion": lambda c: thermal_state_density_expansion(
        DEFAULT_AMPLITUDES, params_for(1.0), c),
    "operator": lambda c: thermal_state_density_operator(
        DEFAULT_AMPLITUDES, params_for(1.0), c),
    "number-states": lambda c: thermal_number_states(params_for(1.0), c),
    "heated-wigner": lambda c: heated_wigner(DEFAULT_AMPLITUDES,
                                             params_for(1.0), c),
    "grid-nq": lambda c: GridSpec(nq=c),
    "grid-np": lambda c: GridSpec(np=c),
}


@pytest.mark.parametrize("value", [60.5, np.float64(60.0)],
                         ids=["fraction", "float-type"])
@pytest.mark.parametrize("call", NON_INTEGER_CALLS.values(),
                         ids=NON_INTEGER_CALLS.keys())
def test_non_integer_cutoff_or_point_count_rejected(call, value):
    # a cutoff is checked by `validate_cutoff`, a grid's point counts by
    # GridSpec, before either reaches numpy
    with pytest.raises(ValueError, match=r"must be (an integer|integers), got"):
        call(value)


# ---------------------------------------------------------------------------
# thermal vacuum density
# ---------------------------------------------------------------------------

def test_thermal_vacuum_zero_temperature():
    rho = thermal_vacuum_density(params_for(0.0), 12)
    expect = np.zeros((13, 13))
    expect[0, 0] = 1.0
    assert np.abs(rho - expect).max() == 0.0


def test_thermal_vacuum_mean_occupation():
    rho = thermal_vacuum_density(params_for(0.5), 40)
    mean = np.diag(rho).real @ np.arange(41.0)
    assert abs(mean - 0.5) < 1e-10


def test_thermal_vacuum_unit_occupation_entries():
    rho = thermal_vacuum_density(params_for(1.0), 40)
    assert abs(rho[0, 0] - 0.5) < 1e-14
    assert abs(rho[1, 1] - 0.25) < 1e-14


# ---------------------------------------------------------------------------
# heated superposition: expansion and operator routes
# ---------------------------------------------------------------------------

def pure_projector(amps, cutoff):
    psi = amps.as_vector(cutoff)
    return np.outer(psi, psi.conj())


def test_expansion_zero_temperature_is_pure():
    rho = thermal_state_density_expansion(DEFAULT_AMPLITUDES, params_for(0.0), 20)
    assert np.abs(rho - pure_projector(DEFAULT_AMPLITUDES, 20)).max() < 1e-15


def test_expansion_vacuum_amplitudes_give_thermal_vacuum():
    amps = PhysicalAmplitudes(1, 0, 0, 0)
    rho = thermal_state_density_expansion(amps, params_for(0.7), 40)
    expect = thermal_vacuum_density(params_for(0.7), 40)
    assert np.abs(rho - expect).max() < 1e-15


def test_expansion_matches_operator_route():
    rho_e = thermal_state_density_expansion(DEFAULT_AMPLITUDES, params_for(0.5), 60)
    rho_o = thermal_state_density_operator(DEFAULT_AMPLITUDES, params_for(0.5), 60)
    assert np.abs(rho_e - rho_o).max() < 1e-10


def test_expansion_hermitian():
    for n_bar in (0.1, 0.5, 2.0):
        rho = thermal_state_density_expansion(
            DEFAULT_AMPLITUDES, params_for(n_bar), auto_cutoff(n_bar))
        assert np.abs(rho - rho.conj().T).max() < 1e-12


def test_expansion_complex_amplitudes_stay_hermitian():
    raw = RNG.normal(size=4) + 1j * RNG.normal(size=4)
    raw /= np.linalg.norm(raw)
    amps = PhysicalAmplitudes(*raw)
    rho_e = thermal_state_density_expansion(amps, params_for(0.4), 50)
    rho_o = thermal_state_density_operator(amps, params_for(0.4), 50)
    assert np.abs(rho_e - rho_e.conj().T).max() < 1e-12
    assert np.abs(rho_e - rho_o).max() < 1e-12


def test_operator_zero_temperature_projectors():
    rho = thermal_state_density_operator(DEFAULT_AMPLITUDES, params_for(0.0), 20)
    assert np.abs(rho - pure_projector(DEFAULT_AMPLITUDES, 20)).max() < 1e-14

    one = PhysicalAmplitudes(0, 1, 0, 0)
    rho1 = thermal_state_density_operator(one, params_for(0.0), 12)
    expect = np.zeros((13, 13), dtype=complex)
    expect[1, 1] = 1.0
    assert np.abs(rho1 - expect).max() < 1e-14


@pytest.mark.parametrize("n_bar", [0.0, 0.3, 10.0])
@pytest.mark.parametrize("amps", [DEFAULT_AMPLITUDES, PhysicalAmplitudes(
    0.5 + 0.1j, -0.3j, 0.4 - 0.2j, math.sqrt(0.45) * 1j)],
    ids=["default", "complex"])
def test_operator_route_matches_full_complex_products(amps, n_bar):
    # the reference: f built from complex ladder powers, then the two
    # complex products f rho_thermal f^dagger; the route skips the products
    # whose entries have a single nonzero term, so every bit must agree
    params, cutoff = params_for(n_bar), auto_cutoff(n_bar)
    inner = cutoff + 4
    r = build_ladder(inner)[1]
    x, y, z, w = amps.as_tuple()
    f = (x * np.eye(inner + 1, dtype=complex)
         + y / params.u * r
         + z / (math.sqrt(2.0) * params.u ** 2) * (r @ r)
         + w / (math.sqrt(24.0) * params.u ** 4) * np.linalg.matrix_power(r, 4))
    diag = params.k * params.k1 ** np.arange(inner + 1)
    expect = f @ np.diag(diag.astype(complex)) @ f.conj().T
    rho = thermal_state_density_operator(amps, params, cutoff)
    assert np.array_equal(rho, expect[: cutoff + 1, : cutoff + 1])


@pytest.mark.parametrize("n_bar", [0.0, 0.1, 1.0, 10.0, 14.0])
@pytest.mark.parametrize("amps", [DEFAULT_AMPLITUDES, PhysicalAmplitudes(
    0.5 + 0.1j, -0.3j, 0.4 - 0.2j, math.sqrt(0.45) * 1j)],
    ids=["default", "complex"])
def test_operator_route_matches_ladder_products(amps, n_bar):
    # f written on its four diagonals against f summed from the matrix
    # products r @ r and r2 @ r2 of the real raising operator r
    params, cutoff = params_for(n_bar), auto_cutoff(n_bar)
    rho = thermal_state_density_operator(amps, params, cutoff)
    assert np.array_equal(rho, operator_route_density(amps, params, cutoff))


@pytest.mark.parametrize("n_bar", [0.1, 1.0, 10.0])
def test_operator_route_unit_trace(n_bar):
    cutoff = auto_cutoff(n_bar)
    rho = thermal_state_density_operator(DEFAULT_AMPLITUDES, params_for(n_bar), cutoff)
    assert abs(np.trace(rho).real - 1.0) < 1e-10


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
    assert np.abs(u - np.eye(121)).max() < 1e-14


def test_bogoliubov_unitary_is_unitary():
    u = bogoliubov_unitary(params_for(0.4), 24)
    assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() < 1e-11


def test_bogoliubov_matches_dense_exponential():
    # sector-blocked construction vs direct exponentiation of the generator
    p = params_for(0.36)
    cutoff = 20
    low, rai = build_ladder(cutoff)
    gen = p.theta * (tensor_product(rai, rai) - tensor_product(low, low))
    dense = scipy.linalg.expm(gen)
    blocked = bogoliubov_unitary(p, cutoff)
    assert np.abs(dense - blocked).max() < 1e-12


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
        np.abs(sector_exponential(p.theta, cutoff, sector)
               - scipy.linalg.expm(p.theta * sector_generator(cutoff, sector))
               ).max()
        for sector in sectors_of(cutoff))
    assert worst <= 1e-11


@pytest.mark.parametrize("n_bar", [0.1, 1.0, 10.0])
def test_sector_exponential_is_orthogonal(n_bar):
    p = params_for(n_bar)
    cutoff = auto_cutoff(n_bar)
    for sector in sectors_of(cutoff):
        block = sector_exponential(p.theta, cutoff, sector)
        assert block.dtype == float
        assert np.abs(block @ block.T - np.eye(len(block))).max() <= 1e-13


@pytest.mark.parametrize("n_bar, cutoff", [(0.1, 40), (math.sinh(0.5) ** 2, 40),
                                           (1.0, 120)])
def test_sector_exponential_vacuum_column_is_geometric(n_bar, cutoff):
    # the n = n_tilde sector maps |0, 0_tilde> to sech(theta) tanh(theta)^n
    # (cutoffs where the truncated tail is negligible)
    theta = params_for(n_bar).theta
    column = sector_exponential(theta, cutoff, 0)[:, 0]
    expect = np.tanh(theta) ** np.arange(cutoff + 1) / np.cosh(theta)
    assert np.abs(column - expect).max() < 1e-10


def test_apply_original_matches_tensor_product():
    cutoff = 40
    d = cutoff + 1
    gate, _ = np.linalg.qr(RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d)))
    vec = RNG.normal(size=d * d) + 1j * RNG.normal(size=d * d)
    vec /= np.linalg.norm(vec)
    dense = tensor_product(gate, identity(cutoff))
    assert np.abs(_apply_original(gate, vec) - dense @ vec).max() <= 1e-14


def test_bogoliubov_vacuum_reduction_is_geometric():
    theta = 0.6
    p = params_for(math.sinh(theta) ** 2)
    cutoff = 40
    u = bogoliubov_unitary(p, cutoff)
    state = u @ doubled_vacuum(cutoff)
    red = reduce_pure_state(to_sectors(state))
    expect = thermal_vacuum_density(p, cutoff)
    assert np.abs(red - expect).max() < 1e-10


def test_doubled_space_mean_occupation():
    p = params_for(0.5)
    cutoff = 40
    u = bogoliubov_unitary(p, cutoff)
    state = u @ doubled_vacuum(cutoff)
    # N x I is diagonal: entry n at composite index n_tilde*(cutoff+1) + n
    n_two_mode = np.tile(np.arange(cutoff + 1.0), cutoff + 1)
    mean = np.vdot(state, n_two_mode * state).real
    assert abs(mean - 0.5) < 1e-10


@pytest.mark.parametrize("a_op", ["number", "number_squared"])
def test_doubled_expectation_equals_thermal_trace(a_op):
    # pure-state average on the doubled space vs statistical average
    p = params_for(0.8)
    cutoff = auto_cutoff(0.8)
    # |0(b)> is its n = n_tilde sector: entry n is the amplitude of |n, n>
    vac = thermal_number_states(p, cutoff)[0][0]
    occ = np.arange(cutoff + 1, dtype=float)
    weights = occ if a_op == "number" else occ**2
    lhs = float(np.sum(np.abs(vac) ** 2 * weights))
    diag = np.diag(thermal_vacuum_density(p, cutoff)).real
    rhs = float(diag @ weights)
    assert abs(lhs - rhs) < 1e-9


def test_thermal_number_states_zero_temperature():
    states = thermal_number_states(params_for(0.0), 12)
    for state, n in zip(states, (0, 1, 2, 4)):
        assert list(state) == [n]
        expect = np.zeros(13 - n, dtype=complex)
        expect[0] = 1.0  # |n, 0_tilde> is entry 0 of sector n
        assert np.abs(state[n] - expect).max() < 1e-14


def test_thermal_number_states_unit_norm():
    p = params_for(math.sinh(0.5) ** 2)
    for state in thermal_number_states(p, 40):
        (vec,) = state.values()
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-9


@pytest.mark.parametrize("n_bar", [0.0, 0.1, 1.0, 10.0, 14.0])
@pytest.mark.parametrize("amps", [DEFAULT_AMPLITUDES, PhysicalAmplitudes(
    0.5 + 0.1j, -0.3j, 0.4 - 0.2j, math.sqrt(0.45) * 1j)],
    ids=["default", "complex"])
def test_sector_states_match_dense_states(amps, n_bar):
    # the sector entries carry the bits of the dense purified states, whose
    # other entries are all zero; the sector reduction stays within
    # rounding of the dense product
    p, cutoff = params_for(n_bar), auto_cutoff(n_bar)
    states = thermal_number_states(p, cutoff)
    dense = number_states(p, cutoff)
    for state, vec, n in zip(states, dense, (0, 1, 2, 4)):
        assert list(state) == [n] and len(state[n]) == cutoff + 1 - n
        assert np.array_equal(to_dense(state, cutoff), vec)
    psi = _superpose(amps, states)
    dense_psi = superpose(amps, dense)
    assert np.array_equal(to_dense(psi, cutoff), dense_psi)
    red = reduce_pure_state(psi)
    expect = dense_partial_trace(dense_psi)
    assert np.abs(red - expect).max() <= 1e-15 * np.abs(expect).max()


def test_thermal_number_states_memory_at_cutoff_359():
    # the states are four sectors of at most cutoff + 1 entries each; the
    # sector-0 eigensystem is cached first, as verify's second use finds it
    params = params_for(10.0)
    cutoff = 359
    thermal._sector_eigensystem(cutoff, 0)
    tracemalloc.start()
    try:
        states = thermal_number_states(params, cutoff)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(states) == 4
    assert peak <= 16 * 16 * (cutoff + 1)


def test_superposition_reduction_matches_expansion():
    # strongest cross-oracle: doubled-space construction vs explicit series
    p = params_for(0.3)
    cutoff = 40
    state = _superpose(DEFAULT_AMPLITUDES, thermal_number_states(p, cutoff))
    red = reduce_pure_state(state)
    rho = thermal_state_density_expansion(DEFAULT_AMPLITUDES, p, cutoff)
    assert np.abs(red - rho).max() < 1e-9


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
    # for |psi', 0_tilde> (sectors 0, 1, 2 and 4 only) and full complex,
    # real and imaginary vectors
    p = params_for(0.2)
    cutoff = 16
    d = cutoff + 1
    dense = bogoliubov_unitary(p, cutoff)
    sparse = np.zeros(d * d, dtype=complex)
    sparse[:d] = DEFAULT_AMPLITUDES.as_vector(cutoff)
    full = RNG.normal(size=d * d) + 1j * RNG.normal(size=d * d)
    real = RNG.normal(size=d * d) + 0j
    imaginary = 1j * RNG.normal(size=d * d)
    every_sector = sorted(2 * list(range(-cutoff, cutoff + 1)))
    thermal._sector_eigensystem.cache_clear()
    sectors = []
    eigensystem = thermal._sector_eigensystem

    def counted(cutoff, sector):
        sectors.append(sector)
        return eigensystem(cutoff, sector)

    monkeypatch.setattr(thermal, "_sector_eigensystem", counted)
    for vec in (sparse, full, real, imaginary):
        sectors.clear()
        assert np.abs(_bogoliubov_apply(p.theta, cutoff, vec)
                      - dense @ vec).max() <= 1e-14
        assert np.abs(_bogoliubov_apply(p.theta, cutoff, vec, inverse=True)
                      - dense.conj().T @ vec).max() <= 1e-14
        if vec is sparse:
            assert sectors == [0, 1, 2, 4] * 2
        else:
            assert sorted(sectors) == every_sector


def test_sector_eigensystem_is_cached_across_temperatures():
    # the eigensystem is theta-free: applying U(beta) at two n_bar on one
    # cutoff diagonalizes once and shares the read-only (w, Q)
    cutoff = 40
    vac = np.zeros((cutoff + 1) ** 2, dtype=complex)
    vac[0] = 1.0
    thermal._sector_eigensystem.cache_clear()
    _bogoliubov_apply(params_for(0.1).theta, cutoff, vac)
    w, q = thermal._sector_eigensystem(cutoff, 0)
    _bogoliubov_apply(params_for(0.5).theta, cutoff, vac)
    again = thermal._sector_eigensystem(cutoff, 0)
    assert again[0] is w and again[1] is q
    assert thermal._sector_eigensystem.cache_info().misses == 1
    for array in (w, q):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def dense_gate_residual(gate, amps, params, cutoff):
    """The gate-thermalization residual through the dense U(beta)."""
    u = bogoliubov_unitary(params, cutoff)
    doubled = np.zeros((cutoff + 1) ** 2, dtype=complex)
    doubled[: cutoff + 1] = amps.as_vector(cutoff)  # |psi', 0_tilde>
    lhs = u @ _apply_original(gate, u.conj().T @ (u @ doubled))
    rhs = u @ _apply_original(gate, doubled)
    return float(np.linalg.norm(lhs - rhs))


@pytest.mark.parametrize("gate_kind", ["parity", "random"])
def test_gate_residual_sector_wise_matches_dense(gate_kind):
    # the random unitary mixes every occupation, so every sector is occupied
    p = params_for(0.2)
    cutoff = 20
    d = cutoff + 1
    if gate_kind == "parity":
        gate = half_period_gate_matrix(cutoff)
    else:
        q, _ = np.linalg.qr(RNG.normal(size=(d, d))
                            + 1j * RNG.normal(size=(d, d)))
        gate = q
    dense = dense_gate_residual(gate, DEFAULT_AMPLITUDES, p, cutoff)
    res = gate_thermalization_residual(gate, DEFAULT_AMPLITUDES, p, cutoff)
    assert dense <= 1e-12 and res <= 1e-12
    assert abs(res - dense) <= 1e-13


def test_gate_residual_rejects_nonunitary():
    # a NaN entry makes max |U^+U - I| NaN, which no `>` comparison rejects
    nan_gate = half_period_gate_matrix(20)
    nan_gate[3, 3] = math.nan
    for bad in (0.5 * np.eye(21), nan_gate):
        with pytest.raises(ValueError, match="not unitary"):
            gate_thermalization_residual(bad, DEFAULT_AMPLITUDES,
                                         params_for(0.1), 20)


def test_gate_residual_rejects_wrong_shape():
    with pytest.raises(ValueError, match=r"gate shape \(21, 21\) != \(31, 31\)"):
        gate_thermalization_residual(half_period_gate_matrix(20),
                                     DEFAULT_AMPLITUDES, params_for(0.1), 30)


# ---------------------------------------------------------------------------
# array contract of the builders
# ---------------------------------------------------------------------------

BUILT_CUTOFF = 20
_BUILT_PARAMS = ThermalParams(0.3)
_SQUARE = (BUILT_CUTOFF + 1,) * 2


def _sector_shapes(*sectors):
    return {s: (BUILT_CUTOFF + 1 - s,) for s in sectors}


def _superposed():
    return _superpose(DEFAULT_AMPLITUDES,
                      thermal_number_states(_BUILT_PARAMS, BUILT_CUTOFF))


@pytest.mark.parametrize("build, shape", [
    (lambda: build_ladder(BUILT_CUTOFF)[0], _SQUARE),
    (lambda: build_ladder(BUILT_CUTOFF)[1], _SQUARE),
    (lambda: half_period_gate_matrix(BUILT_CUTOFF), _SQUARE),
    (lambda: thermal_vacuum_density(_BUILT_PARAMS, BUILT_CUTOFF), _SQUARE),
    (lambda: thermal_state_density_expansion(
        DEFAULT_AMPLITUDES, _BUILT_PARAMS, BUILT_CUTOFF), _SQUARE),
    (lambda: thermal_state_density_operator(
        DEFAULT_AMPLITUDES, _BUILT_PARAMS, BUILT_CUTOFF), _SQUARE),
    (lambda: reduce_pure_state(_superposed()), _SQUARE),
    (lambda: DEFAULT_AMPLITUDES.as_vector(BUILT_CUTOFF), (BUILT_CUTOFF + 1,)),
    *[(lambda i=i: thermal_number_states(_BUILT_PARAMS, BUILT_CUTOFF)[i],
       _sector_shapes(n)) for i, n in enumerate((0, 1, 2, 4))],
    (_superposed, _sector_shapes(0, 1, 2, 4)),
], ids=["lowering", "raising", "gate", "thermal_vacuum", "expansion",
        "operator", "reduced", "as_vector", "number_0", "number_1",
        "number_2", "number_4", "superposed"])
def test_builders_return_complex_arrays(build, shape):
    # a two-mode state is a dict of one array per n - n_tilde sector, and
    # `shape` then maps each sector to its array's shape
    out = build()
    arrays, shapes = ((out, shape) if isinstance(out, dict)
                      else ({0: out}, {0: shape}))
    assert {s: a.shape for s, a in arrays.items()} == shapes
    for a in arrays.values():
        assert type(a) is np.ndarray
        assert a.dtype == complex
