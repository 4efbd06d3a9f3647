import math

import numpy as np
import pytest

from thermoqubit.gates import (
    LogicalState,
    cnot_logical,
    decode,
    encode,
    evolve_half_period,
    half_period_gate_matrix,
)
from thermoqubit.thermal import PhysicalAmplitudes

RNG = np.random.default_rng(55)
SQRT_HALF = 1.0 / math.sqrt(2.0)

TRUTH_TABLE = [
    ((1, 0, 0, 0), (1, 0, 0, 0)),
    ((0, 1, 0, 0), (0, 1, 0, 0)),
    ((0, 0, 1, 0), (0, 0, 0, 1)),
    ((0, 0, 0, 1), (0, 0, 1, 0)),
]


def random_logical():
    raw = RNG.normal(size=4) + 1j * RNG.normal(size=4)
    raw /= np.linalg.norm(raw)
    return LogicalState(*raw)


def max_diff(a, b):
    return max(abs(x - y) for x, y in zip(a.as_tuple(), b.as_tuple()))


@pytest.mark.parametrize("inp,out", TRUTH_TABLE)
def test_cnot_truth_table(inp, out):
    got = cnot_logical(LogicalState(*inp))
    assert max_diff(got, LogicalState(*out)) < 1e-15


def test_cnot_involution():
    for _ in range(20):
        s = random_logical()
        assert max_diff(cnot_logical(cnot_logical(s)), s) == 0.0


def test_encode_known_states():
    ten = encode(LogicalState(0, 0, 1, 0))
    assert max(
        abs(ten.x), abs(ten.y - SQRT_HALF), abs(ten.z), abs(ten.w - SQRT_HALF)
    ) < 1e-15

    zz = encode(LogicalState(1, 0, 0, 0))
    assert (zz.x, zz.y, zz.z, zz.w) == (1, 0, 0, 0)


def test_encode_preserves_norm():
    for _ in range(20):
        s = random_logical()
        assert abs(encode(s).norm() - s.norm()) < 1e-14


def test_decode_known_states():
    back = decode(PhysicalAmplitudes(0, SQRT_HALF, 0, SQRT_HALF))
    assert max_diff(back, LogicalState(0, 0, 1, 0)) < 1e-15
    assert max_diff(decode(PhysicalAmplitudes(1, 0, 0, 0)),
                    LogicalState(1, 0, 0, 0)) < 1e-15


def test_decode_encode_round_trip():
    for _ in range(30):
        s = random_logical()
        assert max_diff(decode(encode(s)), s) < 1e-14


def test_half_period_flips_single_photon():
    out = evolve_half_period(PhysicalAmplitudes(0, 1, 0, 0))
    assert (out.x, out.y, out.z, out.w) == (0, -1, 0, 0)


def test_half_period_is_involution():
    p = encode(random_logical())
    twice = evolve_half_period(evolve_half_period(p))
    assert max(abs(a - b) for a, b in
               zip(twice.as_tuple(), p.as_tuple())) == 0.0


def test_composed_maps_give_cnot_row():
    got = decode(evolve_half_period(encode(LogicalState(0, 0, 1, 0))))
    assert max_diff(got, LogicalState(0, 0, 0, 1)) < 1e-12


def test_conjugation_property_random_states():
    for _ in range(100):
        s = random_logical()
        via_fock = decode(evolve_half_period(encode(s)))
        assert max_diff(via_fock, cnot_logical(s)) < 1e-12


def test_gate_matrix_entries():
    g = half_period_gate_matrix(8)
    assert g[1, 1] == -1.0
    assert g[4, 4] == 1.0
    assert np.abs(g - np.diag((-1.0) ** np.arange(9))).max() == 0.0


def test_gate_matrix_matches_amplitude_map():
    g = half_period_gate_matrix(10)
    p = encode(LogicalState(0, 0, 1, 0))
    evolved = g @ p.as_vector(10)
    expect = evolve_half_period(p).as_vector(10)
    assert np.abs(evolved - expect).max() < 1e-15


def test_gate_matrix_needs_room_for_encoding():
    with pytest.raises(ValueError):
        half_period_gate_matrix(3)
