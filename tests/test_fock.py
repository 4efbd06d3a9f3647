import math

import numpy as np
import pytest
import scipy.linalg

from dense_oracles import (
    build_ladder,
    dense_partial_trace,
    identity,
    projector,
    tensor_product,
    to_dense,
    to_sectors,
)
from thermoqubit.fock import reduce_pure_state

RNG = np.random.default_rng(1234)


def random_matrix(cutoff):
    d = cutoff + 1
    return RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))


def basis_vector(cutoff, n):
    return np.eye(cutoff + 1, dtype=complex)[n]


def random_sector_state(cutoff, sectors=None):
    """A random normalized two-mode state in sector form, on the given
    sectors (default: all of 0..cutoff)."""
    if sectors is None:
        sectors = range(cutoff + 1)
    state = {s: RNG.normal(size=cutoff + 1 - s)
             + 1j * RNG.normal(size=cutoff + 1 - s) for s in sectors}
    norm = math.sqrt(sum(np.vdot(v, v).real for v in state.values()))
    return {s: v / norm for s, v in state.items()}


def partial_trace(rho):
    """Reference partial trace over the tilde mode of a two-mode operator;
    rows and columns are composite indices (n_tilde, n), original mode
    fastest."""
    d = math.isqrt(rho.shape[0])
    return np.einsum("tmtn->mn", rho.reshape(d, d, d, d))


def test_lowering_on_one():
    low, _ = build_ladder(6)
    one = basis_vector(6, 1)
    out = low @ one
    expect = np.zeros(7)
    expect[0] = 1.0
    assert np.abs(out - expect).max() < 1e-15


def test_raising_on_vacuum():
    _, rai = build_ladder(6)
    out = rai @ basis_vector(6, 0)
    expect = np.zeros(7)
    expect[1] = 1.0
    assert np.abs(out - expect).max() < 1e-15


def test_number_diagonal():
    low, rai = build_ladder(10)
    num = rai @ low
    assert abs(num[4, 4] - 4.0) < 1e-14
    assert np.abs(num - np.diag(np.arange(11.0))).max() < 1e-14


def test_raising_drops_top_amplitude():
    _, rai = build_ladder(5)
    top = basis_vector(5, 5)
    assert np.linalg.norm(rai @ top) == 0.0


def test_cutoff_zero_rejected():
    with pytest.raises(ValueError):
        build_ladder(0)


def test_commutator_truncation_artifact():
    # [a, a+] = I below the cutoff; the (c, c) entry is exactly -c
    c = 12
    low, rai = build_ladder(c)
    comm = low @ rai - rai @ low
    expect = np.eye(c + 1, dtype=complex)
    expect[c, c] = -c
    assert np.abs(comm - expect).max() < 1e-14


def test_tensor_dims_and_unit_entry():
    a = random_matrix(3)
    b = random_matrix(3)
    ab = tensor_product(a, b)
    assert ab.shape[0] == a.shape[0] * b.shape[0]

    vac_proj = projector(basis_vector(3, 0))
    dense = tensor_product(vac_proj, vac_proj)
    assert abs(dense[0, 0] - 1.0) < 1e-15
    assert np.abs(dense).sum() == pytest.approx(1.0, abs=1e-15)


def test_tensor_mixed_product_identity():
    a = random_matrix(4)
    b = random_matrix(4)
    eye = identity(4)
    left = tensor_product(a, eye) @ tensor_product(eye, b)
    assert np.abs(left - tensor_product(a, b)).max() < 1e-14


def test_tensor_bilinear():
    a, b, c = random_matrix(3), random_matrix(3), random_matrix(3)
    lhs = tensor_product(2.0 * a + 3.0 * b, c)
    rhs = 2.0 * tensor_product(a, c) + 3.0 * tensor_product(b, c)
    assert np.abs(lhs - rhs).max() < 1e-14


def test_tensor_cutoff_mismatch():
    with pytest.raises(ValueError):
        tensor_product(random_matrix(3), random_matrix(4))


def test_composite_index_convention():
    # original mode fastest: |n, n_tilde> sits at n_tilde*(c+1) + n
    c = 3
    both = tensor_product(projector(basis_vector(c, 2)),
                          projector(basis_vector(c, 1)))
    idx = 1 * 4 + 2
    assert abs(both[idx, idx] - 1.0) < 1e-15
    assert np.abs(both).sum() == pytest.approx(1.0)


@pytest.fixture(scope="module")
def squeezer_40():
    """exp(theta (a+ x a+ - a x a)) at theta = 0.5, cutoff 40, as a dense
    array from scipy's expm of the tensor-product generator."""
    theta = 0.5
    cutoff = 40
    low, rai = build_ladder(cutoff)
    gen = theta * (tensor_product(rai, rai) - tensor_product(low, low))
    return scipy.linalg.expm(gen.real), theta, cutoff


def test_expm_two_mode_squeezed_vacuum(squeezer_40):
    # oracle: the squeezed vacuum is the geometric series
    # sech(theta) sum tanh(theta)^n |n, n>
    unitary, theta, cutoff = squeezer_40
    d = cutoff + 1
    expect = np.zeros(d * d)
    for n in range(d):
        expect[n * d + n] = np.tanh(theta) ** n / np.cosh(theta)
    assert np.abs(unitary[:, 0] - expect).max() < 1e-10


def test_expm_anti_hermitian_is_unitary(squeezer_40):
    unitary, _, _ = squeezer_40
    dev = np.abs(unitary.T @ unitary - np.eye(unitary.shape[0])).max()
    assert dev < 1e-11


def test_partial_trace_product_state():
    # |a>|b> reduces to |a><a| <b|b> on the original mode; b on
    # n_tilde <= 1 and a on n >= 1 keep every sector n - n_tilde >= 0
    a = 2.0 * basis_vector(4, 1) + 1j * basis_vector(4, 3)
    b = np.zeros(5, dtype=complex)
    b[:2] = RNG.normal(size=2) + 1j * RNG.normal(size=2)
    red = reduce_pure_state(to_sectors(np.kron(b, a)))
    expect = np.outer(a, a.conj()) * np.vdot(b, b)
    assert np.abs(red - expect).max() < 1e-12


def test_partial_trace_preserves_trace():
    state = {s: 3.0 * v for s, v in random_sector_state(5).items()}
    red = reduce_pure_state(state)
    assert abs(np.trace(red) - 9.0) < 1e-12


def test_partial_trace_rejects_single_mode():
    with pytest.raises(ValueError):
        reduce_pure_state(basis_vector(4, 0))


def test_partial_trace_squeezed_vacuum_is_geometric(squeezer_40):
    # reduction of the two-mode squeezed vacuum must be the thermal
    # diagonal with n_bar = sinh(theta)^2
    unitary, theta, cutoff = squeezer_40
    red = reduce_pure_state(to_sectors(unitary[:, 0]))
    nbar = math.sinh(theta) ** 2
    k = 1.0 / (1.0 + nbar)
    k1 = nbar / (1.0 + nbar)
    expect = np.diag(k * k1 ** np.arange(cutoff + 1)).astype(complex)
    assert np.abs(red - expect).max() < 1e-10


def test_reduce_pure_state_matches_partial_trace():
    # the pure-state reduction against an explicit partial trace of the
    # (dim^2 x dim^2) projector, on a state with no symmetry
    state = random_sector_state(6)
    red = reduce_pure_state(state)
    assert np.abs(red - partial_trace(projector(to_dense(state, 6)))).max() < 1e-13


@pytest.mark.parametrize("cutoff, sectors", [
    (8, None), (40, (0, 1, 2, 4)), (40, (3,)), (359, (0, 1, 2, 4))])
def test_reduce_pure_state_matches_dense_product(cutoff, sectors):
    # sector by sector against the dense m^T conj(m) of the [n_tilde, n]
    # view: the two sum each entry's terms in different orders
    state = random_sector_state(cutoff, sectors)
    red = reduce_pure_state(state)
    expect = dense_partial_trace(to_dense(state, cutoff))
    assert red.shape == expect.shape == (cutoff + 1, cutoff + 1)
    assert np.abs(red - expect).max() <= 1e-15 * np.abs(expect).max()


def test_reduce_pure_state_rejects_negative_sector():
    state = random_sector_state(6, (0, 2))
    state[-1] = np.ones(6, dtype=complex)
    with pytest.raises(ValueError, match="negative sector -1"):
        reduce_pure_state(state)


def test_reduce_pure_state_rejects_sectors_of_two_cutoffs():
    state = {0: np.ones(7, dtype=complex), 2: np.ones(7, dtype=complex)}
    with pytest.raises(ValueError, match="different cutoffs"):
        reduce_pure_state(state)
