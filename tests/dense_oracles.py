"""Dense reference forms of the operators and states the package never
forms.

The package applies U(beta) and gate x I to vectors sector by sector,
holds the purified thermal states as their n - n_tilde sectors, reduces
pure states without their projectors, writes the creation polynomial f
on its diagonals and reads the bare thermal state's diagonal alone.  The
tests compare those routes against the dense forms built here: the
single-mode ladder, two-mode operators by np.kron in the composite index
n_tilde * (cutoff + 1) + n, projectors by np.outer, the pair generator's
sector blocks (which the tests exponentiate with scipy), the sector
blocks of U(beta) formed from the package's cached eigensystems, U(beta)
assembled from those blocks, the bare thermal density matrix, the
purified number states and their superposition as dense two-mode
vectors, the dense partial trace, and the operator-route density matrix
built from matrix products of the ladder.
"""

import math

import numpy as np

from thermoqubit import thermal


def build_ladder(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Single-mode lowering and raising operators at the given cutoff.

    lowering[n-1, n] = sqrt(n); raising is its conjugate transpose.  The
    raising operator annihilates the top basis state: amplitude that would
    exceed the cutoff is dropped (hard truncation).
    """
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1 for a nontrivial ladder")
    lowering = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)).astype(complex),
                       k=1)
    return lowering, lowering.T.copy()


def identity(cutoff: int) -> np.ndarray:
    return np.eye(cutoff + 1, dtype=complex)


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Two-mode operator acting as `a` on the original mode and `b` on the
    tilde mode, laid out in the composite index convention."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    # original mode fastest => tilde factor is the slow (left) kron factor
    return np.kron(b, a)


def projector(v: np.ndarray) -> np.ndarray:
    """|v><v| on the space of v."""
    return np.outer(v, v.conj())


def thermal_vacuum_density(params: thermal.ThermalParams, cutoff: int
                           ) -> np.ndarray:
    """Bare thermal density matrix: diagonal k * k1^n with k = 1/(1+n_bar)."""
    thermal.validate_cutoff(cutoff, params)
    diag = params.k * params.k1 ** np.arange(cutoff + 1)
    return np.diag(diag.astype(complex))


def sector_generator(cutoff: int, sector: int) -> np.ndarray:
    """Pair-creation generator a^+ a^+_tilde - a a_tilde restricted to one
    n - n_tilde sector: couplings sqrt((n+1)(nt+1)) below the diagonal and
    their negatives above it."""
    coup = thermal._sector_couplings(cutoff, sector)
    return np.diag(coup, -1) - np.diag(coup, 1)


def sector_exponential(theta: float, cutoff: int, sector: int) -> np.ndarray:
    """One n - n_tilde sector's block of U(beta) = exp(theta G), formed as
    Re(S Q diag(exp(-i theta w)) Q^T S^+) from the package's eigensystem
    (w, Q) of the sector (see `thermal._sector_eigensystem`), S = diag(i^j).
    The block is real; its imaginary part is rounding only."""
    w, q = thermal._sector_eigensystem(cutoff, sector)
    s = 1j ** np.arange(len(w))
    return ((s[:, None] * (q * np.exp(-1j * theta * w)) @ q.T)
            * s.conj()[None, :]).real


def bogoliubov_unitary(params: thermal.ThermalParams, cutoff: int
                       ) -> np.ndarray:
    """exp(theta (a^+ a^+_tilde - a a_tilde)) on the doubled truncated space,
    assembled from its sector blocks (the generator is block-diagonal over
    n - n_tilde, so this is exactly the exponential of the full
    generator)."""
    thermal.validate_cutoff(cutoff, params)
    d = cutoff + 1
    u = np.zeros((d * d, d * d))
    for sector in range(-cutoff, cutoff + 1):
        idx = thermal._pair_sector_indices(cutoff, sector)
        u[np.ix_(idx, idx)] = sector_exponential(params.theta, cutoff, sector)
    return u.astype(complex)


def to_dense(state: dict, cutoff: int) -> np.ndarray:
    """A two-mode state in the package's sector form as a dense vector in
    the composite index."""
    out = np.zeros((cutoff + 1) ** 2, dtype=complex)
    for sector, vec in state.items():
        out[thermal._pair_sector_indices(cutoff, sector)] = vec
    return out


def to_sectors(v: np.ndarray) -> dict:
    """The sector form {0: ..., cutoff: ...} of a dense two-mode vector v
    that has no amplitude with n < n_tilde (ValueError otherwise)."""
    d = math.isqrt(len(v))
    m = v.reshape(d, d)  # [n_tilde, n]
    if np.tril(m, -1).any():
        raise ValueError("amplitude in a sector n - n_tilde < 0")
    cutoff = d - 1
    return {sector: v[thermal._pair_sector_indices(cutoff, sector)]
            for sector in range(d)}


def dense_partial_trace(v: np.ndarray) -> np.ndarray:
    """Reduced density matrix of the original mode of the dense pure
    two-mode vector v, as the product m^T conj(m) of its [n_tilde, n]
    view.  ValueError unless len(v) is a square dim^2."""
    d = math.isqrt(len(v))
    if d * d != len(v):
        raise ValueError(f"two-mode vector length {len(v)} is not a square")
    m = v.reshape(d, d)
    return m.T @ m.conj()


def _raise_original(vec: np.ndarray) -> np.ndarray:
    """(a^dagger x I) on a dense two-mode vector (amplitude above the
    cutoff is dropped)."""
    d = math.isqrt(len(vec))
    m = vec.reshape(d, d)  # [n_tilde, n]
    out = np.zeros_like(m)
    np.multiply(m[:, :-1], np.sqrt(np.arange(1.0, d)), out=out[:, 1:])
    return out.reshape(-1)


def number_states(params: thermal.ThermalParams, cutoff: int
                  ) -> list[np.ndarray]:
    """Dense |0(b)>, |1(b)>, |2(b)>, |4(b)>: U(beta)|0, 0_tilde> through the
    package's dense `_bogoliubov_apply`, each power of a^dagger x I raised
    from the unscaled power before it and then scaled by 1/(u^n sqrt(n!))."""
    thermal.validate_cutoff(cutoff, params)
    u = params.u
    vac = np.zeros((cutoff + 1) ** 2, dtype=complex)
    vac[0] = 1.0
    v0 = thermal._bogoliubov_apply(params.theta, cutoff, vac)
    v1 = _raise_original(v0)
    v2 = _raise_original(v1)
    v1 /= u
    v3 = _raise_original(v2)
    v2 /= math.sqrt(2.0) * u**2
    v4 = _raise_original(v3)
    v4 /= math.sqrt(24.0) * u**4
    return [v0, v1, v2, v4]


def superpose(amps: thermal.PhysicalAmplitudes, states: list[np.ndarray]
              ) -> np.ndarray:
    """x|0(b)> + y|1(b)> + z|2(b)> + w|4(b)> of dense `number_states`,
    summed left to right."""
    s0, s1, s2, s4 = states
    x, y, z, w = amps.as_tuple()
    psi = x * s0
    psi += y * s1
    psi += z * s2
    psi += w * s4
    return psi


def operator_route_density(amps: thermal.PhysicalAmplitudes,
                           params: thermal.ThermalParams, cutoff: int
                           ) -> np.ndarray:
    """f rho_thermal f^dagger with f summed from the identity and the real
    ladder powers a^+, a^+ a^+ and a^+2 a^+2 as matrix products, cropped
    from cutoff + 4 as `thermal_state_density_operator` crops it."""
    inner = cutoff + 4
    r = np.ascontiguousarray(build_ladder(inner)[1].real)
    r2 = r @ r
    r4 = r2 @ r2
    coeffs = {p: c[0] for p, c in thermal._ladder_coefficients(
        amps, np.array([params.u])).items()}
    f = coeffs[0] * np.eye(inner + 1, dtype=complex)
    f += coeffs[1] * r
    f += coeffs[2] * r2
    f += coeffs[4] * r4
    f_dagger = f.conj().T
    f *= params.k * params.k1 ** np.arange(inner + 1)
    return (f @ f_dagger)[: cutoff + 1, : cutoff + 1]
