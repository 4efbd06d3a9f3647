"""Dense reference forms of the operators the package never forms.

The package applies U(beta) and gate x I to vectors sector by sector,
reduces pure states without their projectors and reads the bare thermal
state's diagonal alone.  The tests compare those routes against the dense
matrices built here: two-mode operators by np.kron in the composite index
n_tilde * (cutoff + 1) + n, projectors by np.outer, the pair generator's
sector blocks (which the tests exponentiate with scipy), the sector
blocks of U(beta) formed from the package's cached eigensystems, U(beta)
assembled from those blocks, and the bare thermal density matrix.
"""

import numpy as np

from thermoqubit import thermal


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
