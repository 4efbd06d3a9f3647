"""Two-mode states of the doubled (original x tilde) space, and their
reduction to the original mode.

The pair generator a^+ a^+_tilde - a a_tilde conserves n - n_tilde, so a
two-mode state is held as its occupied sectors: a dict {s: 1-D complex
array} with one entry per sector s = n - n_tilde >= 0 that the state
occupies.  Entry j of sector s is the amplitude of |n = j + s,
n_tilde = j>, so at a single-mode cutoff c sector s has c + 1 - s entries.
"""

from __future__ import annotations

import numpy as np


def reduce_pure_state(state: dict) -> np.ndarray:
    """Reduced density matrix of the original mode of a pure two-mode
    state in sector form: the partial trace over the tilde mode of
    |psi><psi|, shape (c + 1, c + 1).

    Sectors p and q meet at a shared n_tilde = j, so psi_p[j] conj(psi_q[j])
    adds at (j + p, j + q): no (c + 1)^2-sized vector or its projector is
    formed.  ValueError unless state is a dict of nonnegative sectors of
    one cutoff.
    """
    if not isinstance(state, dict):
        raise ValueError(f"a two-mode state is a dict of its n - n_tilde "
                         f"sectors, got {type(state).__name__}")
    if min(state) < 0:
        raise ValueError(f"negative sector {min(state)}: sectors are "
                         f"n - n_tilde >= 0")
    dims = {sector + len(vec) for sector, vec in state.items()}
    if len(dims) != 1:
        raise ValueError(f"sectors of different cutoffs: dimensions "
                         f"{sorted(dims)}")
    (d,) = dims
    rho = np.zeros((d, d), dtype=complex)
    # the (j + p, j + q) entries of the flattened rho are the run from
    # p * d + q in steps of d + 1
    flat = rho.reshape(-1)
    for p, psi_p in state.items():
        for q, psi_q in state.items():
            length = d - max(p, q)
            start = p * d + q
            flat[start: start + length * (d + 1): d + 1] += (
                psi_p[:length] * psi_q[:length].conj())
    return rho
