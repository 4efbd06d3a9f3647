"""Truncated Fock-space linear algebra for one and two bosonic modes.

Everything here works on dense complex numpy arrays.  A single mode keeps
occupations 0..cutoff (dimension cutoff+1).  Two-mode vectors live on the
doubled space "original x tilde" with the composite index convention

    composite = n_tilde * (cutoff + 1) + n

i.e. the original mode's occupation n varies fastest.  All operations are
pure functions of their inputs.
"""

from __future__ import annotations

import math

import numpy as np


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


def reduce_pure_state(v: np.ndarray) -> np.ndarray:
    """Reduced density matrix of the original mode of a pure two-mode
    state: the partial trace over the tilde mode of |v><v|, without
    forming that (dim^2 x dim^2) projector, so it stays cheap at large
    cutoffs.  ValueError unless len(v) is a square dim^2.
    """
    d = math.isqrt(len(v))
    if d * d != len(v):
        raise ValueError(f"two-mode vector length {len(v)} is not a square")
    m = v.reshape(d, d)  # [n_tilde, n]
    return m.T @ m.conj()
