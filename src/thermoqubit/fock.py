"""Truncated Fock-space linear algebra for one and two bosonic modes.

Everything here works on dense complex arrays wrapped in immutable
containers that remember the truncation.  A single mode keeps occupations
0..cutoff (dimension cutoff+1).  Two-mode objects live on the doubled
space "original x tilde" with the composite index convention

    composite = n_tilde * (cutoff + 1) + n

i.e. the original mode's occupation n varies fastest.  All operations are
pure functions of their inputs; the wrapped arrays are frozen after
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _frozen_array(data, dtype=complex) -> np.ndarray:
    arr = np.array(data, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FockMatrix:
    """Dense complex operator on a truncated Fock space.

    dim == (cutoff + 1) ** mode_count is enforced at construction.
    """

    data: np.ndarray
    cutoff: int
    mode_count: int = 1

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen_array(self.data))
        if self.data.ndim != 2 or self.data.shape[0] != self.data.shape[1]:
            raise ValueError(f"matrix must be square, got shape {self.data.shape}")
        if self.mode_count not in (1, 2):
            raise ValueError("mode_count must be 1 or 2")
        if self.cutoff < 1:
            raise ValueError("cutoff must be at least 1")
        expected = (self.cutoff + 1) ** self.mode_count
        if self.data.shape[0] != expected:
            raise ValueError(
                f"dim {self.data.shape[0]} != (cutoff+1)^mode_count = {expected}"
            )

    def trace(self) -> complex:
        return complex(np.trace(self.data))

    def __matmul__(self, other):
        if not isinstance(other, FockVector):
            return NotImplemented
        if (other.cutoff, other.mode_count) != (self.cutoff, self.mode_count):
            raise ValueError("operator and vector live on different spaces")
        return FockVector(self.data @ other.data, self.cutoff, self.mode_count)


@dataclass(frozen=True)
class FockVector:
    """Dense complex state vector on a truncated Fock space."""

    data: np.ndarray
    cutoff: int
    mode_count: int = 1

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen_array(self.data))
        if self.data.ndim != 1:
            raise ValueError("vector data must be one-dimensional")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("vector entries must be finite")
        expected = (self.cutoff + 1) ** self.mode_count
        if self.data.shape[0] != expected:
            raise ValueError(
                f"dim {self.data.shape[0]} != (cutoff+1)^mode_count = {expected}"
            )


def build_ladder(cutoff: int) -> tuple[FockMatrix, FockMatrix]:
    """Single-mode lowering and raising operators at the given cutoff.

    lowering[n-1, n] = sqrt(n); raising is its conjugate transpose.  The
    raising operator annihilates the top basis state: amplitude that would
    exceed the cutoff is dropped (hard truncation).
    """
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1 for a nontrivial ladder")
    lowering = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), k=1)
    return (FockMatrix(lowering, cutoff),
            FockMatrix(lowering.conj().T, cutoff))


def reduce_pure_state(v: FockVector) -> FockMatrix:
    """Reduced density matrix of the original mode of a pure two-mode
    state: the partial trace over the tilde mode of |v><v|, without
    forming that (dim^2 x dim^2) projector, so it stays cheap at large
    cutoffs.
    """
    if v.mode_count != 2:
        raise ValueError("reduce_pure_state expects a two-mode vector")
    d = v.cutoff + 1
    m = v.data.reshape(d, d)  # [n_tilde, n]
    return FockMatrix(m.T @ m.conj(), v.cutoff, mode_count=1)
