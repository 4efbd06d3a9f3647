"""Two-qubit CNOT realized on Fock states of one bosonic mode.

The logical basis is identified with
|00> -> |0>, |01> -> |2>, |10> -> (|4>+|1>)/sqrt2, |11> -> (|4>-|1>)/sqrt2.
Free evolution for half a period multiplies |n> by (-1)^n, which flips the
sign of the |1> component only; conjugating that parity flip by the
encoding swaps the logical |10> and |11> amplitudes, i.e. performs a CNOT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .thermal import PhysicalAmplitudes

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class LogicalState:
    """Amplitudes (xp, yp, zp, wp) on |00>_L, |01>_L, |10>_L, |11>_L."""

    xp: complex
    yp: complex
    zp: complex
    wp: complex

    def norm(self) -> float:
        return math.sqrt(abs(self.xp) ** 2 + abs(self.yp) ** 2
                         + abs(self.zp) ** 2 + abs(self.wp) ** 2)

    def as_tuple(self):
        return (complex(self.xp), complex(self.yp),
                complex(self.zp), complex(self.wp))


def cnot_logical(s: LogicalState) -> LogicalState:
    """Truth-table CNOT: swaps the |10>_L and |11>_L amplitudes."""
    return LogicalState(s.xp, s.yp, s.wp, s.zp)


def encode(s: LogicalState) -> PhysicalAmplitudes:
    """Logical amplitudes to Fock amplitudes (x, y, z, w) on |0>,|1>,|2>,|4>."""
    xp, yp, zp, wp = s.as_tuple()
    return PhysicalAmplitudes(
        x=xp,
        y=(zp - wp) / _SQRT2,
        z=yp,
        w=(zp + wp) / _SQRT2,
    )


def decode(p: PhysicalAmplitudes) -> LogicalState:
    """Exact inverse of encode."""
    x, y, z, w = p.as_tuple()
    return LogicalState(
        xp=x,
        yp=z,
        zp=(y + w) / _SQRT2,
        wp=(w - y) / _SQRT2,
    )


def evolve_half_period(p: PhysicalAmplitudes) -> PhysicalAmplitudes:
    """Half-period free evolution: each |n> picks up (-1)^n, so only the
    |1> amplitude flips sign among the populated states."""
    return PhysicalAmplitudes(p.x, -p.y, p.z, p.w)


def half_period_gate_matrix(cutoff: int) -> np.ndarray:
    """Parity gate diag((-1)^n): the half-period evolution with the global
    phase dropped."""
    if cutoff < 4:
        raise ValueError("cutoff must be at least 4 to cover the encoding")
    signs = (-1.0) ** np.arange(cutoff + 1)
    return np.diag(signs.astype(complex))
