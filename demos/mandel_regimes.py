#!/usr/bin/env python3
"""Where does the photon statistics of the heated state change character?

The Mandel parameter Q = (Var N - <N>)/<N> is negative for subpoissonian
(nonclassical) light, zero for poissonian, positive for superpoissonian.
For the reference amplitudes the heated state starts at Q = -0.45 and
crosses zero as the temperature rises; this script locates the crossing
and prints the regime map.

Run:  python demos/mandel_regimes.py
"""

import numpy as np

from thermoqubit import (
    DEFAULT_AMPLITUDES,
    PhysicalAmplitudes,
    auto_cutoff,
    mandel_columns,
)


def q_at(n_bar, amps=DEFAULT_AMPLITUDES):
    """The numeric Q at n_bar, read as a one-point block at the auto cutoff."""
    return mandel_columns(amps, [n_bar], [auto_cutoff(n_bar)])[0][0]


print("Mandel Q for the reference amplitude set")
print(f"{'n_bar':>8} {'Q':>12}  regime")
for n_bar in np.linspace(0.0, 1.0, 21):
    q = q_at(float(n_bar))
    regime = "subpoissonian" if q < 0 else "superpoissonian"
    print(f"{n_bar:8.2f} {q:+12.6f}  {regime}")

lo, hi = 0.0, 1.0
for _ in range(60):
    mid = 0.5 * (lo + hi)
    if q_at(mid) < 0:
        lo = mid
    else:
        hi = mid
print(f"\nzero crossing at n_bar = {0.5 * (lo + hi):.4f} "
      "(subpoissonian below, superpoissonian above)")

# sanity anchor: a bare thermal state is always superpoissonian with Q = n_bar
vac = PhysicalAmplitudes(1, 0, 0, 0)
print("\nbare thermal state check (expect Q = n_bar):")
for n_bar in (0.1, 0.5, 1.0):
    print(f"  n_bar={n_bar}: Q = {q_at(n_bar, vac):.12f}")
