#!/usr/bin/env python3
"""How fast does heating degrade the encoded state?

Sweeps the thermal occupation n_bar from 0 to 2 for the reference
amplitude set (0.2, 0.3, 0.6, sqrt(0.51)) and tabulates the fidelity
between the pure target and its heated mixture, alongside the published
closed-form series.  The numeric column is exact (up to truncation); the
closed-form column drifts because the printed series carries typos, and
the discrepancy column makes that visible.

Run:  python demos/fidelity_decay.py [output.csv]
"""

import sys

import numpy as np

from thermoqubit import (
    DEFAULT_AMPLITUDES,
    ThermalParams,
    fidelity_closed_form,
)

n_bars = np.linspace(0.0, 2.0, 41)

print("fidelity of the heated state vs the pure target")
print(f"{'n_bar':>8} {'numeric':>12} {'closed form':>12} {'discrepancy':>12}")
rows = []
for n_bar in n_bars:
    params = ThermalParams(float(n_bar))
    rep = fidelity_closed_form(DEFAULT_AMPLITUDES, params)
    rows.append((n_bar, rep.value_numeric, rep.value_closed_form,
                 rep.abs_discrepancy))
    if abs(n_bar * 10 - round(n_bar * 10)) < 1e-9:  # print every 0.1
        print(f"{n_bar:8.2f} {rep.value_numeric:12.6f} "
              f"{rep.value_closed_form:12.6f} {rep.abs_discrepancy:12.2e}")

# the quoted "high fidelity" window: where does F actually cross 0.7?
lo, hi = 0.0, 2.0
for _ in range(50):
    mid = 0.5 * (lo + hi)
    params = ThermalParams(mid)
    if fidelity_closed_form(DEFAULT_AMPLITUDES, params).value_numeric > 0.7:
        lo = mid
    else:
        hi = mid
print(f"\nF drops below 0.7 at n_bar ~ {0.5 * (lo + hi):.4f}")

if len(sys.argv) > 1:
    out = sys.argv[1]
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("n_bar,fidelity_numeric,fidelity_closed_form,discrepancy\n")
        for row in rows:
            fh.write(",".join("%.9e" % v for v in row) + "\n")
    print(f"wrote {out}")
