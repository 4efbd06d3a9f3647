#!/usr/bin/env python3
"""Phase-space view of the heated state: negativity fading with temperature.

Computes the Wigner function of the heated reference state at a cold
(n_bar = 0.1) and a hot (n_bar = 10) occupation.  Negative Wigner regions
certify nonclassicality; their integrated volume collapses by orders of
magnitude between the two temperatures.  The printed closed-form series
is evaluated on the same grid and its deviation from the numeric kernel
is reported (the series as published contains typos).

Run:  python demos/wigner_phase_space.py [prefix]
      (writes prefix_cold.csv / prefix_hot.csv when a prefix is given)
"""

import sys

import numpy as np

from thermoqubit import (
    DEFAULT_AMPLITUDES,
    ThermalParams,
    auto_cutoff,
    heated_wigner,
    wigner_closed_form,
    wigner_negativity,
)


def ascii_map(grid, rows=17, cols=41):
    """Coarse character map of the Wigner sign structure around the origin."""
    vals = grid.values
    qi = np.linspace(0, grid.spec.nq - 1, rows).astype(int)
    pj = np.linspace(0, grid.spec.np - 1, cols).astype(int)
    peak = np.abs(vals).max()
    lines = []
    for i in qi:
        line = ""
        for j in pj:
            v = vals[i, j]
            if v < -0.02 * peak:
                line += "-"
            elif v > 0.02 * peak:
                line += "+"
            else:
                line += "."
        lines.append(line)
    return "\n".join(lines)


results = {}
for label, n_bar in (("cold", 0.1), ("hot", 10.0)):
    params = ThermalParams(n_bar)
    cutoff = auto_cutoff(n_bar)
    _, numeric = heated_wigner(DEFAULT_AMPLITUDES, params, cutoff)
    closed, audit = wigner_closed_form(DEFAULT_AMPLITUDES, params, numeric,
                                       cutoff)
    results[label] = (n_bar, numeric, closed, audit)
    print(f"--- {label}: n_bar = {n_bar}, cutoff = {cutoff}, grid "
          f"[{numeric.spec.q_min:g}, {numeric.spec.q_max:g}]^2 ---")
    print(f"integral        = {numeric.integral():.9f}")
    print(f"negativity      = {wigner_negativity(numeric):.6e}")
    print(f"closed-form max deviation = "
          f"{audit.params['max_abs_discrepancy']:.3e}")
    print(ascii_map(numeric))
    print()

neg_cold = wigner_negativity(results["cold"][1])
neg_hot = wigner_negativity(results["hot"][1])
print(f"negativity ratio hot/cold = {neg_hot / neg_cold:.4%} "
      "(nonclassicality washed out by heating)")

if len(sys.argv) > 1:
    prefix = sys.argv[1]
    for label in ("cold", "hot"):
        _, numeric, closed, _ = results[label]
        path = f"{prefix}_{label}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("q,p,w_numeric,w_closed_form\n")
            q_ax, p_ax = numeric.spec.q_axis(), numeric.spec.p_axis()
            for i, qv in enumerate(q_ax):
                for j, pv in enumerate(p_ax):
                    fh.write("%.9e,%.9e,%.9e,%.9e\n" % (
                        qv, pv, numeric.values[i, j], closed.values[i, j]))
        print(f"wrote {path}")
