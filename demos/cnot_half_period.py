#!/usr/bin/env python3
"""The CNOT as free evolution: encoding, half-period flip, decoding.

Walks the two-qubit logical basis through the Fock-state identification
|00> -> |0>, |01> -> |2>, |10> -> (|4>+|1>)/sqrt2, |11> -> (|4>-|1>)/sqrt2,
applies half a period of free oscillation (each |n> picks up (-1)^n) and
decodes.  The composition reproduces the CNOT truth table exactly; at the
end the thermalized-gate identity is checked numerically on the doubled
space at several temperatures.

Run:  python demos/cnot_half_period.py
"""

import numpy as np

from thermoqubit import (
    DEFAULT_AMPLITUDES,
    LogicalState,
    ThermalParams,
    cnot_logical,
    decode,
    encode,
    evolve_half_period,
    gate_thermalization_residual,
    half_period_gate_matrix,
)

BASIS = {
    "|00>": LogicalState(1, 0, 0, 0),
    "|01>": LogicalState(0, 1, 0, 0),
    "|10>": LogicalState(0, 0, 1, 0),
    "|11>": LogicalState(0, 0, 0, 1),
}


def show(state):
    labels = ("|00>", "|01>", "|10>", "|11>")
    parts = [f"{a.real:+.3f}{l}" for a, l in zip(state.as_tuple(), labels)
             if abs(a) > 1e-12]
    return " ".join(parts)


print("truth table via encode -> half-period -> decode")
for label, state in BASIS.items():
    physical = encode(state)
    evolved = evolve_half_period(physical)
    back = decode(evolved)
    print(f"  {label}  ->  {show(back)}")

rng = np.random.default_rng(7)
raw = rng.normal(size=4)
raw /= np.linalg.norm(raw)
state = LogicalState(*raw)
print("\nrandom superposition:")
print(f"  in : {show(state)}")
print(f"  out: {show(decode(evolve_half_period(encode(state))))}")
print(f"  ref: {show(cnot_logical(state))}  (direct truth-table CNOT)")

print("\nthermalized-gate identity (residual should be rounding-level):")
gate = half_period_gate_matrix(40)
for n_bar in (0.0, 0.2, 0.5):
    params = ThermalParams(n_bar)
    res = gate_thermalization_residual(gate, DEFAULT_AMPLITUDES, params, 40)
    print(f"  n_bar={n_bar}: ||heat-then-gate - gate-then-heat|| = {res:.3e}")
