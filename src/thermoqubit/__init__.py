"""Finite-temperature simulation of two logical qubits encoded in the Fock
states of one bosonic mode.

The package builds thermal density matrices of heated superpositions by
three independent routes, implements the half-period CNOT encoding, and
evaluates the temperature diagnostics (fidelity, Mandel Q, Wigner
function) with both first-principles numerics and the published closed
forms, reporting their discrepancies.

Importing the package runs numpy's BLAS on one thread unless the user
chose a thread count (see `_THREAD_VARIABLES`) or numpy is already
loaded, when its thread pool is sized already.  No matrix here is wider
than 517, and a second BLAS worker only spins a core.
"""

import os as _os
import sys as _sys

_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                     "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in _sys.modules and not any(
        name in _os.environ for name in _THREAD_VARIABLES):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    _os.environ["MKL_NUM_THREADS"] = "1"

from .errors import CutoffError, GridWideningError
from .fock import build_ladder, reduce_pure_state
from .gates import (
    LogicalState,
    cnot_logical,
    decode,
    encode,
    evolve_half_period,
    half_period_gate_matrix,
)
from .observables import (
    CLOSED_FORM_WIGNER_SCALE,
    ExactWigner,
    GridSpec,
    WignerGrid,
    fidelity_columns,
    heated_wigner,
    mandel_columns,
    wigner_closed_form,
    wigner_exact,
    wigner_from_density,
    wigner_negativity,
)
from .thermal import (
    DEFAULT_AMPLITUDES,
    PhysicalAmplitudes,
    ThermalParams,
    auto_cutoff,
    gate_thermalization_residual,
    thermal_number_states,
    thermal_state_density_expansion,
    thermal_state_density_operator,
)
from .verify import run_verification

__version__ = "0.1.0"

__all__ = [
    "CLOSED_FORM_WIGNER_SCALE",
    "CutoffError",
    "DEFAULT_AMPLITUDES",
    "ExactWigner",
    "GridSpec",
    "GridWideningError",
    "LogicalState",
    "PhysicalAmplitudes",
    "ThermalParams",
    "WignerGrid",
    "auto_cutoff",
    "build_ladder",
    "cnot_logical",
    "decode",
    "encode",
    "evolve_half_period",
    "fidelity_columns",
    "gate_thermalization_residual",
    "half_period_gate_matrix",
    "heated_wigner",
    "mandel_columns",
    "reduce_pure_state",
    "run_verification",
    "thermal_number_states",
    "thermal_state_density_expansion",
    "thermal_state_density_operator",
    "wigner_closed_form",
    "wigner_exact",
    "wigner_from_density",
    "wigner_negativity",
]
