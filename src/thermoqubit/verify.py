"""Cross-oracle and invariant suite.

Runs every internal consistency check the package relies on at a set of
thermal occupations and returns structured results.  The CLI `verify`
subcommand serializes the outcome to JSON; the test suite asserts on the
same machinery.  Checks with a `tolerance` fail the run when exceeded;
checks without one are audits whose residuals are reported only.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import fock, gates, observables, thermal
from .errors import MandelUndefinedError

DEFAULT_N_BARS = (0.0, 0.1, 0.3, 1.0, 10.0)
GATE_RESIDUAL_N_BARS = (0.0, 0.2, 0.5)
GATE_RESIDUAL_CUTOFF = 40
# each n_bar below is one of DEFAULT_N_BARS, whose heated state (rho and
# its default-grid Wigner function) is built once
CLOSED_FORM_N_BARS = (0.0, 0.1, 0.3, 1.0)
WIGNER_N_BARS = (0.1, 10.0)  # cold, hot
SEED = 20240817


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float | None = None
    n_bar: float | None = None
    detail: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


def _check(name, residual, tolerance=None, n_bar=None, detail="") -> CheckResult:
    residual = float(residual)
    passed = True if tolerance is None else residual <= tolerance
    return CheckResult(name, passed, residual, tolerance, n_bar, detail)


def _density_checks(amps, params, cutoff, rho_exp):
    n_bar = params.n_bar
    rho_op = thermal.thermal_state_density_operator(amps, params, cutoff)
    # the purified number states are built once and serve both the
    # superposition and the doubled-vacuum identities below
    states = thermal.thermal_number_states(params, cutoff)
    psi_beta = thermal._superpose(amps, states)
    rho_red = fock.reduce_pure_state(psi_beta, keep="original")

    yield _check("density_agreement_expansion_vs_operator",
                 np.abs(rho_exp.data - rho_op.data).max(), 1e-9, n_bar,
                 f"cutoff={cutoff}")
    yield _check("density_agreement_expansion_vs_doubled",
                 np.abs(rho_exp.data - rho_red.data).max(), 1e-9, n_bar,
                 f"cutoff={cutoff}")
    herm = max(np.abs(r.data - r.data.conj().T).max()
               for r in (rho_exp, rho_op, rho_red))
    yield _check("density_hermitian", herm, 1e-12, n_bar)
    yield _check("density_trace", abs(rho_exp.trace().real - 1.0),
                 thermal.TAIL_TOL_DEFAULT, n_bar)
    eigs = np.linalg.eigvalsh(rho_exp.data)
    yield _check("density_positive", max(0.0, -float(eigs.min())), 1e-9, n_bar)

    rho_b = np.diag(thermal.thermal_vacuum_density(params, cutoff).data).real
    if n_bar > 0:
        violations = int(np.sum(rho_b[1:] >= rho_b[:-1]))
        yield _check("thermal_diagonal_strictly_decreasing",
                     violations, 0.0, n_bar,
                     "count of non-decreasing steps in the geometric diagonal")

    # doubled-space expectation identity <0(b)|(A x I)|0(b)> = tr(rho_b A)
    vac = states[0]
    d = cutoff + 1
    m = vac.data.reshape(d, d)
    occ = np.arange(d, dtype=float)
    probs = np.abs(m) ** 2
    lhs_n = float(np.sum(probs * occ[None, :]))
    lhs_n2 = float(np.sum(probs * (occ**2)[None, :]))
    rhs_n = float(rho_b @ occ)
    rhs_n2 = float(rho_b @ occ**2)
    yield _check("doubled_expectation_number", abs(lhs_n - rhs_n), 1e-9, n_bar)
    yield _check("doubled_expectation_number_squared",
                 abs(lhs_n2 - rhs_n2), 1e-9, n_bar)
    yield _check("doubled_mean_occupation", abs(lhs_n - n_bar), 1e-10, n_bar)
    red_vac = fock.reduce_pure_state(vac, keep="original")
    yield _check("bogoliubov_reduction_geometric",
                 np.abs(np.diag(red_vac.data).real - rho_b).max()
                 + np.abs(red_vac.data - np.diag(np.diag(red_vac.data))).max(),
                 1e-10, n_bar)

    yield _check("fidelity_phase_invariance",
                 _phase_invariance_residual(amps, params, cutoff),
                 1e-10, n_bar)


def _phase_invariance_residual(amps, params, cutoff):
    base = observables.fidelity_numeric(amps, params, cutoff)
    phase = complex(math.cos(0.7), math.sin(0.7))
    rotated = thermal.PhysicalAmplitudes(
        *(phase * a for a in amps.as_tuple()))
    return abs(observables.fidelity_numeric(rotated, params, cutoff) - base)


def _gate_checks(amps, rng):
    # truth table rows
    basis = [
        (gates.LogicalState(1, 0, 0, 0), (1, 0, 0, 0)),
        (gates.LogicalState(0, 1, 0, 0), (0, 1, 0, 0)),
        (gates.LogicalState(0, 0, 1, 0), (0, 0, 0, 1)),
        (gates.LogicalState(0, 0, 0, 1), (0, 0, 1, 0)),
    ]
    worst = 0.0
    for state, expect in basis:
        got = gates.decode(gates.evolve_half_period(gates.encode(state)))
        worst = max(worst, max(abs(g - e) for g, e in
                               zip(got.as_tuple(), expect)))
    yield _check("cnot_truth_table", worst, 1e-12)

    worst = 0.0
    for _ in range(100):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        raw /= np.linalg.norm(raw)
        state = gates.LogicalState(*raw)
        via_fock = gates.decode(gates.evolve_half_period(gates.encode(state)))
        direct = gates.cnot_logical(state)
        worst = max(worst, max(abs(a - b) for a, b in
                               zip(via_fock.as_tuple(), direct.as_tuple())))
    yield _check("cnot_random_states", worst, 1e-12, detail="100 random states")

    worst = 0.0
    for _ in range(50):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        raw /= np.linalg.norm(raw)
        state = gates.LogicalState(*raw)
        back = gates.decode(gates.encode(state))
        worst = max(worst, max(abs(a - b) for a, b in
                               zip(back.as_tuple(), state.as_tuple())))
        worst = max(worst, abs(gates.encode(state).norm() - state.norm()))
    yield _check("encode_decode_roundtrip", worst, 1e-14)

    cutoff = 12
    gate = gates.half_period_gate_matrix(cutoff)
    raw = rng.normal(size=4)
    raw /= np.linalg.norm(raw)
    amps_r = thermal.PhysicalAmplitudes(*raw)
    evolved_matrix = gate @ amps_r.as_vector(cutoff)
    evolved_map = gates.evolve_half_period(amps_r).as_vector(cutoff)
    yield _check("half_period_matrix_consistency",
                 np.abs(evolved_matrix.data - evolved_map.data).max(), 1e-14)


def _gate_thermalization_checks(amps):
    cutoff = GATE_RESIDUAL_CUTOFF
    gate = gates.half_period_gate_matrix(cutoff)
    for n_bar in GATE_RESIDUAL_N_BARS:
        params = thermal.ThermalParams.from_mean_occupation(n_bar)
        res = thermal.gate_thermalization_residual(gate, amps, params, cutoff)
        yield _check("gate_thermalization_residual", res, 1e-8, n_bar,
                     f"half-period parity gate, cutoff={cutoff}")


def _observable_checks(amps, rng):
    params0 = thermal.ThermalParams.from_mean_occupation(0.0)
    worst = abs(observables.fidelity_numeric(amps, params0) - 1.0)
    for _ in range(20):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        raw /= np.linalg.norm(raw)
        f = observables.fidelity_numeric(
            thermal.PhysicalAmplitudes(*raw), params0)
        worst = max(worst, abs(f - 1.0))
    yield _check("fidelity_pure_limit", worst, 1e-12, 0.0,
                 "default amps + 20 random amplitude sets")

    worst = 0.0
    for n_bar in (0.1, 0.5, 1.0, 5.0):
        params = thermal.ThermalParams.from_mean_occupation(n_bar)
        q = observables.mandel_numeric(
            thermal.PhysicalAmplitudes(1, 0, 0, 0), params)
        worst = max(worst, abs(q - n_bar))
    yield _check("mandel_thermal_identity", worst, 1e-9,
                 detail="Q equals n_bar for the bare thermal state")


def _heated_wigner_checks(n_bar, cutoff, rho, w):
    yield _check("wigner_normalization", abs(w.integral() - 1.0),
                 1e-6, n_bar, f"grid [{w.spec.q_min}, {w.spec.q_max}]^2")
    parity = float(np.sum((-1.0) ** np.arange(cutoff + 1)
                          * np.diag(rho.data).real)) / math.pi
    origin = w.values[w.spec.nq // 2, w.spec.np // 2]
    yield _check("wigner_parity_at_origin", abs(origin - parity), 1e-10, n_bar)


def _wigner_audit(amps, params, w, cutoff):
    _, wig = observables.wigner_closed_form(amps, params, w, cutoff)
    return _check("wigner_closed_form_audit",
                  wig.params["max_abs_discrepancy"], None, params.n_bar,
                  f"integral numeric={wig.value_numeric:.9e} "
                  f"closed={wig.value_closed_form:.9e}, "
                  f"L1={wig.params['l1_discrepancy']:.6e}")


def _wigner_checks(heated_checks, cold_neg, hot):
    grid_small = observables.GridSpec(-6, 6, -6, 6, 201, 201)
    vac = np.zeros((9, 9), dtype=complex)
    vac[0, 0] = 1.0
    w_vac = observables.wigner_from_density(fock.FockMatrix(vac, 8), grid_small)
    i0 = grid_small.nq // 2
    yield _check("wigner_vacuum_peak",
                 abs(w_vac.values[i0, i0] - 1.0 / math.pi), 1e-10)
    yield _check("wigner_vacuum_nonnegative",
                 observables.wigner_negativity(w_vac), 1e-12)

    one = np.zeros((9, 9), dtype=complex)
    one[1, 1] = 1.0
    w_one = observables.wigner_from_density(fock.FockMatrix(one, 8), grid_small)
    yield _check("wigner_single_photon_trough",
                 abs(w_one.values[i0, i0] + 1.0 / math.pi), 1e-10)

    # linearity on a convex mixture
    mix = fock.FockMatrix(0.3 * vac + 0.7 * one, 8)
    w_mix = observables.wigner_from_density(mix, grid_small)
    lin = np.abs(w_mix.values - (0.3 * w_vac.values + 0.7 * w_one.values)).max()
    yield _check("wigner_linearity", lin, 1e-12)

    yield from heated_checks
    yield _check("wigner_negativity_ordering",
                 0.0 if hot < cold_neg else hot - cold_neg, 0.0,
                 detail=f"neg(0.1)={cold_neg:.6e}, neg(10)={hot:.6e}")
    # both negativities 0 (the bare thermal state): nothing to suppress
    ratio = (hot / cold_neg if cold_neg > 0
             else math.inf if hot > 0 else 0.0)
    yield _check("wigner_negativity_suppression", ratio, 0.1,
                 detail="hot/cold negativity ratio must stay below 10%")


def _closed_form_audits(amps, wigner_audits):
    for n_bar, wigner_audit in zip(CLOSED_FORM_N_BARS, wigner_audits,
                                    strict=True):
        params = thermal.ThermalParams.from_mean_occupation(n_bar)
        fid = observables.fidelity_closed_form(amps, params)
        yield _check("fidelity_closed_form_audit", fid.abs_discrepancy,
                     None, n_bar,
                     f"numeric={fid.value_numeric:.9e} "
                     f"closed={fid.value_closed_form:.9e}")
        yield _mandel_audit(amps, params)
        yield wigner_audit


def _mandel_audit(amps, params):
    n_bar = params.n_bar
    tol = 1e-9 if n_bar == 0.0 else None
    try:
        mandel = observables.mandel_closed_form(amps, params)
    except MandelUndefinedError:
        # Q is undefined where <N> = 0 (numeric route) or where
        # c1 v^2 + c2 u^2 = 0 (printed route): they agree if both say so
        point = np.array([n_bar])
        numeric, closed = (math.isnan(q[0]) for q, _ in (
            observables._mandel_values(amps, point,
                                       [thermal.auto_cutoff(n_bar)]),
            observables._mandel_series(amps, point)))
        agree = numeric and closed
        return CheckResult(
            "mandel_closed_form_audit", agree, 0.0 if agree else math.inf,
            tol, n_bar, "Q undefined by both routes" if agree else
            f"Q undefined by the {'numeric' if numeric else 'printed'} "
            f"route only")
    return _check("mandel_closed_form_audit", mandel.abs_discrepancy,
                  tol, n_bar,
                  f"numeric={mandel.value_numeric:.9e} "
                  f"closed={mandel.value_closed_form:.9e}")


def run_verification(amps: thermal.PhysicalAmplitudes | None = None) -> dict:
    """Run the full check suite; returns a JSON-serializable report."""
    if amps is None:
        amps = thermal.DEFAULT_AMPLITUDES
    rng = np.random.default_rng(SEED)
    # each heated state is built once; the checks that read its Wigner grid
    # run first and keep only their results, so one grid is alive at a time
    checks, heated_checks, negativities, wigner_audits = [], [], [], []
    for n_bar in DEFAULT_N_BARS:
        params = thermal.ThermalParams.from_mean_occupation(n_bar)
        cutoff = thermal.auto_cutoff(n_bar)
        rho, w = observables.heated_wigner(amps, params, cutoff)
        if n_bar in WIGNER_N_BARS:
            heated_checks.extend(_heated_wigner_checks(n_bar, cutoff, rho, w))
            negativities.append(observables.wigner_negativity(w))
        if n_bar in CLOSED_FORM_N_BARS:
            wigner_audits.append(_wigner_audit(amps, params, w, cutoff))
        del w
        checks.extend(_density_checks(amps, params, cutoff, rho))
    checks.extend(_gate_checks(amps, rng))
    checks.extend(_gate_thermalization_checks(amps))
    checks.extend(_observable_checks(amps, rng))
    checks.extend(_wigner_checks(heated_checks, *negativities))
    checks.extend(_closed_form_audits(amps, wigner_audits))
    return {
        "all_passed": all(c.passed for c in checks),
        "n_bars": list(DEFAULT_N_BARS),
        "checks": [c.as_dict() for c in checks],
        "counts": {
            "total": len(checks),
            "failed": sum(not c.passed for c in checks),
            "audits": sum(c.tolerance is None for c in checks),
        },
    }
