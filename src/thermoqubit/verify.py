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
    """The density-matrix checks of one n_bar, against the expansion rho_exp.

    Each residual is taken as soon as its arrays exist, and each array is
    dropped after its last read: the operator-route rho after its two
    residuals, the purified number states |1(b)>, |2(b)>, |4(b)> once the
    superposition is formed, and the superposition once it is reduced.
    At n_bar = 10 (cutoff 359) these doubled-space arrays set the peak
    memory of the whole suite.
    """
    n_bar = params.n_bar
    rho_op = thermal.thermal_state_density_operator(amps, params, cutoff)
    yield _check("density_agreement_expansion_vs_operator",
                 np.abs(rho_exp - rho_op).max(), 1e-9, n_bar,
                 f"cutoff={cutoff}")
    herm_op = np.abs(rho_op - rho_op.conj().T).max()
    del rho_op
    # the purified number states serve both the superposition and, through
    # |0(b)>, the doubled-vacuum identities below
    states = thermal.thermal_number_states(params, cutoff)
    vac = states[0]
    psi_beta = thermal._superpose(amps, states)
    del states
    rho_red = fock.reduce_pure_state(psi_beta)
    del psi_beta
    yield _check("density_agreement_expansion_vs_doubled",
                 np.abs(rho_exp - rho_red).max(), 1e-9, n_bar,
                 f"cutoff={cutoff}")
    herm = max(np.abs(rho_exp - rho_exp.conj().T).max(), herm_op,
               np.abs(rho_red - rho_red.conj().T).max())
    del rho_red
    yield _check("density_hermitian", herm, 1e-12, n_bar)
    yield _check("density_trace", abs(np.trace(rho_exp).real - 1.0),
                 thermal.TAIL_TOL_DEFAULT, n_bar)
    # real amplitudes give a real rho, whose real eigensolver is about 3x
    # faster than the complex one
    eigs = np.linalg.eigvalsh(rho_exp.real if not rho_exp.imag.any()
                              else rho_exp)
    yield _check("density_positive", max(0.0, -float(eigs.min())), 1e-9, n_bar)

    # the bare thermal diagonal k k1^n
    rho_b = params.k * params.k1 ** np.arange(cutoff + 1)
    if n_bar > 0:
        violations = int(np.sum(rho_b[1:] >= rho_b[:-1]))
        yield _check("thermal_diagonal_strictly_decreasing",
                     violations, 0.0, n_bar,
                     "count of non-decreasing steps in the geometric diagonal")

    # doubled-space expectation identity <0(b)|(A x I)|0(b)> = tr(rho_b A)
    d = cutoff + 1
    m = vac.reshape(d, d)
    occ = np.arange(d, dtype=float)
    probs = np.abs(m) ** 2
    lhs_n = float(np.sum(probs * occ[None, :]))
    lhs_n2 = float(np.sum(probs * (occ**2)[None, :]))
    del probs
    rhs_n = float(rho_b @ occ)
    rhs_n2 = float(rho_b @ occ**2)
    yield _check("doubled_expectation_number", abs(lhs_n - rhs_n), 1e-9, n_bar)
    yield _check("doubled_expectation_number_squared",
                 abs(lhs_n2 - rhs_n2), 1e-9, n_bar)
    yield _check("doubled_mean_occupation", abs(lhs_n - n_bar), 1e-10, n_bar)
    red_vac = fock.reduce_pure_state(vac)
    yield _check("bogoliubov_reduction_geometric",
                 np.abs(np.diag(red_vac).real - rho_b).max()
                 + np.abs(red_vac - np.diag(np.diag(red_vac))).max(),
                 1e-10, n_bar)

    yield _check("fidelity_phase_invariance",
                 _phase_invariance_residual(amps, params),
                 1e-10, n_bar)


def _fidelity(amps, n_bar):
    """The numeric fidelity at one n_bar, read as a one-point block."""
    return observables.fidelity_columns(amps, [n_bar])[0][0]


def _phase_invariance_residual(amps, params):
    base = _fidelity(amps, params.n_bar)
    phase = complex(math.cos(0.7), math.sin(0.7))
    rotated = thermal.PhysicalAmplitudes(
        *(phase * a for a in amps.as_tuple()))
    return abs(_fidelity(rotated, params.n_bar) - base)


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
                 np.abs(evolved_matrix - evolved_map).max(), 1e-14)


def _gate_thermalization_checks(amps):
    cutoff = GATE_RESIDUAL_CUTOFF
    gate = gates.half_period_gate_matrix(cutoff)
    for n_bar in GATE_RESIDUAL_N_BARS:
        params = thermal.ThermalParams(n_bar)
        res = thermal.gate_thermalization_residual(gate, amps, params, cutoff)
        yield _check("gate_thermalization_residual", res, 1e-8, n_bar,
                     f"half-period parity gate, cutoff={cutoff}")


def _observable_checks(amps, rng):
    worst = abs(_fidelity(amps, 0.0) - 1.0)
    for _ in range(20):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        raw /= np.linalg.norm(raw)
        f = _fidelity(thermal.PhysicalAmplitudes(*raw), 0.0)
        worst = max(worst, abs(f - 1.0))
    yield _check("fidelity_pure_limit", worst, 1e-12, 0.0,
                 "default amps + 20 random amplitude sets")

    n_bars = np.array([0.1, 0.5, 1.0, 5.0])
    q, _, _ = observables.mandel_columns(
        thermal.PhysicalAmplitudes(1, 0, 0, 0), n_bars,
        [thermal.auto_cutoff(n_bar) for n_bar in n_bars.tolist()])
    yield _check("mandel_thermal_identity", np.abs(q - n_bars).max(), 1e-9,
                 detail="Q equals n_bar for the bare thermal state")


def _heated_wigner_checks(n_bar, cutoff, rho, w):
    yield _check("wigner_normalization", abs(w.integral() - 1.0),
                 1e-6, n_bar, f"grid [{w.spec.q_min}, {w.spec.q_max}]^2")
    parity = float(np.sum((-1.0) ** np.arange(cutoff + 1)
                          * np.diag(rho).real)) / math.pi
    origin = w.values[w.spec.nq // 2, w.spec.np // 2]
    yield _check("wigner_parity_at_origin", abs(origin - parity), 1e-10, n_bar)


def _wigner_audit(amps, params, w, cutoff):
    closed, max_abs, l1 = observables.wigner_closed_form(amps, params, w,
                                                         cutoff)
    return _check("wigner_closed_form_audit", max_abs, None, params.n_bar,
                  f"integral numeric={w.integral():.9e} "
                  f"closed={closed.integral():.9e}, L1={l1:.6e}")


def _wigner_checks(heated_checks, cold_neg, hot):
    grid_small = observables.GridSpec(-6, 6, -6, 6, 201, 201)
    vac = np.zeros((9, 9), dtype=complex)
    vac[0, 0] = 1.0
    w_vac = observables.wigner_from_density(vac, grid_small)
    i0 = grid_small.nq // 2
    yield _check("wigner_vacuum_peak",
                 abs(w_vac.values[i0, i0] - 1.0 / math.pi), 1e-10)
    yield _check("wigner_vacuum_nonnegative",
                 observables.wigner_negativity(w_vac), 1e-12)

    one = np.zeros((9, 9), dtype=complex)
    one[1, 1] = 1.0
    w_one = observables.wigner_from_density(one, grid_small)
    yield _check("wigner_single_photon_trough",
                 abs(w_one.values[i0, i0] + 1.0 / math.pi), 1e-10)

    # linearity on a convex mixture
    w_mix = observables.wigner_from_density(0.3 * vac + 0.7 * one, grid_small)
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
    """The fidelity, Mandel and Wigner audits at each (n_bar, cutoff) of
    `wigner_audits`, the first two read as one block each."""
    n_bars, cutoffs, _ = zip(*wigner_audits)
    fidelity = zip(*observables.fidelity_columns(amps, n_bars))
    mandel = zip(*observables.mandel_columns(amps, n_bars, cutoffs))
    for (n_bar, cutoff, wigner_audit), (f_num, f_closed, f_diff), q in zip(
            wigner_audits, fidelity, mandel):
        yield _check("fidelity_closed_form_audit", f_diff, None, n_bar,
                     f"numeric={f_num:.9e} closed={f_closed:.9e}")
        yield _mandel_audit(amps, n_bar, cutoff, *q)
        yield wigner_audit


def _mandel_audit(amps, n_bar, cutoff, q_num, q_closed, q_diff):
    tol = 1e-9 if n_bar == 0.0 else None
    if math.isnan(q_diff):
        # Q is undefined where <N> = 0 (numeric route) or where
        # c1 v^2 + c2 u^2 = 0 (printed route): they agree if both say so
        point = np.array([n_bar])
        numeric, closed = (math.isnan(q[0]) for q, _ in (
            observables._mandel_values(amps, point, [cutoff]),
            observables._mandel_series(amps, point)))
        agree = numeric and closed
        return CheckResult(
            "mandel_closed_form_audit", agree, 0.0 if agree else math.inf,
            tol, n_bar, "Q undefined by both routes" if agree else
            f"Q undefined by the {'numeric' if numeric else 'printed'} "
            f"route only")
    return _check("mandel_closed_form_audit", q_diff, tol, n_bar,
                  f"numeric={q_num:.9e} closed={q_closed:.9e}")


def run_verification(amps: thermal.PhysicalAmplitudes | None = None) -> dict:
    """Run the full check suite; returns a JSON-serializable report."""
    if amps is None:
        amps = thermal.DEFAULT_AMPLITUDES
    rng = np.random.default_rng(SEED)
    # each heated state is built once; the checks that read its Wigner grid
    # run first and keep only their results, so one grid is alive at a time
    checks, heated_checks, negativities, wigner_audits = [], [], [], []
    for n_bar in DEFAULT_N_BARS:
        params = thermal.ThermalParams(n_bar)
        cutoff = thermal.auto_cutoff(n_bar)
        rho, w = observables.heated_wigner(amps, params, cutoff)
        if n_bar in WIGNER_N_BARS:
            heated_checks.extend(_heated_wigner_checks(n_bar, cutoff, rho, w))
            negativities.append(observables.wigner_negativity(w))
        if n_bar in CLOSED_FORM_N_BARS:
            wigner_audits.append(
                (n_bar, cutoff, _wigner_audit(amps, params, w, cutoff)))
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
