"""Correctness checks on the outputs of thermoqubit CLI commands.

Every output file a command writes is parsed.  Two kinds of check apply:

* invariants that hold for any amplitudes: fidelity is 1 at n_bar = 0 and
  nonincreasing, regime labels agree with the sign of Q, the Wigner CSV is
  consistent with its sidecar, the numeric Wigner integral is within the
  grid tolerance of 1, and `verify` reports all_passed;
* agreement with a reference recorded from the same commands, for the seeds
  that have one under reference/.  Labels, check names and passed flags must
  match exactly.  Numbers may move by 1e-12 of the scale of their column plus
  one unit in the last printed digit of the %.9e format, because a change of
  1e-15 can still flip that digit.

`summarize` reduces a command's outputs to the record stored as reference;
`problems` returns a list of human-readable failures (empty means correct).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REL_TOL = 1e-12
GRID_TOL = 1e-6            # GRID_TOL_DEFAULT of thermoqubit.observables
FIDELITY_SLACK = 1e-10     # the CLI's own monotonicity tolerance
WIGNER_SAMPLE_STRIDE = 97  # every 97th Wigner row is kept in the reference
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

HEADERS = {
    "sweep-fidelity": ["n_bar", "fidelity_numeric", "fidelity_closed_form",
                       "discrepancy"],
    "sweep-mandel": ["n_bar", "q_numeric", "q_closed_form", "discrepancy",
                     "regime"],
    "wigner-grid": ["q", "p", "w_numeric", "w_closed_form"],
}


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}.json"


def load_reference(workload: str, seed: int) -> list | None:
    path = reference_path(workload, seed)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def output_paths(command: str, out: Path) -> list[Path]:
    """Every file one command writes (wigner-grid adds a JSON sidecar)."""
    if command == "wigner-grid":
        return [out, Path(str(out) + ".meta.json")]
    return [out]


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    if not lines:
        raise ValueError(f"{path.name} is empty")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _last_digit(value: float) -> float:
    """One unit in the last printed digit of value formatted as %.9e."""
    if value == 0.0 or not math.isfinite(value):
        return 0.0
    return 10.0 ** (math.floor(math.log10(abs(value))) - 9)


def _close(got: float, want: float, scale: float) -> bool:
    if math.isnan(got) or math.isnan(want):
        return math.isnan(got) and math.isnan(want)
    return abs(got - want) <= REL_TOL * scale + _last_digit(want)


def _numeric_columns(header: list[str]) -> list[int]:
    return [i for i, name in enumerate(header) if name != "regime"]


def _compare_rows(name: str, rows: list, ref_rows: list,
                  header: list[str], scales: list[float]) -> list[str]:
    if len(rows) != len(ref_rows):
        return [f"{name}: {len(rows)} rows, reference has {len(ref_rows)}"]
    numeric = set(_numeric_columns(header))
    for r, (row, ref) in enumerate(zip(rows, ref_rows)):
        for c, (got, want) in enumerate(zip(row, ref)):
            if c not in numeric:
                if got != want:
                    return [f"{name} row {r} {header[c]}: {got!r} != {want!r}"]
            elif not _close(float(got), float(want), scales[c]):
                return [f"{name} row {r} {header[c]}: {got} != {want}"]
    return []


# ---------------------------------------------------------------------------
# summaries (what the reference stores)
# ---------------------------------------------------------------------------

def summarize(argv: list[str], out: Path) -> dict:
    command = argv[0]
    if command == "verify":
        report = json.loads(out.read_text())
        return {
            "command": argv,
            "all_passed": report["all_passed"],
            "counts": report["counts"],
            "checks": [[c["name"], c["n_bar"], c["tolerance"], c["passed"],
                        c["residual"] if c["tolerance"] is None else None]
                       for c in report["checks"]],
        }
    header, rows = _read_csv(out)
    if command != "wigner-grid":
        return {"command": argv, "header": header, "rows": rows}
    cols = _numeric_columns(header)
    return {
        "command": argv,
        "header": header,
        "n_rows": len(rows),
        "sample_stride": WIGNER_SAMPLE_STRIDE,
        "sample": rows[::WIGNER_SAMPLE_STRIDE],
        "column_sums": [math.fsum(float(r[c]) for r in rows) for c in cols],
        "column_abs_sums": [math.fsum(abs(float(r[c])) for r in rows)
                            for c in cols],
        "column_abs_max": [max(abs(float(r[c])) for r in rows) for c in cols],
        "sidecar": json.loads(Path(str(out) + ".meta.json").read_text()),
    }


# ---------------------------------------------------------------------------
# invariants (any seed)
# ---------------------------------------------------------------------------

def _fidelity_invariants(rows: list) -> list[str]:
    out = []
    n_bar = [float(r[0]) for r in rows]
    fid = [float(r[1]) for r in rows]
    if n_bar and n_bar[0] == 0.0 and abs(fid[0] - 1.0) > _last_digit(1.0):
        out.append(f"fidelity at n_bar = 0 is {rows[0][1]}, not 1")
    for i in range(1, len(fid)):
        if fid[i] > fid[i - 1] + FIDELITY_SLACK:
            out.append(f"fidelity increases between rows {i - 1} and {i}")
            break
    return out


def _mandel_invariants(rows: list) -> list[str]:
    for i, row in enumerate(rows):
        q, regime = float(row[1]), row[4]
        ok = {
            "undefined": math.isnan(q),
            "poisson": abs(q) <= 1.0000001e-9,
            "sub": q < 0,
            "super": q > 0,
        }.get(regime, False)
        if not ok:
            return [f"row {i}: regime {regime!r} does not fit Q = {row[1]}"]
    return []


def _wigner_invariants(rows: list, sidecar: dict) -> list[str]:
    out = []
    grid = sidecar["grid"]
    if len(rows) != grid["nq"] * grid["np"]:
        out.append(f"{len(rows)} rows for a {grid['nq']}x{grid['np']} grid")
    # only the numeric grid is normalized; the printed closed-form series
    # carries typos, so its integral is an audit value (checked against the
    # reference, not against 1)
    total = sidecar["integrated_total_numeric"]
    if not abs(total - 1.0) <= GRID_TOL:
        out.append(f"sidecar integrated_total_numeric = {total!r} is not "
                   f"within {GRID_TOL} of 1")
    area = grid["cell_area"]
    for col, key in ((2, "integrated_total_numeric"),
                     (3, "integrated_total_closed_form")):
        total = math.fsum(float(r[col]) for r in rows) * area
        if not abs(total - sidecar[key]) <= 1e-8:
            out.append(f"CSV integral {total!r} disagrees with sidecar "
                       f"{key} {sidecar[key]!r}")
    return out


def _verify_invariants(report: dict) -> list[str]:
    out = []
    if report["all_passed"] is not True:
        failed = sorted({c["name"] for c in report["checks"] if not c["passed"]})
        out.append(f"verify failed checks: {', '.join(failed)}")
    counts = report["counts"]
    if counts["total"] != len(report["checks"]):
        out.append("verify counts.total disagrees with the check list")
    if counts["failed"] != sum(not c["passed"] for c in report["checks"]):
        out.append("verify counts.failed disagrees with the check list")
    return out


# ---------------------------------------------------------------------------
# reference comparison
# ---------------------------------------------------------------------------

def _compare_reference(summary: dict, ref: dict) -> list[str]:
    name = " ".join(ref["command"][:3])
    if summary["command"][0] == "verify":
        out = []
        for key in ("all_passed", "counts"):
            if summary[key] != ref[key]:
                out.append(f"verify {key}: {summary[key]!r} != {ref[key]!r}")
        if len(summary["checks"]) != len(ref["checks"]):
            return out + ["verify: number of checks differs from reference"]
        for got, want in zip(summary["checks"], ref["checks"]):
            if got[:4] != want[:4]:
                out.append(f"verify check {got[:4]!r} != reference {want[:4]!r}")
            elif want[4] is not None and not _close(got[4], want[4],
                                                    abs(want[4])):
                out.append(f"verify audit {got[0]} at n_bar={got[1]}: "
                           f"{got[4]!r} != {want[4]!r}")
        return out
    if summary["header"] != ref["header"]:
        return [f"{name}: header {summary['header']} != {ref['header']}"]
    header = ref["header"]
    if "rows" in ref:
        cols = _numeric_columns(header)
        scales = [0.0] * len(header)
        for c in cols:
            finite = [abs(float(r[c])) for r in ref["rows"]
                      if math.isfinite(float(r[c]))]
            scales[c] = max(finite, default=0.0)
        return _compare_rows(name, summary["rows"], ref["rows"], header,
                             scales)
    if summary["n_rows"] != ref["n_rows"]:
        return [f"{name}: {summary['n_rows']} rows, reference {ref['n_rows']}"]
    scales = [0.0] * len(header)
    for c, m in zip(_numeric_columns(header), ref["column_abs_max"]):
        scales[c] = m
    out = _compare_rows(name, summary["sample"], ref["sample"], header, scales)
    for got, want, abs_sum, col in zip(summary["column_sums"],
                                       ref["column_sums"],
                                       ref["column_abs_sums"], header):
        # every summed value may be off by one printed digit
        if not abs(got - want) <= (REL_TOL + 1e-9) * abs_sum:
            out.append(f"{name}: sum of {col} {got!r} != {want!r}")
    for key, want in ref["sidecar"].items():
        got = summary["sidecar"].get(key)
        if isinstance(want, (dict, int)):
            if got != want:
                out.append(f"{name}: sidecar {key} {got!r} != {want!r}")
        elif not _close(got, want, abs(want)):
            out.append(f"{name}: sidecar {key} {got!r} != {want!r}")
    return out


def problems(argv: list[str], out: Path, ref: dict | None) -> list[str]:
    """Failures of one command's outputs; ref is its reference or None."""
    command = argv[0]
    try:
        if command == "verify":
            found = _verify_invariants(json.loads(out.read_text()))
        else:
            header, rows = _read_csv(out)
            if header != HEADERS[command]:
                return [f"{command}: unexpected header {header}"]
            if command == "sweep-fidelity":
                found = _fidelity_invariants(rows)
            elif command == "sweep-mandel":
                found = _mandel_invariants(rows)
            else:
                sidecar = json.loads(Path(str(out) + ".meta.json").read_text())
                found = _wigner_invariants(rows, sidecar)
        if ref is not None and ref["command"] != argv:
            found.append(f"reference was recorded for {ref['command']}")
        elif ref is not None:
            found += _compare_reference(summarize(argv, out), ref)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{command}: unreadable output: {exc!r}"]
    return found
