"""Command-line front end: temperature sweeps, Wigner grids and the
verification suite, emitting CSV/JSON suitable for plotting and CI.

Subcommands and the flags each reads (`_SUBCOMMANDS`), all with --config:
  sweep-fidelity  --amps --nbar-range --out --format
  sweep-mandel    --amps --nbar-range --cutoff --tail-tol --out --format
  wigner-grid     --amps --nbar --cutoff --tail-tol --grid --out --format
  verify          --amps --out
A config file takes the same keys ("_" for "-"); any other flag or key,
or an abbreviated flag, is a usage error.
CSV/JSON rows carry floats as %.9e so identical configurations always
produce byte-identical rows (wigner-grid formats them a column at a time,
with % as the fallback for near-ties and non-finite values); the
wigner-grid sidecar and the verify report carry repr floats, whose last
digit shows a rounding move.

Exit status: 0 on success, 1 when a `verify` check fails, 2 for a usage
error (amplitudes whose norm overflows included) or an unreadable or
unwritable file, 3 when a numerical limit is hit (no cutoff reaches the
tail tolerance, n_bar >= ~9.007e15 included, the fidelity series' u^8
overflows, the Wigner grid cannot be widened enough, or W is not finite
on the grid); errors are one line on stderr and nothing is written to
--out.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import observables, thermal, verify
from .errors import CutoffError, GridWideningError

EXIT_NUMERICAL_LIMIT = 3
_FLOAT_FMT = "%.9e"
_REGIME_DEADBAND = 1e-9
# n_bar points per block-reader call: bounds the Mandel diagonal block
# (points x largest cutoff) a sweep holds at once
_SWEEP_BLOCK = 32


def _fmt(value: float) -> str:
    return _FLOAT_FMT % value


@dataclass
class SweepConfig:
    amps: thermal.PhysicalAmplitudes = field(
        default_factory=lambda: thermal.DEFAULT_AMPLITUDES)
    n_bar_start: float = 0.0
    n_bar_end: float = 2.0
    n_bar_steps: int = 50
    n_bar: float | None = None        # single-point commands (wigner-grid)
    cutoff: int | str = "auto"
    tail_tol: float = thermal.TAIL_TOL_DEFAULT
    grid: observables.GridSpec | None = None
    out: str = "-"
    format: str = "csv"

    def __post_init__(self):
        observables._block_n_bar([self.n_bar_start, self.n_bar_end])
        if self.n_bar_steps < 2:
            raise ValueError("a sweep needs at least 2 points")
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown format {self.format!r}")
        norm = self.amps.norm()
        if not math.isfinite(norm):
            raise ValueError(f"amplitudes must be finite, got norm {norm}")
        if abs(norm - 1.0) > 1e-6:
            warnings.warn(f"amplitudes renormalized (norm was {norm:.8f})")
        if abs(norm - 1.0) > 1e-15:
            self.amps = self.amps.normalized()

    def n_bar_values(self) -> np.ndarray:
        return np.linspace(self.n_bar_start, self.n_bar_end, self.n_bar_steps)


def _write_text(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _write_bytes(path: str, data: bytes):
    if path == "-":
        sys.stdout.flush()  # after any text already written there
        sys.stdout.buffer.write(data)
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def _rows_to_output(header: list[str], rows: list[list[str]], fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(row) for row in rows)
        return "\n".join(lines) + "\n"
    records = [dict(zip(header, row)) for row in rows]
    return json.dumps(records, indent=2, sort_keys=True) + "\n"


_WIGNER_HEADER = ["q", "p", "w_numeric", "w_closed_form"]

# A %.9e field: sign, d.ddddddddd, "e", the exponent's sign and 2 or 3
# digits; a slot a value leaves unused holds NUL, dropped at assembly.
_E9_WIDTH = 17
# the decimal exponents whose scale 10**(9 - e) is a normal double
_E9_EXPONENTS = range(-299, 309)


@functools.lru_cache(maxsize=1)
def _e9_tables():
    """Built on first use: 10**(9 - e) correctly rounded and the
    "e+dd"/"e-ddd" texts over _E9_EXPONENTS, the "d.d" texts of 0..99 and
    the 4-digit texts of 0..9999, as uint8 rows."""
    def ascii_digits(width):  # the width-digit texts of 0 .. 10**width - 1
        digits = np.indices((10,) * width, np.uint8).reshape(width, -1).T
        return np.ascontiguousarray(digits + np.uint8(ord("0")))

    scale = np.array([float(f"1e{9 - e}") for e in _E9_EXPONENTS])
    exponents = np.frombuffer(
        "".join(f"e{e:+03d}".ljust(5, "\0") for e in _E9_EXPONENTS).encode(),
        np.uint8).reshape(-1, 5)
    lead = np.insert(ascii_digits(2), 1, ord("."), axis=1)
    return scale, exponents, lead, ascii_digits(4)


def _e9_fields(values: np.ndarray) -> np.ndarray:
    """The `_fmt` texts of `values` as NUL-padded ASCII, shape
    values.shape + (_E9_WIDTH,), formatted a column at a time.

    A finite value's scaled magnitude s = |v| 10**(9 - e), with
    e = floor(log10 |v|), is two roundings away from the exact one, so
    within 2.3e-6 of it below 1e10: rint(s) is the correctly rounded
    10-digit mantissa unless s lies within 1e-4 of a rounding tie.  Such
    near-ties, values whose e is off the table or whose mantissa leaves
    [1e9, 1e10) (a misjudged e or a carry into the next decade) and
    non-finite values go through `_fmt` instead.
    """
    scale, exponents, lead, digits = _e9_tables()
    lowest = _E9_EXPONENTS[0]
    x = np.asarray(values, dtype=float).ravel()
    mag = np.abs(x)
    zero = mag == 0.0
    normal = np.isfinite(x) & ~zero
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(np.where(normal, mag, 1.0)))  # 0 for zero
    ok = (normal | zero) & (e >= lowest) & (e <= _E9_EXPONENTS[-1])
    row = np.where(ok, e - lowest, -lowest).astype(np.intp)
    s = np.where(ok, mag, 0.0) * scale[row]
    mant = np.rint(s)
    near_tie = np.abs(s - np.floor(s) - 0.5) < 1e-4
    ok &= (zero | (mant >= 1e9) & (mant < 1e10)) & ~near_tie
    m = np.where(ok, mant, 0.0).astype(np.int64)

    high, low = np.divmod(m, 10_000)
    high, middle = np.divmod(high, 10_000)

    out = np.empty((x.size, _E9_WIDTH), np.uint8)
    out[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    # np.take, not table[index]: much faster on rows of a 2-d table
    out[:, 1:4] = np.take(lead, high, axis=0)
    out[:, 4:8] = np.take(digits, middle, axis=0)
    out[:, 8:12] = np.take(digits, low, axis=0)
    out[:, 12:] = np.take(exponents, row, axis=0)
    for i in np.flatnonzero(~ok).tolist():
        text = _fmt(x[i]).encode()
        out[i] = 0
        out[i, : len(text)] = np.frombuffer(text, np.uint8)
    return out.reshape(*np.shape(values), _E9_WIDTH)


def _assemble(parts: list, shape: tuple) -> bytes:
    """Rows of `parts` laid side by side and joined, NUL slots dropped: a
    bytes part is the same in every row, an array part is `_e9_fields`
    broadcasting against `shape`."""
    parts = [np.frombuffer(part, np.uint8) if isinstance(part, bytes)
             else part for part in parts]
    widths = np.cumsum([0] + [part.shape[-1] for part in parts])
    buf = np.empty((*shape, widths[-1]), np.uint8)
    for part, start, stop in zip(parts, widths, widths[1:]):
        buf[..., start:stop] = part
    data = buf.tobytes()
    del buf  # one copy of the rows alive at a time
    return data.translate(None, b"\0")


def _wigner_csv(q: np.ndarray, p: np.ndarray, numeric: np.ndarray,
                closed: np.ndarray) -> bytes:
    """The wigner-grid CSV, p varying fastest.  Same bytes as
    `_rows_to_output` on `_fmt` cells."""
    rows = _assemble([_e9_fields(q)[:, None], b",", _e9_fields(p), b",",
                      _e9_fields(numeric), b",", _e9_fields(closed), b"\n"],
                     numeric.shape)
    return (",".join(_WIGNER_HEADER) + "\n").encode() + rows


def _wigner_json(q: np.ndarray, p: np.ndarray, numeric: np.ndarray,
                 closed: np.ndarray) -> bytes:
    """The wigner-grid JSON.  Same bytes as `_rows_to_output` on `_fmt`
    cells (keys sorted, indent 2; the %.9e texts need no escaping)."""
    records = _assemble(
        [b'  {\n    "p": "', _e9_fields(p), b'",\n    "q": "',
         _e9_fields(q)[:, None], b'",\n    "w_closed_form": "',
         _e9_fields(closed), b'",\n    "w_numeric": "', _e9_fields(numeric),
         b'"\n  },\n'], numeric.shape)
    return b"[\n" + records[:-2] + b"\n]\n"  # no comma after the last


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _sweep_columns(cfg: SweepConfig, reader) -> list[np.ndarray]:
    """n_bar and the (numeric, closed form, discrepancy) columns of `reader`
    (called with each block of at most _SWEEP_BLOCK n_bar values) over the
    whole sweep."""
    values = cfg.n_bar_values()
    blocks = [(n_bar, *reader(n_bar)) for n_bar in
              (values[i: i + _SWEEP_BLOCK]
               for i in range(0, len(values), _SWEEP_BLOCK))]
    return [np.concatenate(column) for column in zip(*blocks)]


def cmd_sweep_fidelity(cfg: SweepConfig) -> str:
    """n_bar sweep of numeric and closed-form fidelity.

    The numeric column must be monotonically nonincreasing in n_bar (the
    heated state only moves away from the pure target), so nondecreasing
    along a descending sweep; a violation beyond 1e-10 aborts the run.
    """
    columns = _sweep_columns(
        cfg, lambda n_bar: observables.fidelity_columns(cfg.amps, n_bar))
    numeric = columns[1].tolist()
    ascending = cfg.n_bar_end >= cfg.n_bar_start
    for i in range(1, len(numeric)):
        # (colder, hotter) fidelities of the two neighbouring points
        cold, hot = ((numeric[i - 1], numeric[i]) if ascending
                     else (numeric[i], numeric[i - 1]))
        if hot > cold + 1e-10:
            raise RuntimeError(
                f"fidelity increased with n_bar, from {cold:.12f} to "
                f"{hot:.12f}, between sweep points {i-1} and {i}")
    rows = [[_fmt(nb), _fmt(fn), _fmt(fc), _fmt(d)]
            for nb, fn, fc, d in zip(*(c.tolist() for c in columns))]
    header = ["n_bar", "fidelity_numeric", "fidelity_closed_form", "discrepancy"]
    text = _rows_to_output(header, rows, cfg.format)
    _write_text(cfg.out, text)
    return text


def _regime(q: float) -> str:
    if math.isnan(q):
        return "undefined"
    if abs(q) < _REGIME_DEADBAND:
        return "poisson"
    return "sub" if q < 0 else "super"


def cmd_sweep_mandel(cfg: SweepConfig) -> str:
    """n_bar sweep of numeric and closed-form Mandel Q with regime labels;
    a block's cutoffs are resolved in order before it is read."""
    def reader(n_bar):
        cutoffs = [thermal.resolve_cutoff(
            cfg.cutoff, thermal.ThermalParams(value), cfg.tail_tol)
            for value in n_bar.tolist()]
        return observables.mandel_columns(cfg.amps, n_bar, cutoffs)

    columns = _sweep_columns(cfg, reader)
    rows = [[_fmt(nb), _fmt(qn), _fmt(qc), _fmt(d), _regime(qn)]
            for nb, qn, qc, d in zip(*(c.tolist() for c in columns))]
    header = ["n_bar", "q_numeric", "q_closed_form", "discrepancy", "regime"]
    text = _rows_to_output(header, rows, cfg.format)
    _write_text(cfg.out, text)
    return text


def cmd_wigner_grid(cfg: SweepConfig) -> bytes:
    """Wigner function on a phase-space grid for one n_bar, with a JSON
    sidecar of normalization metadata next to the main file.

    The numeric grid is evaluated once (`observables.heated_wigner`) and
    shared by the w_numeric column and the closed-form audit."""
    n_bar = cfg.n_bar if cfg.n_bar is not None else 0.1
    params = thermal.ThermalParams(n_bar)
    cutoff = thermal.resolve_cutoff(cfg.cutoff, params, cfg.tail_tol)
    # far enough out, a grid's powers of q and p overflow: the values are
    # checked below instead
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            _, numeric = observables.heated_wigner(cfg.amps, params, cutoff,
                                                   cfg.grid)
        except GridWideningError as exc:
            raise GridWideningError(f"{exc} at n_bar = {n_bar}") from None
        closed, max_abs, l1 = observables.wigner_closed_form(
            cfg.amps, params, numeric, cutoff)
    spec = closed.spec
    if not (np.isfinite(numeric.values).all()
            and np.isfinite(closed.values).all()):
        raise FloatingPointError(
            f"Wigner function not finite on the grid {spec.q_min}:"
            f"{spec.q_max}:{spec.nq},{spec.p_min}:{spec.p_max}:{spec.np} "
            f"at n_bar = {n_bar}")

    writer = _wigner_csv if cfg.format == "csv" else _wigner_json
    data = writer(spec.q_axis(), spec.p_axis(), numeric.values, closed.values)
    _write_bytes(cfg.out, data)

    sidecar = {
        "n_bar": n_bar,
        "cutoff": cutoff,
        "grid": {
            "q_min": closed.spec.q_min, "q_max": closed.spec.q_max,
            "p_min": closed.spec.p_min, "p_max": closed.spec.p_max,
            "nq": closed.spec.nq, "np": closed.spec.np,
            "cell_area": closed.spec.cell_area,
        },
        "normalization_constant_vs_printed_series":
            observables.CLOSED_FORM_WIGNER_SCALE,
        "integrated_total_numeric": numeric.integral(),
        "integrated_total_closed_form": closed.integral(),
        "negativity_volume_numeric": observables.wigner_negativity(numeric),
        "negativity_volume_closed_form": observables.wigner_negativity(closed),
        "max_abs_discrepancy": max_abs,
        "l1_discrepancy": l1,
    }
    sidecar_text = json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    if cfg.out != "-":
        _write_text(cfg.out + ".meta.json", sidecar_text)
    else:
        sys.stdout.write(sidecar_text)
    return data


def cmd_verify(cfg: SweepConfig) -> int:
    """Run the full cross-oracle suite; exit status 0 iff everything passed."""
    report = verify.run_verification(cfg.amps)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    _write_text(cfg.out, text)
    if not report["all_passed"]:
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        sys.stderr.write(f"FAILED checks: {', '.join(sorted(set(failed)))}\n")
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# argparse prints an ArgumentTypeError's message, else the parser's name

def _parse_amps(text: str) -> thermal.PhysicalAmplitudes:
    try:
        vals = [float(p) for p in text.split(",")]
    except ValueError:
        vals = []
    if len(vals) == 8:
        vals = map(complex, vals[0::2], vals[1::2])
    elif len(vals) != 4:
        raise argparse.ArgumentTypeError(
            f"amps expects x,y,z,w or 8 re,im values, got {text!r}")
    return thermal.PhysicalAmplitudes(*vals)


def _number(text: str) -> float:
    """float(text), or NaN (which every range check rejects)."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def _parse_nbar(text: str) -> float:
    value = _number(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(
            f"n_bar must be finite and nonnegative, got {text!r}")
    return value


def _parse_nbar_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"n_bar range expects start:end:steps, got {text!r}")
    start, end, steps = parts
    if not (steps.isdecimal() and int(steps) >= 2):
        raise argparse.ArgumentTypeError(
            f"n_bar range needs an integer of at least 2 steps, got {steps!r}")
    return _parse_nbar(start), _parse_nbar(end), int(steps)


def _parse_grid(text: str) -> observables.GridSpec:
    try:
        q_part, p_part = text.split(",")
        q_min, q_max, nq = q_part.split(":")
        p_min, p_max, npts = p_part.split(":")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid expects qmin:qmax:nq,pmin:pmax:np, got {text!r}") from None
    try:
        return observables.GridSpec(float(q_min), float(q_max),
                                    float(p_min), float(p_max),
                                    int(nq), int(npts))
    except ValueError as exc:  # names the bad bound or point count
        raise argparse.ArgumentTypeError(f"{exc}, got {text!r}") from None


def _parse_cutoff(text: str):
    if text == "auto":
        return text
    low, high = thermal._CUTOFF_FLOOR, thermal.CUTOFF_CAP
    if not (text.isdecimal() and low <= int(text) <= high):
        raise argparse.ArgumentTypeError(
            f"cutoff must be 'auto' or an integer in [{low}, {high}], "
            f"got {text!r}")
    return int(text)


def _parse_tail_tol(text: str) -> float:
    # the density builders re-check every cutoff at TAIL_TOL_DEFAULT, so a
    # looser tolerance could never take effect
    value = _number(text)
    if not 0.0 < value <= thermal.TAIL_TOL_DEFAULT:  # also rejects NaN
        raise argparse.ArgumentTypeError(
            f"tail_tol must be in (0, {thermal.TAIL_TOL_DEFAULT:g}], "
            f"got {text!r}")
    return value


def _read_config_file(path: str) -> dict:
    """Flat key=value file; blank lines and #-comments ignored."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


# Each option once: its parser (for the flag and the config key alike),
# the flag's help and choices.  The flag is --key with "-" for "_".
_OPTIONS = {
    "amps": (_parse_amps, "x,y,z,w (or 8 re,im values) amplitudes", None),
    "nbar_range": (_parse_nbar_range, "sweep range start:end:steps", None),
    "nbar": (_parse_nbar, "single occupation value", None),
    "cutoff": (_parse_cutoff, "Fock cutoff, integer or 'auto'", None),
    "tail_tol": (_parse_tail_tol, "truncation tail tolerance", None),
    "grid": (_parse_grid, "phase-space grid qmin:qmax:nq,pmin:pmax:np", None),
    "out": (str, "output path ('-' for stdout)", None),
    "format": (str, "output format", ("csv", "json")),
}

# subcommand: (help, the options it reads, besides --config)
_SUBCOMMANDS = {
    "sweep-fidelity": ("fidelity vs n_bar sweep (CSV/JSON)",
                       ("amps", "nbar_range", "out", "format")),
    "sweep-mandel": ("Mandel Q vs n_bar sweep with regime labels",
                     ("amps", "nbar_range", "cutoff", "tail_tol", "out",
                      "format")),
    "wigner-grid": ("Wigner function grid at one n_bar, plus sidecar",
                    ("amps", "nbar", "cutoff", "tail_tol", "grid", "out",
                     "format")),
    "verify": ("run the cross-oracle verification suite", ("amps", "out")),
}


def _build_config(args) -> SweepConfig:
    # precedence: flags > config file > defaults
    keys = _SUBCOMMANDS[args.command][1]
    merged = {}
    if args.config:
        for key, val in _read_config_file(args.config).items():
            if key not in keys:
                raise ValueError(
                    f"{args.command} does not read config key {key!r}")
            merged[key] = _OPTIONS[key][0](val)
    for key in keys:
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)

    if "nbar_range" in merged:
        merged["n_bar_start"], merged["n_bar_end"], merged["n_bar_steps"] = \
            merged.pop("nbar_range")
    if "nbar" in merged:
        merged["n_bar"] = merged.pop("nbar")
    return SweepConfig(**merged)


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: --nbar would otherwise pass as a prefix of --nbar-range
    parser = argparse.ArgumentParser(
        prog="thermoqubit", allow_abbrev=False,
        description="Temperature diagnostics for a bosonic CNOT qubit encoding")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, keys) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=help_text, allow_abbrev=False)
        for key in keys:
            parse, flag_help, choices = _OPTIONS[key]
            sub.add_argument("--" + key.replace("_", "-"), type=parse,
                             help=flag_help, choices=choices)
        sub.add_argument("--config", help="flat key=value config file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
    except (argparse.ArgumentTypeError, ValueError, OSError) as exc:
        parser.error(str(exc))  # a bad or unreadable config file
    if args.command in ("wigner-grid", "verify") and not cfg.amps.is_real():
        # the closed-form Wigner series both commands audit is printed
        # with unconjugated products
        parser.error(f"{args.command} needs real amplitudes, got "
                     f"{', '.join(repr(a) for a in cfg.amps.as_tuple())}")
    try:
        if args.command == "sweep-fidelity":
            cmd_sweep_fidelity(cfg)
            return 0
        if args.command == "sweep-mandel":
            cmd_sweep_mandel(cfg)
            return 0
        if args.command == "wigner-grid":
            cmd_wigner_grid(cfg)
            return 0
        if args.command == "verify":
            return cmd_verify(cfg)
    except (CutoffError, GridWideningError, FloatingPointError) as exc:
        # the messages name the n_bar
        sys.stderr.write(f"{parser.prog} {args.command}: numerical limit: "
                         f"{exc}\n")
        return EXIT_NUMERICAL_LIMIT
    except OSError as exc:  # --out (or its sidecar) cannot be written
        sys.stderr.write(f"{parser.prog} {args.command}: cannot write "
                         f"{exc.filename or cfg.out}: {exc.strerror or exc}\n")
        return 2
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
