import argparse
import csv
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from thermoqubit import cli, observables, thermal, verify
from thermoqubit.observables import GridSpec
from thermoqubit.thermal import PhysicalAmplitudes

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def test_parse_amps_reals_and_pairs():
    a = cli._parse_amps("0.2,0.3,0.6,0.71414284285")
    assert abs(a.x - 0.2) < 1e-12
    b = cli._parse_amps("0.2,0.1,0.3,0,0.6,0,0.7,0")
    assert b.x == complex(0.2, 0.1)
    with pytest.raises(argparse.ArgumentTypeError):
        cli._parse_amps("1,2,3")


def test_parse_grid():
    g = cli._parse_grid("-5:5:41,-6:6:81")
    assert g == GridSpec(-5, 5, -6, 6, 41, 81)
    with pytest.raises(argparse.ArgumentTypeError):
        cli._parse_grid("-5:5:41")


def test_amps_normalized_on_input_with_warning():
    with pytest.warns(UserWarning):
        cfg = cli.SweepConfig(amps=PhysicalAmplitudes(1.0, 1.0, 0, 0))
    assert abs(cfg.amps.norm() - 1.0) < 1e-12


def test_config_file_and_flag_precedence(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(
        "# sweep settings\n"
        "nbar_range=0:1:5\n"
        "format=json\n"
        f"out={tmp_path / 'from_config.json'}\n"
    )
    args = cli.build_parser().parse_args(
        ["sweep-fidelity", "--config", str(conf),
         "--out", str(tmp_path / "from_flag.json")])
    cfg = cli._build_config(args)
    assert cfg.n_bar_steps == 5          # from config file
    assert cfg.format == "json"          # from config file
    assert cfg.out.endswith("from_flag.json")  # flag wins

    with pytest.raises(ValueError):
        bad = tmp_path / "bad.conf"
        bad.write_text("mystery=1\n")
        cli._build_config(cli.build_parser().parse_args(
            ["verify", "--config", str(bad)]))


# ---------------------------------------------------------------------------
# sweep-fidelity
# ---------------------------------------------------------------------------

@pytest.fixture()
def fidelity_csv(tmp_path):
    out = tmp_path / "fid.csv"
    rc = cli.main(["sweep-fidelity", "--nbar-range", "0:2:50",
                   "--out", str(out)])
    assert rc == 0
    return out


def test_sweep_fidelity_format(fidelity_csv):
    rows = read_csv(fidelity_csv)
    assert len(rows) == 50
    assert list(rows[0]) == ["n_bar", "fidelity_numeric",
                             "fidelity_closed_form", "discrepancy"]
    assert float(rows[0]["n_bar"]) == 0.0
    assert float(rows[0]["fidelity_numeric"]) == pytest.approx(1.0, abs=1e-9)


def test_sweep_fidelity_monotone(fidelity_csv):
    values = [float(r["fidelity_numeric"]) for r in read_csv(fidelity_csv)]
    assert all(b <= a + 1e-10 for a, b in zip(values, values[1:]))


def test_sweep_fidelity_csv_round_trip(fidelity_csv):
    from thermoqubit.observables import fidelity_numeric
    from thermoqubit.thermal import DEFAULT_AMPLITUDES, ThermalParams

    for row in read_csv(fidelity_csv)[::13]:
        params = ThermalParams.from_mean_occupation(float(row["n_bar"]))
        recomputed = fidelity_numeric(DEFAULT_AMPLITUDES, params)
        assert abs(float(row["fidelity_numeric"]) - recomputed) < 1e-9


def test_sweep_fidelity_descending(tmp_path):
    down = tmp_path / "down.csv"
    up = tmp_path / "up.csv"
    assert cli.main(["sweep-fidelity", "--nbar-range", "2:0:5",
                     "--out", str(down)]) == 0
    assert cli.main(["sweep-fidelity", "--nbar-range", "0:2:5",
                     "--out", str(up)]) == 0
    rows_down = read_csv(down)
    assert [float(r["n_bar"]) for r in rows_down] == [2.0, 1.5, 1.0, 0.5, 0.0]
    assert rows_down == read_csv(up)[::-1]


@pytest.mark.parametrize("n_bar_range", ["0:2:5", "2:0:5"])
def test_sweep_fidelity_monotone_check_follows_direction(
        tmp_path, monkeypatch, n_bar_range):
    # a fidelity that grows with n_bar must abort either sweep direction
    def rising(amps, n_bar):
        return n_bar, n_bar, 0.0 * n_bar

    monkeypatch.setattr(observables, "fidelity_columns", rising)
    with pytest.raises(RuntimeError, match="fidelity increased"):
        cli.main(["sweep-fidelity", "--nbar-range", n_bar_range,
                  "--out", str(tmp_path / "fid.csv")])


NBAR_ERROR = "n_bar must be finite and nonnegative"
TAIL_TOL_ERROR = "tail_tol must be in (0, 1e-10]"
CUTOFF_ERROR = "cutoff must be 'auto' or an integer in [8, 512]"
STEPS_ERROR = "n_bar range needs an integer of at least 2 steps"
REAL_AMPS_ERROR = "needs real amplitudes"
AMPS_ERROR = "amplitudes must be finite"
GRID_ERROR = "grid bounds must be finite"
# argparse prints "invalid _parse_amps value" unless the parser raises
# ArgumentTypeError with its own message
AMPS_LAYOUT_ERROR = "amps expects x,y,z,w or 8 re,im values, got "
GRID_LAYOUT_ERROR = "grid expects qmin:qmax:nq,pmin:pmax:np, got "
RANGE_LAYOUT_ERROR = "n_bar range expects start:end:steps, got "
UNREAD_ERROR = "unrecognized arguments: "
COMPLEX_AMPS = "--amps=0.1,0.2,0.3,0.4,0.5,-0.2,0.1,0.6"
BAD_ARGV = [
    (["wigner-grid", "--nbar", "nan"], NBAR_ERROR),
    (["wigner-grid", "--nbar", "inf"], NBAR_ERROR),
    (["wigner-grid", "--nbar", "-1"], NBAR_ERROR),
    (["sweep-fidelity", "--nbar-range", "0:inf:3"], NBAR_ERROR),
    (["sweep-fidelity", "--nbar-range", "2:-1:3"], NBAR_ERROR),
    (["sweep-mandel", "--nbar-range=-1:2:3"], NBAR_ERROR),
    (["sweep-mandel", "--nbar-range", "nan:1:3"], NBAR_ERROR),
    # a looser tail_tol fails later in the density builders' own check
    (["sweep-fidelity", "--nbar-range", "0:5:3", "--tail-tol", "1e-3"],
     TAIL_TOL_ERROR),
    (["sweep-fidelity", "--tail-tol", "nan"], TAIL_TOL_ERROR),
    (["sweep-mandel", "--tail-tol", "0"], TAIL_TOL_ERROR),
    (["wigner-grid", "--tail-tol=-1e-12"], TAIL_TOL_ERROR),
    (["sweep-fidelity", "--cutoff", "-3"], CUTOFF_ERROR),
    (["sweep-mandel", "--cutoff", "7"], CUTOFF_ERROR),
    (["wigner-grid", "--cutoff", "513"], CUTOFF_ERROR),
    (["sweep-fidelity", "--cutoff", "12.5"], CUTOFF_ERROR),
    (["sweep-fidelity", "--nbar-range", "0:1:1"], STEPS_ERROR),
    (["sweep-mandel", "--nbar-range", "0:1:two"], STEPS_ERROR),
    # the closed-form Wigner series is printed for real amplitudes only
    (["wigner-grid", "--nbar", "1", COMPLEX_AMPS], REAL_AMPS_ERROR),
    (["verify", COMPLEX_AMPS], REAL_AMPS_ERROR),
    (["sweep-fidelity", "--amps", "nan,0,0,0"], AMPS_ERROR),
    (["sweep-fidelity", "--amps", "inf,0,0,0"], AMPS_ERROR),
    (["sweep-mandel", "--amps", "1,nan,0,0"], AMPS_ERROR),
    (["wigner-grid", "--nbar", "0.1", "--grid=-inf:inf:3,-1:1:3"], GRID_ERROR),
    # values that do not parse: the message gives the reason and the text
    (["sweep-fidelity", "--amps", "1,2,3"], AMPS_LAYOUT_ERROR + "'1,2,3'"),
    (["sweep-fidelity", "--amps", "1,x,0,0"], AMPS_LAYOUT_ERROR + "'1,x,0,0'"),
    (["wigner-grid", "--grid", "1:2:3"], GRID_LAYOUT_ERROR + "'1:2:3'"),
    (["wigner-grid", "--nbar", "x"], NBAR_ERROR + ", got 'x'"),
    (["sweep-fidelity", "--nbar-range", "1:2"], RANGE_LAYOUT_ERROR + "'1:2'"),
    (["sweep-fidelity", "--nbar-range", "0:x:5"], NBAR_ERROR + ", got 'x'"),
    (["sweep-fidelity", "--tail-tol", "x"], TAIL_TOL_ERROR + ", got 'x'"),
    # each subcommand takes only the flags it reads, and no abbreviations
    *[([command, *flag], UNREAD_ERROR + " ".join(flag)) for command, flag in (
        ("sweep-fidelity", ["--nbar", "1"]),
        ("sweep-mandel", ["--nbar", "1"]),
        ("sweep-fidelity", ["--grid=-1:1:3,-1:1:3"]),
        ("sweep-mandel", ["--grid=-1:1:3,-1:1:3"]),
        ("wigner-grid", ["--nbar-range", "0:1:5"]),
        ("verify", ["--nbar-range", "0:1:5"]),
        ("verify", ["--nbar", "1"]),
        ("verify", ["--cutoff", "60"]),
        ("verify", ["--tail-tol", "1e-12"]),
        ("verify", ["--grid=-1:1:3,-1:1:3"]),
        ("verify", ["--format", "csv"]),
        ("sweep-fidelity", ["--nbar", "0:1:5"]),
        ("wigner-grid", ["--tail", "1e-12"]),
        ("sweep-mandel", ["--fo", "json"]),
    )],
    # |a|^2 overflows: the norm reads inf
    (["sweep-fidelity", "--amps=1e160,1e160,0,0"], AMPS_ERROR),
    (["sweep-mandel", "--amps=1e200,0,0,0,0,0,0,0"], AMPS_ERROR),
]


@pytest.mark.parametrize("argv, message", BAD_ARGV,
                         ids=[f"argv{i}" for i in range(len(BAD_ARGV))])
def test_bad_nbar_rejected_before_work(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(tmp_path / "out.csv")])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err and "_parse_" not in err


def test_bad_nbar_in_config_file_rejected(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("nbar=nan\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["wigner-grid", "--config", str(conf),
                  "--out", str(tmp_path / "out.csv")])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == [conf]
    assert NBAR_ERROR in capsys.readouterr().err


def test_complex_amps_in_config_file_rejected(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("amps=" + COMPLEX_AMPS.partition("=")[2] + "\n")
    with pytest.raises(SystemExit) as exc, pytest.warns(UserWarning):
        cli.main(["verify", "--config", str(conf),
                  "--out", str(tmp_path / "out.json")])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == [conf]
    err = capsys.readouterr().err
    assert REAL_AMPS_ERROR in err
    assert "Traceback" not in err


def test_complex_amps_still_sweep(tmp_path):
    # the sweeps conjugate properly, so they keep taking complex amplitudes
    with pytest.warns(UserWarning, match="renormalized"):
        rc = cli.main(["sweep-fidelity", "--nbar-range", "0:1:3", COMPLEX_AMPS,
                       "--out", str(tmp_path / "fid.csv")])
    assert rc == 0


UNREAD_KEYS = [("sweep-fidelity", "nbar=1"), ("sweep-mandel", "nbar=1"),
               ("sweep-fidelity", "grid=-1:1:3,-1:1:3"),
               ("sweep-mandel", "grid=-1:1:3,-1:1:3"),
               ("wigner-grid", "nbar_range=0:1:5"),
               ("verify", "nbar_range=0:1:5"), ("verify", "nbar=1"),
               ("verify", "cutoff=60"), ("verify", "tail_tol=1e-12"),
               ("verify", "grid=-1:1:3,-1:1:3"), ("verify", "format=csv")]


@pytest.mark.parametrize("command, line, message", [
    ("sweep-fidelity", "tail_tol=1e-3", TAIL_TOL_ERROR),
    ("sweep-fidelity", "cutoff=4", CUTOFF_ERROR),
    ("sweep-fidelity", "nbar_range=0:1:1", STEPS_ERROR),
    ("sweep-fidelity", "amps=nan,0,0,0", AMPS_ERROR),
    ("sweep-fidelity", "amps=1,2,3", AMPS_LAYOUT_ERROR + "'1,2,3'"),
    ("sweep-fidelity", "amps=1,x,0,0", AMPS_LAYOUT_ERROR + "'1,x,0,0'"),
    ("wigner-grid", "grid=1:2:3", GRID_LAYOUT_ERROR + "'1:2:3'"),
    ("wigner-grid", "nbar=x", NBAR_ERROR + ", got 'x'"),
    ("sweep-fidelity", "nbar_range=1:2", RANGE_LAYOUT_ERROR + "'1:2'"),
    ("sweep-fidelity", "nbar_range=0:x:5", NBAR_ERROR + ", got 'x'"),
    ("sweep-fidelity", "tail_tol=x", TAIL_TOL_ERROR + ", got 'x'"),
    ("sweep-mandel", "amps=1e300,1e300,0,0", AMPS_ERROR),
    *[(command, line, f"{command} does not read config key "
                      f"{line.partition('=')[0]!r}")
      for command, line in UNREAD_KEYS],
], ids=["tail_tol", "cutoff", "nbar_range", "amps", "amps-3", "amps-x",
        "grid-layout", "nbar-x", "nbar_range-2", "nbar_range-x", "tail_tol-x",
        "amps-overflow"]
    + [f"unread-{command}-{line.partition('=')[0]}"
       for command, line in UNREAD_KEYS])
def test_bad_config_value_rejected(tmp_path, capsys, command, line, message):
    conf = tmp_path / "run.conf"
    conf.write_text(line + "\n")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", str(conf),
                  "--out", str(tmp_path / "out.csv")])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == [conf]
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err and "_parse_" not in err


def exit_code(argv) -> int:
    """cli.main's exit status, whether it returns it or argparse exits."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, message", [
    (["verify", "--config", "{tmp}/missing.cfg"],
     "No such file or directory: '{tmp}/missing.cfg'"),
    (["verify", "--config", "{tmp}"], "Is a directory: '{tmp}'"),
    (["verify", "--out", "{tmp}/missing/v.json"],
     "thermoqubit verify: cannot write {tmp}/missing/v.json: "
     "No such file or directory"),
    (["wigner-grid", "--out", "{tmp}/missing/w.csv"],
     "thermoqubit wigner-grid: cannot write {tmp}/missing/w.csv: "
     "No such file or directory"),
], ids=["config-missing", "config-directory", "verify-out", "wigner-out"])
def test_file_errors_exit_2_with_one_line(tmp_path, capsys, argv, message):
    # exit 1 is a failed verify check; a file that cannot be read or
    # written is a usage error, on one line after argparse's usage line
    assert exit_code([arg.format(tmp=tmp_path) for arg in argv]) == 2
    assert list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if not line.startswith("usage:")]
    assert len(lines) == 1 and message.format(tmp=tmp_path) in lines[0]
    assert "Traceback" not in err


# numerical limits: n_bar past the cutoff cap, a grid that cannot be widened
# enough (forced by a normalization tolerance no grid meets)
LIMIT_CASES = [
    (["sweep-fidelity", "--nbar-range", "0:20:5"], {}, "n_bar = 15.0"),
    (["sweep-mandel", "--nbar-range", "0:20:5"], {}, "n_bar = 15.0"),
    (["wigner-grid", "--nbar", "20"], {}, "n_bar = 20.0"),
    (["sweep-fidelity", "--nbar-range", "0:5:3", "--cutoff", "100"], {},
     "n_bar = 5.0"),
    # cutoff 150 passes at the default tail tolerance (see below)
    (["sweep-fidelity", "--nbar-range", "0:5:3", "--cutoff", "150",
      "--tail-tol", "1e-14"], {}, "n_bar = 5.0"),
    (["wigner-grid", "--nbar", "0.1"], {"GRID_TOL_DEFAULT": 0.0},
     "n_bar = 0.1"),
    # k1 = n_bar / (1 + n_bar) rounds to 1, and (1 + n_bar)^4 overflows
    (["wigner-grid", "--nbar", "1e16"], {}, "n_bar = 1e+16"),
    (["wigner-grid", "--nbar", "1e16", "--cutoff", "100"], {},
     "n_bar = 1e+16"),
    (["wigner-grid", "--nbar", "1e100"], {}, "n_bar = 1e+100"),
    (["sweep-mandel", "--nbar-range", "0:1e300:3"], {}, "n_bar = 5e+299"),
    # far out, the powers of q overflow: W is not finite
    (["wigner-grid", "--nbar", "1", "--grid=-1e80:1e80:3,-1:1:3"], {},
     "grid -1e+80:1e+80:3,-1.0:1.0:3 at n_bar = 1.0"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, patch, message", LIMIT_CASES,
    ids=["cutoff-fidelity", "cutoff-mandel", "cutoff-wigner",
         "explicit-cutoff", "explicit-cutoff-tail-tol", "grid-widening",
         "k1-one", "k1-one-cutoff", "k1-one-overflow", "k1-one-sweep",
         "grid-overflow"])
def test_numerical_limit_exit_code(tmp_path, capsys, monkeypatch,
                                   argv, patch, message):
    for name, value in patch.items():
        monkeypatch.setattr(observables, name, value)
    rc = cli.main(argv + ["--out", str(tmp_path / "out.csv")])
    assert rc == cli.EXIT_NUMERICAL_LIMIT == 3
    assert list(tmp_path.iterdir()) == []
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert "numerical limit" in lines[0] and message in lines[0]


def test_explicit_cutoff_passes_default_tail_tol(tmp_path):
    # the same command as the explicit-cutoff-tail-tol limit case, without
    # --tail-tol: only the tighter tolerance makes cutoff 150 fail
    out = tmp_path / "fid.csv"
    assert cli.main(["sweep-fidelity", "--nbar-range", "0:5:3",
                     "--cutoff", "150", "--out", str(out)]) == 0
    assert len(read_csv(out)) == 3


# ---------------------------------------------------------------------------
# sweep-mandel
# ---------------------------------------------------------------------------

def test_sweep_mandel_regimes(tmp_path):
    out = tmp_path / "mandel.csv"
    assert cli.main(["sweep-mandel", "--nbar-range", "0:1:41",
                     "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 41
    assert float(rows[0]["q_numeric"]) == pytest.approx(-0.45, abs=1e-9)
    regimes = [r["regime"] for r in rows]
    transitions = [(a, b) for a, b in zip(regimes, regimes[1:]) if a != b]
    assert transitions == [("sub", "super")]


def test_sweep_mandel_undefined_rows(tmp_path):
    out = tmp_path / "mandel_vac.csv"
    assert cli.main(["sweep-mandel", "--amps", "1,0,0,0",
                     "--nbar-range", "0:0.5:3", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0]["regime"] == "undefined"
    assert math.isnan(float(rows[0]["q_numeric"]))
    # thermal statistics elsewhere: Q = n_bar > 0
    assert rows[1]["regime"] == "super"


def test_sweep_mandel_json_format(tmp_path):
    out = tmp_path / "mandel.json"
    assert cli.main(["sweep-mandel", "--nbar-range", "0:1:5",
                     "--format", "json", "--out", str(out)]) == 0
    records = json.loads(out.read_text())
    assert len(records) == 5
    assert set(records[0]) == {"n_bar", "q_numeric", "q_closed_form",
                               "discrepancy", "regime"}


# ---------------------------------------------------------------------------
# wigner-grid
# ---------------------------------------------------------------------------

def test_wigner_grid_output_and_sidecar(tmp_path):
    out = tmp_path / "wig.csv"
    assert cli.main(["wigner-grid", "--nbar", "0.1",
                     "--grid=-8:8:65,-8:8:65", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert list(rows[0]) == ["q", "p", "w_numeric", "w_closed_form"]
    assert len(rows) == 65 * 65
    # row-major order: p varies fastest
    assert float(rows[0]["q"]) == -8.0 and float(rows[1]["q"]) == -8.0
    assert float(rows[0]["p"]) < float(rows[1]["p"])

    sidecar = json.loads((tmp_path / "wig.csv.meta.json").read_text())
    assert sidecar["negativity_volume_numeric"] > 0.0
    assert sidecar["normalization_constant_vs_printed_series"] == \
        pytest.approx(1.0 / (2.0 * math.pi))
    # a 65x65 grid is coarse; the integral still lands close to 1
    assert sidecar["integrated_total_numeric"] == pytest.approx(1.0, abs=1e-3)


def test_wigner_grid_default_grid_normalized(tmp_path):
    out = tmp_path / "wig_full.csv"
    assert cli.main(["wigner-grid", "--nbar", "0.1", "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "wig_full.csv.meta.json").read_text())
    assert abs(sidecar["integrated_total_numeric"] - 1.0) < 1e-6


def test_wigner_grid_hot_negativity_suppressed(tmp_path):
    cold = tmp_path / "w01.csv"
    hot = tmp_path / "w10.csv"
    assert cli.main(["wigner-grid", "--nbar", "0.1", "--out", str(cold)]) == 0
    assert cli.main(["wigner-grid", "--nbar", "10", "--out", str(hot)]) == 0
    neg_cold = json.loads((tmp_path / "w01.csv.meta.json").read_text())[
        "negativity_volume_numeric"]
    neg_hot = json.loads((tmp_path / "w10.csv.meta.json").read_text())[
        "negativity_volume_numeric"]
    assert neg_hot < neg_cold


def edge_grid():
    """(q, p, numeric, closed, row-writer rows) of a grid of edge values:
    signed zero, the smallest subnormal, a tiny normal, a value that rounds
    up to the next decade, and non-finite ones."""
    q = np.array([-1.0, 0.0, 0.5])
    p = np.array([-0.25, 0.0, 0.25, 1e-300])
    numeric = np.array([[-0.0, 5e-324, 1e-300, 0.99999999995],
                        [0.0, -5e-324, -1e-300, -0.99999999995],
                        [math.pi, np.nan, np.inf, -np.inf]])
    closed = numeric[::-1, ::-1] * -1.0
    rows = [[cli._fmt(qv), cli._fmt(pv), cli._fmt(wn), cli._fmt(wc)]
            for qv, numeric_row, closed_row in zip(q, numeric, closed)
            for pv, wn, wc in zip(p, numeric_row, closed_row)]
    return q, p, numeric, closed, rows


def test_wigner_csv_block_writer_matches_row_writer():
    q, p, numeric, closed, rows = edge_grid()
    expected = cli._rows_to_output(
        ["q", "p", "w_numeric", "w_closed_form"], rows, "csv")
    assert cli._wigner_csv(q, p, numeric, closed) == expected
    assert "-0.000000000e+00" in expected and "1.000000000e+00" in expected


def test_wigner_json_block_writer_matches_row_writer():
    q, p, numeric, closed, rows = edge_grid()
    expected = cli._rows_to_output(
        ["q", "p", "w_numeric", "w_closed_form"], rows, "json")
    assert cli._wigner_json(q, p, numeric, closed) == expected
    for text in ('"-0.000000000e+00"', '"nan"', '"inf"', '"-inf"'):
        assert text in expected


def test_wigner_grid_json_matches_csv(tmp_path):
    grid = "--grid=-3:3:9,-2:2:7"
    outs = {}
    for fmt in ("csv", "json"):
        outs[fmt] = tmp_path / f"w.{fmt}"
        assert cli.main(["wigner-grid", "--nbar", "1", grid, "--format", fmt,
                         "--out", str(outs[fmt])]) == 0
    records = json.loads(outs["json"].read_text())
    assert records == read_csv(outs["csv"])
    assert len(records) == 9 * 7


def counted_kernel(monkeypatch) -> list:
    """The grids `observables._wigner_values` is run on from now on."""
    grids = []
    kernel = observables._wigner_values

    def counted(rho, spec):
        grids.append(spec)
        return kernel(rho, spec)

    monkeypatch.setattr(observables, "_wigner_values", counted)
    return grids


@pytest.mark.parametrize("n_bar, evaluations", [("0.1", 1), ("1", 1), ("10", 1)])
def test_wigner_grid_evaluates_each_grid_once(tmp_path, monkeypatch,
                                              n_bar, evaluations):
    # the default grid widens 0, 1 and 2 times at these n_bar; the exact
    # route rules out the grids the widening rejects, so the kernel runs
    # only on the grid that is kept
    grids = counted_kernel(monkeypatch)
    out = tmp_path / "w.csv"
    assert cli.main(["wigner-grid", "--nbar", n_bar, "--out", str(out)]) == 0
    assert len(grids) == evaluations
    kept = json.loads(Path(str(out) + ".meta.json").read_text())["grid"]
    assert kept["q_max"] == grids[-1].q_max == {"0.1": 8, "1": 16, "10": 32}[n_bar]


@pytest.mark.parametrize("cutoff, evaluations", [(None, 1), ("266", 3)])
def test_wigner_grid_loose_truncation_evaluates_every_grid(
        tmp_path, monkeypatch, cutoff, evaluations):
    # at cutoff 266 (the smallest that passes the geometric tail check at
    # n_bar = 10, against 359 from auto_cutoff) 1 - trace(rho) is 1.1e-7,
    # so the kernel's sum no longer tracks the exact route's: every grid is
    # evaluated; either way the output is that of the plain kernel loop
    argv = ["wigner-grid", "--nbar", "10"] + (
        ["--cutoff", cutoff] if cutoff else [])
    grids = counted_kernel(monkeypatch)
    assert cli.main(argv + ["--out", str(tmp_path / "hint.csv")]) == 0
    assert [g.q_max for g in grids] == [8, 16, 32][-evaluations:]

    def kernel_only(amps, params, cutoff, grid=None):
        rho = thermal.thermal_state_density_expansion(amps, params, cutoff)
        return rho, observables.wigner_from_density(rho, grid)

    monkeypatch.setattr(observables, "heated_wigner", kernel_only)
    assert cli.main(argv + ["--out", str(tmp_path / "kernel.csv")]) == 0
    for suffix in (".csv", ".csv.meta.json"):
        assert ((tmp_path / f"hint{suffix}").read_bytes()
                == (tmp_path / f"kernel{suffix}").read_bytes())


def test_wigner_grid_audit_has_its_own_span(tmp_path, monkeypatch):
    # the printed-series audit is a public call, so the benchmark's tracer
    # times it in its own span, not inside the command's self time
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    recorder = tracer.SpanRecorder()
    with tracer.traced("thermoqubit", recorder):
        assert cli.main(["wigner-grid", "--nbar", "1",
                         "--out", str(tmp_path / "w.csv")]) == 0
    names = [name for name, *_ in recorder.spans]
    assert names.count("observables.wigner_closed_form") == 1


def test_traced_wigner_grid_evals_count_kernel_passes(tmp_path, monkeypatch):
    # the benchmark's tracer infers kernel passes from the grid a
    # wigner_from_density call starts on and the one it returns; the exact
    # route picks the start grid outside that call, so the inferred count
    # is the kernel's own
    grids = counted_kernel(monkeypatch)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    recorder = tracer.SpanRecorder()
    with tracer.traced("thermoqubit", recorder):
        assert cli.main(["wigner-grid", "--nbar", "10",
                         "--out", str(tmp_path / "w.csv")]) == 0
    assert len(grids) == 1
    assert tracer.exact_metrics(recorder)[
        "observables.wigner_grid_evals"] == len(grids)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_green(verify_report):
    rc, report = verify_report
    assert rc == 0
    assert report["all_passed"] is True
    assert report["counts"]["failed"] == 0


def test_verify_bare_thermal_state(tmp_path, verify_report):
    # logical |00>: Q is undefined on both routes at n_bar = 0, and neither
    # Wigner function has negativity to suppress
    out = tmp_path / "v.json"
    assert cli.main(["verify", "--amps=1,0,0,0", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    _, default = verify_report
    assert ([c["name"] for c in report["checks"]]
            == [c["name"] for c in default["checks"]])
    assert report["counts"] == default["counts"]


def test_verify_evaluates_each_wigner_grid_once(monkeypatch):
    # the Wigner checks and the closed-form audit share the n_bar = 0.1
    # default grid; no (rho, grid) pair is evaluated twice
    seen = []
    kernel = observables._wigner_values

    def counted(rho, spec):
        seen.append((rho.shape, rho.tobytes(), spec))
        return kernel(rho, spec)

    monkeypatch.setattr(observables, "_wigner_values", counted)
    report = verify.run_verification()
    assert report["counts"]["total"] == 85 and report["all_passed"]
    assert len(set(seen)) == len(seen)


def test_verify_builds_each_heated_density_once(monkeypatch):
    # one density matrix per n_bar serves the density checks, the heated
    # Wigner checks and the closed-form audits
    calls = []
    build = thermal.thermal_state_density_expansion

    def counted(amps, params, cutoff):
        calls.append(params.n_bar)
        return build(amps, params, cutoff)

    for module in (thermal, observables):
        monkeypatch.setattr(module, "thermal_state_density_expansion", counted,
                            raising=False)
    report = verify.run_verification()
    assert report["all_passed"]
    assert calls == list(verify.DEFAULT_N_BARS)


def test_verify_builds_each_doubled_vacuum_once(monkeypatch):
    # one U(beta)|0, 0_tilde> per density-check n_bar serves both the
    # superposition and the doubled-vacuum identities
    calls = []
    vacuum = thermal._thermal_vacuum_vector

    def counted(params, cutoff):
        calls.append(params.n_bar)
        return vacuum(params, cutoff)

    monkeypatch.setattr(thermal, "_thermal_vacuum_vector", counted)
    report = verify.run_verification()
    assert report["all_passed"]
    assert calls == list(verify.DEFAULT_N_BARS)


def test_verify_contains_gate_residual(verify_report):
    _, report = verify_report
    entries = [c for c in report["checks"]
               if c["name"] == "gate_thermalization_residual"]
    n_bars = {c["n_bar"] for c in entries}
    assert 0.2 in n_bars
    assert all(c["residual"] < 1e-8 for c in entries)


def test_verify_contains_triple_agreement(verify_report):
    _, report = verify_report
    names = {c["name"] for c in report["checks"]}
    assert "density_agreement_expansion_vs_operator" in names
    assert "density_agreement_expansion_vs_doubled" in names
    audits = [c for c in report["checks"]
              if c["name"] == "wigner_closed_form_audit"]
    assert {c["n_bar"] for c in audits} == {0.0, 0.1, 0.3, 1.0}


# ---------------------------------------------------------------------------
# import path
# ---------------------------------------------------------------------------

IMPORT_GUARD = """
import sys
import thermoqubit
from thermoqubit import cli
out = sys.argv[1]
for argv in (["sweep-fidelity", "--nbar-range", "0:14:5"],
             ["sweep-mandel", "--nbar-range", "0:14:5"],
             ["wigner-grid", "--nbar", "1", "--grid=-6:6:25,-6:6:25"]):
    assert cli.main(argv + ["--out", out]) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(cli.main(["verify", "--out", out]))
print(any(m.split(".")[0] == "scipy" for m in sys.modules))
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]))
"""


def test_scipy_stays_off_the_command_path(tmp_path):
    # a fresh process, since the tests themselves import scipy; no
    # command, verify included, loads any scipy module, nor numpy.ma
    # (which a bare np.unique imports, at about 11 ms)
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "0", "False", "[]"]
