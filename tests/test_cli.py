import argparse
import csv
import importlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    for row in read_csv(fidelity_csv)[::13]:
        recomputed = observables.fidelity_columns(
            thermal.DEFAULT_AMPLITUDES, [float(row["n_bar"])])[0][0]
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
    (["sweep-mandel", "--nbar-range", "0:5:3", "--tail-tol", "1e-3"],
     TAIL_TOL_ERROR),
    (["sweep-mandel", "--tail-tol", "nan"], TAIL_TOL_ERROR),
    (["sweep-mandel", "--tail-tol", "0"], TAIL_TOL_ERROR),
    (["wigner-grid", "--tail-tol=-1e-12"], TAIL_TOL_ERROR),
    (["sweep-mandel", "--cutoff", "-3"], CUTOFF_ERROR),
    (["sweep-mandel", "--cutoff", "7"], CUTOFF_ERROR),
    (["wigner-grid", "--cutoff", "513"], CUTOFF_ERROR),
    (["sweep-mandel", "--cutoff", "12.5"], CUTOFF_ERROR),
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
    (["sweep-mandel", "--tail-tol", "x"], TAIL_TOL_ERROR + ", got 'x'"),
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
    # the fidelity takes no cutoff
    (["sweep-fidelity", "--cutoff", "100"], UNREAD_ERROR + "--cutoff 100"),
    (["sweep-fidelity", "--tail-tol", "1e-12"],
     UNREAD_ERROR + "--tail-tol 1e-12"),
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
               ("verify", "grid=-1:1:3,-1:1:3"), ("verify", "format=csv"),
               ("sweep-fidelity", "cutoff=100"),
               ("sweep-fidelity", "tail_tol=1e-12")]


@pytest.mark.parametrize("command, line, message", [
    ("sweep-mandel", "tail_tol=1e-3", TAIL_TOL_ERROR),
    ("sweep-mandel", "cutoff=4", CUTOFF_ERROR),
    ("sweep-fidelity", "nbar_range=0:1:1", STEPS_ERROR),
    ("sweep-fidelity", "amps=nan,0,0,0", AMPS_ERROR),
    ("sweep-fidelity", "amps=1,2,3", AMPS_LAYOUT_ERROR + "'1,2,3'"),
    ("sweep-fidelity", "amps=1,x,0,0", AMPS_LAYOUT_ERROR + "'1,x,0,0'"),
    ("wigner-grid", "grid=1:2:3", GRID_LAYOUT_ERROR + "'1:2:3'"),
    ("wigner-grid", "nbar=x", NBAR_ERROR + ", got 'x'"),
    ("sweep-fidelity", "nbar_range=1:2", RANGE_LAYOUT_ERROR + "'1:2'"),
    ("sweep-fidelity", "nbar_range=0:x:5", NBAR_ERROR + ", got 'x'"),
    ("sweep-mandel", "tail_tol=x", TAIL_TOL_ERROR + ", got 'x'"),
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
    (["sweep-mandel", "--nbar-range", "0:20:5"], {}, "n_bar = 15.0"),
    (["wigner-grid", "--nbar", "20"], {}, "n_bar = 20.0"),
    (["sweep-mandel", "--nbar-range", "0:5:3", "--cutoff", "100"], {},
     "n_bar = 5.0"),
    # cutoff 150 passes at the default tail tolerance (see below)
    (["sweep-mandel", "--nbar-range", "0:5:3", "--cutoff", "150",
      "--tail-tol", "1e-14"], {}, "n_bar = 5.0"),
    (["wigner-grid", "--nbar", "0.1"], {"GRID_TOL_DEFAULT": 0.0},
     "n_bar = 0.1"),
    # k1 = n_bar / (1 + n_bar) rounds to 1, and (1 + n_bar)^4 overflows
    (["wigner-grid", "--nbar", "1e16"], {}, "n_bar = 1e+16"),
    (["wigner-grid", "--nbar", "1e16", "--cutoff", "100"], {},
     "n_bar = 1e+16"),
    (["wigner-grid", "--nbar", "1e100"], {}, "n_bar = 1e+100"),
    (["sweep-mandel", "--nbar-range", "0:1e300:3"], {}, "n_bar = 5e+299"),
    # the fidelity has no cutoff cap, but its series' u^8 overflows
    (["sweep-fidelity", "--nbar-range", "0:1e300:3"], {}, "n_bar = 5e+299"),
    # far out, the powers of q overflow: W is not finite
    (["wigner-grid", "--nbar", "1", "--grid=-1e80:1e80:3,-1:1:3"], {},
     "grid -1e+80:1e+80:3,-1.0:1.0:3 at n_bar = 1.0"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, patch, message", LIMIT_CASES,
    ids=["cutoff-mandel", "cutoff-wigner",
         "explicit-cutoff", "explicit-cutoff-tail-tol", "grid-widening",
         "k1-one", "k1-one-cutoff", "k1-one-overflow", "k1-one-sweep",
         "fidelity-overflow", "grid-overflow"])
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
    out = tmp_path / "mandel.csv"
    assert cli.main(["sweep-mandel", "--nbar-range", "0:5:3",
                     "--cutoff", "150", "--out", str(out)]) == 0
    assert len(read_csv(out)) == 3


@pytest.mark.parametrize("n_bar_range, row", [
    ("0:20:5", "1.500000000e+01,6.954675160e-02,6.372284689e-02,"
               "5.823904710e-03"),
    ("20:0:5", "1.500000000e+01,6.954675160e-02,6.372284689e-02,"
               "5.823904710e-03"),
    # k1 rounds to 1: to first order in k = 1/(1 + n_bar) the 5 x 5 block
    # is k |x|^2 times the identity, so F ~ sqrt(k) |x| = 2e-9 at x = 0.2
    ("0:1e16:3", "1.000000000e+16,2.000000009e-09,1.907878413e-09,"
                 "9.212159671e-11"),
], ids=["ascending", "descending", "k1-rounds-to-one"])
def test_sweep_fidelity_past_the_cutoff_cap(tmp_path, n_bar_range, row):
    # the fidelity reads the cutoff-free 5 x 5 block of rho, so the cap
    # that stops the other commands from n_bar ~ 14.5 does not stop it
    out = tmp_path / "fid.csv"
    assert cli.main(["sweep-fidelity", "--nbar-range", n_bar_range,
                     "--out", str(out)]) == 0
    assert row in out.read_text().splitlines()


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
    """(q, p, numeric, closed) of a grid of edge values: signed zero, the
    smallest subnormal, a tiny normal, a value that rounds up to the next
    decade, and non-finite ones."""
    q = np.array([-1.0, 0.0, 0.5])
    p = np.array([-0.25, 0.0, 0.25, 1e-300])
    numeric = np.array([[-0.0, 5e-324, 1e-300, 0.99999999995],
                        [0.0, -5e-324, -1e-300, -0.99999999995],
                        [math.pi, np.nan, np.inf, -np.inf]])
    closed = numeric[::-1, ::-1] * -1.0
    return q, p, numeric, closed


@lru_cache(maxsize=None)
def heated_grid(seed: int):
    """(q, p, numeric, closed) of wigner-grid at n_bar = 1 on [-16, 16]^2
    (where the default amplitudes' grid widens to), which has many 3-digit
    exponents: the default amplitudes (seed 0) or a random real set."""
    amps = thermal.DEFAULT_AMPLITUDES
    if seed:
        raw = np.random.default_rng(seed).normal(size=4)
        amps = PhysicalAmplitudes(*(raw / np.linalg.norm(raw)))
    params = thermal.ThermalParams(1.0)
    cutoff = thermal.auto_cutoff(1.0)
    grid = GridSpec().doubled()
    _, numeric = observables.heated_wigner(amps, params, cutoff, grid)
    closed = observables.wigner_closed_form(amps, params, numeric, cutoff)[0]
    return (closed.spec.q_axis(), closed.spec.p_axis(), numeric.values,
            closed.values)


def row_writer(q, p, numeric, closed, fmt) -> bytes:
    """The wigner-grid output by `_rows_to_output` on `_fmt` cells."""
    rows = [[cli._fmt(qv), cli._fmt(pv), cli._fmt(wn), cli._fmt(wc)]
            for qv, numeric_row, closed_row in zip(q, numeric, closed)
            for pv, wn, wc in zip(p, numeric_row, closed_row)]
    return cli._rows_to_output(cli._WIGNER_HEADER, rows, fmt).encode()


def test_wigner_csv_block_writer_matches_row_writer():
    for grid in (edge_grid(), heated_grid(0), heated_grid(5)):
        expected = row_writer(*grid, "csv")
        assert cli._wigner_csv(*grid) == expected
    # the real grids have 3-digit exponents
    assert re.search(rb"e-\d{3}\n", expected)
    expected = row_writer(*edge_grid(), "csv")
    assert b"-0.000000000e+00" in expected and b"1.000000000e+00" in expected


def test_wigner_json_block_writer_matches_row_writer():
    for grid in (edge_grid(), heated_grid(0), heated_grid(5)):
        expected = row_writer(*grid, "json")
        assert cli._wigner_json(*grid) == expected
    expected = row_writer(*edge_grid(), "json")
    for text in (b'"-0.000000000e+00"', b'"nan"', b'"inf"', b'"-inf"'):
        assert text in expected


def e9_texts(values) -> list[str]:
    fields = cli._e9_fields(np.asarray(values, dtype=float))
    return [row.tobytes().translate(None, b"\0").decode() for row in fields]


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.floats(), min_size=1, max_size=16))
def test_e9_fields_match_percent_format(values):
    # NaN, +-inf, +-0 and subnormals included
    assert e9_texts(values) == ["%.9e" % v for v in values]


def test_e9_fields_match_percent_format_on_random_bits():
    values = np.frombuffer(np.random.default_rng(17).bytes(8 * 10**5),
                           np.float64)
    assert e9_texts(values) == ["%.9e" % v for v in values.tolist()]


def decimal_ties() -> list[float]:
    """Doubles that are exact %.9e rounding ties: N / 2^s for odd N, with
    11 significant digits, the last a 5, at s = 0, 3 and 7."""
    rng = np.random.default_rng(4)
    ties = [10000000005.0, 99999999995.0, 12345678905.0, 12345678915.0]
    for s, whole_digits in ((0, 11), (3, 8), (7, 4)):
        wholes = rng.integers(10 ** (whole_digits - 1), 10**whole_digits, 20)
        odds = rng.integers(0, 2 ** max(s - 1, 0), 20) * 2 + 1
        ties += [w + o / 2**s if s else float(w // 10 * 10 + 5)
                 for w, o in zip(wholes.tolist(), odds.tolist())]
    ties += [-t for t in ties]
    for t in ties:
        digits = Decimal(t).as_tuple().digits
        assert len(digits) == 11 and digits[-1] == 5
    return ties


def near_ties() -> list[float]:
    """The doubles nearest to 11-digit decimals that end in 5, across the
    exponent range: a few millionths off the tie once scaled, on either
    side, so the fast path's own rounding error could pick the wrong one."""
    rng = np.random.default_rng(6)
    return [float(f"{whole}5e{e}")
            for e in range(-310, 300, 7)
            for whole in rng.integers(10**9, 10**10, 4).tolist()]


def test_e9_fields_exact_on_ties_carries_and_extremes(monkeypatch):
    fallbacks = []
    fmt = cli._fmt
    monkeypatch.setattr(cli, "_fmt", lambda v: fallbacks.append(v) or fmt(v))
    ties = decimal_ties() + near_ties()
    carries = [9.9999999995, 9.99999999951, 0.99999999995, 9.999999999499,
               9.9999999999e-150, 9.9999999999e150]
    extremes = [1e100, -1e-100, 1.234567891e-150, 6.02214076e203, 1e-299,
                9.99e-300, 1e308, 5e-324, -5e-324, 2.2250738585072014e-308,
                sys.float_info.max, -sys.float_info.max,
                0.0, -0.0, math.nan, math.inf, -math.inf]
    values = ties + carries + extremes
    assert e9_texts(values) == ["%.9e" % v for v in values]
    # the fallback ran: on every tie, and on the carries and off-table values
    assert set(ties) <= set(fallbacks)
    assert {9.99999999951, 9.9999999999e150, 9.99e-300, 5e-324,
            math.inf} <= set(fallbacks)


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


def test_wigner_grid_to_stdout_is_csv_then_sidecar(tmp_path):
    # a fresh process, so stdout is the real one: the CSV goes to its
    # binary buffer and the sidecar after it through the text layer
    argv = ["wigner-grid", "--nbar", "1", "--grid=-3:3:9,-2:2:7"]
    out = tmp_path / "w.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from thermoqubit.cli import main; sys.exit(main())",
         *argv, "--out", "-"],
        cwd=tmp_path, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (out.read_bytes()
                           + Path(str(out) + ".meta.json").read_bytes())


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


def test_traced_verify_exact_metrics(tmp_path, monkeypatch):
    # the benchmark's verify workload reads these counts from the tracer's
    # wrappers, which observe the arguments and results of package calls
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    recorder = tracer.SpanRecorder()
    with tracer.traced("thermoqubit", recorder):
        assert cli.main(["verify", "--out", str(tmp_path / "v.json")]) == 0
    expect = {
        "verify.checks_total": 85, "verify.checks_failed": 0,
        "thermal.auto_cutoff.calls": 9, "fock.reduce_pure_state.calls": 10,
        "observables.wigner_from_density.calls": 8,
        "observables.wigner_grid_evals": 8,
        "observables.wigner_points_evaluated": 451_448,
        "observables.wigner_useful_ratio": 1.0}
    metrics = tracer.exact_metrics(recorder)
    assert {name: metrics[name] for name in expect} == expect


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
    # nor is a grid's radial factorization computed twice: the n_bar = 0,
    # 0.1 and 0.3 states share the default grid's, whichever GridSpec
    # instance they hold
    radial = []
    factorize = observables._radial_grid
    monkeypatch.setattr(observables, "_radial_grid",
                        lambda q, p: radial.append(q.size) or factorize(q, p))
    observables._radial_of.cache_clear()
    report = verify.run_verification()
    assert report["counts"]["total"] == 85 and report["all_passed"]
    assert len(set(seen)) == len(seen)
    assert radial == [257, 257, 257, 201]  # [-8, 8]^2 to [-32, 32]^2, small


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


@pytest.mark.parametrize("amps", [thermal.DEFAULT_AMPLITUDES,
                                  PhysicalAmplitudes(1, 0, 0, 0)],
                         ids=["default", "vacuum"])
def test_verify_resolves_each_cutoff_once(monkeypatch, amps):
    # one cutoff per DEFAULT_N_BARS point serves its density checks, Wigner
    # checks and closed-form audits (the vacuum's Q is undefined at
    # n_bar = 0); mandel_thermal_identity resolves its 4 points itself
    calls = []
    select = thermal.auto_cutoff

    def counted(n_bar, *args):
        calls.append(n_bar)
        return select(n_bar, *args)

    monkeypatch.setattr(thermal, "auto_cutoff", counted)
    assert verify.run_verification(amps)["all_passed"]
    assert calls == [*verify.DEFAULT_N_BARS, 0.1, 0.5, 1.0, 5.0]


def test_verify_density_checks_take_complex_amplitudes():
    # verify runs real amplitudes only, whose rho goes to the real
    # eigensolver; a complex set takes the complex one
    raw = np.array([0.3 + 0.4j, -0.2j, 0.5 - 0.1j, 0.6 + 0.2j])
    amps = thermal.PhysicalAmplitudes(*(raw / np.linalg.norm(raw)))
    params = thermal.ThermalParams(1.0)
    cutoff = thermal.auto_cutoff(1.0)
    rho = thermal.thermal_state_density_expansion(amps, params, cutoff)
    assert rho.imag.any()
    checks = {c.name: c for c in verify._density_checks(amps, params, cutoff,
                                                          rho)}
    assert checks["density_positive"].passed
    assert all(c.passed for c in checks.values())


def test_verify_density_checks_memory_at_n_bar_10():
    # the n_bar = 10 density checks (cutoff 359): the purified states are
    # held as their sectors and each d x d matrix is dropped after its last
    # read, so no more than 3.5 matrices of (cutoff + 1)^2 complex entries
    # are alive (the operator route's f, f^dagger and rho set the peak)
    amps = thermal.DEFAULT_AMPLITUDES
    params = thermal.ThermalParams(10.0)
    cutoff = thermal.auto_cutoff(10.0)
    assert cutoff == 359
    rho = thermal.thermal_state_density_expansion(amps, params, cutoff)
    thermal._sector_eigensystem.cache_clear()
    tracemalloc.start()
    try:
        checks = list(verify._density_checks(amps, params, cutoff, rho))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(c.passed for c in checks)
    assert peak <= 3.5 * 16 * (cutoff + 1) ** 2


def test_gate_checks_diagonalize_each_sector_once(monkeypatch):
    # the sector eigensystems are temperature-free: the three n_bar of the
    # gate checks share the four sectors (0, 1, 2, 4) of one cutoff
    eigh = np.linalg.eigh
    calls = []

    def counted(a):
        calls.append(len(a))
        return eigh(a)

    thermal._sector_eigensystem.cache_clear()
    monkeypatch.setattr(np.linalg, "eigh", counted)
    checks = list(verify._gate_thermalization_checks(thermal.DEFAULT_AMPLITUDES))
    assert len(checks) == len(verify.GATE_RESIDUAL_N_BARS) == 3
    assert all(c.passed for c in checks)
    size = verify.GATE_RESIDUAL_CUTOFF + 1
    assert calls == [size, size - 1, size - 2, size - 4]


def test_second_verify_run_diagonalizes_nothing_again():
    # one run reads 9 sector eigensystems, the sector 0 of each of the five
    # density cutoffs and the sectors 0, 1, 2 and 4 of the gate cutoff; the
    # cache holds all of them, so a second run in one process misses none
    thermal._sector_eigensystem.cache_clear()
    for _ in range(2):
        assert verify.run_verification()["all_passed"]
    assert thermal._sector_eigensystem.cache_info().misses == 9


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
# documentation
# ---------------------------------------------------------------------------

def documented_flags(lines) -> dict:
    """{subcommand: flags} from lines that name subcommands, then list
    their flags; a line of flags alone continues the subcommands above."""
    flags, names = {}, []
    for line in lines:
        tokens = line.replace("`", " ").replace("|", " ").replace(",", " ")
        tokens = tokens.split()
        names = [t for t in tokens if not t.startswith("--")] or names
        for name in names:
            flags.setdefault(name, []).extend(
                t for t in tokens if t.startswith("--"))
    return flags


def test_flag_docs_match_the_subcommand_table():
    # the README flag table and the cli docstring list, for each
    # subcommand, exactly the options it reads, plus --config (which the
    # docstring gives once, for all)
    expected = {name: ["--" + key.replace("_", "-") for key in keys]
                + ["--config"] for name, (_, keys) in cli._SUBCOMMANDS.items()}
    readme = (Path(__file__).resolve().parent.parent / "README.md"
              ).read_text(encoding="utf-8").splitlines()
    head = readme.index("| subcommand | flags (and config keys) |")
    table = []
    for line in readme[head + 2:]:  # past the header and its rule
        if not line.startswith("|"):
            break
        table.append(line)
    assert documented_flags(table) == expected

    doc = cli.__doc__.splitlines()
    start = next(i for i, line in enumerate(doc)
                 if line.startswith("Subcommands and the flags"))
    end = next(i for i, line in enumerate(doc) if i > start
               and not line.startswith(" "))
    assert doc[start].endswith(", all with --config:")
    assert {name: flags + ["--config"] for name, flags in
            documented_flags(doc[start + 1:end]).items()} == expected


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
