"""The sweeps evaluate n_bar in blocks: the sweep's block loop against each
n_bar read as a one-point block, the block readers against the scalar
arithmetic they replaced; and every benchmark command against its
committed reference."""

import importlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoqubit import cli, observables
from thermoqubit.errors import CutoffError
from thermoqubit.thermal import (
    DEFAULT_AMPLITUDES,
    PhysicalAmplitudes,
    ThermalParams,
    _complex_div,
    _mul_conj,
    auto_cutoff,
    resolve_cutoff,
    validate_cutoff,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BLOCK = cli._SWEEP_BLOCK


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def amplitude_sets(draw):
    """Normalized amplitudes, real or complex."""
    complex_parts = draw(st.booleans())
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
    raw = np.array(parts[0::2]) + (1j * np.array(parts[1::2])
                                   if complex_parts else 0.0)
    norm = np.linalg.norm(raw)
    if norm < 1e-3:
        raw, norm = np.array([1.0, 0.0, 0.0, 0.0]), 1.0
    return PhysicalAmplitudes(*(raw / norm))


@st.composite
def sweep_configs(draw):
    """A sweep from or to n_bar = 0 whose length sits at a block boundary."""
    far = draw(st.floats(0.01, 14.0))
    steps = draw(st.sampled_from([2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]))
    start, end = (0.0, far) if draw(st.booleans()) else (far, 0.0)
    return cli.SweepConfig(amps=draw(amplitude_sets()), n_bar_start=start,
                           n_bar_end=end, n_bar_steps=steps)


def resolved_cutoff(cfg, n_bar):
    """The cutoff `sweep-mandel` resolves at n_bar."""
    return resolve_cutoff(cfg.cutoff, ThermalParams(n_bar), cfg.tail_tol)


def point_by_point(cfg, reader):
    """(n_bar, numeric, closed form, discrepancy) columns with each n_bar of
    the sweep read alone, as the one-point block [n_bar]."""
    rows = [(n_bar, *(column[0] for column in reader(np.array([n_bar]))))
            for n_bar in cfg.n_bar_values().tolist()]
    return [bits(column) for column in zip(*rows)]


@settings(max_examples=40, deadline=None, database=None)
@given(cfg=sweep_configs())
def test_fidelity_blocks_match_points_bit_for_bit(cfg):
    def reader(n_bar):
        return observables.fidelity_columns(cfg.amps, n_bar)

    columns = cli._sweep_columns(cfg, reader)
    assert [bits(c) for c in columns] == point_by_point(cfg, reader)


@settings(max_examples=40, deadline=None, database=None)
@given(cfg=sweep_configs())
def test_mandel_blocks_match_points_bit_for_bit(cfg):
    # NaN rows included, where Q is undefined
    def reader(n_bar):
        return observables.mandel_columns(
            cfg.amps, n_bar, [resolved_cutoff(cfg, v) for v in n_bar.tolist()])

    columns = cli._sweep_columns(cfg, reader)
    assert [bits(c) for c in columns] == point_by_point(cfg, reader)


@settings(max_examples=60, deadline=None, database=None)
@given(amps=amplitude_sets(),
       n_bar=st.lists(st.floats(0.0, 14.0), min_size=1, max_size=8))
def test_block_point_does_not_depend_on_its_block(amps, n_bar):
    # each point of a block reads as the same point alone
    cutoffs = [auto_cutoff(v) for v in n_bar]
    fid = observables.fidelity_columns(amps, n_bar)
    mandel = observables.mandel_columns(amps, n_bar, cutoffs)
    for i, (v, cutoff) in enumerate(zip(n_bar, cutoffs)):
        alone = observables.fidelity_columns(amps, [v])
        assert [bits(c[i]) for c in fid] == [bits(c[0]) for c in alone]
        alone = observables.mandel_columns(amps, [v], [cutoff])
        assert [bits(c[i]) for c in mandel] == [bits(c[0]) for c in alone]


@settings(max_examples=60, deadline=None, database=None)
@given(a=st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                             allow_infinity=False),
       b=st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                            allow_infinity=False),
       d=st.floats(0.5, 20.0))
def test_scalar_rounding_helpers(a, b, d):
    # the block arithmetic rounds as the scalar arithmetic it replaces
    assert _complex_div(a, np.array([d]))[0] == a / d
    assert (_mul_conj(np.array([a]), np.array([b]))[0]
            == np.complex128(a) * np.conj(np.complex128(b)))


# The scalar point-by-point arithmetic the block readers replaced, kept as
# the reference their values must equal.

def _reference_rho(amps, params, size):
    u = params.u
    x, y, z, w = amps.as_tuple()
    coeffs = {0: x, 1: y / u, 2: z / (math.sqrt(2.0) * u**2),
              4: w / (math.sqrt(24.0) * u**4)}
    n_all = np.arange(size, dtype=float)
    geom = params.k * params.k1 ** n_all
    roots = {}
    for p in coeffs:
        prod = np.ones(size)
        for j in range(1, p + 1):
            prod = prod * (n_all + j)
        roots[p] = np.sqrt(prod)
    rho = np.zeros((size, size), dtype=complex)
    for p in coeffs:
        for q in coeffs:
            length = size - max(p, q)
            if length > 0:
                n = np.arange(length)
                rho[n + p, n + q] += ((coeffs[p] * np.conj(coeffs[q]))
                                      * geom[:length] * roots[p][:length]
                                      * roots[q][:length])
    return rho


def _reference_fidelity_series(amps, params):
    x, y, z, w = amps.as_tuple()
    u, k, k1 = params.u, params.k, params.k1
    ax2, ay2, az2, aw2 = (abs(a) ** 2 for a in (x, y, z, w))
    s2, s6, s24 = math.sqrt(2.0), math.sqrt(6.0), math.sqrt(24.0)
    terms = [
        (ax2 ** 2, 0), (ax2 * ay2 / u, 0), (ax2 * az2 / (s2 * u**2), 0),
        (ax2 * aw2 / (s24 * u**4), 0), (ax2 * ay2 / u, 0),
        (ax2 ** 2 * ay2 / u**2, 1), (ay2 ** 2 / u**2, 0),
        (s2 * ay2 * x * z / u, 1), (ay2 * az2 / u**3, 0),
        (s24 * ay2 * aw2 / (s24 * u**5), 0), (s2 * ax2 * az2 / u**2, 0),
        (s2 * np.conj(x) * np.conj(z) * y**2 / u, 1), (ay2 * az2 / u**3, 0),
        (ax2 * az2, 2), (2 * ay2 * az2 / u**2, 1), (az2 ** 2 / u**4, 2),
        (s6 * x * w * az2 / u**2, 2), (s6 * az2 * aw2 / (s24 * u**6), 0),
        (s24 * x * np.conj(w) / (s24 * u**4), 0),
        (s24 * az2 * aw2 / (s24 * u**5), 0),
        (s6 * x**2 * z**2 * np.conj(w) / u**4, 2),
        (2 * s6 * az2 * aw2 / (s24 * u**4), 0), (ax2 * aw2, 4),
        (4 * ay2 * aw2 / u**2, 3), (az2 * aw2 / (2 * u**4), 2),
        (24 * aw2 ** 2 / (24 * u**8), 0),
    ]
    total = complex(0.0)
    for coef, npow in terms:
        total += coef * k * (k1 ** npow if npow else 1.0)
    return math.sqrt(total.real) if total.real >= 0 else math.nan


def _reference_mandel(amps, params, cutoff):
    # the diagonal as the point-by-point reader held it: a complex array
    # read through its real part, a strided view BLAS sums in its own order
    diag = np.diagonal(_reference_rho(amps, params, cutoff + 1)).copy().real
    n = np.arange(cutoff + 1, dtype=float)
    mean_n, mean_n2 = float(diag @ n), float(diag @ (n * n))
    numeric = (mean_n2 - mean_n**2 - mean_n) / mean_n
    c = observables._mandel_coefficients(amps)
    u2, v2 = params.u ** 2, math.sqrt(params.n_bar) ** 2
    num = ((c["c6"] - c["c4"]) * u2 * v2 + (c["c7"] - c["c3"]) * v2**2
           + (c["c8"] - c["c5"]) * u2**2 - c["c1"] * v2 - c["c2"] * u2)
    return numeric, num / (c["c1"] * v2 + c["c2"] * u2)


@settings(max_examples=40, deadline=None, database=None)
@given(amps=amplitude_sets(),
       n_bar=st.lists(st.floats(0.01, 14.0), min_size=1, max_size=5))
def test_block_readers_equal_scalar_reference(amps, n_bar):
    cutoffs = [auto_cutoff(v) for v in n_bar]
    fid = observables.fidelity_columns(amps, n_bar)
    mandel = observables.mandel_columns(amps, n_bar, cutoffs)
    psi = amps.as_vector(4)
    for i, (v, cutoff) in enumerate(zip(n_bar, cutoffs)):
        params = ThermalParams(v)
        rho = _reference_rho(amps, params, 5)
        val = float(np.real(psi.conj() @ rho @ psi))
        assert fid[0][i] == math.sqrt(max(val, 0.0))
        assert bits(fid[1][i]) == bits(_reference_fidelity_series(amps, params))
        numeric, closed = _reference_mandel(amps, params, cutoff)
        assert (mandel[0][i], mandel[1][i]) == (numeric, closed)


def test_vacuum_at_zero_temperature_gives_undefined_mandel_row():
    vacuum = PhysicalAmplitudes(1, 0, 0, 0)
    numeric, closed, discrepancy = observables.mandel_columns(
        vacuum, [0.0, 0.5], [auto_cutoff(0.0), auto_cutoff(0.5)])
    assert all(math.isnan(c[0]) for c in (numeric, closed, discrepancy))
    assert numeric[1] == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("argv, message", [
    (["sweep-mandel", "--nbar-range", "20:0:5"], "n_bar = 20.0"),
    (["sweep-mandel", "--nbar-range", "5:0:3", "--cutoff", "100"],
     "n_bar = 5.0"),
    # sweep-fidelity takes no cutoff; its case keeps the id it had when it
    # did and checks its one limit, the overflow of u^8 = (1 + n_bar)^4
    (["sweep-fidelity", "--nbar-range", "1e78:0:3"], "n_bar = 1e+78"),
], ids=["mandel-past-cap", "mandel-explicit-cutoff",
        "fidelity-explicit-cutoff"])
def test_descending_sweep_names_first_failing_point(tmp_path, capsys, argv,
                                                    message):
    rc = cli.main(argv + ["--out", str(tmp_path / "out.csv")])
    assert rc == cli.EXIT_NUMERICAL_LIMIT == 3
    assert list(tmp_path.iterdir()) == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and message in lines[0]


BAD_N_BAR = [-0.5, -2.0, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", BAD_N_BAR)
@pytest.mark.parametrize("at", [0, 2], ids=["alone", "inside-block"])
def test_block_readers_reject_bad_n_bar(bad, at):
    # alone, or the third point of a block whose other points are good
    n_bar = [bad] if at == 0 else [0.0, 1.0, bad, 2.0]
    message = "n_bar must be finite and nonnegative"
    with pytest.raises(ValueError, match=message):
        observables.fidelity_columns(DEFAULT_AMPLITUDES, n_bar)
    with pytest.raises(ValueError, match=message):
        observables.mandel_columns(DEFAULT_AMPLITUDES, n_bar, [8] * len(n_bar))


@pytest.mark.parametrize("n_bar, cutoffs, error, message", [
    # below the floor of 8: the cutoff would drop |4> or the ladder shift
    ([1.0], [3], CutoffError, "cutoff 3 below the minimum 8"),
    ([1.0], [-5], CutoffError, "cutoff -5 below the minimum 8"),
    # the geometric tail bound `validate_cutoff` checks
    ([14.0], [20], CutoffError, "cutoff 20 leaves geometric tail mass"),
    ([1.0], [2.5], ValueError, "cutoff must be an integer, got 2.5"),
    ([1.0], [np.float64(60.0)], ValueError, "cutoff must be an integer"),
    ([0.5, 1.0], [60], ValueError, "1 cutoffs for 2 n_bar values"),
    ([1.0], [60, 60], ValueError, "2 cutoffs for 1 n_bar values"),
    # the first bad point is named, whatever follows it
    ([0.1, 14.0, 1.0], [16, 20, 2.5], CutoffError, "at n_bar = 14.0"),
], ids=["below-floor", "negative", "tail", "fraction", "float-type",
        "too-few", "too-many", "first-bad-point"])
def test_mandel_columns_rejects_bad_cutoffs(n_bar, cutoffs, error, message):
    with pytest.raises(error, match=message):
        observables.mandel_columns(DEFAULT_AMPLITUDES, n_bar, cutoffs)


def test_mandel_columns_cutoff_error_names_validate_cutoff():
    # the reader raises what `validate_cutoff` raises for the same point
    with pytest.raises(CutoffError) as direct:
        validate_cutoff(20, ThermalParams(14.0))
    with pytest.raises(CutoffError) as columns:
        observables.mandel_columns(DEFAULT_AMPLITUDES, [14.0], [20])
    assert str(columns.value) == str(direct.value)
    # numpy integers are integers
    cutoff = auto_cutoff(1.0)
    numpy_int = observables.mandel_columns(DEFAULT_AMPLITUDES, [1.0],
                                           [np.int64(cutoff)])
    python_int = observables.mandel_columns(DEFAULT_AMPLITUDES, [1.0],
                                            [cutoff])
    assert [bits(c) for c in numpy_int] == [bits(c) for c in python_int]


@pytest.mark.parametrize("end", ["n_bar_start", "n_bar_end"])
@pytest.mark.parametrize("bad", BAD_N_BAR)
def test_sweep_config_rejects_bad_range_ends(end, bad):
    with pytest.raises(ValueError, match="n_bar must be finite and nonneg"):
        cli.SweepConfig(**{end: bad})


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's run and check modules (run imports check by name)."""
    mp = pytest.MonkeyPatch()
    mp.syspath_prepend(str(PERFBENCH))
    try:
        yield importlib.import_module("run"), importlib.import_module("check")
    finally:
        mp.undo()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", ["sweep", "wigner", "verify"])
def test_outputs_match_benchmark_reference(tmp_path, perfbench, workload, seed):
    # every benchmark command, in process, against its committed reference:
    # a drift in the sweeps, the Wigner kernel, the printed series or the
    # verify checks fails here, not only in the benchmark harness
    run, check = perfbench
    references = check.load_reference(workload, seed)
    commands = run.commands(workload, seed)
    assert references is not None and len(references) == len(commands) > 0
    for i, (argv, reference) in enumerate(zip(commands, references)):
        out = tmp_path / run.out_name(i, argv)
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert check.problems(argv, out, reference) == []
