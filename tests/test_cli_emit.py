"""The CLI front end: one parser per process, the sweep emitter against the
generic JSON/CSV route it replaced, the fixed-point column format against
repr(round(v, d)), and clean exits for an unwritable --out path and a
malformed TELEPORTRIX_SEED.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teleportrix import cli, complexfmt, teleport

SRC = Path(__file__).resolve().parent.parent / "src"

CLASSIFY = ["classify", "--n", "0.5", "--l", "0.5", "--p", "3"]
SAMPLED = ["teleport", "--n", "0.5", "--l", "0.5", "--p", "2", "--random-input", "3",
           "--mode", "sampled", "--shots", "500"]
GOOD = [
    CLASSIFY,
    CLASSIFY + ["--output", "csv"],
    SAMPLED + ["--seed", "7"],
    ["swap", "--m", "0.5", "--n", "1.6", "--l", "0.625", "--p", "2",
     "--l-prime", "0.625", "--p-prime", "0.5", "--output", "csv"],
    ["sweep", "--n-grid=-0.5:0.5:0.25", "--precision", "17"],
]
REJECTED = [
    [],
    ["nope"],
    ["classify", "--n", "1"],
    CLASSIFY + ["--bogus"],
    CLASSIFY + ["--output", "xml"],
    CLASSIFY + ["--seed", "x"],
    ["teleport", "--n", "1", "--l", "1", "--p", "1", "--mode", "bogus"],
    ["sweep", "--n-grid", "0:1:0.1", "--regime", "deterministic"],
]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _run_cli(argv, **env_extra):
    env = dict(os.environ, PYTHONPATH=str(SRC), **env_extra)
    if "TELEPORTRIX_SEED" not in env_extra:
        env.pop("TELEPORTRIX_SEED", None)
    return subprocess.run([sys.executable, "-m", "teleportrix.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


# --- one parser per process ------------------------------------------------

def test_repeated_main_calls_build_the_parser_once(monkeypatch):
    monkeypatch.delenv("TELEPORTRIX_SEED", raising=False)
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
    monkeypatch.setattr(cli, "_PARSER", None)
    for argv in GOOD + REJECTED + GOOD:
        _run(argv)
    assert len(calls) == 1


def test_build_parser_returns_a_fresh_parser():
    assert cli.build_parser() is not cli.build_parser()


@pytest.mark.parametrize("bad", REJECTED, ids=range(len(REJECTED)))
def test_rejected_argv_does_not_change_later_output(monkeypatch, bad):
    monkeypatch.delenv("TELEPORTRIX_SEED", raising=False)
    monkeypatch.setattr(cli, "_PARSER", None)
    alone = [_run(argv) for argv in GOOD]
    assert all(rc == 0 for rc, _, _ in alone)
    monkeypatch.setattr(cli, "_PARSER", None)
    rc, out, err = _run(bad)
    assert (rc, out) == (1, "")
    assert "error:" in err
    assert [_run(argv) for argv in GOOD] == alone


def test_failed_request_does_not_change_later_output(monkeypatch):
    monkeypatch.delenv("TELEPORTRIX_SEED", raising=False)
    monkeypatch.setattr(cli, "_PARSER", None)
    alone = [_run(argv) for argv in GOOD]
    monkeypatch.setattr(cli, "_PARSER", None)
    assert _run(["classify", "--n", "nan", "--l", "1", "--p", "1"])[0] == 2
    assert [_run(argv) for argv in GOOD] == alone


# --- the sweep emitter against the generic route ---------------------------

_COLUMNS = ("n", "success_probability", "repetitions", "inverse_success")


def _old_rounded(value, digits):
    if isinstance(value, dict):
        return {k: _old_rounded(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_old_rounded(v, digits) for v in value]
    if isinstance(value, float):
        return "Infinite" if math.isinf(value) else round(value, digits)
    return value


def _old_fmt(value, digits):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "Infinite" if math.isinf(value) else str(round(value, digits))
    return str(value)


def _old_sweep_text(grid_text, regime, output, digits):
    """The sweep report as the generic route wrote it: expected_repetitions
    per point, then the _rounded walk and json.dumps(indent=2), or _fmt
    cells for CSV. The grid is start + i * step per point, as Python floats."""
    start, _, step = map(float, grid_text.split(":"))
    grid = [start + i * step for i in range(len(cli._parse_grid(grid_text)))]
    if regime == "probabilistic2":
        stack = teleport.two_faithful_stack(grid, 0)
        designated = teleport.two_faithful_labels(0)
    else:
        stack = teleport.one_faithful_stack(grid, 1)
        designated = (teleport.one_faithful_labels(1),)
    success = stack.success(designated).tolist()
    rows = list(zip(
        grid,
        success,
        [teleport.expected_repetitions(n) for n in grid],
        [1.0 / s if s > 0.0 else math.inf for s in success],
    ))
    if output == "csv":
        lines = [",".join(_COLUMNS)]
        lines.extend(",".join([_old_fmt(v, digits) for v in row]) for row in rows)
        return "\n".join(lines) + "\n"
    report = {
        "command": "sweep",
        "params": {"n_grid": grid_text, "regime": regime},
        "seed": None,
        "rows": [dict(zip(_COLUMNS, [_old_rounded(v, digits) for v in row])) for row in rows],
    }
    return json.dumps(report, indent=2) + "\n"


@st.composite
def _grids(draw):
    step = draw(st.sampled_from([0.25, 0.1, 1e-3]) | st.floats(1e-4, 0.5))
    count = draw(st.integers(1, 40))
    start = draw(st.one_of(
        st.just(0.0),
        # a negative start that lands on 0 exactly, so 1/success is inf there
        st.integers(1, count).map(lambda k: -(k * step)),
        st.floats(-3.0, 3.0),
        st.floats(-9.0, 9.0).map(lambda e: 10.0 ** e),
    ))
    return f"{start!r}:{start + (count - 1) * step!r}:{step!r}"


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(
    grid=_grids(),
    regime=st.sampled_from(["probabilistic2", "probabilistic1"]),
    output=st.sampled_from(["json", "csv"]),
    digits=st.integers(6, 17),
)
def test_sweep_text_equals_generic_route(grid, regime, output, digits):
    argv = ["sweep", f"--n-grid={grid}", "--regime", regime, "--output", output,
            "--precision", str(digits)]
    assert _run(argv) == (0, _old_sweep_text(grid, regime, output, digits), "")


def test_sweep_with_infinite_cells_equals_generic_route():
    grid = "-1:1:0.5"
    for output in ("json", "csv"):
        text = _run(["sweep", f"--n-grid={grid}", "--output", output])[1]
        assert "Infinite" in text
        assert text == _old_sweep_text(grid, "probabilistic2", output, 12)


@pytest.mark.parametrize("n,l,p", [("0.5", "0.5", "0.5"), ("1", "1", "1"), ("0", "1", "1")])
def test_classify_csv_equals_the_hand_built_line(n, l, p):
    regime = teleport.classify(teleport.ProtocolParams(complex(n), complex(l), complex(p)))
    expected = ",".join([
        regime.regime,
        ";".join(regime.faithful_outcomes),
        _old_fmt(regime.success_probability, 12),
        _old_fmt(regime.expected_repetitions, 12),
    ])
    rc, out, _ = _run(["classify", "--n", n, "--l", l, "--p", p, "--output", "csv"])
    assert (rc, out) == (0, f"regime,faithful_outcomes,success_probability,expected_repetitions\n{expected}\n")


def test_sweep_repetitions_overflow_names_the_parameter():
    rc, out, err = _run(["sweep", "--n-grid", "1e100:1e100:1"])
    assert (rc, out) == (2, "")
    assert err.startswith("teleportrix: n = ") and "is too large" in err


@pytest.mark.parametrize("grid,first", [
    # (1 + |n|^2)^2 of the repetitions column overflows
    ("1e100:1e101:1e100", "(1e+100+0j)"),
    # |n|^2 of the transfer matrices overflows, at the second point
    ("1e150:1e160:1e158", "(1.00000001e+158+0j)"),
])
@pytest.mark.parametrize("regime", ["probabilistic2", "probabilistic1"])
def test_sweep_overflow_names_the_first_point_that_overflows(grid, first, regime):
    err = f"teleportrix: n = {first} is too large: a power of |n| overflows a float\n"
    for output in ("json", "csv"):
        assert _run(["sweep", "--n-grid", grid, "--regime", regime, "--output", output]) == (2, "", err)


@pytest.mark.parametrize("argv", [
    ["classify", "--n", "1e-160", "--l", "1e-160", "--p", "1e-160"],
    ["sweep", "--n-grid", "1e-170:1e-160:1e-161"],
])
def test_subnormal_branch_probabilities_leave_stderr_empty(argv):
    # numpy once warned of overflow and invalid values in the Gram test
    proc = _run_cli(argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    if argv[0] == "classify":
        assert json.loads(proc.stdout)["regime"] == "Probabilistic(k=2)"


@pytest.mark.parametrize("argv,err", [
    # |n| overflows hypot: numpy once warned before the message
    (["classify", "--n", "1.5e308+1.5e308i", "--l", "1", "--p", "1"],
     "teleportrix: n = (1.5e+308+1.5e+308j) is too large: a power of |n| overflows a float\n"),
    # 1/|n| overflows at a subnormal |n|: numpy once warned, then blamed n, ell and p
    (["sweep", "--n-grid", "1e-330:1e-320:1e-321", "--regime", "probabilistic1"],
     "teleportrix: the generic value 2 max(|n|, 1/|n|) + 1 is too large at |n| = 1e-321: "
     "it or a power of it overflows a float\n"),
    # a power of the generic value 2e200 overflows: the message once named p = 2e200
    (["sweep", "--n-grid", "1e-200:2e-200:1e-200", "--regime", "probabilistic1"],
     "teleportrix: the generic value 2 max(|n|, 1/|n|) + 1 is too large at |n| = 1e-200: "
     "it or a power of it overflows a float\n"),
])
def test_overflow_exits_2_with_one_stderr_line_and_no_warning(argv, err):
    proc = _run_cli(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", err)


# --- the fixed-point column format -------------------------------------------

# The bounds of the pass at every precision d, and values that round onto
# them: 1e-4, the half unit 0.5 10^-d (below it a value rounds to 0) and
# 10^(15-d).
_BOUNDS = [1e-4] + [x for d in range(6, 18) for x in (
    0.5 * 10.0 ** -d, 1e-4 - 0.5 * 10.0 ** -d, 10.0 ** (15 - d), 10.0 ** (15 - d) - 0.5 * 10.0 ** -d)]
_EDGES = [e for x in _BOUNDS for e in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))]
_SPECIAL = [5e-324, 2.5e-308, math.inf, math.nan]
_FOREIGN = [st.none(), st.booleans(), st.integers(-10, 10), st.text(max_size=3)]


@st.composite
def _column_values(draw):
    # magnitudes log-uniform over a per-column range: below 10^high, so
    # inside the range of the pass from precision 15 - high down, or
    # anywhere in [1e-20, 1e20]
    if draw(st.integers(0, 2)):
        high = draw(st.integers(-2, 9))
        low = max(high - draw(st.sampled_from([0.2, 1.0, 3.0])), -4.3)
    else:
        low = draw(st.floats(-20.0, 20.0))
        high = min(low + draw(st.sampled_from([0.5, 3.0, 40.0])), 20.0)
    magnitude = st.builds(lambda e, sign: sign * 10.0 ** e, st.floats(low, high, exclude_max=True),
                          st.sampled_from([1.0, -1.0]))
    # zeros, and multiples of 2^-j: exact decimal ties at j - 1 digits
    value = magnitude | st.sampled_from([0.0, -0.0])
    value |= st.builds(lambda x, j: math.ldexp(math.trunc(math.ldexp(x, j)), -j), magnitude,
                       st.integers(7, 18))
    extra = draw(st.sampled_from(["none", "none", "edges", "foreign"]))
    if extra == "edges":
        value |= st.sampled_from(_EDGES + _SPECIAL + [-x for x in _EDGES + _SPECIAL])
    elif extra == "foreign":
        value |= draw(st.sampled_from(_FOREIGN + [value.map(np.float64)]))
    size = draw(st.integers(1, 50))
    return draw(st.lists(value, min_size=size, max_size=size))


def _decoded(matrix) -> list:
    """The text of each row of a character matrix: its bytes less the zeros."""
    return [row[row != 0].tobytes().decode("ascii") for row in matrix]


def _outside(v, d) -> bool:
    """Whether v lies outside the range where _fixed_point is exact at d digits."""
    return not abs(v) < 10.0 ** (15 - d) or 0.0 < abs(round(v, d)) < 1e-4


def test_cells_gets_only_the_values_outside_the_fixed_point_range(monkeypatch):
    cells, column = cli._cells, cli._column
    sent, columns = [], []
    monkeypatch.setattr(cli, "_cells", lambda values, *rest: sent.extend(
        v for v in values if isinstance(v, float)) or cells(values, *rest))
    monkeypatch.setattr(cli, "_column", lambda values, *rest: columns.append(values) or column(values, *rest))

    def sweep(grid, output):
        sent.clear()
        columns.clear()
        assert _run(["sweep", f"--n-grid={grid}", "--output", output])[0] == 0
        return sent

    for output in ("json", "csv"):
        # 10,000 points, every value inside the range at precision 12
        assert sweep("0.05:5.0495:0.0005", output) == []
        assert [len(values) for values in columns] == [10_000] * 4
        # n = 0 at the ninth point, where the repetitions and 1 / success
        # are inf; every other value is inside the range
        assert sweep("-2:2:0.25", output) == [math.inf, math.inf]
        # near n = 0 the repetitions exceed 10^3 and the success falls below 1e-4
        got = sweep("-1.5:1.5:0.0005", output)
        assert got == [v for values in columns for v in values.tolist() if _outside(v, 12)]
        assert 0 < len(got) < 1_000


def test_column_pass_equals_rounded_repr_of_each_value(monkeypatch):
    cells = cli._cells
    fallbacks = []
    monkeypatch.setattr(cli, "_cells", lambda *args: fallbacks.append(args[1]) or cells(*args))
    passes, array_fallbacks = [], []

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_column_values())
    # inside the pass at every precision: 17 trailing zeros, a tie at 6
    @example([0.0, -0.0, 1e-300, 0.00123, 0.0078125, 0.0099])
    # outside it by one value: one below 1e-4 of either sign, an int, a bool
    @example([0.001, 0.002, 5e-05, 0.003, 0.004])
    @example([0.001, 0.002, -5e-05, 0.003, 0.004])
    @example([0.001, 0.002, 3, 0.003, 0.004])
    @example([0.001, 0.002, True, 0.003, 0.004])
    # near-ties that rint(v * 10**6) alone rounds the wrong way: 6.707901
    # and 0.226533 are right
    @example([6.7079005, -6.7079005, 0.2265335, -0.2265335, 0.001])
    def check(values):
        floats = all(type(v) is float for v in values)
        for digits in range(6, 18):
            for csv in (False, True):
                expected = cells(values, digits, csv)
                # a list takes the row template, one row per value
                text = cli._rows([values], ["", "\n"], "", digits, csv)
                assert text == "".join(cell + "\n" for cell in expected)
                if not floats:
                    continue
                before = len(fallbacks)
                got = _decoded(cli._column(np.array(values), digits, csv))
                assert got == expected
                if all(math.isfinite(v) for v in values):
                    assert got == [repr(round(v, digits)) for v in values]
                (passes if len(fallbacks) == before else array_fallbacks).append(digits)
                # an array's rows (a character matrix above four values) give the list's text
                assert cli._rows([np.array(values)], ["", "\n"], "", digits, csv) == text

    check()
    # neither path of an array is vacuous at any precision
    assert set(passes) == set(array_fallbacks) == set(range(6, 18))
    assert len(passes) > 300 and len(array_fallbacks) > 300, (len(passes), len(array_fallbacks))


# --- clean exits -----------------------------------------------------------

@pytest.mark.parametrize("target", ["missing_directory", "directory"])
def test_unwritable_out_exits_2_with_one_line(tmp_path, target):
    path = tmp_path / "missing" / "report.json" if target == "missing_directory" else tmp_path
    proc = _run_cli(CLASSIFY + ["--out", str(path)])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("teleportrix: cannot write the report to ")
    assert proc.stderr.count("\n") == 1


def test_out_writes_the_stdout_bytes(tmp_path):
    path = tmp_path / "report.csv"
    rc, out, _ = _run(GOOD[3] + ["--out", str(path)])
    assert (rc, out) == (0, "")
    assert path.read_bytes().decode("utf-8") == _run(GOOD[3])[1]


def test_malformed_seed_variable_is_named():
    proc = _run_cli(SAMPLED, TELEPORTRIX_SEED="abc")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "teleportrix: TELEPORTRIX_SEED must be an integer, got 'abc'\n"


# --- each complex argument parsed once ---------------------------------------

@pytest.mark.parametrize("argv,parsed", [
    (CLASSIFY, 3),
    (["swap", "--m", "0.5", "--n", "2", "--l", "0.5", "--p", "2", "--l-prime", "0.5", "--p-prime", "2"], 6),
    (["teleport", "--n", "0.5", "--l", "0.5", "--p", "2", "--alpha", "0.6", "--beta", "0.8i"], 5),
])
def test_each_complex_argument_is_parsed_once(monkeypatch, argv, parsed):
    # the params block formats the values the command parsed, so the
    # parse count is one per complex argument on the command line
    calls = []
    parse = complexfmt.parse_complex

    def counting(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(complexfmt, "parse_complex", counting)
    monkeypatch.setattr(cli, "parse_complex", counting)
    code, _, _ = _run(argv)
    assert code == 0
    assert len(calls) == parsed
