"""Every JSON report of the CLI is laid out exactly as json.dumps(indent=2)
lays out the object it parses to: the golden argvs of all four commands,
and a property over their parameters and precision."""

import cmath
import contextlib
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from teleportrix import cli
from teleportrix.complexfmt import format_complex
from test_golden import GOLDEN, SWEEP_GOLDEN


def _json_report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def assert_indent2_layout(argv):
    rc, out = _json_report(argv)
    assert rc == 0, argv
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_golden_reports_as_json(monkeypatch):
    monkeypatch.delenv("TELEPORTRIX_SEED", raising=False)
    for argv, _ in GOLDEN + SWEEP_GOLDEN:
        # the last --output wins, so the CSV argvs print JSON here
        assert_indent2_layout(argv + ["--output", "json"])


# moduli from 1e-7 to 1e7, where every command accepts its parameters
_PART = st.one_of(st.just(0.0), st.floats(-3.0, 3.0).filter(lambda x: abs(x) >= 1e-3),
                  st.floats(-7.0, 7.0).map(lambda e: 10.0 ** e))
_COMPLEX = st.builds(complex, _PART, st.one_of(st.just(0.0), _PART))


def _flag(name, z):
    return f"--{name}={format_complex(complex(z), 17)}"


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(["teleport", "swap", "classify", "sweep"]))
    if command == "sweep":
        start = draw(st.sampled_from([-1.0, 0.0, 0.05, 1e-3, 2.5]))
        step = draw(st.sampled_from([0.25, 0.1, 0.013]))
        count = draw(st.integers(1, 12))
        grid = f"{start!r}:{start + (count - 1) * step!r}:{step!r}"
        regime = draw(st.sampled_from(cli._PROBABILISTIC_REGIMES))
        return ["sweep", f"--n-grid={grid}", "--regime", regime]
    n = draw(_COMPLEX)
    # basis parameters equal to n, n* or 1/n leave outcomes faithful
    related = [n, n.conjugate(), 1 / n] if n else [n]
    basis = st.one_of(st.sampled_from(related), _COMPLEX)
    if command == "swap":
        names = ("m", "l", "p", "l-prime", "p-prime")
        return ["swap", _flag("n", n), *[_flag(name, draw(basis)) for name in names]]
    argv = [command, _flag("n", n), _flag("l", draw(basis)), _flag("p", draw(basis))]
    if command == "classify":
        return argv
    if draw(st.booleans()):
        argv += ["--random-input", str(draw(st.integers(1, 20)))]
    else:
        theta, phi = draw(st.floats(0.0, math.pi / 2)), draw(st.floats(0.0, 2 * math.pi))
        argv += [_flag("alpha", math.cos(theta)), _flag("beta", math.sin(theta) * cmath.exp(1j * phi))]
    if draw(st.booleans()):
        argv += ["--mode", "sampled", "--shots", str(draw(st.integers(1, 5000)))]
    return argv


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_argvs(), st.integers(6, 17))
def test_reports_keep_the_indent2_layout(argv, digits):
    assert_indent2_layout(argv + ["--precision", str(digits), "--seed", "1"])


def test_row_template_escapes_percent_in_column_names():
    # the rows are one %-format of the row template, so a % in a column
    # name must come out as itself
    report = {"rows": {"50%": [0.5, 1.0], "%s": ["a", None], "n": [1e-5, math.inf]}}
    text = "".join(cli._json([], report, 12, "\n", "rows"))
    assert text == json.dumps({"rows": [{"50%": 0.5, "%s": "a", "n": 1e-05},
                                        {"50%": 1.0, "%s": None, "n": "Infinite"}]}, indent=2)
