"""Random argvs drawn from the command line's grammar: each ends with exit
code 0, 1 or 2, with no exception escaping and no warning raised.

The argvs mix the four commands (and an unknown one) with extreme,
malformed and boundary numbers, grids, input counts, shots, seeds,
precisions and output formats; a flag is sometimes left out or given as
--flag=value. cli.main runs in-process with warnings raised as errors and
its stdout and stderr captured. The draws are derandomized, so the same
argvs run every time.
"""

import contextlib
import io
import os
import warnings
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from teleportrix.cli import main


def _mostly(good, bad, odds=7):
    """Values of `good` `odds` times in odds + 1, else of `bad`: a swap argv has nine values."""
    return st.sampled_from([True] * odds + [False]).flatmap(lambda ok: good if ok else bad)


def _choices(good, bad):
    return _mostly(st.sampled_from(good), st.sampled_from(bad))


_FLOAT = st.floats(allow_nan=True, allow_infinity=True).map(repr)
_MODERATE = st.floats(-1e3, 1e3).map(repr)
_NUMBER = _mostly(
    st.one_of(st.sampled_from(["0", "1", "0.5", "2", "0.3+0.4i", "0.25-0.1i", "i", "3"]), _MODERATE,
              st.builds("{}+{}i".format, _MODERATE, _MODERATE)),
    st.one_of(st.sampled_from(["-0", "-1", "-i", "1e-7", "1e7", "1e-154", "0.999e-154", "1.001e-154",
                               "1e154", "1.34e154", "1e200", "1e308", "5e-324", "1e-160+1e-160i",
                               "1e150-1e150i", "nan", "inf", "-inf", "1..2", "", " ", "1e", "2+",
                               "abc", "--1", "0x10", "1_000"]),
              _FLOAT, st.builds("{}+{}i".format, _FLOAT, _FLOAT)))
_INTEGER = _choices(["0", "1", "3", "4097", "10000"],
                    ["-1", "100001", "1000000000", "1000000001", "2000000000000", "1.5", "x", ""])
_GRID = _mostly(
    st.sampled_from(["0.05:3.05:0.0125", "0.1:1.0:0.1", "-1:1:0.01", "0:0:1", "1e-7:1e7:1e5"]),
    st.lists(st.sampled_from(["0", "1", "-1", "0.5", "3", "0.0125", "1e-300", "1e-320", "1e150", "1e154",
                              "1e308", "nan", "inf", "x", ""]), min_size=1, max_size=4).map(":".join))

_COMMON = {"--seed": _INTEGER, "--output": _choices(["json", "csv"], ["xml"]),
           "--precision": _choices(["6", "12", "17"], ["5", "18", "-1", "x"])}
_FLAGS = {
    "teleport": {"--n": _NUMBER, "--l": _NUMBER, "--p": _NUMBER,
                 "--alpha": _choices(["0.6", "1", "0"], ["0.8i", "nan", "1e200", "x"]),
                 "--beta": _choices(["0.8i", "0", "1"], ["-0.8", "5e-324", "x"]),
                 # few inputs: 10^5 Haar inputs are valid, but slow for a fuzz case
                 "--random-input": _choices(["1", "7", "13"], ["-1", "0", "100001", "2000000000000", "x"]),
                 "--mode": _choices(["exhaustive", "sampled"], ["both"]), "--shots": _INTEGER},
    "swap": {f"--{name}": _NUMBER for name in ("m", "n", "l", "p", "l-prime", "p-prime")},
    "classify": {"--n": _NUMBER, "--l": _NUMBER, "--p": _NUMBER},
    "sweep": {"--n-grid": _GRID, "--regime": _choices(["probabilistic2", "probabilistic1"], ["k3"])},
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from([*_FLAGS] * 4 + ["bogus"]))
    argv = [command]
    for flag, values in {**_FLAGS.get(command, {}), **_COMMON}.items():
        value, form = draw(values), draw(st.sampled_from(["pair"] * 20 + ["joined"] * 10 + ["absent"]))
        if form == "pair" and value.startswith("-"):  # argparse reads most such values as a flag
            form = draw(st.sampled_from(["joined"] * 3 + ["pair"]))
        if form == "pair":
            argv += [flag, value]
        elif form == "joined":
            argv.append(f"{flag}={value}")
    return argv


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_argvs(), st.sampled_from([None, "3", "-1", "x", ""]))
def test_every_argv_exits_0_1_or_2(argv, seed_env):
    env = {} if seed_env is None else {"TELEPORTRIX_SEED": seed_env}
    with mock.patch.dict(os.environ, env), warnings.catch_warnings(), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        if seed_env is None:
            os.environ.pop("TELEPORTRIX_SEED", None)
        warnings.simplefilter("error")
        assert main(argv) in (0, 1, 2)
