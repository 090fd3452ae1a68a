"""cli._scan, the command line's common case read from cli._COMMANDS, the
option table build_parser builds argparse's parser from: wherever it
returns a Namespace, build_parser().parse_args returns an equal one, and
every README example and every command in both option forms goes through
it, with argparse's parse_args never called.

This file and the test modules it imports need only the package, numpy,
pytest and hypothesis, so it runs under every Python release that
pyproject admits: argparse's handling of "--" differs between them.
"""

import argparse
import contextlib
import io
import re
import shlex
from itertools import chain
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli_emit import _run
from test_cli_fuzz import _argvs

from teleportrix import cli

README = Path(__file__).resolve().parent.parent / "README.md"
PARSER = cli.build_parser()  # parse_args leaves it unchanged

# tokens argparse reads its own way: "--", help, abbreviations, pair-form
# negative values, empty joined values, non-ASCII digits
_EDGES = st.sampled_from([
    ["--"], ["-h"], ["--help"], ["--rand", "3"], ["--ou", "csv"], ["--n", "-0.5"], ["--seed", "-1"],
    ["--n="], ["--seed="], ["--output="], ["--n-grid=--"], ["--n=--"], ["--l", "--"], ["--seed=٣"],
    ["--shots", "١٢"], ["--precision", "١٢"], ["--random-input=٣"], ["--seed", "3"], ["--n", "1"],
    ["--output=csv"], ["--mode=sampled"], ["--regime", "probabilistic1"], ["--out="], ["--p-prime=i"],
])


@st.composite
def _edged_argvs(draw):
    """_argvs with up to three edge tokens inserted and up to two of its tokens repeated."""
    argv = draw(_argvs())
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = draw(_EDGES)
    for _ in range(draw(st.integers(0, 2))):
        if len(argv) > 1:
            start = draw(st.integers(1, len(argv) - 1))
            argv += argv[start:start + 2]
    return argv


def _parse(argv):
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        return PARSER.parse_args(argv)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.one_of(_argvs(), _edged_argvs()))
def test_a_scanned_argv_parses_to_the_same_namespace(argv):
    scanned = cli._scan(argv)
    if scanned is not None:
        parsed = _parse(argv)
        assert (vars(scanned), list(vars(scanned))) == (vars(parsed), list(vars(parsed)))


@pytest.mark.parametrize("argv", [
    ["classify", "--n", "1", "--l", "1", "--p", "1", "-h"],
    ["classify", "--n", "1", "--l", "1", "--p", "1", "--see", "3"],
    ["classify", "--n", "1", "--l", "1", "--p", "1", "--n", "2"],
    ["classify", "--n", "-0.5", "--l", "1", "--p", "1"],
    ["classify", "--n", "1", "--l", "1", "--p", 1],
    ["sweep", "--n-grid=--"],
    ["classify", "--n", "1", "--l", "1"],
    ["classify", "--n", "1", "--l", "1", "--p"],
    ["classify", "--n", "1", "--l", "1", "--p", "1", "--output", "xml"],
    ["classify", "--n", "1", "--l", "1", "--p", "1", "--seed", "x"],
    ["classify", "--n", "1", "--l", "1", "--p", "1", "--", "--seed", "3"],
    ["classify", "--n", "1", "--l", "1", "--p", "1", "--shots", "3"],
    ["-h"],
    ["nope"],
    [],
])
def test_any_other_argv_is_left_to_argparse(argv):
    assert cli._scan(argv) is None


def _readme_argvs():
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", README.read_text(), re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    assert lines and all(line.startswith("teleportrix ") for line in lines)
    return [shlex.split(line)[1:] for line in lines]


_OPTIONS = {
    "teleport": [("n", "0.5"), ("l", "0.5"), ("p", "2"), ("alpha", "0.6"), ("beta", "0.8i"),
                 ("random-input", "3"), ("mode", "sampled"), ("shots", "500")],
    "swap": [("m", "0.5"), ("n", "1.6"), ("l", "0.625"), ("p", "2"), ("l-prime", "0.625"), ("p-prime", "0.5")],
    "classify": [("n", "0.5"), ("l", "0.5"), ("p", "3")],
    "sweep": [("n-grid", "0.1:1.0:0.1"), ("regime", "probabilistic1")],
}
_COMMON = [("seed", "7"), ("output", "csv"), ("precision", "9")]
# every option of each command, in the pair form and in the joined form
FAST = _readme_argvs() + [
    argv
    for command, options in _OPTIONS.items()
    for argv in ([command, *chain.from_iterable((f"--{name}", value) for name, value in options + _COMMON)],
                 [command, *(f"--{name}={value}" for name, value in options + _COMMON)])
]


@pytest.mark.parametrize("argv", FAST, ids=range(len(FAST)))
def test_a_plain_argv_never_reaches_parse_args(monkeypatch, argv):
    monkeypatch.delenv("TELEPORTRIX_SEED", raising=False)
    with mock.patch.object(argparse.ArgumentParser, "parse_args", side_effect=AssertionError("parse_args")):
        scanned = _run(argv)
    with mock.patch.object(cli, "_scan", return_value=None):
        parsed = _run(argv)
    assert scanned[0] == 0
    assert scanned == parsed


def test_main_reads_sys_argv_and_any_iterable(monkeypatch):
    monkeypatch.delenv("TELEPORTRIX_SEED", raising=False)
    argv = FAST[0]
    expected = _run(argv)
    monkeypatch.setattr("sys.argv", ["teleportrix", *argv])
    with mock.patch.object(argparse.ArgumentParser, "parse_args", side_effect=AssertionError("parse_args")):
        assert _run(None) == expected
        assert _run(tuple(argv)) == expected
        assert _run(token for token in argv) == expected


def test_an_option_added_to_the_parser_reaches_the_scan():
    text, options = cli._COMMANDS["classify"]
    trials = {"--trials": {"type": int, "default": 5, "choices": range(10)}}
    argv = ["classify", "--n", "1", "--l", "1", "--p", "1"]
    cli._options.cache_clear()
    try:
        with mock.patch.dict(cli._COMMANDS, classify=(text, options | trials)):
            parser = cli.build_parser()
            for extra, value in ([], 5), (["--trials=7"], 7):
                assert cli._scan(argv + extra).trials == parser.parse_args(argv + extra).trials == value
            assert cli._scan(argv + ["--trials", "12"]) is None
            with pytest.raises(SystemExit), contextlib.redirect_stderr(io.StringIO()):
                parser.parse_args(argv + ["--trials", "12"])
    finally:
        cli._options.cache_clear()
