"""Oversized and overflowing requests and negative seeds exit 2 with a
one-line message, no traceback; the largest shot count is served.

Run as a child interpreter, since a traceback only shows on a real
process's stderr.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from teleportrix.cli import MAX_GRID_POINTS, _parse_grid

SRC = Path(__file__).resolve().parent.parent / "src"

TELEPORT = ["teleport", "--n", "0.5", "--l", "0.5", "--p", "2"]

CASES = {
    "shots_huge": TELEPORT + ["--random-input", "3", "--mode", "sampled", "--shots", "2000000000000"],
    "shots_over_limit": TELEPORT + ["--alpha", "1", "--beta", "0", "--mode", "sampled",
                                    "--shots", "1000000001"],
    "inputs_huge": TELEPORT + ["--random-input", "2000000000000"],
    "seed_negative": TELEPORT + ["--random-input", "3", "--mode", "sampled", "--seed", "-1"],
    "grid_step_subnormal": ["sweep", "--n-grid", "0:1:1e-320"],
    "grid_step_tiny": ["sweep", "--n-grid", "0:1:1e-300"],
    "grid_too_many_points": ["sweep", "--n-grid", "0:100000:1"],
    "grid_nan": ["sweep", "--n-grid", "0:nan:1"],
    "grid_inf": ["sweep", "--n-grid", "0:inf:1"],
    "teleport_n_overflow": ["teleport", "--n", "1e200", "--l", "1", "--p", "1",
                            "--alpha", "1", "--beta", "0"],
    "classify_n_overflow": ["classify", "--n", "1e200", "--l", "1", "--p", "1"],
    "classify_analytic_overflow": ["classify", "--n", "1e100", "--l", "1", "--p", "1"],
    "swap_m_overflow": ["swap", "--m", "1e200", "--n", "1", "--l", "1", "--p", "1",
                        "--l-prime", "1", "--p-prime", "1"],
}


def _run_cli(argv, **env_extra):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("TELEPORTRIX_SEED", None)
    env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "teleportrix.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("name", sorted(CASES))
def test_rejected_with_exit_2_and_one_line(name):
    proc = _run_cli(CASES[name])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("teleportrix: ")
    assert proc.stderr.count("\n") == 1


def test_largest_grid_is_accepted():
    assert len(_parse_grid(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS


def test_sweep_overflow_names_the_parameter():
    proc = _run_cli(["sweep", "--n-grid", "1e200:1e200:1"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("teleportrix: n = ")
    assert "is too large" in proc.stderr
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("extra,env,message", [
    (["--seed", "-1"], {}, "--seed must be a nonnegative integer, got -1"),
    ([], {"TELEPORTRIX_SEED": "-5"}, "TELEPORTRIX_SEED must be a nonnegative integer, got -5"),
])
def test_negative_seed_names_its_source(extra, env, message):
    proc = _run_cli(TELEPORT + ["--random-input", "3", "--mode", "sampled", *extra], **env)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"teleportrix: {message}\n"


def test_classify_ignores_a_negative_seed():
    proc = _run_cli(["classify", "--n", "0.5", "--l", "0.5", "--p", "2", "--seed", "-1"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["seed"] is None


def test_a_billion_shots_are_counted():
    # shots are drawn as per-input counts: MAX_SHOTS takes milliseconds, not seconds
    proc = _run_cli(TELEPORT + ["--random-input", "3", "--mode", "sampled", "--shots", "1000000000"])
    assert proc.returncode == 0, proc.stderr
    empirical = json.loads(proc.stdout)["empirical"]
    assert empirical["shots"] == 10**9
    assert sum(empirical["counts"].values()) == 10**9
