"""Golden CLI output and the batched kernel against the brute-force route.

The digests are sha256 of the stdout the per-input implementation (one
teleport.run per input, one searchsorted per shot) printed for each
argv. The batched kernel must reproduce those bytes: same seeds, same
counts, same rounded numbers, also at 17 digits.
"""

import hashlib
import math

import numpy as np
import pytest

from teleportrix import qcore, teleport
from teleportrix.cli import main
from teleportrix.ebasis import BASIS_LABELS
from teleportrix.errors import SingularMatrix
from teleportrix.qcore import PureState
from teleportrix.tolerances import TOL_EQ, TOL_NORM, TOL_PROB

GOLDEN = [
    # two faithful outcomes, few inputs
    (["teleport", "--n", "0.5", "--l", "0.5", "--p", "0.5", "--mode", "sampled",
      "--random-input", "7", "--shots", "10000", "--seed", "0"],
     "9aa2dc31f963646a6d94b6d1833b556fdf5c4ab9738c975a50917a637cc67951"),
    # one faithful outcome, CSV
    (["teleport", "--n", "0.3+0.4i", "--l", "0.3+0.4i", "--p", "3", "--mode", "sampled",
      "--random-input", "50", "--shots", "20000", "--seed", "3", "--output", "csv"],
     "2f6f81055cb7fd543543199372e7cb8559523136b571cfedef8e8212db9da6db"),
    # NoFaithful; 8197 shots = 2 * 4096 + 5, not a multiple of 13 inputs either
    (["teleport", "--n", "2", "--l", "0.7+0.1i", "--p", "1.3", "--mode", "sampled",
      "--random-input", "13", "--shots", "8197", "--seed", "11"],
     "07339cf49e7af92d763c303da47bcbeb96f3a89bbbf7fc8af5e4b381359a23ee"),
    # Bell case, deterministic, CSV
    (["teleport", "--n", "1", "--l", "1", "--p", "1", "--mode", "sampled",
      "--random-input", "5", "--shots", "5000", "--seed", "2", "--output", "csv"],
     "4624bde84660a141abe21036602fd88d34c0c99ebede630adf87336c917570e4"),
    # 17 digits, many chunks
    (["teleport", "--n", "0.25-0.1i", "--l", "3.448275862069-1.379310344828i",
      "--p", "3.448275862069+1.379310344828i", "--mode", "sampled",
      "--random-input", "200", "--shots", "100000", "--seed", "1", "--precision", "17"],
     "bc6e4b8a318ea0dd16f39f7edc10cf4bac76e42a4febb64f2037ccb584ade858"),
    (["teleport", "--n", "0.7-0.2i", "--l", "0.7+0.2i", "--p", "0.7+0.2i", "--mode", "sampled",
      "--random-input", "311", "--shots", "30001", "--seed", "7", "--output", "csv",
      "--precision", "17"],
     "c27d1cc125ac2453111d9d8d3efbb3816d96d9a9f47f384e97d9534e9c0ae4d2"),
    # exhaustive fixed input
    (["teleport", "--n", "0.5", "--l", "0.5", "--p", "2", "--alpha", "0.6", "--beta", "0.8i"],
     "1cc976caa0392c11fd3ea65d13f93f2a36dc9d787130b68edfa2d1e758177472"),
    # sampled fixed input, one shot past a chunk
    (["teleport", "--n", "0.5", "--l", "0.5", "--p", "2", "--alpha", "0.6", "--beta", "-0.8",
      "--mode", "sampled", "--shots", "4097", "--seed", "9", "--precision", "17"],
     "7e5bd45d1202ab68d58402c4b5af86a1c4b50fe7d8cc31b874273bae4ccc60b8"),
    (["swap", "--m", "0.5", "--n", "2", "--l", "0.5", "--p", "2", "--l-prime", "0.5",
      "--p-prime", "0.5"],
     "4c2799a5eeca777c145c3db3ac8cef8d748a76634d6a2bb7974f4eeab11282e3"),
    (["swap", "--m", "0.3+0.2i", "--n", "1.7", "--l", "0.4", "--p", "1.1-0.3i", "--l-prime", "2",
      "--p-prime", "0.9i", "--output", "csv"],
     "663d2a3806d7dfbac0c54b754e707600a7f01318e10538634d2b045ffe1c30b2"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[f"{a[0]}-{i}" for i, (a, _) in enumerate(GOLDEN)])
def test_cli_stdout_matches_golden_digest(capsys, monkeypatch, argv, digest):
    monkeypatch.delenv("TELEPORTRIX_SEED", raising=False)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _random_params(rng, case):
    n = complex(*rng.normal(size=2)) * 10 ** rng.uniform(-1, 1)
    if case % 4 == 0:
        return teleport.two_faithful_choice(n, case % 4)
    if case % 4 == 1:
        return teleport.one_faithful_choice(n, int(rng.integers(4)))
    if case % 4 == 2:
        return teleport.ProtocolParams(1, 1, 1)
    return teleport.ProtocolParams(n, complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))


def test_batch_probabilities_match_projective_measurement():
    rng = np.random.default_rng(31)
    for case in range(12):
        params = _random_params(rng, case)
        branches = teleport.protocol_branches(params)
        inputs = teleport.haar_inputs(25, rng)
        batch = teleport.evaluate_inputs(branches, inputs)
        assert batch.probabilities.shape == (25, 4)
        for i, inp in enumerate(inputs):
            measured = teleport.measured_probabilities(tuple(inp), params)
            for k, label in enumerate(BASIS_LABELS):
                assert abs(batch.probabilities[i, k] - measured[label]) < TOL_NORM
            for k, faithful in enumerate(branches.faithful):
                if faithful:
                    assert abs(batch.fidelities[i, k] - 1.0) < TOL_EQ


def _reference_branch(tm, psi):
    # the per-input arithmetic of the loop the kernel replaced
    conditioned = tm.matrix @ psi
    prob = float(np.vdot(conditioned, conditioned).real)
    if prob < TOL_PROB:
        return prob, None
    try:
        correction = teleport.correction_unitary(tm)
    except SingularMatrix:
        correction = np.eye(2, dtype=complex)
    bob = PureState(("2",), correction @ conditioned / math.sqrt(prob))
    return prob, qcore.fidelity(bob, PureState(("2",), psi))


def test_batch_equals_per_input_loop_bit_for_bit():
    rng = np.random.default_rng(32)
    for case in range(12):
        params = _random_params(rng, case)
        inputs = teleport.haar_inputs(200, rng)
        branches = teleport.protocol_branches(params)
        batch = teleport.evaluate_inputs(branches, inputs)
        for i, psi in enumerate(inputs):
            for k, tm in enumerate(branches.transfer):
                prob, fid = _reference_branch(tm, psi)
                assert batch.probabilities[i, k] == prob
                if fid is None:
                    assert np.isnan(batch.fidelities[i, k])
                else:
                    assert batch.fidelities[i, k] == fid


def test_zero_probability_branch_has_no_fidelity():
    # n = 0 leaves PhiPlus with M = diag(L, 0): input |1> never reaches it
    batch = teleport.evaluate_inputs(teleport.protocol_branches(teleport.ProtocolParams(0, 0.3, 2)),
                                     [(0, 1)])
    assert batch.probabilities[0, 0] == 0.0
    assert np.isnan(batch.fidelities[0, 0])
    assert not np.any(batch.bob[0, 0])
    assert teleport.run((0, 1), teleport.ProtocolParams(0, 0.3, 2)).records[0].fidelity is None


def _reference_indices(probabilities, shots, rng):
    # one searchsorted per shot over input i mod K, as the sampler did
    # before it was vectorised
    cdfs = [np.cumsum(row) for row in probabilities]
    draws = rng.random(shots)
    return np.array([min(int(np.searchsorted(cdfs[i % len(cdfs)], draws[i], side="right")), 3)
                     for i in range(shots)])


@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_sampler_matches_per_shot_loop_for_any_chunk(monkeypatch, chunk):
    rng = np.random.default_rng(33)
    probabilities = rng.random((7, 4))
    probabilities[2] = (0.5, 0.0, 0.5, 0.0)
    probabilities[4] = (0.0, 0.0, 0.0, 1.0)
    probabilities /= probabilities.sum(axis=1, keepdims=True)
    shots = 2 * 4096 + 5
    expected = _reference_indices(probabilities, shots, np.random.default_rng(5))
    monkeypatch.setattr(teleport, "SAMPLE_CHUNK", chunk)
    got = np.concatenate(list(teleport.sample_outcomes(probabilities, shots, np.random.default_rng(5))))
    assert np.array_equal(got, expected)


class _FixedDraws:
    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=float)

    def random(self, size):
        out, self.draws = self.draws[:size], self.draws[size:]
        return out


def test_sampler_draw_on_a_cdf_step_goes_to_the_later_outcome():
    # searchsorted(side="right"): u equal to a cumulative sum lands past it
    probabilities = np.array([[0.5, 0.0, 0.25, 0.25]])
    draws = [0.0, 0.5, 0.75, 0.9999, 0.25]
    got = next(teleport.sample_outcomes(probabilities, len(draws), _FixedDraws(draws)))
    assert got.tolist() == [0, 2, 3, 3, 0]
