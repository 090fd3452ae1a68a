"""Golden CLI output and the batched kernel against the brute-force route.

The digests are sha256 of the stdout the per-input implementation (one
teleport.run per input) printed for each argv. The batched kernel must
reproduce those bytes: same seeds, same counts, same rounded numbers,
also at 17 digits. The sampled argvs' digests were recorded when shots
became per-input multinomial counts. The sweep digests were printed by
the per-point sweep (one transfer_matrices call per grid point); the
stacked sweep must reproduce those bytes too.
"""

import cmath
import hashlib
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleportrix import qcore, teleport
from teleportrix.cli import main
from teleportrix.ebasis import BASIS_LABELS, general_basis, resource_state
from teleportrix.errors import BadInput
from teleportrix.qcore import PureState
from teleportrix.tolerances import TOL_EQ, TOL_NORM, TOL_PROB

_K2 = ["--n", "0.25-0.1i", "--l", "3.448275862069-1.379310344828i",
       "--p", "3.448275862069+1.379310344828i"]
_NO_FAITHFUL = ["--n", "2", "--l", "0.7+0.1i", "--p", "1.3"]
_DEAD_OUTCOMES = ["--m", "0", "--n", "2", "--l", "0", "--p", "2", "--l-prime", "0.5", "--p-prime", "0.5"]

GOLDEN = [
    # two faithful outcomes, few inputs
    (["teleport", "--n", "0.5", "--l", "0.5", "--p", "0.5", "--mode", "sampled",
      "--random-input", "7", "--shots", "10000", "--seed", "0"],
     "f9cdc568d23b37a4fbb99563115cb884d350bcee50595420ba61c7494f70c2f2"),
    # one faithful outcome, CSV
    (["teleport", "--n", "0.3+0.4i", "--l", "0.3+0.4i", "--p", "3", "--mode", "sampled",
      "--random-input", "50", "--shots", "20000", "--seed", "3", "--output", "csv"],
     "f5d1ed1787b25cb6ee6f9d861cb6850869b573b99cdc9d07b20156e59ed0dfed"),
    # NoFaithful; 8197 shots, not a multiple of 13 inputs
    (["teleport", "--n", "2", "--l", "0.7+0.1i", "--p", "1.3", "--mode", "sampled",
      "--random-input", "13", "--shots", "8197", "--seed", "11"],
     "b2d1a7f8b5b75588735616d28848f678a3d1854e5e5de09b01057598272ea9b9"),
    # Bell case, deterministic, CSV
    (["teleport", "--n", "1", "--l", "1", "--p", "1", "--mode", "sampled",
      "--random-input", "5", "--shots", "5000", "--seed", "2", "--output", "csv"],
     "e6ad90a28736658b1527ca5ffe3bee33c46cd4e2b71ad57093e4d6d9af27db42"),
    # 17 digits, 500 shots per input
    (["teleport", "--n", "0.25-0.1i", "--l", "3.448275862069-1.379310344828i",
      "--p", "3.448275862069+1.379310344828i", "--mode", "sampled",
      "--random-input", "200", "--shots", "100000", "--seed", "1", "--precision", "17"],
     "cb9d9081373a281d8cafcff3a3b47aa5504d76f708260ef89f00a8a96016629d"),
    # re-recorded for the quadratic-form branch probabilities and fidelities
    # (last digits at 17 digits move)
    (["teleport", "--n", "0.7-0.2i", "--l", "0.7+0.2i", "--p", "0.7+0.2i", "--mode", "sampled",
      "--random-input", "311", "--shots", "30001", "--seed", "7", "--output", "csv",
      "--precision", "17"],
     "bdb6909f855fbb3f3b6beaf575e018becf559b0d4ca872cb9d433ccf8f19b68c"),
    # exhaustive fixed input
    (["teleport", "--n", "0.5", "--l", "0.5", "--p", "2", "--alpha", "0.6", "--beta", "0.8i"],
     "1cc976caa0392c11fd3ea65d13f93f2a36dc9d787130b68edfa2d1e758177472"),
    # sampled fixed input; re-recorded for the quadratic forms
    (["teleport", "--n", "0.5", "--l", "0.5", "--p", "2", "--alpha", "0.6", "--beta", "-0.8",
      "--mode", "sampled", "--shots", "4097", "--seed", "9", "--precision", "17"],
     "feb9d9806c5c67dc9433ac5802d172c5c9ee0722d0af37a055042cf440d7dd04"),
    (["swap", "--m", "0.5", "--n", "2", "--l", "0.5", "--p", "2", "--l-prime", "0.5",
      "--p-prime", "0.5"],
     "4c2799a5eeca777c145c3db3ac8cef8d748a76634d6a2bb7974f4eeab11282e3"),
    (["swap", "--m", "0.3+0.2i", "--n", "1.7", "--l", "0.4", "--p", "1.1-0.3i", "--l-prime", "2",
      "--p-prime", "0.9i", "--output", "csv"],
     "663d2a3806d7dfbac0c54b754e707600a7f01318e10538634d2b045ffe1c30b2"),
    # recorded from the two-emitter CLI (json.dumps(indent=2) for JSON,
    # per-cell formatting for CSV) that the one report writer replaced
    (["classify", *_K2, "--precision", "17"],
     "c8c8b4cbdbbbf992c6bf6b476ea66c20a68fc46f43a1576059c51e7cea33a1ff"),
    (["classify", *_K2, "--precision", "17", "--output", "csv"],
     "d9d64b27f3908fd4792cc9e8d7e04aeb679dd2134d9e2726566a0fb4b4b0c8d5"),
    (["classify", "--n", "0.5", "--l", "0.5", "--p", "2"],
     "ce6fa8ecbf190210649d341cbb978f142a486bbd3bfb4b4fecdeb6bb00bd6e09"),
    # NoFaithful: an empty outcome list and Infinite repetitions
    (["classify", *_NO_FAITHFUL],
     "d2d03d039bcf05600190e006bb643f4697abaa0062e0a2341cf209aa94d1fa21"),
    (["classify", *_NO_FAITHFUL, "--output", "csv"],
     "8deedb1405fb0bdb520d84eaf189e81c4349b201e54d01fbe497c7cc8f94b381"),
    # exhaustive fixed input as CSV: empty empirical_frequency cells; re-recorded
    # for the closed-form polar correction, whose faithful fidelity here is 1.0,
    # for the quadratic forms, and for h = sqrt(g) (PsiPlus fidelity
    # 0.7538461538461546 -> 0.753846153846154; exactly 49/65)
    (["teleport", "--n", "0.3+0.4i", "--l", "0.3+0.4i", "--p", "3", "--alpha", "0.6",
      "--beta", "0.8i", "--output", "csv", "--precision", "17"],
     "25391434673710207afb3cff6cbe3c315470b215e679d5a1f241a1881951a372"),
    # two outcomes below TOL_PROB: null entropy and target
    (["swap", *_DEAD_OUTCOMES],
     "8ab59cb2f9edef365cceffe0372a589a9b79d7755098e7cfa40d54089e53f5f7"),
    (["swap", *_DEAD_OUTCOMES, "--output", "csv"],
     "e3d42080db8b5b773fbfba873f40ca35d312f762f915df5470e57db208fb39ff"),
    # 6 digits, the lowest precision
    (["teleport", "--n", "0.5", "--l", "0.5", "--p", "0.5", "--mode", "sampled",
      "--random-input", "7", "--shots", "10000", "--seed", "0", "--precision", "6"],
     "0ca8a3b56fc32b8cfd911f35f1d9df981ff1011b73febbff6b07d4d0bc3069d9"),
    (["teleport", "--n", "0.5", "--l", "0.5", "--p", "0.5", "--mode", "sampled",
      "--random-input", "7", "--shots", "10000", "--seed", "0", "--precision", "6", "--output", "csv"],
     "f413b29e0df34891f6e6ff08c313a3dea1363738c9a8b61ba1c04875c8077ee6"),
    # 17 digits, recorded from the real-float contraction; the four-qubit matmul
    # route printed other last digits under each BLAS kernel
    (["swap", "--m", "0.5", "--n", "2", "--l", "0.5", "--p", "2", "--l-prime", "0.5",
      "--p-prime", "0.5", "--precision", "17"],
     "9df83d8916ce401048fb02ce7b83724d7a0ad12b3fc53af21fe4fc3d488c81c7"),
    (["swap", "--m", "0.5", "--n", "2", "--l", "0.5", "--p", "2", "--l-prime", "0.5",
      "--p-prime", "0.5", "--precision", "17", "--output", "csv"],
     "dcae4200de1b24c10ecff85d171626523d377b45b60e5dc981c30342b871c814"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[f"{a[0]}-{i}" for i, (a, _) in enumerate(GOLDEN)])
def test_cli_stdout_matches_golden_digest(capsys, monkeypatch, argv, digest):
    monkeypatch.delenv("TELEPORTRIX_SEED", raising=False)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_GRID = ["--n-grid", "0.05:3.05:0.0125"]
SWEEP_GOLDEN = [
    # both schemes, both formats, default and full precision
    (["sweep", *_GRID, "--regime", "probabilistic2", "--output", "json", "--precision", "12"],
     "27655d6a7fa1d7d5791c492057ca76a3eb1d0495556a37a9e1da0c7e0b5f3416"),
    (["sweep", *_GRID, "--regime", "probabilistic2", "--output", "json", "--precision", "17"],
     "88056dca65b6e57458e40db1fa65d8a392cd8543e0f9b8cc46a2bdd5b38131bc"),
    (["sweep", *_GRID, "--regime", "probabilistic2", "--output", "csv", "--precision", "12"],
     "806059961cf8fade652982dbe335199fc88024a2916b8cf791cc51abd7a4f2ef"),
    (["sweep", *_GRID, "--regime", "probabilistic2", "--output", "csv", "--precision", "17"],
     "2d7e5f3e1fc738ea23e677d3c00c7a6244008b3d86fb80adcaef49467ec648c2"),
    (["sweep", *_GRID, "--regime", "probabilistic1", "--output", "json", "--precision", "12"],
     "f1a4cbc7d5a9055f0e443c3186515d0ea665a701a87f833186351e020d8054b4"),
    (["sweep", *_GRID, "--regime", "probabilistic1", "--output", "json", "--precision", "17"],
     "36d21b0492cdc645af0bfb182f9e6e858c134c1c7609bd880f59fddd2c1d0957"),
    (["sweep", *_GRID, "--regime", "probabilistic1", "--output", "csv", "--precision", "12"],
     "16047d6a0f32681abb71a2f6aae299c65092c631c6b569119b2c8e73fc26d306"),
    (["sweep", *_GRID, "--regime", "probabilistic1", "--output", "csv", "--precision", "17"],
     "6e1a51fb00a42ac9a0603ee2d1f6d526fc9a95023035f6db76229e4eb529fceb"),
    # row 0 at n = 0: zero success, Infinite repetitions and inverse
    (["sweep", "--n-grid", "0:2:0.1", "--regime", "probabilistic2", "--output", "csv"],
     "627aa25b40f2a94d1a989a09ef8f1354abfde7974d4822172fd5344523ab92eb"),
    (["sweep", "--n-grid", "0:2:0.1", "--regime", "probabilistic1", "--output", "csv"],
     "573dcc6b22fd083b1edcada287f7112c931219a03c8bcadde12bde1a2e11db90"),
    # negative n, through 0
    (["sweep", "--n-grid=-1:1:0.01", "--regime", "probabilistic2", "--precision", "17"],
     "dc0aed8f663ecdf6258cd837bd662a89b254b301c26413e42ddcb90a221e96dc"),
    (["sweep", "--n-grid=-1:1:0.01", "--regime", "probabilistic1", "--precision", "17"],
     "a72e2b63dc0d4ca4f76bbb3192f3d0ecb664ef21fbb7dae2b17fe254428eec83"),
    # about 10^4 points
    (["sweep", "--n-grid", "0.001:10:0.001", "--regime", "probabilistic2", "--output", "csv",
      "--precision", "17"],
     "07a405885afdcadc300f49f2c066d671e84f3b44c58236239c8879f24290219a"),
    (["sweep", "--n-grid", "0.13:2.2:0.00021", "--regime", "probabilistic1", "--precision", "17"],
     "73b86a7aaaac93bf8172c761579b7c01596a07f5e5f05c42e7670aeedb99bba7"),
    # The bounds of the one-pass column format, recorded before it was
    # added. Success below 1e-4 prints exponent reprs (1.999996e-06).
    (["sweep", "--n-grid", "0.001:0.05:0.0005", "--regime", "probabilistic2"],
     "78177210b3db74098da3b7e18ca3bb7d69e271997873508077e3a8697636fe21"),
    (["sweep", "--n-grid", "0.001:0.05:0.0005", "--regime", "probabilistic1", "--output", "csv"],
     "b6f732800a776d906f1bf73443b2713bdc658c9b334daf876e3b2e533f1fcb63"),
    # repetitions up to 3.6e9, past 10^(15-6); the second grid stays below it
    (["sweep", "--n-grid", "0:60000:250", "--regime", "probabilistic2", "--precision", "6"],
     "3dda73f450e0cf46d017d6992425b8db45d005b6fed55d80eba2f6043344e2fb"),
    (["sweep", "--n-grid", "0:60000:250", "--regime", "probabilistic1", "--precision", "6",
      "--output", "csv"],
     "df94aa3188901165eef20733ec1baf90cb1311bb3c794fe5eb3212db9769a2ec"),
    (["sweep", "--n-grid", "0:31500:250", "--regime", "probabilistic2", "--precision", "6",
      "--output", "csv"],
     "130d4bf7c8a2eba3172257aa1106f59463cf6888483f5d3225ab001fabae073f"),
    # 1/success 500001.00000050006 has 17 digits at precision 12
    (["sweep", "--n-grid", "0.001:0.01:0.003", "--regime", "probabilistic2"],
     "2f57398971afb8c63fa72a891336f50695dd9a15f51e83931ce27724287ba212"),
    (["sweep", "--n-grid", "0.001:0.01:0.003", "--regime", "probabilistic2", "--output", "csv"],
     "6921ba68d2f35a542fa298cdd478cfaebc390d9fdec0b49b773f675cb7e7fe7f"),
    # 15 and 16 digits: 10^(15-d) is 1 and 0.1
    (["sweep", *_GRID, "--regime", "probabilistic2", "--precision", "15"],
     "a3797715e663454830264fbf965ddf0fc804a9a722f3858a645b9e27a1a44dd1"),
    (["sweep", *_GRID, "--regime", "probabilistic1", "--precision", "15", "--output", "csv"],
     "13e74187b79d3ae073d2cf71ae9182b108ea6a550751afb14374eb03b65246ff"),
    (["sweep", *_GRID, "--regime", "probabilistic2", "--precision", "16", "--output", "csv"],
     "487b7158cc22cac8db5d798115e01711efce070202d25dd0ea31af685f8bf6b7"),
    (["sweep", *_GRID, "--regime", "probabilistic1", "--precision", "16"],
     "cfe105d79eefd5fe50ff55a43fb90919aca689208383f0e85bea7c71a0aa117b"),
]


@pytest.mark.parametrize("argv,digest", SWEEP_GOLDEN, ids=[f"sweep-{i}" for i in range(len(SWEEP_GOLDEN))])
def test_sweep_stdout_matches_golden_digest(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _reference_success(n, scheme):
    # the per-point arithmetic of the sweep loop the stack replaced
    if scheme == 2:
        params, designated = teleport.two_faithful_choice(n, 0), teleport.two_faithful_labels(0)
    else:
        params, designated = teleport.one_faithful_choice(n, 1), (teleport.one_faithful_labels(1),)
    ell, p = params.ell, params.p
    nw, lw, pw = (1.0 / math.sqrt(1.0 + abs(z) ** 2) for z in (n, ell, p))
    mats = {
        "PhiPlus": nw * lw * np.array([[1, 0], [0, n * ell.conjugate()]], dtype=complex),
        "PhiMinus": nw * lw * np.array([[ell, 0], [0, -n]], dtype=complex),
        "PsiPlus": nw * pw * np.array([[0, p.conjugate()], [n, 0]], dtype=complex),
        "PsiMinus": nw * pw * np.array([[0, -1], [n * p, 0]], dtype=complex),
    }
    total = 0
    for label in designated:
        gram = mats[label].conj().T @ mats[label]
        total += float(gram[0, 0].real + gram[1, 1].real) / 2.0
    via_api = sum(teleport.branch_probability(tm) for tm in teleport.transfer_matrices(params)
                  if tm.label in designated)
    assert via_api == total
    return total


@pytest.mark.parametrize("scheme", [2, 1])
def test_stacked_sweep_equals_per_point_loop_bit_for_bit(scheme):
    rng = np.random.default_rng(34)
    grid = np.concatenate([np.linspace(-3, 3, 601), rng.uniform(0.05, 0.5, 200),
                           10.0 ** rng.uniform(-7, 7, 200) * rng.choice([-1, 1], 200)])
    if scheme == 2:
        stack, designated = teleport.two_faithful_stack(grid, 0), teleport.two_faithful_labels(0)
    else:
        stack, designated = teleport.one_faithful_stack(grid, 1), (teleport.one_faithful_labels(1),)
    success = stack.success(designated)
    for n, got in zip(grid.tolist(), success.tolist()):
        assert got == _reference_success(complex(n), scheme)


def test_stacked_matrices_equal_scalar_construction_bit_for_bit():
    # complex parameters over ten decades, signs of zero included
    rng = np.random.default_rng(35)
    n, ell, p = (rng.normal(size=(3, 300)) + 1j * rng.normal(size=(3, 300))) * 10.0 ** rng.uniform(-5, 5, (3, 300))
    stack = teleport.branch_stack(n, ell, p)
    for g in range(300):
        nw, lw, pw = (1.0 / math.sqrt(1.0 + abs(complex(z)) ** 2) for z in (n[g], ell[g], p[g]))
        a, b, c = complex(n[g]), complex(ell[g]), complex(p[g])
        expected = np.stack([
            nw * lw * np.array([[1, 0], [0, a * b.conjugate()]], dtype=complex),
            nw * lw * np.array([[b, 0], [0, -a]], dtype=complex),
            nw * pw * np.array([[0, c.conjugate()], [a, 0]], dtype=complex),
            nw * pw * np.array([[0, -1], [a * c, 0]], dtype=complex),
        ])
        assert np.array_equal(stack.matrices[g].view(np.int64), expected.view(np.int64))


def test_entries_are_the_contraction_to_rounding():
    # M_k = C^T B_k^dag entry by entry in Python complex arithmetic, C = N diag(1, n)
    # the resource and B_k[a, 1] basis vector k: the hand-written table of
    # _entries is this product with its zeros dropped. The two group the same
    # products differently. Each side is within (2 + sqrt 5) u of the exact
    # entry's modulus (two real roundings and one complex product, u = eps / 2),
    # so they agree within (2 + sqrt 5) eps; over 20,000 such tuples the worst
    # was 2.3 eps.
    rnd = random.Random(36)
    tuples = [[cmath.rect(10.0 ** rnd.uniform(-6.0, 6.0), rnd.uniform(0.0, 2.0 * math.pi)) for _ in range(3)]
              for _ in range(2000)]
    matrices = teleport.branch_stack(*zip(*tuples)).matrices.tolist()
    eps = sys.float_info.epsilon
    for (n, ell, p), mats in zip(tuples, matrices):
        c = resource_state(n).amps.reshape(2, 2).tolist()
        vectors = general_basis((ell, p)).vectors
        for label, got in zip(BASIS_LABELS, mats):
            b = vectors[label].amps.reshape(2, 2).tolist()
            for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
                want = c[0][i] * b[j][0].conjugate() + c[1][i] * b[j][1].conjugate()
                assert abs(got[i][j] - want) <= (2.0 + math.sqrt(5.0)) * eps * abs(want)


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
        stack = teleport.protocol_branches(params)
        inputs = teleport.haar_inputs(25, rng)
        batch = teleport.evaluate_inputs(stack, inputs)
        assert batch.probabilities.shape == (25, 4)
        for i, inp in enumerate(inputs):
            measured = teleport.measured_probabilities(tuple(inp), params)
            for k, label in enumerate(BASIS_LABELS):
                assert abs(batch.probabilities[i, k] - measured[label]) < TOL_NORM
            for k, faithful in enumerate(stack.faithful[0].tolist()):
                if faithful:
                    assert abs(batch.fidelities[i, k] - 1.0) < TOL_EQ


def _log_uniform_params(rng, zero):
    # |n|, |l|, |p| log-uniform in 1e-8..1e8 with uniform phases; the
    # parameter named by `zero`, if any, is 0
    def draw():
        return cmath.rect(10.0 ** rng.uniform(-8.0, 8.0), rng.uniform(0.0, 2.0 * math.pi))
    return teleport.ProtocolParams(*(0j if name == zero else draw() for name in ("n", "ell", "p")))


@pytest.mark.parametrize("zero", [None, "n", "ell", "p"])
def test_quadratic_forms_hold_at_any_scale(zero):
    # evaluate_inputs drops the off-diagonals of H_k = U_k M_k and reads its
    # real diagonal: they must be exactly 0, and the diagonal real and >= 0.
    # Its fidelities must be those of Bob's states, from the record and by
    # brute force (U_k M_k psi renormalized), and its probabilities those of
    # the projective measurement.
    rng = np.random.default_rng(33)
    for _ in range(50):
        params = _log_uniform_params(rng, zero)
        stack = teleport.protocol_branches(params)
        inputs = teleport.haar_inputs(4, rng)
        batch = teleport.evaluate_inputs(stack, inputs)
        h = batch.corrections @ stack.matrices[0]
        assert np.all(h[:, 0, 1] == 0.0) and np.all(h[:, 1, 0] == 0.0)
        diagonal = np.stack([h[:, 0, 0], h[:, 1, 1]], axis=-1)
        assert np.all(batch.polar >= 0.0)
        assert np.all(np.abs(diagonal.real - batch.polar) <= 1e-15 * batch.polar)
        assert np.all(np.abs(diagonal.imag) <= 1e-15 * batch.polar)
        for i, psi in enumerate(inputs):
            target = PureState(("2",), psi)
            measured = teleport.measured_probabilities(tuple(psi), params)
            for k, record in enumerate(teleport.run(tuple(psi), params).records):
                assert abs(batch.probabilities[i, k] - measured[record.label]) < TOL_NORM
                if record.bob_state is None:
                    assert np.isnan(batch.fidelities[i, k])
                    continue
                bob = batch.corrections[k] @ (stack.matrices[0, k] @ psi)
                brute = PureState(("2",), bob / np.linalg.norm(bob))
                assert abs(batch.fidelities[i, k] - qcore.fidelity(record.bob_state, target)) < 1e-12
                assert abs(batch.fidelities[i, k] - qcore.fidelity(brute, target)) < 1e-12


def _reference_branch(matrix, psi):
    # one branch of one input in Python floats: p = |alpha|^2 g0 + |beta|^2 g1
    # with g the Gram diagonal of M (one nonzero entry per column), and
    # fidelity (q / sqrt(p))^2 with q = |alpha|^2 h0 + |beta|^2 h1, h = sqrt(g)
    # the diagonal of U M = sqrt(M^dag M)
    a2, b2 = (z.real * z.real + z.imag * z.imag for z in map(complex, psi))
    m = [[complex(z) for z in row] for row in matrix]
    g = [(m[0][j].real * m[0][j].real + m[0][j].imag * m[0][j].imag)
         + (m[1][j].real * m[1][j].real + m[1][j].imag * m[1][j].imag) for j in (0, 1)]
    h = [math.sqrt(x) for x in g]
    prob = a2 * g[0] + b2 * g[1]
    if prob < TOL_PROB:
        return prob, None
    ratio = (a2 * h[0] + b2 * h[1]) / math.sqrt(prob)
    return prob, min(ratio * ratio, 1.0)


def test_batch_equals_per_input_loop_bit_for_bit():
    rng = np.random.default_rng(32)
    for case in range(12):
        params = _random_params(rng, case)
        inputs = teleport.haar_inputs(200, rng)
        stack = teleport.protocol_branches(params)
        batch = teleport.evaluate_inputs(stack, inputs)
        for i, psi in enumerate(inputs):
            for k, matrix in enumerate(stack.matrices[0]):
                prob, fid = _reference_branch(matrix, psi)
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
    # one searchsorted per shot over input i mod K: the inverse-CDF rule the
    # sampler followed before it drew per-input counts, kept as a
    # statistical oracle for the rule that replaced it
    cdfs = [np.cumsum(row) for row in probabilities]
    draws = rng.random(shots)
    return np.array([min(int(np.searchsorted(cdfs[i % len(cdfs)], draws[i], side="right")), 3)
                     for i in range(shots)])


def _per_input_loop(probabilities, shots, rng):
    # one scalar rng.multinomial per input that gets a shot; input i takes
    # the shots s with s mod K == i, and draws from its row over its sum
    count = len(probabilities)
    return np.array([rng.multinomial(shots // count + (i < shots % count), row / row.sum())
                     for i, row in enumerate(probabilities[:shots])], dtype=np.int64).reshape(-1, 4)


def _per_shot_loop(probabilities, shots, rng):
    # the sampler's rule one shot at a time: every input's counts drawn as
    # in _per_input_loop, then each input's outcomes, ascending, shuffled in
    # place, inputs in order; shot s takes the next outcome of input s mod K
    count = len(probabilities)
    drawn = [np.repeat(np.arange(4), row) for row in _per_input_loop(probabilities, shots, rng)]
    for outcomes in drawn:
        rng.shuffle(outcomes)
    return np.array([drawn[s % count][s // count] for s in range(shots)], dtype=np.intp)


def _rows_with_ties(count, seed):
    # random rows, every third with a zero second entry (c0 == c1), plus
    # whole rows of dyadic ties and a row all on the last outcome
    rng = np.random.default_rng(seed)
    probabilities = rng.random((count, 4))
    probabilities[::3, 1] = 0.0
    probabilities[1::5] = (0.5, 0.0, 0.5, 0.0)
    probabilities[2::7] = (0.0, 0.0, 0.0, 1.0)
    return probabilities / probabilities.sum(axis=1, keepdims=True)


def _assert_per_input_counts(indices, expected, count):
    # the shots of input i, s = i, i + K, ..., carry input i's counts
    for i, row in enumerate(expected):
        assert np.array_equal(np.bincount(indices[i::count], minlength=4), row)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 40), st.integers(0, 400), st.integers(0, 2**32 - 1))
def test_counts_equal_per_input_multinomial_loop(rows, shots, seed):
    probabilities = _rows_with_ties(rows, seed)
    expected = _per_input_loop(probabilities, shots, np.random.default_rng(seed))
    counts = teleport.count_outcomes(probabilities, shots, np.random.default_rng(seed))
    assert np.array_equal(counts, expected.sum(axis=0))
    indices = teleport.sample_outcomes(probabilities, shots, np.random.default_rng(seed))
    _assert_per_input_counts(indices, expected, rows)


@pytest.mark.parametrize("rows,shots", [(1, 10**9), (3, 10**9), (7, 10**9 - 1), (270, 120_017)])
def test_counts_of_large_requests_equal_per_input_multinomial_loop(rows, shots):
    probabilities = _rows_with_ties(rows, shots)
    expected = _per_input_loop(probabilities, shots, np.random.default_rng(3))
    counts = teleport.count_outcomes(probabilities, shots, np.random.default_rng(3))
    assert counts.sum() == shots
    assert np.array_equal(counts, expected.sum(axis=0))


@pytest.mark.parametrize("rows,shots", [
    (1, 2 * 4096 + 5), (7, 2 * 4096 + 5), (4097, 2 * 4096 + 5), (10_000, 2 * 4096 + 5),
    (10_000, 300), (7, 3),
])
@pytest.mark.parametrize("seed", [1, 7, 4096])
def test_counts_equal_bincount_of_sampled_indices(seed, rows, shots):
    probabilities = _rows_with_ties(rows, rows + shots)
    counts = teleport.count_outcomes(probabilities, shots, np.random.default_rng(seed))
    assert counts.dtype == np.int64 and counts.shape == (4,)
    indices = teleport.sample_outcomes(probabilities, shots, np.random.default_rng(seed))
    assert indices.shape == (shots,)
    assert np.array_equal(np.bincount(indices, minlength=4), counts)
    _assert_per_input_counts(indices, _per_input_loop(probabilities, shots, np.random.default_rng(seed)), rows)


@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_sampler_matches_per_shot_loop_for_any_chunk(chunk):
    # a chunk is one round of K shots, one per input; five shots past the
    # last round give inputs 0-4 one shot more than inputs 5 and 6, and at
    # one round inputs 5 and 6 have a single shot that is not shuffled
    rng = np.random.default_rng(33)
    probabilities = rng.random((7, 4))
    probabilities[2] = (0.5, 0.0, 0.5, 0.0)
    probabilities[4] = (0.0, 0.0, 0.0, 1.0)
    probabilities /= probabilities.sum(axis=1, keepdims=True)
    shots = 7 * chunk + 5
    expected = _per_shot_loop(probabilities, shots, np.random.default_rng(5))
    got = teleport.sample_outcomes(probabilities, shots, np.random.default_rng(5))
    assert np.array_equal(got, expected)


def test_sampler_draw_on_a_cdf_step_goes_to_the_later_outcome():
    # the CDF of this row is flat across outcome 1, so the mass past its
    # step at 0.5 goes to outcome 2; one shot is the outcome that a
    # one-trial multinomial of the row puts its count on
    row = np.array([0.5, 0.0, 0.25, 0.25])
    seeds = range(400)
    got = [int(teleport.sample_outcomes([row], 1, np.random.default_rng(seed))[0]) for seed in seeds]
    expected = [int(np.argmax(np.random.default_rng(seed).multinomial(1, row))) for seed in seeds]
    assert got == expected
    assert set(got) == {0, 2, 3}


@pytest.mark.parametrize("rounds", [1, 4, 4096])
def test_counts_of_draws_on_cdf_steps(rounds):
    # shot s uses row s mod 2; the second row's CDF is flat across
    # outcomes 0 and 2, so its shots are all 1 or 3, and the first row
    # gets the one shot past the last round
    probabilities = np.array([[0.25, 0.25, 0.25, 0.25], [0.0, 0.5, 0.0, 0.5]])
    shots = 2 * rounds + 1
    for seed in range(20):
        expected = _per_input_loop(probabilities, shots, np.random.default_rng(seed))
        assert expected[1, [0, 2]].tolist() == [0, 0]
        indices = teleport.sample_outcomes(probabilities, shots, np.random.default_rng(seed))
        assert set(indices[1::2].tolist()) <= {1, 3}
        _assert_per_input_counts(indices, expected, 2)
        counts = teleport.count_outcomes(probabilities, shots, np.random.default_rng(seed))
        assert counts.tolist() == expected.sum(axis=0).tolist() == np.bincount(indices, minlength=4).tolist()


def test_sampler_matches_per_shot_loop_in_mean():
    # Both rules give input i's shots the multinomial distribution of row i,
    # so over 200 seeds their mean counts agree within 5 standard errors of
    # the difference: Var(count_k) = sum_i n_i p_ik (1 - p_ik) per seed.
    probabilities, shots, seeds = _rows_with_ties(7, 33), 1001, range(200)
    new = [teleport.count_outcomes(probabilities, shots, np.random.default_rng(seed)) for seed in seeds]
    old = [np.bincount(_reference_indices(probabilities, shots, np.random.default_rng(seed)), minlength=4)
           for seed in seeds]
    per_input = np.array([shots // 7 + (i < shots % 7) for i in range(7)])[:, None]
    variance = (per_input * probabilities * (1.0 - probabilities)).sum(axis=0)
    gap = np.abs(np.mean(new, axis=0) - np.mean(old, axis=0))
    assert np.all(gap <= 5.0 * np.sqrt(2.0 * variance / len(seeds)))


def test_zero_probability_outcome_is_never_drawn():
    # a zero entry anywhere in a row, and a row all on the last outcome,
    # whose shots are all outcome 3
    probabilities = np.array([[0.5, 0.0, 0.25, 0.25], [0.0, 0.5, 0.0, 0.5], [0.25, 0.25, 0.5, 0.0],
                              [0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0], [0.1, 0.0, 0.2, 0.7]])
    for seed in range(50):
        indices = teleport.sample_outcomes(probabilities, 6 * 1000 + 5, np.random.default_rng(seed))
        for i, row in enumerate(probabilities):
            assert set(np.unique(indices[i::6]).tolist()) <= set(np.flatnonzero(row).tolist())
        assert np.all(indices[3::6] == 3)
    counts = teleport.count_outcomes(probabilities[[3]], 10**9, np.random.default_rng(0))
    assert counts.tolist() == [0, 0, 0, 10**9]


@pytest.mark.parametrize("bad", [-0.1, -0.0 - 1e-300, np.nan])
def test_counts_reject_negative_or_nan_rows(bad):
    probabilities = np.array([[0.25, 0.25, 0.25, 0.25], [0.5, bad, 0.3, 0.3]])
    with pytest.raises(BadInput):
        teleport.count_outcomes(probabilities, 10, np.random.default_rng(0))


@pytest.mark.parametrize("total", [1.1, 0.5])
def test_sampler_rejects_a_row_that_does_not_sum_to_one(total):
    probabilities = np.array([[0.25, 0.25, 0.25, 0.25], [total / 4] * 4])
    with pytest.raises(BadInput, match="must sum to 1"):
        teleport.count_outcomes(probabilities, 10, np.random.default_rng(0))
    with pytest.raises(BadInput, match="must sum to 1"):
        teleport.sample_outcomes(probabilities, 10, np.random.default_rng(0))


def test_sampler_takes_a_row_within_tol_norm_of_one():
    # numpy's multinomial refuses first entries summing past 1 + 1e-12; the
    # sampler divides each row by its sum first
    probabilities = np.array([[0.5, 0.5 + TOL_NORM / 2, 0.0, 0.0]])
    counts = teleport.count_outcomes(probabilities, 1000, np.random.default_rng(0))
    assert counts.sum() == 1000 and counts[2:].tolist() == [0, 0]


@pytest.mark.parametrize("shots", [-5, 1.5, "3", None])
def test_sampler_rejects_a_shot_count_that_is_not_a_nonnegative_integer(shots):
    probabilities = np.full((2, 4), 0.25)
    with pytest.raises(BadInput):
        teleport.count_outcomes(probabilities, shots, np.random.default_rng(0))
    with pytest.raises(BadInput):
        teleport.sample_outcomes(probabilities, shots, np.random.default_rng(0))


@pytest.mark.parametrize("probabilities", [np.zeros((0, 4)), np.full((3, 3), 1 / 3), np.full(4, 0.25)])
def test_sampler_rejects_a_table_that_is_not_k_by_4(probabilities):
    with pytest.raises(BadInput):
        teleport.count_outcomes(probabilities, 10, np.random.default_rng(0))
    with pytest.raises(BadInput):
        teleport.sample_outcomes(probabilities, 10, np.random.default_rng(0))
