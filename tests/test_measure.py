"""Projective pair measurement: exact enumeration and seeded sampling."""

import math

import numpy as np
import pytest

from teleportrix import measure, qcore, teleport
from teleportrix.ebasis import BASIS_LABELS, BasisParams, general_basis, resource_state
from teleportrix.errors import BadInput, BadPair
from teleportrix.qcore import fidelity, make_state, tensor
from teleportrix.tolerances import TOL_EQ

from register_reference import basis_state


def haar_input(rng):
    vec = rng.normal(size=2) + 1j * rng.normal(size=2)
    vec = vec / np.linalg.norm(vec)
    return complex(vec[0]), complex(vec[1])


def classic_setup(alpha, beta, n=1.0):
    state = tensor(make_state(("a",), (alpha, beta)), resource_state(n))
    return state


class TestProjectAll:
    def test_classic_teleportation_branches(self):
        alpha, beta = 0.6, 0.8j
        outcomes = measure.project_all(
            classic_setup(alpha, beta), ("a", "1"), general_basis(BasisParams(1, 1))
        )
        expected_residuals = {
            "PhiPlus": (alpha, beta),
            "PhiMinus": (alpha, -beta),
            "PsiPlus": (beta, alpha),
            "PsiMinus": (-beta, alpha),
        }
        for outcome in outcomes:
            assert outcome.probability == pytest.approx(0.25, abs=1e-12)
            target = make_state(("2",), expected_residuals[outcome.label])
            assert fidelity(outcome.residual, target) >= 1 - TOL_EQ

    def test_deterministic_single_outcome(self):
        state = tensor(basis_state(("a", "b"), "00"), make_state(("c",), (0.6, 0.8)))
        outcomes = measure.project_all(state, ("a", "b"), general_basis(BasisParams(0, 0)))
        probs = {o.label: o.probability for o in outcomes}
        assert probs["PhiPlus"] == pytest.approx(1.0, abs=1e-12)
        assert probs["PhiMinus"] == pytest.approx(0.0, abs=1e-12)
        assert outcomes[1].residual is None

    def test_branch_probability_input_independent(self):
        rng = np.random.default_rng(3)
        basis = general_basis(BasisParams(0.5, 0.5))
        for _ in range(20):
            alpha, beta = haar_input(rng)
            outcomes = measure.project_all(
                classic_setup(alpha, beta, n=0.5), ("a", "1"), basis
            )
            probs = {o.label: o.probability for o in outcomes}
            assert probs["PhiMinus"] == pytest.approx(0.16, abs=1e-12)
            assert probs["PsiPlus"] == pytest.approx(0.16, abs=1e-12)

    def test_probability_conservation_random(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            vec = rng.normal(size=8) + 1j * rng.normal(size=8)
            state = make_state(("a", "b", "c"), vec)
            basis = general_basis(BasisParams(
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            ))
            pair = tuple(rng.permutation(["a", "b", "c"])[:2])
            outcomes = measure.project_all(state, pair, basis)
            assert abs(sum(o.probability for o in outcomes) - 1.0) < 1e-10

    def test_residual_mixture_reconstructs_reduced_density(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            vec = rng.normal(size=8) + 1j * rng.normal(size=8)
            state = make_state(("a", "b", "c"), vec)
            basis = general_basis(BasisParams(
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            ))
            outcomes = measure.project_all(state, ("a", "b"), basis)
            mix = np.zeros((2, 2), dtype=complex)
            for o in outcomes:
                if o.residual is not None:
                    mix += o.probability * np.outer(o.residual.amps, o.residual.amps.conj())
            rho = qcore.reduced_density(state, ("c",))
            np.testing.assert_allclose(mix, rho.entries, atol=1e-9)

    def test_bad_pairs(self):
        state = classic_setup(1.0, 0.0)
        basis = general_basis(BasisParams(1, 1))
        with pytest.raises(BadPair):
            measure.project_all(state, ("a",), basis)
        with pytest.raises(BadPair):
            measure.project_all(state, ("a", "a"), basis)
        with pytest.raises(BadPair):
            measure.project_all(state, ("a", "z"), basis)
        two_qubit = resource_state(1)
        with pytest.raises(BadPair):
            measure.project_all(two_qubit, ("1", "2"), basis)


class TestSample:
    def test_degenerate_distribution(self):
        state = tensor(basis_state(("a", "b"), "00"), basis_state(("c",), "0"))
        basis = general_basis(BasisParams(0, 0))
        for seed in (0, 1, 12345, 2**63 - 1):
            assert measure.sample(state, ("a", "b"), basis, seed).label == "PhiPlus"

    @pytest.mark.parametrize("seed", [-1, 1.5, "7"])
    def test_seed_that_is_not_a_nonnegative_integer_is_bad_input(self, seed):
        with pytest.raises(BadInput, match="^seed"):
            measure.sample(classic_setup(0.6, 0.8), ("a", "1"), general_basis(BasisParams(1, 1)), seed)

    def test_same_seed_same_outcome(self):
        state = classic_setup(0.6, 0.8)
        basis = general_basis(BasisParams(1, 1))
        first = [measure.sample(state, ("a", "1"), basis, seed=s).label for s in range(50)]
        second = [measure.sample(state, ("a", "1"), basis, seed=s).label for s in range(50)]
        assert first == second

    def test_classic_frequencies_converge(self):
        # 1e5 shots, seeds split as seed + shot index; each frequency must
        # land within 3 binomial standard errors of 0.25.
        state = classic_setup(0.6, 0.8)
        basis = general_basis(BasisParams(1, 1))
        shots = 100_000
        counts = {label: 0 for label in BASIS_LABELS}
        for i in range(shots):
            counts[measure.sample(state, ("a", "1"), basis, seed=777 + i).label] += 1
        bound = 3.0 * math.sqrt(0.25 * 0.75 / shots)
        for label in BASIS_LABELS:
            assert abs(counts[label] / shots - 0.25) <= bound

    def test_draws_the_outcome_of_the_shot_sampler(self):
        # the one-shot case of teleport.sample_outcomes from the same seed,
        # also where outcomes have probability 0
        rng = np.random.default_rng(12)
        states = [classic_setup(0.6, 0.8, n=0.4 - 0.2j),
                  tensor(basis_state(("a", "b"), "01"), make_state(("c",), (0.6, 0.8j))),
                  tensor(basis_state(("a", "b"), "00"), make_state(("c",), (1, 0)))]
        for state in states:
            pair = ("a", "1") if "1" in state.qubits else ("a", "b")
            basis = general_basis(BasisParams(*(complex(*rng.uniform(-2, 2, size=2)) for _ in range(2))))
            probs = np.array([[o.probability for o in measure.project_all(state, pair, basis)]])
            for seed in range(300):
                want = teleport.sample_outcomes(probs, 1, np.random.default_rng(seed))[0]
                assert measure.sample(state, pair, basis, seed).label == BASIS_LABELS[want]

    def test_never_draws_a_zero_probability_outcome(self):
        # 0.6|00> + 0.8|01> in the computational basis: probabilities
        # (0.36, 0, 0.64, 0); only PhiPlus and PsiPlus are ever drawn
        state = tensor(make_state(("a", "b"), (0.6, 0.8, 0, 0)), basis_state(("c",), "0"))
        basis = general_basis(BasisParams(0, 0))
        labels = {measure.sample(state, ("a", "b"), basis, seed).label for seed in range(300)}
        assert labels == {"PhiPlus", "PsiPlus"}

    def test_equals_the_drawn_outcome_of_project_all(self):
        # sample builds only the drawn outcome's residual; it must be the
        # outcome project_all gives at the index sample_outcomes draws for
        # the seed: same label, probability bits and residual amplitudes.
        rng = np.random.default_rng(11)
        for trial in range(40):
            vec = rng.normal(size=8) + 1j * rng.normal(size=8)
            if trial % 4 == 0:
                # (a, b) in |01>: both Phi outcomes have probability 0
                state = tensor(basis_state(("a", "b"), "01"), make_state(("c",), vec[:2]))
            else:
                state = make_state(("a", "b", "c"), vec)
            basis = general_basis(BasisParams(*(complex(*rng.uniform(-2, 2, size=2)) for _ in range(2))))
            outcomes = measure.project_all(state, ("a", "b"), basis)
            probs = [[o.probability for o in outcomes]]
            for seed in range(50 * trial, 50 * trial + 50):
                want = outcomes[teleport.sample_outcomes(probs, 1, np.random.default_rng(seed))[0]]
                got = measure.sample(state, ("a", "b"), basis, seed)
                assert (got.label, got.probability.hex()) == (want.label, want.probability.hex())
                if want.residual is None:
                    assert got.residual is None
                else:
                    assert got.residual.qubits == want.residual.qubits
                    assert got.residual.amps.tobytes() == want.residual.amps.tobytes()
