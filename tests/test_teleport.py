"""Teleportation protocol: transfer matrices, faithfulness, corrections,
regime classification, analytic cross-checks, exhaustive and sampled runs."""

import math

import numpy as np
import pytest

from teleportrix import teleport
from teleportrix.ebasis import BASIS_LABELS, basis_entropy
from teleportrix.errors import BadInput, NonFinite, ShapeError, SingularMatrix
from teleportrix.qcore import PAULI_I
from teleportrix.teleport import (
    ProtocolParams,
    TransferMatrix,
    classify,
    correction_unitary,
    expected_repetitions,
    is_faithful,
    measured_probabilities,
    one_faithful_choice,
    one_faithful_labels,
    repetition_counts,
    run,
    success_probability_analytic,
    transfer_matrices,
    two_faithful_choice,
    two_faithful_labels,
)

from register_reference import PAULI_X, PAULI_Y, PAULI_Z


def haar_input(rng):
    vec = rng.normal(size=2) + 1j * rng.normal(size=2)
    vec = vec / np.linalg.norm(vec)
    return complex(vec[0]), complex(vec[1])


def random_complex(rng, lo=0.1, hi=2.0):
    r = rng.uniform(lo, hi)
    phase = rng.uniform(0, 2 * math.pi)
    return r * complex(math.cos(phase), math.sin(phase))


def same_up_to_phase(u, v):
    return abs(abs(np.trace(u.conj().T @ v)) - 2.0) < 1e-9


class TestTransferMatrices:
    def test_classic_case_is_half_paulis(self):
        mats = {tm.label: tm.matrix for tm in transfer_matrices(ProtocolParams(1, 1, 1))}
        np.testing.assert_allclose(mats["PhiPlus"], PAULI_I / 2, atol=1e-12)
        np.testing.assert_allclose(mats["PhiMinus"], PAULI_Z / 2, atol=1e-12)
        np.testing.assert_allclose(mats["PsiPlus"], PAULI_X / 2, atol=1e-12)
        np.testing.assert_allclose(mats["PsiMinus"], np.array([[0, -1], [1, 0]]) / 2, atol=1e-12)

    def test_untangled_resource_has_no_faithful_matrix(self):
        mats = transfer_matrices(ProtocolParams(0, 0.7, 1.3))
        for tm in mats:
            assert not is_faithful(tm)
        phi_minus = mats[1].matrix
        assert abs(phi_minus[1, 1]) == 0.0

    def test_mixed_example(self):
        mats = {tm.label: tm for tm in transfer_matrices(ProtocolParams(0.5, 0.5, 2))}
        nw = 1 / math.sqrt(1.25)
        np.testing.assert_allclose(
            mats["PhiMinus"].matrix, nw * nw * np.diag([0.5, -0.5]), atol=1e-12
        )
        assert is_faithful(mats["PhiMinus"])
        assert not is_faithful(mats["PsiPlus"])

    def test_completeness_on_random_params(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            params = ProtocolParams(
                random_complex(rng, 0.0, 2.0), random_complex(rng, 0.0, 2.0),
                random_complex(rng, 0.0, 2.0),
            )
            total = sum(
                tm.matrix.conj().T @ tm.matrix for tm in transfer_matrices(params)
            )
            assert np.max(np.abs(total - np.eye(2))) < 1e-10

    def test_non_finite_rejected(self):
        with pytest.raises(NonFinite):
            ProtocolParams(float("inf"), 1, 1)


class TestIsFaithful:
    def test_unitary_multiple(self):
        assert is_faithful(TransferMatrix("x", PAULI_X / 2))

    def test_unequal_diagonal(self):
        assert not is_faithful(TransferMatrix("x", 0.5 * np.diag([1.0, 0.25])))

    def test_zero_matrix(self):
        assert not is_faithful(TransferMatrix("x", np.zeros((2, 2))))


class TestCallerTransferMatrix:
    def test_square_matrix_of_another_size_is_a_shape_error(self):
        with pytest.raises(ShapeError):
            TransferMatrix("x", np.eye(3))

    def test_non_square_matrix_is_a_shape_error(self):
        with pytest.raises(ShapeError):
            TransferMatrix("x", np.ones((2, 3)))

    @pytest.mark.parametrize("matrix", [[[1, 0], [0]], [["a", 0], [0, 1]], [[{}, 0], [0, 1]]], ids=repr)
    def test_ragged_or_non_numeric_matrix_is_a_shape_error(self, matrix):
        with pytest.raises(ShapeError):
            TransferMatrix("x", matrix)

    def test_nested_list_is_read_as_a_matrix(self):
        tm = TransferMatrix("x", [[0, 0.5], [0.5, 0]])
        assert is_faithful(tm)
        assert teleport.branch_probability(tm) == 0.25

    @pytest.mark.parametrize("entry", [float("nan"), float("inf"), complex(0, float("-inf"))], ids=repr)
    def test_non_finite_entry_is_rejected(self, entry):
        matrix = PAULI_X / 2
        matrix[0, 1] = entry
        with pytest.raises(NonFinite):
            TransferMatrix("x", matrix)

    def test_matrix_is_a_read_only_copy(self):
        matrix = PAULI_X / 2
        tm = TransferMatrix("x", matrix)
        matrix[0, 1] = 1.0
        assert tm.matrix[0, 1] == 0.5
        assert not tm.matrix.flags.writeable


class TestCorrectionUnitary:
    def test_classic_corrections_match_pauli_list(self):
        mats = {tm.label: tm for tm in transfer_matrices(ProtocolParams(1, 1, 1))}
        assert same_up_to_phase(correction_unitary(mats["PhiPlus"]), PAULI_I)
        assert same_up_to_phase(correction_unitary(mats["PhiMinus"]), PAULI_Z)
        assert same_up_to_phase(correction_unitary(mats["PsiPlus"]), PAULI_X)
        assert same_up_to_phase(correction_unitary(mats["PsiMinus"]), 1j * PAULI_Y)

    def test_probabilistic_choice_corrections(self):
        # l = n = p*: Bob repairs PhiMinus with a z flip and PsiPlus with
        # an x flip.
        n = 0.5
        mats = {tm.label: tm for tm in transfer_matrices(two_faithful_choice(n, 0))}
        assert same_up_to_phase(correction_unitary(mats["PhiMinus"]), PAULI_Z)
        assert same_up_to_phase(correction_unitary(mats["PsiPlus"]), PAULI_X)

    def test_identity_multiple(self):
        assert same_up_to_phase(
            correction_unitary(TransferMatrix("x", 0.3 * PAULI_I)), PAULI_I
        )

    def test_singular_matrix_raises(self):
        with pytest.raises(SingularMatrix):
            correction_unitary(TransferMatrix("x", np.zeros((2, 2))))

    def test_faithful_correction_restores_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = random_complex(rng)
            params = two_faithful_choice(n, int(rng.integers(4)))
            for tm in transfer_matrices(params):
                if not is_faithful(tm):
                    continue
                fixed = correction_unitary(tm) @ tm.matrix
                scale = fixed[0, 0]
                assert abs(scale) > 1e-12
                np.testing.assert_allclose(fixed, scale * np.eye(2), atol=1e-10)


class TestClassify:
    def test_classic_is_deterministic(self):
        report = classify(ProtocolParams(1, 1, 1))
        assert report.regime == "Deterministic"
        assert report.success_probability == pytest.approx(1.0, abs=1e-12)
        assert report.expected_repetitions == pytest.approx(1.0, abs=1e-12)

    def test_two_outcome_choice(self):
        report = classify(two_faithful_choice(0.5, 0))
        assert report.regime == "Probabilistic(k=2)"
        assert set(report.faithful_outcomes) == {"PhiMinus", "PsiPlus"}
        assert report.success_probability == pytest.approx(0.32, abs=1e-12)

    def test_one_outcome_choice(self):
        report = classify(ProtocolParams(0.5, 0.5, 3))
        assert report.regime == "Probabilistic(k=1)"
        assert report.faithful_outcomes == ("PhiMinus",)
        assert report.success_probability == pytest.approx(0.16, abs=1e-12)

    def test_unrelated_basis_is_no_faithful(self):
        report = classify(ProtocolParams(1, 0, 0))
        assert report.regime == "NoFaithful"
        assert report.success_probability == 0.0
        assert math.isinf(report.expected_repetitions)

    def test_untangled_resource_classifies_instead_of_raising(self):
        report = classify(ProtocolParams(0, 0.7, 1.3))
        assert report.regime == "NoFaithful"
        assert math.isinf(report.expected_repetitions)

    def test_all_two_faithful_choices(self):
        rng = np.random.default_rng(8)
        for index in range(4):
            for _ in range(100):
                n = random_complex(rng, 0.1, 0.95)
                report = classify(two_faithful_choice(n, index))
                assert report.regime == "Probabilistic(k=2)"
                assert set(report.faithful_outcomes) == set(two_faithful_labels(index))
                expected = 2 * abs(n) ** 2 / (1 + abs(n) ** 2) ** 2
                assert abs(report.success_probability - expected) < 1e-12

    def test_all_one_faithful_choices(self):
        rng = np.random.default_rng(10)
        for index in range(4):
            for _ in range(100):
                n = random_complex(rng, 0.1, 0.95)
                report = classify(one_faithful_choice(n, index))
                assert report.regime == "Probabilistic(k=1)"
                assert report.faithful_outcomes == (one_faithful_labels(index),)
                expected = abs(n) ** 2 / (1 + abs(n) ** 2) ** 2
                assert abs(report.success_probability - expected) < 1e-12

    def test_faithful_entropy_matches_resource_entropy(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            n = random_complex(rng)
            if rng.random() < 0.5:
                params = two_faithful_choice(n, int(rng.integers(4)))
            else:
                params = one_faithful_choice(n, int(rng.integers(4)))
            for tm in transfer_matrices(params):
                if not is_faithful(tm):
                    continue
                c = params.ell if tm.label.startswith("Phi") else params.p
                assert abs(basis_entropy(c) - basis_entropy(n)) < 1e-9


class TestAnalyticFormulas:
    def test_success_probability_values(self):
        assert success_probability_analytic(1, k=2) == pytest.approx(0.5, abs=1e-15)
        assert success_probability_analytic(0, k=1) == 0.0
        assert success_probability_analytic(0.5, k=2) == pytest.approx(0.32, abs=1e-15)
        assert success_probability_analytic(0.5, k=2) == pytest.approx(
            classify(two_faithful_choice(0.5, 0)).success_probability, abs=1e-12
        )

    def test_expected_repetitions(self):
        assert expected_repetitions(1) == pytest.approx(4.0, abs=1e-15)
        assert math.isinf(expected_repetitions(0))
        assert expected_repetitions(0.5) == pytest.approx(6.25, abs=1e-15)

    def test_repetition_counts_reports_both_figures(self):
        counts = repetition_counts(1)
        assert counts["by_formula"] == pytest.approx(4.0)
        assert counts["by_inverse_success"] == pytest.approx(2.0)
        counts = repetition_counts(0)
        assert math.isinf(counts["by_formula"])
        assert math.isinf(counts["by_inverse_success"])


class TestRun:
    def test_classic_case(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            result = run(haar_input(rng), ProtocolParams(1, 1, 1))
            for record in result.records:
                assert record.probability == pytest.approx(0.25, abs=1e-12)
                assert record.faithful
                assert record.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_probabilistic_choice_zero_input(self):
        result = run((1, 0), two_faithful_choice(0.5, 0))
        records = {r.label: r for r in result.records}
        assert records["PhiMinus"].probability == pytest.approx(0.16, abs=1e-12)
        assert records["PhiMinus"].fidelity == pytest.approx(1.0, abs=1e-10)
        # PhiPlus happens to preserve this particular input perfectly
        # even though the branch is not faithful.
        assert not records["PhiPlus"].faithful
        assert records["PhiPlus"].fidelity == pytest.approx(1.0, abs=1e-10)

    def test_unfaithful_branch_average_fidelity_below_one(self):
        rng = np.random.default_rng(16)
        params = two_faithful_choice(0.5, 0)
        result = run((0, 1), params)
        records = {r.label: r for r in result.records}
        np.testing.assert_allclose(
            np.abs(records["PhiPlus"].bob_state.amps), [0, 1], atol=1e-12
        )
        assert records["PhiPlus"].fidelity == pytest.approx(1.0, abs=1e-10)
        inputs = [haar_input(rng) for _ in range(10_000)]
        batch = teleport.evaluate_inputs(teleport.protocol_branches(params), inputs)
        assert np.mean(batch.fidelities[:, 0]) < 0.95
        # run is the batch of one: its PhiPlus record is row 0 of the batch, bit for bit
        record = run(inputs[0], params).records[0]
        assert record.probability.hex() == float(batch.probabilities[0, 0]).hex()
        assert record.fidelity.hex() == float(batch.fidelities[0, 0]).hex()
        assert np.array_equal(record.bob_state.amps.view(np.int64), batch.bob[0, 0].view(np.int64))

    def test_transfer_probabilities_match_projection(self):
        rng = np.random.default_rng(18)
        for _ in range(300):
            params = ProtocolParams(
                random_complex(rng, 0.0, 2.0), random_complex(rng, 0.0, 2.0),
                random_complex(rng, 0.0, 2.0),
            )
            inp = haar_input(rng)
            from_matrices = {r.label: r.probability for r in run(inp, params).records}
            from_projection = measured_probabilities(inp, params)
            for label in BASIS_LABELS:
                assert abs(from_matrices[label] - from_projection[label]) < 1e-10

    def test_faithful_probability_state_independent(self):
        rng = np.random.default_rng(20)
        params = two_faithful_choice(0.4 + 0.3j, 0)
        reference = None
        for _ in range(100):
            records = {r.label: r for r in run(haar_input(rng), params).records}
            probs = (records["PhiMinus"].probability, records["PsiPlus"].probability)
            if reference is None:
                reference = probs
            assert abs(probs[0] - reference[0]) < 1e-10
            assert abs(probs[1] - reference[1]) < 1e-10

    def test_sampled_deterministic_and_convergent(self):
        params = two_faithful_choice(0.5, 0)
        first = run((0.6, 0.8), params, shots=20_000, seed=99)
        second = run((0.6, 0.8), params, shots=20_000, seed=99)
        assert first.shot_labels == second.shot_labels
        faithful_freq = sum(first.frequencies[label] for label in first.report.faithful_outcomes)
        bound = 3.0 * math.sqrt(0.32 * 0.68 / 20_000)
        assert abs(faithful_freq - 0.32) <= bound

    def test_bad_inputs(self):
        with pytest.raises(BadInput):
            run((1, 1), ProtocolParams(1, 1, 1))
        with pytest.raises(BadInput):
            run((float("nan"), 0), ProtocolParams(1, 1, 1))
        with pytest.raises(BadInput):
            run((1, 0), ProtocolParams(1, 1, 1), shots=0, seed=1)

    def test_fractional_shot_count_is_bad_input(self):
        with pytest.raises(BadInput):
            run((1, 0), ProtocolParams(1, 1, 1), shots=1.5, seed=1)

    def test_shot_count_of_another_type_is_bad_input(self):
        # checked before run compares it with 1: a str used to raise TypeError
        with pytest.raises(BadInput):
            run((1, 0), ProtocolParams(1, 1, 1), shots="3", seed=1)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7"])
    def test_seed_that_is_not_a_nonnegative_integer_is_bad_input(self, seed):
        # numpy's generator used to raise a bare ValueError or TypeError
        with pytest.raises(BadInput, match="^seed"):
            run((1, 0), ProtocolParams(1, 1, 1), shots=10, seed=seed)
