"""Kernel guards: completeness check, parameter overflow, batch input validation."""

import numpy as np
import pytest

from teleportrix import teleport
from teleportrix.errors import BadInput, CompletenessError, NonFinite
from teleportrix.teleport import ProtocolParams
from teleportrix.tolerances import TOL_NORM


class TestCompleteness:
    def test_transfer_matrices_are_complete(self):
        mats = teleport.transfer_matrices(ProtocolParams(0.5 + 0.2j, 0.3, 2))
        teleport.check_completeness(np.stack([tm.matrix for tm in mats]))

    def test_incomplete_stack_is_rejected(self):
        mats = np.stack([tm.matrix for tm in teleport.transfer_matrices(ProtocolParams(0.5, 0.5, 2))])
        with pytest.raises(CompletenessError):
            teleport.check_completeness(mats[:3])
        scaled = mats.copy()
        scaled[0] *= 1.001
        with pytest.raises(CompletenessError):
            teleport.check_completeness(scaled)

    def test_off_diagonal_total_is_checked(self):
        # the Grams' diagonals sum to I, their off-diagonals to 1
        mats = np.array([[[1, 1], [0, 0]], [[0, 0], [1, 1]]]) / np.sqrt(2)
        with pytest.raises(CompletenessError) as excinfo:
            teleport.check_completeness(mats)
        assert float(str(excinfo.value).rsplit(" ", 1)[1]) > 0.99

    def test_branch_stack_checks_the_matrices_it_builds(self, monkeypatch):
        entries = teleport._entries
        monkeypatch.setattr(teleport, "_entries", lambda *args: entries(*args) * 1.001)
        with pytest.raises(CompletenessError):
            teleport.branch_stack([0.5], [0.5], [2])

    def test_empty_input_is_bad_input(self):
        with pytest.raises(BadInput):
            teleport.check_completeness([])

    def test_non_finite_stack_is_rejected(self):
        mats = np.stack([tm.matrix for tm in teleport.transfer_matrices(ProtocolParams(1, 1, 1))])
        mats[1, 0, 0] = np.nan
        with pytest.raises(CompletenessError):
            teleport.check_completeness(mats)


class TestOverflow:
    @pytest.mark.parametrize("n,ell,p", [(1e200, 1, 1), (1, 1e200j, 1), (1, 1, -1e160)])
    def test_squared_modulus_overflow_raises_non_finite(self, n, ell, p):
        params = ProtocolParams(n, ell, p)
        with pytest.raises(NonFinite):
            teleport.classify(params)
        with pytest.raises(NonFinite):
            teleport.run((1, 0), params)

    @pytest.mark.parametrize("func", [teleport.expected_repetitions,
                                      teleport.success_probability_analytic])
    def test_analytic_overflow_raises_non_finite(self, func):
        with pytest.raises(NonFinite):
            func(1e100)

    def test_large_but_representable_parameter_still_classifies(self):
        params = ProtocolParams(1e100, 1e100, 1)
        assert np.isfinite(teleport.classify(params).success_probability)
        record_probs = [r.probability for r in teleport.run((0.6, 0.8), params).records]
        assert abs(sum(record_probs) - 1.0) < 1e-12


class TestInputBatch:
    @pytest.mark.parametrize("inputs", [
        [],
        [(1, 0, 0)],
        [(1, 0), (0.6, 0.6)],
        [(np.nan, 1)],
        [(np.inf, 0)],
        [(1e200, 0)],  # |alpha|^2 overflows, with no warning
    ])
    def test_bad_batches_are_rejected(self, inputs):
        branches = teleport.protocol_branches(ProtocolParams(0.5, 0.5, 2))
        with pytest.raises(BadInput):
            teleport.evaluate_inputs(branches, inputs)

    def test_probabilities_sum_to_one_and_faithful_rows_agree(self):
        params = teleport.two_faithful_choice(0.4 + 0.3j, 1)
        stack = teleport.protocol_branches(params)
        batch = teleport.evaluate_inputs(stack, teleport.haar_inputs(64, np.random.default_rng(3)))
        assert np.allclose(batch.probabilities.sum(axis=1), 1.0, atol=1e-12)
        faithful = stack.faithful[0]
        assert faithful.sum() == 2
        col = batch.probabilities[:, faithful]
        assert np.allclose(col, teleport.success_probability_analytic(params.n, k=1), atol=1e-12)

    def test_inputs_are_normalized_within_tol_norm(self):
        # |0.6|^2 + |0.8 + d|^2 is off 1 by 1.6 d: 0.9 and 1.1 TOL_NORM either
        # side of the bound, and 9.6 TOL_NORM, which is within TOL_EQ
        params = ProtocolParams(0.5, 0.5, 2)
        inside = (0.6, 0.8 + 0.9 * TOL_NORM / 1.6)
        result = teleport.run(inside, params, shots=1000)
        assert abs(sum(r.probability for r in result.records) - 1.0) < 2 * TOL_NORM
        assert abs(sum(result.frequencies.values()) - 1.0) < 1e-12
        stack = teleport.protocol_branches(params)
        assert teleport.evaluate_inputs(stack, [(1, 0), inside]).probabilities.shape == (2, 4)
        for outside in [(0.6, 0.8 + 1.1 * TOL_NORM / 1.6), (0.6, 0.8000000006)]:
            with pytest.raises(BadInput, match="TOL_NORM"):
                teleport.run(outside, params)
            with pytest.raises(BadInput, match="TOL_NORM"):
                teleport.evaluate_inputs(stack, [(1, 0), outside])

    def test_haar_inputs_are_normalized(self):
        inputs = teleport.haar_inputs(100, np.random.default_rng(4))
        assert inputs.shape == (100, 2)
        assert np.allclose(np.sum(np.abs(inputs) ** 2, axis=1), 1.0, atol=1e-12)
