"""Kernel guards: completeness check, parameter overflow, batch input validation."""

import numpy as np
import pytest

from teleportrix import teleport
from teleportrix.errors import BadInput, CompletenessError, NonFinite
from teleportrix.teleport import ProtocolParams


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
    ])
    def test_bad_batches_are_rejected(self, inputs):
        branches = teleport.protocol_branches(ProtocolParams(0.5, 0.5, 2))
        with pytest.raises(BadInput):
            teleport.evaluate_inputs(branches, inputs)

    def test_probabilities_sum_to_one_and_faithful_rows_agree(self):
        params = teleport.two_faithful_choice(0.4 + 0.3j, 1)
        branches = teleport.protocol_branches(params)
        batch = teleport.evaluate_inputs(branches, teleport.haar_inputs(64, np.random.default_rng(3)))
        assert np.allclose(batch.probabilities.sum(axis=1), 1.0, atol=1e-12)
        faithful = np.array(branches.faithful)
        assert faithful.sum() == 2
        col = batch.probabilities[:, faithful]
        assert np.allclose(col, teleport.success_probability_analytic(params.n, k=1), atol=1e-12)

    def test_haar_inputs_are_normalized(self):
        inputs = teleport.haar_inputs(100, np.random.default_rng(4))
        assert inputs.shape == (100, 2)
        assert np.allclose(np.sum(np.abs(inputs) ** 2, axis=1), 1.0, atol=1e-12)
