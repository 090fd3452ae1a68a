"""The stacked transfer-matrix path: validation, scale-invariant faithfulness,
parameter overflow, and a property test against the scalar route."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleportrix import complexfmt, ebasis, swap, teleport
from teleportrix.errors import BadInput, CompletenessError, NonFinite
from teleportrix.qcore import PAULI_X
from teleportrix.teleport import ProtocolParams, TransferMatrix
from teleportrix.tolerances import TOL_EQ


def _closed_form_close(got, n, k):
    want = teleport.success_probability_analytic(n, k=k)
    return abs(got - want) <= 1e-9 * want


class TestBranchStack:
    def test_rows_equal_protocol_branches_of_each_tuple(self):
        rng = np.random.default_rng(41)
        params = [teleport.two_faithful_choice(0.4 - 0.3j, 2), teleport.one_faithful_choice(1.7, 3),
                  ProtocolParams(1, 1, 1), ProtocolParams(0, 0.3, 2),
                  ProtocolParams(*(complex(*rng.normal(size=2)) for _ in range(3)))]
        stack = teleport.branch_stack(*zip(*[(q.n, q.ell, q.p) for q in params]))
        assert stack.matrices.shape == (5, 4, 2, 2)
        for g, q in enumerate(params):
            one = teleport.protocol_branches(q)
            assert stack.faithful[g].tolist() == one.faithful[0].tolist()
            for k, tm in enumerate(teleport.transfer_matrices(q)):
                assert np.array_equal(one.matrices[0, k], tm.matrix)
                assert np.array_equal(stack.matrices[g, k], tm.matrix)
                assert stack.probabilities[g, k] == teleport.branch_probability(tm)

    def test_success_sums_the_named_columns(self):
        stack = teleport.two_faithful_stack(np.array([0.5, 2.0]), 1)
        labels = teleport.two_faithful_labels(1)
        assert np.all(stack.faithful[:, [1, 3]])
        np.testing.assert_array_equal(stack.success(labels),
                                      stack.probabilities[:, 1] + stack.probabilities[:, 3])

    @pytest.mark.parametrize("args", [([1, 2], [1], [1, 2]), ([[1]], [[1]], [[1]]), (1, 1, 1), ([], [], [])])
    def test_mismatched_or_non_vector_parameters_are_rejected(self, args):
        with pytest.raises(BadInput):
            teleport.branch_stack(*args)

    def test_non_finite_parameter_is_rejected(self):
        with pytest.raises(NonFinite):
            teleport.branch_stack([0.5, np.nan], [0.5, 0.5], [2, 2])

    def test_completeness_is_checked_per_tuple(self):
        mats = teleport.branch_stack([0.5, 0.7j, 2], [0.5, 1, 1], [2, 2, 0.1]).matrices.copy()
        teleport.check_completeness(mats)
        mats[1, 2] *= 1.001
        with pytest.raises(CompletenessError):
            teleport.check_completeness(mats)

    def test_zero_resource_needs_a_choice_without_division(self):
        with pytest.raises(NonFinite):
            teleport.two_faithful_stack([0.5, 0.0], 1)
        with pytest.raises(NonFinite):
            teleport.one_faithful_stack([0.0], 3)
        with pytest.raises(BadInput):
            teleport.one_faithful_stack([0.5], 4)
        assert teleport.one_faithful_stack([0.0], 1).success(("PhiMinus",)).tolist() == [0.0]

    @pytest.mark.parametrize("index", [-1, 4, 1.0])
    def test_choice_index_outside_0_to_3_is_bad_input(self, index):
        # -1 used to pick choice 3, 4 to raise IndexError and 1.0 TypeError
        for choose in (teleport.two_faithful_choice, teleport.one_faithful_choice):
            with pytest.raises(BadInput):
                choose(0.5, index)
        for stack in (teleport.two_faithful_stack, teleport.one_faithful_stack):
            with pytest.raises(BadInput):
                stack([0.5], index)
        for labels in (teleport.two_faithful_labels, teleport.one_faithful_labels):
            with pytest.raises(BadInput):
                labels(index)


class TestScaleInvariantFaithfulness:
    @pytest.mark.parametrize("n", [1e-7, 1e7])
    def test_extreme_resource_keeps_two_faithful_outcomes(self, n):
        report = teleport.classify(teleport.two_faithful_choice(n, 0))
        assert report.regime == "Probabilistic(k=2)"
        assert report.faithful_outcomes == teleport.two_faithful_labels(0)
        assert _closed_form_close(report.success_probability, n, 2)

    def test_large_parameters_keep_their_faithful_outcome(self):
        report = teleport.classify(ProtocolParams(1e100, 1e100, 1))
        assert report.regime == "Probabilistic(k=1)"
        assert report.faithful_outcomes == ("PhiMinus",)

    @pytest.mark.parametrize("n", [1e-7, -1e-7, 1e-13])
    def test_run_has_unit_fidelity_on_faithful_branches_at_tiny_n(self, n):
        params = teleport.two_faithful_choice(n, 0)
        for alpha, beta in [(0.6, 0.8j), (1, 0), (0.28 - 0.96j, 0)]:
            records = teleport.run((alpha, beta), params).records
            faithful = [r for r in records if r.faithful]
            assert len(faithful) == 2
            for record in faithful:
                assert record.bob_state is not None
                assert abs(record.fidelity - 1.0) < TOL_EQ

    def test_faithfulness_is_relative_to_scale(self):
        assert teleport.is_faithful(TransferMatrix("x", 1e-150 * PAULI_X))
        assert not teleport.is_faithful(TransferMatrix("x", 1e-150 * np.diag([1.0, 0.25])))

    @pytest.mark.parametrize("n", [1e-155, 1e-160])
    def test_subnormal_branch_probability_keeps_two_faithful_outcomes(self, n):
        # c = |n|^2 is below the smallest normal float. numpy divides a
        # complex by a real through 1 / c, which overflows below 5.6e-309,
        # so the Gram test once called these branches unfaithful.
        params = teleport.two_faithful_choice(n, 0)
        report = teleport.classify(params)
        assert report.regime == "Probabilistic(k=2)"
        assert report.faithful_outcomes == teleport.two_faithful_labels(0)
        brute = sum(teleport.branch_probability(tm) for tm in teleport.transfer_matrices(params)
                    if tm.label in report.faithful_outcomes)
        assert report.success_probability == brute == teleport.success_probability_analytic(n, k=2)
        assert teleport.is_faithful(TransferMatrix("x", n * PAULI_X))
        # a subnormal probability has lost bits, so run keeps no state for it
        records = {r.label: r for r in teleport.run((0.6, 0.8j), params).records}
        for label in report.faithful_outcomes:
            assert records[label].faithful and 0.0 < records[label].probability < np.finfo(float).tiny
            assert records[label].bob_state is None and records[label].fidelity is None

    def test_polar_correction_of_a_tiny_matrix(self):
        tm = TransferMatrix("x", 1e-14 * np.array([[0, 1j], [1, 0]]))
        u = teleport.correction_unitary(tm)
        product = u @ tm.matrix / 1e-14
        np.testing.assert_allclose(product, np.eye(2), atol=1e-12)


class TestOverflowHelper:
    @pytest.mark.parametrize("call", [
        lambda: swap.swap_inputs(1e200, 1),
        lambda: swap.swap_inputs(1, -1e200j),
        lambda: swap.two_outcome_swap_probability(1e100, 1),
        lambda: swap.two_outcome_swap_probability(1, 1e100),
        lambda: swap.three_outcome_swap_probability(1e100),
        lambda: ebasis.resource_state(1e200),
        lambda: ebasis.general_basis((1e200, 1)),
        lambda: ebasis.basis_entropy(1e200),
        lambda: ebasis.expand_computational("01", (1, 1e200)),
    ])
    def test_library_raises_non_finite(self, call):
        with pytest.raises(NonFinite, match="is too large"):
            call()

    def test_message_names_the_parameter(self):
        with pytest.raises(NonFinite, match=r"^m = "):
            swap.two_outcome_swap_probability(1e100, 1)
        with pytest.raises(NonFinite, match=r"^p = "):
            teleport.branch_stack([1, 1], [1, 1], [1, 1e200])

    def test_array_form_matches_scalar_bits(self):
        rng = np.random.default_rng(42)
        z = (rng.normal(size=2000) + 1j * rng.normal(size=2000)) * 10.0 ** rng.uniform(-100, 100, 2000)
        got = complexfmt.squared_moduli(z[None, :], ("z",))[0]
        assert got.tolist() == [complexfmt.squared_modulus(v, "z") for v in z.tolist()]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(-300.0, 154.0), min_size=1, max_size=40), st.integers(0, 2**32 - 1),
       st.floats(-3.0, 3.0))
def test_float_power_is_the_power_of_a_python_float(exponents, seed, scale):
    # squared_moduli, _repetitions and evaluate_inputs square with
    # np.float_power(x, 2.0), which must be v ** 2 bit for bit: log-uniform
    # magnitudes up to 1e154 (above it complexfmt takes the checked route),
    # hypot of Gaussian pairs as moduli and fidelities are, and the float
    # neighbours of each
    pairs = np.random.default_rng(seed).normal(size=(2, 50)) * 10.0 ** scale
    values = [10.0 ** e for e in exponents] + np.hypot(*pairs).tolist()
    values += [math.nextafter(v, toward) for v in values for toward in (0.0, math.inf)]
    got = np.float_power(np.array(values), 2.0)
    assert np.array_equal(got.view(np.int64), np.array([v ** 2 for v in values]).view(np.int64))


_MAGNITUDES = st.tuples(st.floats(min_value=-7.0, max_value=7.0), st.sampled_from([-1.0, 1.0]))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.lists(_MAGNITUDES, min_size=1, max_size=16))
def test_stacked_success_equals_scalar_route_and_closed_form(draws):
    grid = [sign * 10.0 ** exponent for exponent, sign in draws]
    schemes = [
        (teleport.two_faithful_stack, teleport.two_faithful_choice, 0, teleport.two_faithful_labels(0)),
        (teleport.one_faithful_stack, teleport.one_faithful_choice, 1, (teleport.one_faithful_labels(1),)),
    ]
    for stack_of, choice, index, designated in schemes:
        success = stack_of(np.array(grid), index).success(designated).tolist()
        for n, got in zip(grid, success):
            scalar = sum(teleport.branch_probability(tm)
                         for tm in teleport.transfer_matrices(choice(n, index))
                         if tm.label in designated)
            assert got == scalar
            assert _closed_form_close(got, n, len(designated))
