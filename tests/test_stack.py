"""The stacked transfer-matrix path: validation, scale-invariant faithfulness,
parameter overflow, and a property test against the scalar route."""

import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleportrix import complexfmt, ebasis, swap, teleport
from teleportrix.errors import BadInput, CompletenessError, NonFinite
from teleportrix.teleport import ProtocolParams, TransferMatrix
from teleportrix.tolerances import TOL_EQ

from register_reference import PAULI_X, swap_inputs


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

    def test_faithful_is_built_on_first_read_and_equals_the_eager_analysis(self):
        stack = teleport.two_faithful_stack(np.linspace(0.1, 3.0, 50), 0)
        stack.success(teleport.two_faithful_labels(0))
        assert "faithful" not in stack.__dict__ and "matrices" not in stack.__dict__
        rng = np.random.default_rng(47)
        tuples = [tuple(cmath.rect(10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(0.0, 2.0 * math.pi))
                        for _ in range(3)) for _ in range(300)]
        # every other tuple has l = n, so PhiMinus is faithful there; at
        # n = l = 0 PhiMinus is the zero matrix, c == 0, and not faithful
        tuples = [(n, n if i % 2 else l, p) for i, (n, l, p) in enumerate(tuples)] + [(0, 0, 2)]
        stack = teleport.branch_stack(*zip(*tuples))
        faithful = stack.faithful
        assert "faithful" in stack.__dict__ and "matrices" not in stack.__dict__
        # the eager analysis of the Grams np.matmul forms from the matrices
        eager = [[teleport.is_faithful(TransferMatrix("x", m)) for m in mats] for mats in stack.matrices]
        assert faithful.tolist() == eager
        assert faithful[1::2, 1].all() and not faithful[-1, 1] and stack.probabilities[-1, 1] == 0.0

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

    @pytest.mark.parametrize("index", [1, 2, 3])
    def test_resource_whose_reciprocal_overflows_is_non_finite(self, index):
        # 1 / 1e-320 overflows: NonFinite, where the stack used to leak numpy's RuntimeWarning
        with pytest.raises(NonFinite):
            teleport.two_faithful_choice(1e-320, index)
        with pytest.raises(NonFinite):
            teleport.two_faithful_stack([0.5, 1e-320], index)

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

    @pytest.mark.parametrize("off,faithful", [(1.0, False), (1e-8, False), (1e-10, True)])
    def test_caller_gram_off_diagonal_counts(self, off, faithful):
        # M^dag M = [[1, off], [off, 1]] for every scale: equal diagonals, so
        # only the off-diagonal decides
        mat = np.array([[1.0, off], [0.0, np.sqrt(1.0 - off * off)]])
        for scale in (1.0, 1e-150):
            assert teleport.is_faithful(TransferMatrix("x", scale * mat)) is faithful

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
        lambda: swap_inputs(1e200, 1),
        lambda: swap_inputs(1, -1e200j),
        lambda: swap.two_outcome_swap_probability(1e100, 1),
        lambda: swap.two_outcome_swap_probability(1, 1e100),
        lambda: swap.three_outcome_swap_probability(1e100),
        lambda: ebasis.resource_state(1e200),
        lambda: ebasis.general_basis((1e200, 1)),
        lambda: ebasis.basis_entropy(1e200),
        lambda: ebasis.expand_computational("01", (1, 1e200)),
        lambda: ebasis.expand_computational("00", (1, 1e200)),
    ])
    def test_library_raises_non_finite(self, call):
        with pytest.raises(NonFinite, match="is too large"):
            call()

    def test_message_names_the_parameter(self):
        with pytest.raises(NonFinite, match=r"^m = "):
            swap.two_outcome_swap_probability(1e100, 1)
        with pytest.raises(NonFinite, match=r"^p = "):
            teleport.branch_stack([1, 1], [1, 1], [1, 1e200])
        with pytest.raises(NonFinite, match=r"^p = "):
            ebasis.expand_computational("00", (1, 1e200))

    @pytest.mark.parametrize("index", range(4))
    def test_one_faithful_message_names_the_generic_value(self, index):
        # 1/|n| = 1e200 is finite, but a power of the generic value 2e200
        # overflows; the error once named l or p = 2e200 instead
        message = (r"^the generic value 2 max\(\|n\|, 1/\|n\|\) \+ 1 is too large at \|n\| = 1e-200: "
                   r"it or a power of it overflows a float$")
        with pytest.raises(NonFinite, match=message):
            teleport.one_faithful_choice(1e-200, index)
        with pytest.raises(NonFinite, match=message):
            teleport.one_faithful_stack([0.5, 1e-200], index)

    @pytest.mark.parametrize("index", range(4))
    def test_choices_refuse_where_1_over_n_reaches_the_bound(self, index):
        # 1/|n| reaches MODULUS_BOUND = 1e154 at |n| = 1e-154: just below it the
        # two-faithful rules that divide by n (1..3) refuse, naming |n|, and just above
        # it they classify; rule 0 keeps n as it is. The one-faithful generic value
        # 2/|n| + 1 is too large on both sides, up to |n| = 2e-154.
        below, above = 0.999e-154, 1.001e-154
        for n in (below, 1e-160 + 1e-160j, above, 2.001e-154):
            if index and abs(n) < 1e-154:
                with pytest.raises(NonFinite, match=r"^1/n is too large at \|n\| = "):
                    teleport.two_faithful_choice(n, index)
                with pytest.raises(NonFinite, match=r"^1/n is too large at \|n\| = "):
                    teleport.two_faithful_stack([0.5, n], index)
            else:
                report = teleport.classify(teleport.two_faithful_choice(n, index))
                assert report.faithful_outcomes == teleport.two_faithful_labels(index)
            if abs(n) < 2e-154:
                with pytest.raises(NonFinite, match=r"^the generic value .* at \|n\| = "):
                    teleport.one_faithful_choice(n, index)
            else:
                report = teleport.classify(teleport.one_faithful_choice(n, index))
                assert report.faithful_outcomes == (teleport.one_faithful_labels(index),)

    def test_array_form_matches_scalar_bits(self):
        rng = np.random.default_rng(42)
        z = (rng.normal(size=2000) + 1j * rng.normal(size=2000)) * 10.0 ** rng.uniform(-100, 100, 2000)
        got = complexfmt.squared_moduli(z[None, :], ("z",))[0]
        assert got.tolist() == [complexfmt.squared_modulus(v, "z") for v in z.tolist()]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(-300.0, 154.0), min_size=1, max_size=40), st.integers(0, 2**32 - 1),
       st.floats(-3.0, 3.0))
def test_float_power_is_the_power_of_a_python_float(exponents, seed, scale):
    # squared_moduli and _repetitions square with np.float_power(x, 2.0),
    # which must be v ** 2 bit for bit: log-uniform magnitudes up to 1e154
    # (above it complexfmt takes the checked route), hypot of Gaussian pairs
    # as moduli are, and the float neighbours of each
    pairs = np.random.default_rng(seed).normal(size=(2, 50)) * 10.0 ** scale
    values = [10.0 ** e for e in exponents] + np.hypot(*pairs).tolist()
    values += [math.nextafter(v, toward) for v in values for toward in (0.0, math.inf)]
    got = np.float_power(np.array(values), 2.0)
    assert np.array_equal(got.view(np.int64), np.array([v ** 2 for v in values]).view(np.int64))


@pytest.mark.parametrize("stack_of,choice", [(teleport.two_faithful_stack, teleport.two_faithful_choice),
                                             (teleport.one_faithful_stack, teleport.one_faithful_choice)])
def test_each_choice_has_the_bits_of_its_stack(stack_of, choice):
    # a choice is its stack's batch of one: Python's complex 1 / n differs
    # from numpy's in the last bit for about a quarter of these n
    rng = np.random.default_rng(59)
    ns = 10.0 ** rng.uniform(-3.5, 3.5, 2000) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 2000))
    for index in range(4):
        want = stack_of(ns, index).entries
        got = np.stack([teleport.protocol_branches(choice(n, index)).entries[:, 0] for n in ns.tolist()], axis=1)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), index


# (l, p) of each choice as the teleport module docstring writes the paper's conditions, in Python's complex
# arithmetic; None marks the free parameter of a one-faithful choice.
_DOCUMENTED = [
    (teleport.two_faithful_choice, [lambda n: (n, n.conjugate()), lambda n: (n, 1 / n),
                                    lambda n: (1 / n.conjugate(), 1 / n),
                                    lambda n: (1 / n.conjugate(), n.conjugate())]),
    (teleport.one_faithful_choice, [lambda n: (1 / n.conjugate(), None), lambda n: (n, None),
                                    lambda n: (None, n.conjugate()), lambda n: (None, 1 / n)]),
]


@pytest.mark.parametrize("choice, rules", _DOCUMENTED, ids=["two_faithful", "one_faithful"])
def test_each_choice_has_the_documented_l_and_p(choice, rules):
    # faithfulness and branch probabilities read only |l| and |p|, so this is the one test of a choice's
    # phase; numpy's 1 / n may differ from Python's in the last bit, hence 4 ulps relative
    rng = np.random.default_rng(61)
    ns = 10.0 ** rng.uniform(-150.0, 150.0, 1000) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 1000))
    reals = 10.0 ** rng.uniform(-150.0, 150.0, 100) * rng.choice([-1.0, 1.0], 100)
    for n in ns.tolist() + [complex(x) for x in reals.tolist()]:
        generic = 2.0 * max(abs(n), 1.0 / abs(n)) + 1.0
        for index, rule in enumerate(rules):
            params = choice(n, index)
            for got, want in zip((params.ell, params.p), rule(n)):
                if want is None:
                    assert got == generic, (n, index)
                else:
                    assert abs(got - want) <= 4.0 * sys.float_info.epsilon * abs(want), (n, index)


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


_LOG_UNIFORM = st.tuples(st.floats(-100.0, 100.0), st.floats(0.0, 2.0 * math.pi))


def _independent_gram_test(mats):
    # tr(M^dag M) / 2 and the faithful test G / c = I within TOL_EQ, from an
    # explicit matmul of the full 2x2 matrices
    grams = np.matmul(mats.conj().swapaxes(-1, -2), mats)
    c = (grams[..., 0, 0].real + grams[..., 1, 1].real) / 2.0
    scale = np.where(c > 0.0, c, 1.0)[..., None, None]
    deviation = np.hypot(grams.real / scale - np.eye(2), grams.imag / scale).max(axis=(-2, -1))
    return c, (c > 0.0) & (deviation <= TOL_EQ)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(_LOG_UNIFORM, _LOG_UNIFORM, _LOG_UNIFORM), min_size=1, max_size=20))
def test_diagonal_grams_equal_an_independent_matmul(draws):
    n, ell, p = (np.array([cmath.rect(10.0 ** e, phase) for e, phase in column]) for column in zip(*draws))
    stacks = [(teleport.branch_stack(n, ell, p), None)]
    for index in range(4):
        stacks.append((teleport.two_faithful_stack(n, index), teleport.two_faithful_labels(index)))
        stacks.append((teleport.one_faithful_stack(n, index), (teleport.one_faithful_labels(index),)))
    for stack, named in stacks:
        c, faithful = _independent_gram_test(stack.matrices)
        assert np.all(np.abs(stack.probabilities - c) <= 4 * np.spacing(c))
        assert np.array_equal(stack.faithful, faithful)
        if named is not None:
            # at |n| = 1 each condition coincides with its partner's, so
            # the choice leaves more outcomes faithful; away from it, only
            # the named ones
            expected = np.array([label in named for label in ebasis.BASIS_LABELS])
            assert np.all(stack.faithful[:, expected])
            away = np.abs(np.log(np.abs(n))) > 1e-6
            assert np.array_equal(stack.faithful[away], np.broadcast_to(expected, stack.faithful[away].shape))


_INPUTS = st.sampled_from([(1, 0), (0, 1), (0.6, 0.8j), (0.28 - 0.96j, 0), (math.sqrt(0.5), -math.sqrt(0.5))])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(_LOG_UNIFORM, _LOG_UNIFORM, _LOG_UNIFORM), min_size=1, max_size=20), _INPUTS)
def test_run_records_equal_the_eager_values_bit_for_bit(draws, input_amps):
    # each record's correction is correction_unitary of its transfer matrix and its bob_state
    # the PureState of the batch row, on every branch, kept or not, whenever they are read
    for n, ell, p in ([cmath.rect(10.0 ** e, phase) for e, phase in tup] for tup in draws):
        params = ProtocolParams(n, ell, p)
        stack = teleport.protocol_branches(params)
        batch = teleport.evaluate_inputs(stack, [input_amps])
        records = teleport.run(input_amps, params).records
        for k, (record, tm) in enumerate(zip(records, teleport.transfer_matrices(params))):
            fid = float(batch.fidelities[0, k])
            assert (record.label, record.faithful) == (tm.label, bool(stack.faithful[0, k]))
            assert record.probability.hex() == float(batch.probabilities[0, k]).hex()
            assert np.array_equal(record.correction.view(np.int64), teleport.correction_unitary(tm).view(np.int64))
            if math.isnan(fid):
                assert record.fidelity is None and record.bob_state is None
            else:
                assert record.fidelity.hex() == fid.hex()
                assert np.array_equal(record.bob_state.amps.view(np.int64), batch.bob[0, k].view(np.int64))


@pytest.mark.parametrize("shots", [None, 100])
def test_run_builds_corrections_and_states_on_first_read(monkeypatch, shots):
    calls, states = [], []
    corrections, post_init = teleport._corrections, teleport.PureState.__post_init__
    monkeypatch.setattr(teleport, "_corrections", lambda mats: calls.append(1) or corrections(mats))
    monkeypatch.setattr(teleport.PureState, "__post_init__", lambda self: states.append(1) or post_init(self))
    records = teleport.run((0.6, 0.8j), teleport.two_faithful_choice(0.5, 0), shots=shots).records
    assert calls == [] and states == []
    assert not any({"correction", "bob_state"} & set(record.__dict__) for record in records)
    first = records[0].correction
    assert records[0].correction is first and len(calls) == 1
    assert all(record.correction.shape == (2, 2) for record in records) and len(calls) == 1
    kept = [record.bob_state for record in records if record.fidelity is not None]
    assert len(kept) == len(states) == 4
    assert all(record.bob_state is state for record, state in zip(records, kept)) and len(states) == 4


def test_run_records_share_read_only_corrections_and_states():
    # a record's correction is a view of its batch's corrections: assigning through it once
    # changed the shared array, and so what every later read of the batch returned
    record = teleport.run((0.6, 0.8), ProtocolParams(0.5, 0.5, 0.5)).records[0]
    before = record.batch.corrections.copy()
    with pytest.raises(ValueError, match="read-only"):
        record.correction[0, 0] = 99
    with pytest.raises(ValueError, match="read-only"):
        record.batch.bob[0, 0, 0] = 99
    assert np.array_equal(record.batch.corrections, before)
    assert not record.correction.flags.writeable and not record.batch.bob.flags.writeable
