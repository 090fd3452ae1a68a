"""The stacked swap contraction against a Python-float transcription of
its arithmetic, bit for bit, and against the per-outcome project_all loop
it replaced, to rounding: probabilities, reliability, targets, remainders
and entropies."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polar_reference import product
from teleportrix import measure, qcore
from teleportrix.complexfmt import weight
from teleportrix.ebasis import BASIS_LABELS, EntangledBasis, basis_stack, general_basis
from teleportrix.errors import BadInput, NonFinite
from teleportrix.qcore import PureState
from teleportrix.swap import (
    SwapParams,
    classify_swap,
    phase_matched_choice,
    swap_inputs,
    swap_run,
    swap_stack,
    two_outcome_choice,
)
from teleportrix.tolerances import TOL_EQ, TOL_PROB

FIELDS = ("m", "n", "ell", "p", "ell_prime", "p_prime")


def _reference_basis(ell, p, labels):
    lw, pw = weight(ell, "ell"), weight(p, "p")
    vectors = {
        "PhiPlus": PureState(labels, np.array([lw, 0, 0, lw * ell])),
        "PhiMinus": PureState(labels, np.array([lw * ell.conjugate(), 0, 0, -lw])),
        "PsiPlus": PureState(labels, np.array([0, pw, pw * p, 0])),
        "PsiMinus": PureState(labels, np.array([0, pw * p.conjugate(), -pw, 0])),
    }
    return EntangledBasis(None, vectors)


def reference_swap_run(params):
    """The per-outcome loop: project_all, np.vdot coefficients, entropy of reduced_density."""
    mw, nw = weight(params.m, "m"), weight(params.n, "n")
    joint = qcore.tensor(PureState(("a", "b"), np.array([mw, 0, 0, mw * params.m])),
                         PureState(("1", "2"), np.array([0, nw, nw * params.n, 0])))
    basis = _reference_basis(params.ell, params.p, ("0", "1"))
    primed = _reference_basis(params.ell_prime, params.p_prime, ("b", "2"))
    rows = []
    for mo in measure.project_all(joint, ("a", "1"), basis):
        if mo.residual is None:
            rows.append((mo.label, mo.probability, None, False, None, None))
            continue
        mags = {label: abs(complex(np.vdot(primed.vectors[label].amps, mo.residual.amps)))
                for label in BASIS_LABELS}
        best = max(mags, key=mags.get)
        others = max(v for label, v in mags.items() if label != best)
        reliable = mags[best] > 0.0 and others <= TOL_EQ * mags[best]
        ent = qcore.entropy(qcore.reduced_density(mo.residual, ("b",)))
        rows.append((mo.label, mo.probability, mo.residual.amps, reliable,
                     best if reliable else None, ent))
    return rows


def reference_contraction(params):
    """R_k = C1^T B_k^* C2 entry by entry in Python floats, in swap_stack's order.

    Entry (b, 2) of outcome k is conj(B_k[b, not 2]) times the register
    amplitude M (1, m)[b] N (n, 1)[2]; the probability sums the squared
    entries over 2 and then over b, the Schmidt weights are those sums
    over p, and each primed coefficient sums its four products in order.
    """
    pairs = _reference_basis(params.m, params.n, ("0", "1")).vectors
    first = [(z.real, z.imag) for z in pairs["PhiPlus"].amps[[0, 3]].tolist()]  # M (1, m)
    second = [(z.real, z.imag) for z in pairs["PsiPlus"].amps[[2, 1]].tolist()]  # N (n, 1)
    amps = [product(first[b], second[q]) for b in (0, 1) for q in (0, 1)]
    basis = _reference_basis(params.ell, params.p, ("0", "1"))
    primed = _reference_basis(params.ell_prime, params.p_prime, ("b", "2"))
    rows = []
    for label in BASIS_LABELS:
        vec = [complex(z) for z in basis.vectors[label].amps]
        resid = [product((vec[j ^ 1].real, -vec[j ^ 1].imag), amps[j]) for j in range(4)]
        squares = [re * re + im * im for re, im in resid]
        weights = (squares[0] + squares[1], squares[2] + squares[3])
        prob = weights[0] + weights[1]
        if prob < TOL_PROB:
            rows.append((label, prob, None, False, None, None))
            continue
        root = math.sqrt(prob)
        state = [(re / root, im / root) for re, im in resid]
        mags = {}
        for target in BASIS_LABELS:
            terms = [product((z.real, -z.imag), s) for z, s in zip(primed.vectors[target].amps.tolist(), state)]
            re = ((terms[0][0] + terms[1][0]) + terms[2][0]) + terms[3][0]
            im = ((terms[0][1] + terms[1][1]) + terms[2][1]) + terms[3][1]
            mags[target] = float(np.hypot(re, im))
        best = max(mags, key=mags.get)
        others = max(v for target, v in mags.items() if target != best)
        reliable = mags[best] > 0.0 and others <= TOL_EQ * mags[best]
        ent = qcore.shannon_entropy((weights[0] / prob, weights[1] / prob), 1.0)
        rows.append((label, prob, np.array([complex(re, im) for re, im in state]), reliable,
                     best if reliable else None, ent))
    return rows


def assert_near_the_outcome_loop(outcomes, rows):
    """outcomes within rounding of reference_swap_run's rows: 2e-15 relative on
    probabilities, 1e-15 absolute on amplitudes and 2e-15 on entropies, and the
    same reliability calls and targets."""
    for o, (label, prob, amps, reliable, target, ent) in zip(outcomes, rows, strict=True):
        assert o.label == label
        assert abs(o.probability - prob) <= 2e-15 * prob
        assert (o.reliable, o.target) == (reliable, target)
        assert (o.b2_amps is None, o.b2_entropy is None) == (amps is None, ent is None)
        if amps is not None:
            assert np.abs(o.b2_amps - amps).max() <= 1e-15
            assert abs(o.b2_entropy - ent) <= 2e-15


def assert_is_the_contraction(params):
    """swap_run(params) bit for bit as reference_contraction, and near the outcome loop."""
    outcomes = swap_run(params)
    assert _run_key(outcomes) == _key(reference_contraction(params))
    assert_near_the_outcome_loop(outcomes, reference_swap_run(params))


def _bits(x):
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, np.ndarray):
        return x.tobytes()
    return float(x).hex()


def _key(rows):
    return [tuple(_bits(x) for x in row) for row in rows]


def _run_key(outcomes):
    return _key([(o.label, o.probability, o.b2_amps, o.reliable, o.target, o.b2_entropy)
                 for o in outcomes])


def _random_complex(rng, hi=2.0):
    return rng.uniform(0.0, hi) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _bench_cases(rng):
    """One tuple of each swap case the benchmark serves."""
    n = rng.uniform(0.2, 5.0) * cmath.exp(1j * rng.uniform(0, 6.3))
    m = rng.uniform(0.2, 5.0) * cmath.exp(1j * rng.uniform(0, 6.3))
    phase = [cmath.exp(1j * rng.uniform(0, 6.3)) for _ in range(4)]
    return [
        two_outcome_choice(m, n),
        two_outcome_choice(abs(n) * phase[0], n),
        two_outcome_choice(phase[1] / abs(n), n),
        phase_matched_choice(phase[2], phase[3], _random_complex(rng, 5.0), _random_complex(rng, 5.0)),
        SwapParams(*(_random_complex(rng, 5.0) for _ in range(6))),
    ]


def _stack_of(params_list):
    return swap_stack(*([getattr(q, f) for q in params_list] for f in FIELDS))


class TestAgainstTheOutcomeLoop:
    def test_random_tuples_bit_for_bit(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            assert_is_the_contraction(SwapParams(*(_random_complex(rng) for _ in range(6))))

    def test_bench_swap_cases_bit_for_bit(self):
        rng = np.random.default_rng(53)
        for _ in range(40):
            for params in _bench_cases(rng):
                assert_is_the_contraction(params)

    def test_stack_rows_equal_the_batch_of_one(self):
        rng = np.random.default_rng(55)
        params_list = [q for _ in range(20) for q in _bench_cases(rng)]
        params_list += [SwapParams(1, 1, 1, 1, 1, 1), SwapParams(0.5, 2, 0, 0, 0, 0)]
        stack = _stack_of(params_list)
        assert stack.probabilities.shape == (len(params_list), 4)
        for g, params in enumerate(params_list):
            assert _run_key(stack.outcomes(g)) == _run_key(swap_run(params))

    def test_improbable_outcomes_keep_none_fields(self):
        # With m = 0 qubit a is |0>, so in the computational basis
        # (l = p = 0) the two outcomes with a = 1 have probability 0.
        params = SwapParams(0, 2, 0, 0, 1, 1)
        assert_is_the_contraction(params)
        outcomes = swap_run(params)
        dropped = [o for o in outcomes if o.probability < 1e-12]
        assert len(dropped) == 2
        for o in dropped:
            assert (o.b2_amps, o.b2_state, o.reliable, o.target, o.b2_entropy) == \
                (None, None, False, None, None)
        report = classify_swap(params)
        assert set(report.reliable_outcomes).isdisjoint(o.label for o in dropped)

    @pytest.mark.parametrize("mods", [(1e6, 1e6), (1e20, 2e20), (1e-7, 1e7)])
    def test_extreme_moduli_keep_the_reliability_rule(self, mods):
        assert_is_the_contraction(two_outcome_choice(*mods))

    def test_b2_state_is_the_validated_remainder(self):
        for o in swap_run(two_outcome_choice(0.5, 1.6)):
            assert o.b2_state.qubits == ("b", "2")
            assert o.b2_state.amps.tobytes() == o.b2_amps.tobytes()


class TestWeights:
    def test_start_state_and_basis_keep_the_scalar_weight_bits(self):
        # The stacked weights come from squared_moduli; numpy's square of
        # the modulus differs from complexfmt.weight's power in the last
        # bit for a few values in 10^4, so many values are checked.
        rng = np.random.default_rng(57)
        values = [complex(*rng.normal(scale=3.0, size=2)) for _ in range(2000)]
        rows = basis_stack(values, values[::-1])
        for g, (ell, p) in enumerate(zip(values, values[::-1])):
            lw, pw = weight(ell, "ell"), weight(p, "p")
            assert rows[g, 0, 0] == lw and rows[g, 1, 3] == -lw
            assert rows[g, 2, 1] == pw and rows[g, 3, 2] == -pw
        for m, n in zip(values[:300], values[300:600]):
            amps = swap_inputs(m, n).amps
            assert amps[0b0001] == weight(m, "m") * weight(n, "n")

    def test_general_basis_is_the_batch_of_one(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            ell, p = _random_complex(rng, 3.0), _random_complex(rng, 3.0)
            got = general_basis((ell, p))
            want = _reference_basis(ell, p, ("0", "1"))
            for label in BASIS_LABELS:
                assert got.vectors[label].amps.tobytes() == want.vectors[label].amps.tobytes()


class TestValidation:
    @pytest.mark.parametrize("args", [([1, 2], [1], [1], [1], [1], [1]), ([[1]],) * 6, ([],) * 6])
    def test_mismatched_or_non_vector_parameters_are_rejected(self, args):
        with pytest.raises(BadInput):
            swap_stack(*args)

    def test_non_finite_parameter_is_rejected(self):
        with pytest.raises(NonFinite):
            swap_stack([0.5, np.inf], [1, 1], [1, 1], [1, 1], [1, 1], [1, 1])

    def test_overflow_names_the_parameter(self):
        with pytest.raises(NonFinite, match="n = "):
            swap_run(SwapParams(0.5, 1e200, 1, 1, 1, 1))
        with pytest.raises(NonFinite, match="ell = "):
            swap_run(SwapParams(0.5, 2, 1e200, 1, 1, 1))


_PARAMETER = st.builds(
    lambda r, t: r * cmath.exp(1j * t),
    st.floats(0.0, 4.0, allow_nan=False),
    st.floats(0.0, 2.0 * math.pi, allow_nan=False),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.tuples(*[_PARAMETER] * 6))
def test_stack_equals_the_outcome_loop(values):
    assert_is_the_contraction(SwapParams(*values))


def test_basis_stack_rejects_non_finite_and_ragged_rows():
    with pytest.raises(NonFinite):
        basis_stack([0.5, np.nan], [1, 1])
    with pytest.raises(BadInput):
        basis_stack([0.5, 1], [1])
