"""The stacked swap contraction against a Python-float transcription of
its arithmetic, bit for bit, and against the per-outcome project_all loop
it replaced, to rounding: probabilities, reliability, targets, remainders
and entropies. Its probabilities against teleport's for the input
(M, M m), to rounding."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polar_reference import product
from register_reference import swap_inputs
from teleportrix import measure, qcore, teleport
from teleportrix.complexfmt import weight
from teleportrix.ebasis import BASIS_LABELS, EntangledBasis, basis_stack, general_basis
from teleportrix.errors import BadInput, NonFinite
from teleportrix.qcore import PureState
from teleportrix.swap import (
    SwapParams,
    classify_swap,
    phase_matched_choice,
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


def _column_entries(n, ell, p):
    """The nonzero entry of columns 0 and 1 of teleport's M_0 .. M_3, in Python complex arithmetic
    as the teleport module docstring writes the matrices, the weight product last."""
    nw, lw, pw = weight(n, "n"), weight(ell, "ell"), weight(p, "p")
    columns = [(1, n * ell.conjugate()), (ell, -n), (n, p.conjugate()), (n * p, -1)]
    return [[complex(z) * (nw * (lw if k < 2 else pw)) for z in pair] for k, pair in enumerate(columns)]


def reference_contraction(params):
    """R_k^T = X M_k diag(M, M m) entry by entry in Python floats, in swap_stack's order.

    Row b of R_k is the entry in column b of teleport's M_k times M (1, m)[b],
    on (b, 2) = (b, not b) for the Phi outcomes and (b, b) for the Psi
    outcomes, the other two amplitudes +0. The probability sums the two
    squared entries, the Schmidt weights are those squares over p, and each
    of the two primed coefficients of the pair the remainder lies on sums
    two products.
    """
    mw = weight(params.m, "m")
    first = [(mw, 0.0), ((mw * params.m).real, (mw * params.m).imag)]  # M (1, m)
    rows = []
    for k, (label, column) in enumerate(zip(BASIS_LABELS, _column_entries(params.n, params.ell, params.p))):
        resid = [product((z.real, z.imag), first[b]) for b, z in enumerate(column)]
        squares = [re * re + im * im for re, im in resid]
        prob = squares[0] + squares[1]
        if prob < TOL_PROB:
            rows.append((label, prob, None, False, None, None))
            continue
        root = math.sqrt(prob)
        unit = [(re / root, im / root) for re, im in resid]
        # the primed pair the remainder lies on: Psi' (offset 2) for the Phi outcomes, Phi' for the Psi ones
        offset, c = (2, params.p_prime) if k < 2 else (0, params.ell_prime)
        w = weight(c, "c")
        wc = w * c
        plus, minus = [(w, 0.0), (wc.real, -wc.imag)], [(wc.real, wc.imag), (-w, 0.0)]
        mags = []
        for vector in (plus, minus):
            terms = [product(x, u) for x, u in zip(vector, unit)]
            mags.append(float(np.hypot(terms[0][0] + terms[1][0], terms[0][1] + terms[1][1])))
        best = 0 if mags[0] >= mags[1] else 1
        reliable = mags[best] > 0.0 and mags[1 - best] <= TOL_EQ * mags[best]
        state = [0j] * 4
        for b, (re, im) in zip((1, 2) if k < 2 else (0, 3), unit):
            state[b] = complex(re, im)
        ent = qcore.shannon_entropy((squares[0] / prob, squares[1] / prob), 1.0)
        target = BASIS_LABELS[offset + best] if reliable else None
        rows.append((label, prob, np.array(state), reliable, target, ent))
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


def test_swap_is_teleportation_of_half_a_pair():
    # R_k^T = X M_k diag(M, M m), so outcome k of the swap has the probability that
    # teleport's branch k gives the input (M, M m): evaluate_inputs reaches it through
    # the Gram diagonals of M_k, not through the swap's products. Log-uniform moduli,
    # m at 1e150 and 1e-150 in a third of the tuples each.
    rng = np.random.default_rng(61)

    def draw(modulus=None):
        modulus = 10.0 ** rng.uniform(-150.0, 150.0) if modulus is None else modulus
        return cmath.rect(modulus, rng.uniform(0.0, 2.0 * math.pi))

    tuples = [(draw((None, 1e150, 1e-150)[g % 3]), *(draw() for _ in range(5))) for g in range(600)]
    stack = swap_stack(*zip(*tuples))
    for (m, n, ell, p, _, _), probs in zip(tuples, stack.probabilities):
        mw = weight(m, "m")
        branches = teleport.protocol_branches(teleport.ProtocolParams(n, ell, p))
        want = teleport.evaluate_inputs(branches, [(mw, mw * m)]).probabilities[0]
        assert np.all(np.abs(probs - want) <= 2e-15 * want)


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
