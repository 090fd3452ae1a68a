"""Library entry points given the wrong kind of data: each row of CASES is
a call that once leaked Python's TypeError, AttributeError or OverflowError,
or numpy's ComplexWarning (the imaginary part dropped where a real number is
meant), or raised another error than its sibling entry point, or a value a
constructor or function refuses; it must raise the named TeleportrixError
with its message and no warning. Where classify_swap's condition products
leave the float range (BAND and the property test), it must return, or
raise a TeleportrixError.
"""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleportrix import ebasis, measure, qcore, swap, teleport
from teleportrix.errors import (BadInput, BadSubset, NonFinite, NormalizationError, ParseError, ShapeError,
                                TeleportrixError)

I2 = np.eye(2)
NESTED = [[1.0, 0.0], [0.0, 1.0]]
PARAMS = teleport.ProtocolParams(0.5, 0.5, 2)
HUGE = 10**400
BEYOND = "must be finite, got a value beyond the float range$"
INDEX = "^index must be 0\\.\\.3, got "
with warnings.catch_warnings():
    warnings.simplefilter("ignore", PendingDeprecationWarning)  # numpy's matrix subclass
    MATRIX = np.matrix([[1, 2]])

CASES = [
    ("general_basis one value", lambda: ebasis.general_basis((1,)), BadInput, "^basis parameters .* got \\(1,\\)"),
    ("general_basis number", lambda: ebasis.general_basis(5), BadInput, "^basis parameters .* got 5$"),
    ("expand_computational one value", lambda: ebasis.expand_computational("00", (1,)),
     BadInput, "^basis parameters .* got \\(1,\\)"),
    ("expand_computational list label", lambda: ebasis.expand_computational(["0", "0"], (0, 0)),
     ParseError, "^computational label must be 00/01/10/11, got \\['0', '0'\\]$"),
    ("is_faithful nested list", lambda: teleport.is_faithful(NESTED), BadInput, "TransferMatrix, got list$"),
    ("correction_unitary nested list", lambda: teleport.correction_unitary(NESTED),
     BadInput, "TransferMatrix, got list$"),
    ("branch_probability nested list", lambda: teleport.branch_probability(NESTED),
     BadInput, "TransferMatrix, got list$"),
    ("count_outcomes complex", lambda: measure.count_outcomes(np.array([[.5 + 1j, .5, 0, 0]]), 10,
                                                              np.random.default_rng(0)),
     BadInput, "^probabilities must be real"),
    ("SchmidtForm complex", lambda: qcore.SchmidtForm(np.array([1 + 2j, 0]), I2, I2),
     ShapeError, "^Schmidt coefficients must be real"),
    ("run None", lambda: teleport.run(None, PARAMS),
     BadInput, "^input must be an \\(alpha, beta\\) pair, got NoneType$"),
    ("run number", lambda: teleport.run(0.6, PARAMS),
     BadInput, "^input must be an \\(alpha, beta\\) pair, got float$"),
    ("measured_probabilities None", lambda: teleport.measured_probabilities(None, PARAMS),
     BadInput, "^input must be an \\(alpha, beta\\) pair, got NoneType$"),
    ("make_state None", lambda: qcore.make_state(("a",), None), ShapeError, "^amplitudes must be numbers"),
    ("PureState no labels", lambda: qcore.PureState((), [1]), ShapeError, "^a state needs at least one qubit label$"),
    ("DensityMatrix not square", lambda: qcore.DensityMatrix([[1, 0]]), ShapeError, "^density matrix must be square$"),
    ("DensityMatrix dimension 3", lambda: qcore.DensityMatrix(np.eye(3) / 3),
     ShapeError, "^unsupported density matrix dimension 3$"),
    ("DensityMatrix negative eigenvalue", lambda: qcore.DensityMatrix(np.diag([1.5, -0.5])),
     ShapeError, "^density matrix has a negative eigenvalue$"),
    ("SchmidtForm ascending", lambda: qcore.SchmidtForm((0, 1), I2, I2),
     ShapeError, "^Schmidt coefficients must be descending and non-negative$"),
    ("SchmidtForm negative", lambda: qcore.SchmidtForm((1, -0.5), I2, I2),
     ShapeError, "^Schmidt coefficients must be descending and non-negative$"),
    ("SchmidtForm square-sum", lambda: qcore.SchmidtForm((0.5, 0.5), I2, I2),
     NormalizationError, "^Schmidt coefficients must square-sum to 1$"),
    ("reduced_density duplicate keep", lambda: qcore.reduced_density(qcore.make_state("ab", [1, 0, 0, 0]), "aa"),
     BadSubset, "^duplicate labels in keep: \\('a', 'a'\\)$"),
    ("two_outcome_choice m = 0", lambda: swap.two_outcome_choice(0, 1),
     NonFinite, "^choice needs nonzero pair parameters$"),
    ("two_outcome_choice n = 0", lambda: swap.two_outcome_choice(1, 0),
     NonFinite, "^choice needs nonzero pair parameters$"),
    ("phase_matched_choice n = 0", lambda: swap.phase_matched_choice(1, 0, 1, 1),
     NonFinite, "^choice needs a nonzero n$"),
    ("success_probability_analytic k = 3", lambda: teleport.success_probability_analytic(0.5, k=3),
     BadInput, "^k must be 1 or 2, got 3$"),
    # complex() of an int past the float range once leaked OverflowError
    ("ProtocolParams huge int", lambda: teleport.ProtocolParams(HUGE, 1, 1), NonFinite, f"^n {BEYOND}"),
    ("SwapParams huge int", lambda: swap.SwapParams(1, HUGE, 1, 1, 1, 1), NonFinite, f"^n {BEYOND}"),
    ("general_basis huge int", lambda: ebasis.general_basis((HUGE, 1)), NonFinite, f"^ell {BEYOND}"),
    ("resource_state huge int", lambda: ebasis.resource_state(HUGE), NonFinite, f"^n {BEYOND}"),
    ("basis_entropy huge int", lambda: ebasis.basis_entropy(HUGE), NonFinite, f"^c {BEYOND}"),
    ("expected_repetitions huge int", lambda: teleport.expected_repetitions(HUGE), NonFinite, f"^n {BEYOND}"),
    ("two_outcome_choice huge int", lambda: swap.two_outcome_choice(1, HUGE), NonFinite, f"^n {BEYOND}"),
    ("one_faithful_choice huge int", lambda: teleport.one_faithful_choice(HUGE, 0), NonFinite, f"^n {BEYOND}"),
    ("run huge int", lambda: teleport.run((HUGE, 0), PARAMS), BadInput, f"^input amplitude {BEYOND}"),
    ("measured_probabilities huge int", lambda: teleport.measured_probabilities((HUGE, 0), PARAMS),
     BadInput, f"^input amplitude {BEYOND}"),
    # a set's hash order picked alpha and beta, a dict teleported its keys, a generator was read once
    ("run set", lambda: teleport.run({0.6, 0.8j}, PARAMS),
     BadInput, "^input must be an \\(alpha, beta\\) pair, got set$"),
    ("run dict", lambda: teleport.run({0.6: 1, 0.8j: 2}, PARAMS),
     BadInput, "^input must be an \\(alpha, beta\\) pair, got dict$"),
    ("run generator", lambda: teleport.run((a for a in (0.6, 0.8j)), PARAMS),
     BadInput, "^input must be an \\(alpha, beta\\) pair, got generator$"),
    ("run string", lambda: teleport.run("10", PARAMS), BadInput, "^input must be an \\(alpha, beta\\) pair, got str$"),
    ("run bytearray", lambda: teleport.run(bytearray(b"\x01\x00"), PARAMS),
     BadInput, "^input must be an \\(alpha, beta\\) pair, got bytearray$"),
    ("run 0-d array", lambda: teleport.run(np.array(0.6), PARAMS),
     BadInput, "^input must be an \\(alpha, beta\\) pair, got ndarray$"),
    ("measured_probabilities set", lambda: teleport.measured_probabilities({0.6, 0.8j}, PARAMS),
     BadInput, "^input must be an \\(alpha, beta\\) pair, got set$"),
    ("measured_probabilities generator", lambda: teleport.measured_probabilities((a for a in (0.6, 0.8j)), PARAMS),
     BadInput, "^input must be an \\(alpha, beta\\) pair, got generator$"),
    # measured_probabilities checks its input as run does
    ("measured_probabilities three amplitudes", lambda: teleport.measured_probabilities((1, 0, 0), PARAMS),
     BadInput, "^inputs must be a nonempty sequence of \\(alpha, beta\\) pairs, got shape \\(1, 3\\)$"),
    # the choice index is tested by type before range, so an array never reaches `in range(4)`,
    # whose truth value numpy refused with ValueError; a bool once picked choice 0 or 1
    ("two_faithful_labels array", lambda: teleport.two_faithful_labels(np.array([1, 2])),
     BadInput, INDEX + "array\\(\\[1, 2\\]\\)$"),
    ("one_faithful_choice matrix", lambda: teleport.one_faithful_choice(0.5, MATRIX), BadInput, INDEX + "matrix"),
    ("two_faithful_stack masked array", lambda: teleport.two_faithful_stack([0.5], np.ma.masked_array([1, 2])),
     BadInput, INDEX + "masked_array"),
    ("two_faithful_labels True", lambda: teleport.two_faithful_labels(True), BadInput, INDEX + "True$"),
    ("one_faithful_labels False", lambda: teleport.one_faithful_labels(False), BadInput, INDEX + "False$"),
    ("one_faithful_stack numpy True", lambda: teleport.one_faithful_stack([0.5], np.True_), BadInput, INDEX),
    # a choice whose condition divides by n refuses a zero n
    ("two_faithful_stack n = 0", lambda: teleport.two_faithful_stack([0.5, 0.0], 1),
     NonFinite, "^choice needs a nonzero resource parameter$"),
    ("one_faithful_choice n = 0", lambda: teleport.one_faithful_choice(0, 0),
     NonFinite, "^choice needs a nonzero resource parameter$"),
    ("measured_probabilities unnormalized", lambda: teleport.measured_probabilities((1, 1), PARAMS),
     BadInput, "^input amplitudes must be finite, with \\|alpha\\|\\^2 \\+ \\|beta\\|\\^2 = 1 within TOL_NORM$"),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_wrong_kind_of_data_raises_the_named_error_without_a_warning(call, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            call()


# Finite parameters whose condition products leave the float range, where abs of a complex number
# with finite parts and a modulus past DBL_MAX once leaked Python's OverflowError: |m n l*| is 1.9e308,
# and n l' - m p* is 1.69e308 (1 + i), a gap of two products that are each in range.
BAND = [
    (swap.SwapParams(1e100, 1e100, 1.4849242404917497e108 + 1.4849242404917497e108j, 1, 1, 0),
     False, True, ("PhiPlus",)),
    (swap.SwapParams(-1.3e154j, 1.3e154, 1, 1.3e154, 1.3e154, 1), False, False, ()),
]


@pytest.mark.parametrize("params, phi, psi, reliable", BAND, ids=["m n l* past DBL_MAX", "psi gap past DBL_MAX"])
def test_a_condition_product_past_the_float_range_matches_nothing(params, phi, psi, reliable):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = swap.classify_swap(params)
    assert (report.phi_branch_conditions, report.psi_branch_conditions) == (phi, psi)
    assert report.reliable_outcomes == reliable


def _polar(exponent, phase):
    return cmath.rect(10.0 ** exponent, phase)


_PHASE = st.floats(0.0, 2.0 * math.pi)
# swap_stack accepts moduli from about 1e-160 (its probabilities stay normal) to 1.34e154 (|z|^2 is finite)
_EXPONENT = st.floats(-160.0, 154.12)


@st.composite
def _near_float_max(draw):
    """Parameters whose condition products straddle DBL_MAX (10^308.25), where finite parts can have a
    modulus up to sqrt(2) DBL_MAX: either |m n l*| and |m n p'*| over 10^308..10^308.5, or m, n, p and l'
    over 10^153.9..10^154.12, so that the psi products reach DBL_MAX and a gap between two of them twice it."""
    if draw(st.booleans()):
        a, b = draw(st.floats(90.0, 110.0)), draw(st.floats(90.0, 110.0))
        l_exp, pp_exp = (draw(st.floats(308.0, 308.5)) - a - b for _ in range(2))
        exponents = [a, b, l_exp, draw(_EXPONENT), draw(_EXPONENT), pp_exp]
    else:
        exponents = [draw(st.floats(153.9, 154.12)) if name in "mnpL" else draw(_EXPONENT) for name in "mnlpLP"]
    return [_polar(exponent, draw(_PHASE)) for exponent in exponents]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.lists(st.builds(_polar, _EXPONENT, _PHASE), min_size=6, max_size=6), _near_float_max()))
def test_classify_swap_returns_or_raises_a_teleportrix_error(values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            report = swap.classify_swap(swap.SwapParams(*values))
        except TeleportrixError:
            return
    assert type(report.phi_branch_conditions) is bool and type(report.psi_branch_conditions) is bool
