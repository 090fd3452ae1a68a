"""complexfmt.finite_array: the one conversion of every array a caller hands the library.

Each row of CASES is a call whose ragged, non-numeric, NaN or infinite
input once leaked a numpy or Python error, constructed, or raised a
message that did not name the bad data; it must raise the named
TeleportrixError and no warning.
"""

import math
import warnings

import numpy as np
import pytest

from teleportrix import ebasis, measure, qcore, swap, teleport
from teleportrix.complexfmt import finite_array
from teleportrix.errors import BadInput, CompletenessError, NonFinite, NormalizationError, ShapeError

NAN, INF = math.nan, math.inf
I2 = np.eye(2)


def _rng():
    return np.random.default_rng(0)


def _evaluate(inputs):
    return teleport.evaluate_inputs(teleport.protocol_branches(teleport.ProtocolParams(0.5, 0.5, 2)), inputs)


CASES = [
    ("PureState ragged", lambda: qcore.PureState(("a",), [[1], [0, 1]]), ShapeError, "^amplitudes must be numbers"),
    ("PureState text", lambda: qcore.PureState(("a",), ["x", 1]), ShapeError, "^amplitudes must be numbers"),
    # numpy reads None as a NaN, but None is not a number
    ("PureState None entry", lambda: qcore.PureState(("a",), [None, 1]), ShapeError, "^amplitudes must be numbers"),
    ("PureState None", lambda: qcore.PureState(("a",), None), ShapeError, "^amplitudes must be numbers"),
    ("make_state ragged", lambda: qcore.make_state(("a",), [[1], [0, 1]]), ShapeError, "^amplitudes must be numbers"),
    ("make_state text", lambda: qcore.make_state(("a",), ["x", 1]), ShapeError, "^amplitudes must be numbers"),
    ("DensityMatrix ragged", lambda: qcore.DensityMatrix([[1], [0, 1]]), ShapeError, "^density matrix entries"),
    ("DensityMatrix text", lambda: qcore.DensityMatrix("ab"), ShapeError, "^density matrix entries"),
    ("count_outcomes ragged", lambda: measure.count_outcomes([[.5, .5, 0, 0], [1]], 10, _rng()),
     BadInput, "^probabilities must be numbers"),
    ("count_outcomes text", lambda: measure.count_outcomes([["a", .5, 0, 0]], 10, _rng()),
     BadInput, "^probabilities must be numbers"),
    ("count_outcomes nan", lambda: measure.count_outcomes([[NAN, .5, .5, 0]], 10, _rng()),
     BadInput, "^probabilities must be finite$"),
    ("count_outcomes inf", lambda: measure.count_outcomes([[INF, .5, .5, 0]], 10, _rng()),
     BadInput, "^probabilities must be finite$"),
    ("sample_outcomes ragged", lambda: measure.sample_outcomes([[.5, .5], [1, 0, 0, 0]], 3, _rng()),
     BadInput, "^probabilities must be numbers"),
    ("branch_stack dict", lambda: teleport.branch_stack([{}], [1], [1]), BadInput, "^n, ell and p must be numbers"),
    ("branch_stack None", lambda: teleport.branch_stack([None], [1], [1]), BadInput, "^n, ell and p must be numbers"),
    ("basis_stack dict", lambda: ebasis.basis_stack([{}], [1]), BadInput, "^ell and p must be numbers"),
    ("evaluate_inputs ragged", lambda: _evaluate([[1], [1, 0]]), BadInput, "^input amplitudes must be numbers"),
    ("evaluate_inputs text", lambda: _evaluate([["x", 0]]), BadInput, "^input amplitudes must be numbers"),
    ("haar_inputs negative", lambda: teleport.haar_inputs(-1, _rng()), BadInput, "^count must be >= 0"),
    ("haar_inputs fraction", lambda: teleport.haar_inputs(2.5, _rng()), BadInput, "^count must be an integer"),
    ("haar_inputs nan", lambda: teleport.haar_inputs(NAN, _rng()), BadInput, "^count must be an integer"),
    ("haar_inputs inf", lambda: teleport.haar_inputs(INF, _rng()), BadInput, "^count must be an integer"),
    ("two_faithful_stack text", lambda: teleport.two_faithful_stack(["x"], 0), BadInput, "^n must be numbers"),
    ("two_faithful_stack nan", lambda: teleport.two_faithful_stack([NAN], 0), NonFinite, "^n must be finite$"),
    ("two_faithful_stack inf", lambda: teleport.two_faithful_stack([INF], 1), NonFinite, "^n must be finite$"),
    ("one_faithful_stack ragged", lambda: teleport.one_faithful_stack([[1], [1, 2]], 1),
     BadInput, "^n must be numbers"),
    ("one_faithful_stack nan", lambda: teleport.one_faithful_stack([NAN], 1), NonFinite, "^n must be finite$"),
    ("one_faithful_stack inf", lambda: teleport.one_faithful_stack([INF], 1), NonFinite, "^n must be finite$"),
    ("SchmidtForm nan", lambda: qcore.SchmidtForm((NAN, NAN), I2, I2), NormalizationError, "^Schmidt coefficients"),
    ("SchmidtForm nan and zero", lambda: qcore.SchmidtForm((NAN, 0.0), I2, I2),
     NormalizationError, "^Schmidt coefficients"),
    ("SchmidtForm inf", lambda: qcore.SchmidtForm((INF, NAN), I2, I2), NormalizationError, "^Schmidt coefficients"),
    ("SchmidtForm one", lambda: qcore.SchmidtForm((1.0,), I2, I2), ShapeError, "two coefficients"),
    ("SchmidtForm text", lambda: qcore.SchmidtForm(("a", 0), I2, I2), ShapeError, "^Schmidt coefficients"),
    ("SchmidtForm ragged", lambda: qcore.SchmidtForm(((1.0,), (0.0, 1.0)), I2, I2),
     ShapeError, "^Schmidt coefficients"),
    ("SchmidtForm basis text", lambda: qcore.SchmidtForm((1, 0), "foo", I2), ShapeError, "^Schmidt basis entries"),
    ("SchmidtForm basis None", lambda: qcore.SchmidtForm((1, 0), I2, None),
     ShapeError, "^Schmidt basis entries must be numbers"),
    ("SchmidtForm basis ragged", lambda: qcore.SchmidtForm((1, 0), [[1], [0, 1]], I2),
     ShapeError, "^Schmidt basis entries"),
    ("SchmidtForm basis nan", lambda: qcore.SchmidtForm((1, 0), I2, [[NAN, 0], [0, 1]]),
     NormalizationError, "^Schmidt basis entries must be finite$"),
    ("SchmidtForm basis inf", lambda: qcore.SchmidtForm((1, 0), [[1, 0], [0, INF]], I2),
     NormalizationError, "^Schmidt basis entries must be finite$"),
    ("SchmidtForm basis vector", lambda: qcore.SchmidtForm((1, 0), [1, 0, 0, 1], I2), ShapeError, "must be 2x2"),
    ("SchmidtForm basis not unitary", lambda: qcore.SchmidtForm((1, 0), I2, 2 * I2),
     NormalizationError, "must be unitary$"),
    # numpy's own string parse was a second complex grammar beside parse_complex: text is not a number
    ("branch_stack complex text", lambda: teleport.branch_stack(["1+2j"], ["0.5"], ["2"]),
     BadInput, "^n, ell and p must be numbers"),
    ("branch_stack numeric text", lambda: teleport.branch_stack(["0.5"], ["0.5"], ["2"]),
     BadInput, "^n, ell and p must be numbers"),
    ("PureState numeric text", lambda: qcore.PureState(("a",), ["1", "0"]), ShapeError, "^amplitudes must be numbers"),
    ("make_state string", lambda: qcore.make_state(("a",), "10"), ShapeError, "^amplitudes must be numbers"),
    # make_state once converted through list(amps): a dict gave its keys, a set its hash order,
    # bytes their byte values, and a generator was accepted
    ("make_state dict", lambda: qcore.make_state(("a",), {1: 0, 0: 1}), ShapeError, "^amplitudes must be numbers"),
    ("make_state set", lambda: qcore.make_state(("a",), {0.6, 0.8}), ShapeError, "^amplitudes must be numbers"),
    ("make_state bytes", lambda: qcore.make_state(("a",), b"\x01\x00"), ShapeError, "^amplitudes must be numbers"),
    ("make_state generator", lambda: qcore.make_state(("a",), (a for a in (1, 0))),
     ShapeError, "^amplitudes must be numbers"),
    # numpy reads a bytearray's or memoryview's items as numbers, where bytes of the same content
    # were refused: each built or counted raw byte values
    ("PureState bytearray", lambda: qcore.PureState(("a",), bytearray(b"\x01\x00")),
     ShapeError, "^amplitudes must be numbers"),
    ("make_state memoryview", lambda: qcore.make_state(("a",), memoryview(b"\x01\x00")),
     ShapeError, "^amplitudes must be numbers"),
    ("count_outcomes memoryview", lambda: measure.count_outcomes(
        memoryview(bytearray(b"\x01\x00\x00\x00")).cast("B", (1, 4)), 3, _rng()),
     BadInput, "^probabilities must be numbers"),
    ("evaluate_inputs memoryview", lambda: _evaluate(memoryview(bytearray(b"\x01\x00")).cast("B", (1, 2))),
     BadInput, "^input amplitudes must be numbers"),
    # the rule is by type: a memoryview of a numeric array is refused too
    ("PureState memoryview of floats", lambda: qcore.PureState(("a",), memoryview(np.array([1.0, 0.0]))),
     ShapeError, "^amplitudes must be numbers"),
    ("count_outcomes numeric text", lambda: measure.count_outcomes([["1", "0", "0", "0"]], 10, _rng()),
     BadInput, "^probabilities must be numbers"),
    ("evaluate_inputs numeric text", lambda: _evaluate([["1", "0"]]), BadInput, "^input amplitudes must be numbers"),
    # a Python int past 64 bits is no numpy number: float conversion once leaked OverflowError
    ("branch_stack huge int", lambda: teleport.branch_stack([10**400], [1], [1]),
     BadInput, "^n, ell and p must be numbers"),
    ("swap_stack huge int", lambda: swap.swap_stack([10**400], [1], [1], [1], [1], [1]),
     BadInput, "^swap parameters must be numbers"),
    ("PureState huge int", lambda: qcore.PureState(("a",), [10**400, 0]), ShapeError, "^amplitudes must be numbers"),
    ("check_completeness None entry", lambda: teleport.check_completeness([[[None, 0], [0, 1]]]),
     BadInput, "^transfer matrices must be numbers"),
    ("check_completeness text array", lambda: teleport.check_completeness(np.array([[["1", "0"], ["0", "1"]]])),
     BadInput, "^transfer matrices must be numbers"),
    ("check_completeness huge int", lambda: teleport.check_completeness([[[10**400, 0], [0, 1]]]),
     BadInput, "^transfer matrices must be numbers"),
    ("check_completeness nan", lambda: teleport.check_completeness([[[NAN, 0], [0, 1]]]),
     CompletenessError, "^transfer matrices must be finite$"),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_bad_array_raises_the_named_error_without_a_warning(call, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            call()


@pytest.mark.parametrize("dtype", [complex, float])
def test_an_array_of_the_dtype_is_not_copied(dtype):
    array = np.linspace(0.0, 1.0, 12).astype(dtype).reshape(3, 4)
    assert finite_array(array, dtype, "values", BadInput, NonFinite) is array


def test_frozen_types_keep_their_own_read_only_copy():
    amps = np.array([1.0, 0.0], dtype=complex)
    entries = np.diag([1.0, 0.0]).astype(complex)
    unitary = np.eye(2, dtype=complex)
    held = (qcore.PureState(("a",), amps).amps, qcore.DensityMatrix(entries).entries,
            teleport.TransferMatrix("PhiPlus", entries).matrix, qcore.SchmidtForm((1, 0), unitary, unitary).basis_b)
    for own, caller in zip(held, (amps, entries, entries, unitary)):
        assert not np.shares_memory(own, caller)
        assert not own.flags.writeable
    assert amps.flags.writeable and entries.flags.writeable and unitary.flags.writeable
