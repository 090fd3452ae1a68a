"""Library entry points given the wrong kind of data: each row of CASES is
a call that once leaked Python's TypeError or AttributeError, or numpy's
ComplexWarning (the imaginary part dropped where a real number is meant);
it must raise the named TeleportrixError and no warning.
"""

import warnings

import numpy as np
import pytest

from teleportrix import ebasis, measure, qcore, teleport
from teleportrix.errors import BadInput, ParseError, ShapeError

I2 = np.eye(2)
NESTED = [[1.0, 0.0], [0.0, 1.0]]

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
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_wrong_kind_of_data_raises_the_named_error_without_a_warning(call, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            call()
