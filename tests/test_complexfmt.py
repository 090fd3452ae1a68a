"""The complex-literal text format: what parse_complex reads, what format_complex writes.

Two digests pin the format. One is over parse_complex on a derandomized
corpus of tokens: the edge cases below plus 50,000 random strings of 1 to
7 characters from the literal's alphabet. Each token is recorded as the
repr of its value or as its exception's class and message. The other is
over format_complex at precision 6, 12 and 17 of (x, y), (x, 0), (0, y)
and (-0.0, y), for magnitudes spread log-uniformly over the whole float
range plus the extremes. A change to either side of the grammar, to a
value or to an error message moves a digest.
"""

import hashlib
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleportrix.complexfmt import finite_complex, format_complex, parse_complex
from teleportrix.errors import ParseError
from teleportrix.teleport import ProtocolParams

EDGE_TOKENS = [
    "", " ", "i", "+i", "-i", "1", "-1", "+1", ".5", "5.", ".", "1e5", "1E-5", "1e", "e5",
    "1+i", "1-i", "1+2i", "1-2i", "-1.5e-3+2.5E+4i", " 2i ", "1 + 2i", "1+2j", "i2", "0.5+",
    "--1", "1++2i", "+-i", "1.2.3", "abc", "nan", "inf", "1e400", "1e400i", "-0", "-0i",
    "0-0i", "\t3\n",
]
PARSE_DIGEST = "f122a076f68d87777ccde2f76848b6cff2eb9ea7965d2d37a37587b87b6aea36"
FORMAT_DIGEST = "7c56447b3842d559a6ac2fc13721621237071bd12486d203d0f2e0081a333b71"


def _parse_corpus() -> list:
    rng = random.Random(20261020)
    alphabet = "0123456789.+-eEi "
    return EDGE_TOKENS + ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 7)))
                          for _ in range(50_000)]


def _parsed(token: str) -> str:
    try:
        return repr(parse_complex(token))
    except Exception as error:  # the class and message are part of the format
        return f"{type(error).__name__}: {error}"


def _reals() -> list:
    """Log-uniform magnitudes from subnormal to DBL_MAX, both signs, and the extremes."""
    rng = random.Random(4287)
    values = [math.copysign(math.ldexp(1.0 + rng.random(), rng.randint(-1074, 1023)),
                            rng.choice((-1.0, 1.0))) for _ in range(4_000)]
    return values + [0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, sys.float_info.max, -sys.float_info.max]


def _format_corpus() -> list:
    reals = _reals()
    pairs = list(zip(reals, reals[1:] + reals[:1]))
    return [z for x, y in pairs for z in (complex(x, y), complex(x, 0.0), complex(0.0, y), complex(-0.0, y))]


def test_parse_complex_corpus_digest():
    text = "\n".join(_parsed(token) for token in _parse_corpus())
    assert hashlib.sha256(text.encode()).hexdigest() == PARSE_DIGEST


def test_format_complex_corpus_digest():
    text = "\n".join(format_complex(z, digits) for digits in (6, 12, 17) for z in _format_corpus())
    assert hashlib.sha256(text.encode()).hexdigest() == FORMAT_DIGEST


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_FINITE, _FINITE)
def test_seventeen_digits_round_trip(x, y):
    z = complex(x, y)
    assert parse_complex(format_complex(z, 17)) == z


@pytest.mark.parametrize("value", [None, [1, 2], b"1", (1,), {}, np.arange(2.0)], ids=repr)
def test_finite_complex_refuses_a_non_number_by_name(value):
    with pytest.raises(ParseError, match="^n must be a number"):
        finite_complex(value, "n")


def test_protocol_parameter_that_is_not_a_number_is_a_parse_error():
    with pytest.raises(ParseError, match="^n must be a number"):
        ProtocolParams(None, 1, 1)


@pytest.mark.parametrize("value", [2, 0.5, 1j, np.float64(0.5), np.complex64(1j), np.int8(3), "0.5-i"], ids=repr)
def test_finite_complex_takes_numbers_and_literals(value):
    assert finite_complex(value, "n") == complex(parse_complex(value) if isinstance(value, str) else value)
