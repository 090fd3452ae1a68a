"""Text format for complex parameters, shared by the CLI and the library.

Accepted forms: "a", "bi", "a+bi", "a-bi" with decimal reals (an optional
exponent is tolerated), plus a bare "i" meaning "1i". This is the only
format the CLI emits, so reports round-trip through parse_complex.

The checks of every number and array a caller hands the library live
here too: finiteness, finite_array's one conversion of an array, and the
squared modulus |z|^2 that the normalizations and closed forms are built
from, which raises NonFinite where a power of |z| overflows.
"""

from __future__ import annotations

import cmath
import math
import numbers
import re

import numpy as np

from .errors import BadInput, NonFinite, ParseError

_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
# an optional real part, then an optional imaginary part that needs its sign only after a real part
_RE_COMPLEX = re.compile(rf"([+-]?{_NUMBER})?(?:((?(1)[+-]|[+-]?)(?:{_NUMBER})?)i)?")
MODULUS_BOUND = 1e154  # from this modulus up, a power may overflow: squared_moduli checks each value


def parse_complex(text: str) -> complex:
    """Parse "a", "bi", "a+bi" or "a-bi" into a complex number ("i" = "1i")."""
    token = text.strip()
    if not token:
        raise ParseError("empty complex literal")
    m = _RE_COMPLEX.fullmatch(token)
    if not m:
        raise ParseError(f"cannot parse complex number from {token!r}")
    real, imag = m.groups()
    if imag is None:
        return complex(float(real), 0.0)
    return complex(float(real or 0.0), float(imag + "1" if imag in ("", "+", "-") else imag))


def format_complex(z: complex, digits: int = 12) -> str:
    """Render a complex number in the format parse_complex accepts."""
    if z.imag == 0.0:
        return f"{z.real:.{digits}g}"
    if z.real == 0.0:
        return f"{z.imag:.{digits}g}i"
    return f"{z.real:.{digits}g}{z.imag:+.{digits}g}i"


def finite_complex(value, name: str) -> complex:
    """A number or complex literal string as a complex value: ParseError otherwise, NonFinite unless finite."""
    if not isinstance(value, (str, numbers.Number)):
        raise ParseError(f"{name} must be a number or a complex literal, got {type(value).__name__}")
    try:
        z = parse_complex(value) if isinstance(value, str) else complex(value)
    except OverflowError:  # an int past the float range
        raise NonFinite(f"{name} must be finite, got a value beyond the float range") from None
    if not cmath.isfinite(z):
        raise NonFinite(f"{name} must be finite, got {z!r}")
    return z


def finite_array(value, dtype, what: str, error: type, nonfinite: type) -> np.ndarray:
    """np.asarray(value) cast to dtype, so an array of dtype is not copied: error naming `what` unless numpy
    reads bool, integer, float or complex numbers in one shape (not text, None, bytes, bytearray, memoryview,
    other objects or ints past 64 bits), or for complex values where dtype is real; nonfinite for NaN or inf."""
    try:
        array = np.asarray(value)
        if array.dtype.kind not in "biufc" or isinstance(value, (bytearray, memoryview)):
            raise ValueError
    except ValueError:  # ragged (numpy >= 1.24) or not numbers
        raise error(f"{what} must be numbers in an array of one shape") from None
    if array.dtype.kind == "c" and np.dtype(dtype).kind != "c":  # astype would drop the imaginary part
        raise error(f"{what} must be real, got complex values")
    array = array.astype(dtype, copy=False)
    if not np.isfinite(array).all():
        raise nonfinite(f"{what} must be finite")
    return array


def finite_rows(rows, what: str) -> np.ndarray:
    """(R, G) complex array of R nonempty (G,) arrays of finite values: finite_array's BadInput
    and NonFinite, and BadInput for rows that are not nonempty vectors."""
    array = finite_array(rows, complex, what, BadInput, NonFinite)
    if array.ndim != 2 or array.shape[1] == 0:
        raise BadInput(f"{what} must be nonempty (G,) arrays, got shape {array.shape[1:]}")
    return array


def squared_modulus(z: complex, name: str, power: int = 1) -> float:
    """|z|^2 as abs (hypot) then a float power.

    Raises NonFinite naming the parameter where |z|^2, or the
    (1 + |z|^2)^power a caller goes on to form, overflows a float.
    """
    try:
        mod2 = abs(z) ** 2
        (1.0 + mod2) ** power
    except OverflowError:
        raise NonFinite(f"{name} = {z!r} is too large: a power of |{name}| overflows a float") from None
    return mod2


def squared_moduli(rows: np.ndarray, names, power: int = 1) -> np.ndarray:
    """squared_modulus of every entry of an (R, G) complex array, same bits.

    Row r holds values of the parameter names[r], which an overflow
    error names. np.hypot is the hypot of abs(complex) and np.float_power(x,
    2.0) calls the C pow of a float's ** (x * x, np.square and np.power
    miss it in the last bit for some x in 10^3).
    """
    with np.errstate(over="ignore"):  # |z| above DBL_MAX: the per-entry check below raises NonFinite
        moduli = np.hypot(rows.real, rows.imag)
    if not moduli.max() < MODULUS_BOUND ** (1 / power):  # a power may overflow: the per-entry check raises
        for name, row in zip(names, rows.tolist()):
            for z in row:
                squared_modulus(z, name, power)
    return np.float_power(moduli, 2.0)


def weight(z: complex, name: str) -> float:
    """Normalization 1/sqrt(1 + |z|^2) of a family or resource vector."""
    return 1.0 / math.sqrt(1.0 + squared_modulus(z, name))
