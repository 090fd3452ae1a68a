"""Text format for complex parameters, shared by the CLI and the library.

Accepted forms: "a", "bi", "a+bi", "a-bi" with decimal reals (an optional
exponent is tolerated), plus a bare "i" meaning "1i". This is the only
format the CLI emits, so reports round-trip through parse_complex.

The checks every complex parameter passes live here too: finiteness,
and the squared modulus |z|^2 that the normalizations and closed forms
are built from, which raises NonFinite where a power of |z| overflows.
"""

from __future__ import annotations

import cmath
import math
import re

import numpy as np

from .errors import BadInput, NonFinite, ParseError

_REAL = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_RE_REAL = re.compile(rf"^({_REAL})$")
_RE_IMAG = re.compile(rf"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[+-]?)i$")
_RE_BOTH = re.compile(rf"^({_REAL})([+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[+-])i$")


def parse_complex(text: str) -> complex:
    """Parse "a", "bi", "a+bi" or "a-bi" into a complex number ("i" = "1i")."""
    token = text.strip()
    if not token:
        raise ParseError("empty complex literal")
    m = _RE_REAL.match(token)
    if m:
        return complex(float(m.group(1)), 0.0)
    m = _RE_IMAG.match(token)
    if m:
        return complex(0.0, _imag_part(m.group(1)))
    m = _RE_BOTH.match(token)
    if m:
        return complex(float(m.group(1)), _imag_part(m.group(2)))
    raise ParseError(f"cannot parse complex number from {token!r}")


def _imag_part(digits: str) -> float:
    if digits in ("", "+"):
        return 1.0
    if digits == "-":
        return -1.0
    return float(digits)


def format_complex(z: complex, digits: int = 12) -> str:
    """Render a complex number in the format parse_complex accepts."""
    re_s = f"{z.real:.{digits}g}"
    im_s = f"{abs(z.imag):.{digits}g}"
    if z.imag == 0.0:
        return re_s
    sign = "+" if z.imag > 0 else "-"
    if z.real == 0.0:
        return f"{sign if sign == '-' else ''}{im_s}i"
    return f"{re_s}{sign}{im_s}i"


def as_complex(value) -> complex:
    """Coerce a number or complex literal string into a complex value."""
    if isinstance(value, str):
        return parse_complex(value)
    return complex(value)


def finite_complex(value, name: str) -> complex:
    """as_complex plus a finiteness check; raises NonFinite otherwise."""
    z = as_complex(value)
    if not cmath.isfinite(z):
        raise NonFinite(f"{name} must be finite, got {z!r}")
    return z


def finite_rows(rows, what: str) -> np.ndarray:
    """(R, G) complex array of R nonempty (G,) arrays of finite values.

    Raises BadInput for ragged or non-vector rows and NonFinite for a
    NaN or infinite entry; `what` names the rows in the message.
    """
    try:
        array = np.array(rows, dtype=complex)
    except ValueError:
        raise BadInput(f"{what} must be arrays of one shape") from None
    if array.ndim != 2 or array.shape[1] == 0:
        raise BadInput(f"{what} must be nonempty (G,) arrays, got shape {array.shape[1:]}")
    if not np.isfinite(array).all():
        raise NonFinite(f"{what} must be finite")
    return array


def _too_large(name: str, z: complex) -> NonFinite:
    return NonFinite(f"{name} = {z!r} is too large: a power of |{name}| overflows a float")


def squared_modulus(z: complex, name: str, power: int = 1) -> float:
    """|z|^2 as abs (hypot) then a float power.

    Raises NonFinite naming the parameter where |z|^2, or the
    (1 + |z|^2)^power a caller goes on to form, overflows a float.
    """
    try:
        mod2 = abs(z) ** 2
        (1.0 + mod2) ** power
    except OverflowError:
        raise _too_large(name, z) from None
    return mod2


def squared_moduli(rows: np.ndarray, names, power: int = 1) -> np.ndarray:
    """squared_modulus of every entry of an (R, G) complex array, same bits.

    Row r holds values of the parameter names[r], which an overflow
    error names. np.hypot is the hypot of abs(complex) and np.float_power(x,
    2.0) calls the C pow of a float's ** (x * x, np.square and np.power
    miss it in the last bit for some x in 10^3).
    """
    moduli = np.hypot(rows.real, rows.imag)
    if not moduli.max() < 1e154 ** (1 / power):  # a power may overflow: the per-entry check raises
        for name, row in zip(names, rows.tolist()):
            for z in row:
                squared_modulus(z, name, power)
    return np.float_power(moduli, 2.0)


def weight(z: complex, name: str) -> float:
    """Normalization 1/sqrt(1 + |z|^2) of a family or resource vector."""
    return 1.0 / math.sqrt(1.0 + squared_modulus(z, name))
