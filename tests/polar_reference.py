"""One-matrix references for the stacked qcore._svd2 and teleport._corrections.

Both are the closed-form recipes written out in plain Python floats, one
`if` per branch, so each real product and sum is rounded as the stacked
arithmetic rounds it and the stacks must reproduce them bit for bit.
hypot is numpy's on scalars, the libm hypot the stack calls (math.hypot
is Python's own and differs in the last bit)."""

import math
import sys

import numpy as np


def product(x, y):
    """Product of complex numbers given as (re, im) float pairs, each real product rounded."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _add(x, y):
    return x[0] + y[0], x[1] + y[1]


def _conj(x):
    return x[0], -x[1]


def _hypot(x, y):
    return float(np.hypot(x, y))


def _square(x):
    return x[0] * x[0] + x[1] * x[1]


def _over(x, d):
    return x[0] / d, x[1] / d


def reference_svd2(a):
    """(u, (s1, s2), v) of one 2x2 matrix, one `if` per branch.

    a is divided by its largest real or imaginary part first. g = a^dag a
    sums over the rows in row order. u2 is the unit vector orthogonal to u1
    turned to the phase of its overlap with a v2, and s2 that overlap's
    modulus, at most s1."""
    entries = [complex(z) for z in np.asarray(a, dtype=complex).reshape(4)]
    scale = max(max(abs(z.real), abs(z.imag)) for z in entries)
    scale = scale if scale > 0.0 else 1.0
    rows = [[(z.real / scale, z.imag / scale) for z in entries[:2]],
            [(z.real / scale, z.imag / scale) for z in entries[2:]]]
    (a00, a01), (a10, a11) = rows
    g00, g11 = _square(a00) + _square(a10), _square(a01) + _square(a11)
    g01 = _add(product(_conj(a00), a01), product(_conj(a10), a11))
    half = 0.5 * (g00 - g11)
    r = _hypot(half, _hypot(*g01))
    c = (g01, (r - half, 0.0)) if half <= 0.0 else ((r + half, 0.0), _conj(g01))
    nv = _hypot(_hypot(*c[0]), _hypot(*c[1]))
    e0 = ((1.0, 0.0), (0.0, 0.0))
    v1 = (_over(c[0], nv), _over(c[1], nv)) if nv >= sys.float_info.min else e0
    v2 = (_conj((-v1[1][0], -v1[1][1])), _conj(v1[0]))

    def image(v):
        return [_add(product(row[0], v[0]), product(row[1], v[1])) for row in rows]

    u1 = image(v1)
    s1 = math.sqrt(_square(u1[0]) + _square(u1[1]))
    u1 = (_over(u1[0], s1), _over(u1[1], s1)) if s1 > 0.0 else e0
    perp = (_conj((-u1[1][0], -u1[1][1])), _conj(u1[0]))
    w = image(v2)
    overlap = _add(product(_conj(perp[0]), w[0]), product(_conj(perp[1]), w[1]))
    s2 = _hypot(*overlap)
    u2 = tuple(_over(product(overlap, x), s2) for x in perp) if s2 >= sys.float_info.min else perp

    def matrix(first, second):
        return np.array([[complex(*first[i]), complex(*second[i])] for i in (0, 1)])

    return matrix(u1, u2), (scale * s1, scale * min(s2, s1)), matrix(v1, v2)


def reference_correction(m):
    """(A^dag + conj(e) adj A) / sqrt(||A||_F^2 + 2 |det A|) of one matrix, in Python floats.

    A is m divided by its largest real or imaginary part and e = det A /
    |det A|, or 1 where det A = 0; the identity if m is zero."""
    a, b, c, d = (complex(z) for z in np.asarray(m, dtype=complex).reshape(4))
    scale = max(max(abs(z.real), abs(z.imag)) for z in (a, b, c, d))
    if scale == 0.0:
        return np.eye(2, dtype=complex)
    ar, ai, br, bi, cr, ci, dr, di = (x / scale for z in (a, b, c, d) for x in (z.real, z.imag))
    det_re = (ar * dr - ai * di) - (br * cr - bi * ci)
    det_im = (ar * di + ai * dr) - (br * ci + bi * cr)
    big = max(abs(det_re), abs(det_im))
    if big == 0.0:
        er, ei, twice_det = 1.0, 0.0, 0.0
    else:
        xr, xi = det_re / big, det_im / big
        modulus = math.sqrt(xr * xr + xi * xi)
        er, ei, twice_det = xr / modulus, xi / modulus, 2.0 * big * modulus
    norm = ((ar * ar + ai * ai) + (br * br + bi * bi)) + ((cr * cr + ci * ci) + (dr * dr + di * di))
    total = math.sqrt(norm + twice_det)
    entries = [(ar + (er * dr + ei * di), (er * di - ei * dr) - ai),
               (cr - (er * br + ei * bi), -ci - (er * bi - ei * br)),
               (br - (er * cr + ei * ci), -bi - (er * ci - ei * cr)),
               (dr + (er * ar + ei * ai), (er * ai - ei * ar) - di)]
    return np.array([complex(re / total, im / total) for re, im in entries]).reshape(2, 2)
