"""One-matrix reference for the stacked teleport._corrections, and the
rounded complex product that the swap stack's reference shares.

The correction is the closed-form recipe written out in plain Python
floats, one `if` per branch, so each real product and sum is rounded as
the stacked arithmetic rounds it and the stack must reproduce it bit for
bit."""

import math

import numpy as np


def product(x, y):
    """Product of complex numbers given as (re, im) float pairs, each real product rounded."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


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
