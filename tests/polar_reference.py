"""One-matrix references for the stacked qcore._svd2 and teleport._corrections.

reference_svd2 is the closed-form SVD recipe, one `if` per branch, that
the stacked _svd2 must reproduce bit for bit. reference_correction is
the closed-form polar correction of teleport._corrections written out in
plain Python floats, so each of its real products and sums is exactly
rounded as the stacked arithmetic rounds it."""

import math
import sys

import numpy as np


def reference_svd2(a):
    """(u, (s1, s2), v) of one 2x2 matrix, one `if` per branch.

    a is divided by its largest real or imaginary part first. u2 is the
    unit vector orthogonal to u1 turned to the phase of its overlap with
    a v2, and s2 that overlap's modulus, at most s1."""
    a = np.asarray(a, dtype=complex)
    scale = float(np.max(np.maximum(np.abs(a.real), np.abs(a.imag))))
    scale = scale if scale > 0.0 else 1.0
    a = a.real / scale + 1j * (a.imag / scale)
    g = a.conj().T @ a
    half = 0.5 * float(g[0, 0].real - g[1, 1].real)
    r = float(np.hypot(half, np.hypot(g[0, 1].real, g[0, 1].imag)))
    c = np.array([g[0, 1], r - half] if half <= 0.0 else [r + half, g[1, 0]], dtype=complex)
    nv = float(np.hypot(np.hypot(c[0].real, c[0].imag), np.hypot(c[1].real, c[1].imag)))
    v1 = c / nv if nv >= sys.float_info.min else np.array([1.0, 0.0], dtype=complex)
    v2 = np.array([-np.conj(v1[1]), np.conj(v1[0])])
    u1 = a @ v1
    s1 = float(np.linalg.norm(u1))
    u1 = u1 / s1 if s1 > 0.0 else np.array([1.0, 0.0], dtype=complex)
    perp = np.array([-np.conj(u1[1]), np.conj(u1[0])])
    overlap = np.vdot(perp, a @ v2)
    s2 = float(np.hypot(overlap.real, overlap.imag))
    u2 = overlap * perp / s2 if s2 >= sys.float_info.min else perp
    return np.column_stack([u1, u2]), (scale * s1, scale * min(s2, s1)), np.column_stack([v1, v2])


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
