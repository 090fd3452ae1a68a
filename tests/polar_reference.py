"""The one-matrix closed-form SVD and polar correction that the stacked
qcore._svd2 and teleport._corrections replaced, kept as their bit-for-bit
reference."""

import math

import numpy as np


def reference_svd2(a):
    """(u, (s1, s2), v) of one 2x2 matrix, one `if` per branch."""
    a = np.asarray(a, dtype=complex)
    g = a.conj().T @ a
    t = float(g[0, 0].real + g[1, 1].real)
    d = float((g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]).real)
    disc = math.sqrt(max(t * t - 4.0 * d, 0.0))
    lam1 = max(0.5 * (t + disc), 0.0)
    lam2 = max(0.5 * (t - disc), 0.0)
    s1, s2 = math.sqrt(lam1), math.sqrt(lam2)
    c1 = np.array([g[0, 1], lam1 - g[0, 0]], dtype=complex)
    c2 = np.array([lam1 - g[1, 1], g[1, 0]], dtype=complex)
    v1 = c1 if np.linalg.norm(c1) >= np.linalg.norm(c2) else c2
    nv = np.linalg.norm(v1)
    if nv <= 1e-14 * max(t, 1.0):
        v1 = np.array([1.0, 0.0], dtype=complex)
    else:
        v1 = v1 / nv
    v2 = np.array([-np.conj(v1[1]), np.conj(v1[0])])
    if s1 > 1e-12:
        u1 = a @ v1 / s1
        u1 = u1 / np.linalg.norm(u1)
    else:
        u1 = np.array([1.0, 0.0], dtype=complex)
    if s2 > 1e-9 * max(s1, 1e-300):
        u2 = a @ v2 / s2
        u2 = u2 - np.vdot(u1, u2) * u1
        u2 = u2 / np.linalg.norm(u2)
    else:
        u2 = np.array([-np.conj(u1[1]), np.conj(u1[0])])
    return np.column_stack([u1, u2]), (s1, s2), np.column_stack([v1, v2])


def reference_correction(m):
    """v u^dag of one matrix, rescaled first below an entry of 1e-6; I if m is zero."""
    m = np.asarray(m, dtype=complex)
    scale = float(np.max(np.abs(m)))
    if not scale > 0.0:
        return np.eye(2, dtype=complex)
    u, _, v = reference_svd2(m if scale >= 1e-6 else m / scale)
    return v @ u.conj().T
