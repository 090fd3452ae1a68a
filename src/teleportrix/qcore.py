"""Exact complex linear algebra over small named qubit registers.

A register is an ordered tuple of unique labels; the first label is the
most significant bit of the amplitude index, so a two-qubit register
(a, b) stores amplitudes in the order |00>, |01>, |10>, |11> with a as
the left bit. All values are immutable after construction and every
operation is a pure function, so concurrent use needs no coordination.

State equality is always judged through fidelity (phase insensitive),
never by comparing amplitudes componentwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadSubset,
    LabelCollision,
    LabelMismatch,
    NormalizationError,
    NotUnitary,
    ShapeError,
)
from .tolerances import TOL_EQ, TOL_NORM

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_E0 = PAULI_I[0]


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized pure state over an ordered qubit register.

    The constructor validates; it does not repair. Use make_state to
    normalize raw amplitudes.
    """

    qubits: tuple
    amps: np.ndarray

    def __post_init__(self):
        labels = tuple(self.qubits)
        if not labels:
            raise ShapeError("a state needs at least one qubit label")
        if len(set(labels)) != len(labels):
            raise LabelCollision(f"duplicate qubit labels in {labels!r}")
        amps = np.array(self.amps, dtype=complex)
        if amps.ndim != 1 or amps.size != 2 ** len(labels):
            raise ShapeError(
                f"{len(labels)} labels need {2 ** len(labels)} amplitudes, got {amps.size}"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise NormalizationError("amplitudes must be finite")
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > TOL_NORM:
            raise NormalizationError(f"squared norm {norm_sq!r} deviates from 1")
        amps.setflags(write=False)
        object.__setattr__(self, "qubits", labels)
        object.__setattr__(self, "amps", amps)

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    def as_tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per qubit, register order."""
        return self.amps.reshape((2,) * self.num_qubits)

    def relabel(self, new_labels: Sequence) -> "PureState":
        """Same amplitudes on a renamed register."""
        return PureState(tuple(new_labels), self.amps)

    def __repr__(self) -> str:
        return f"PureState(qubits={self.qubits!r}, amps={np.array2string(self.amps, precision=6)})"


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on 1..3 qubits."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ShapeError("density matrix must be square")
        dim = entries.shape[0]
        if dim not in (2, 4, 8):
            raise ShapeError(f"unsupported density matrix dimension {dim}")
        if np.max(np.abs(entries - entries.conj().T)) > TOL_NORM:
            raise ShapeError("density matrix is not Hermitian")
        if abs(np.trace(entries).real - 1.0) > TOL_NORM or abs(np.trace(entries).imag) > TOL_NORM:
            raise ShapeError("density matrix trace is not 1")
        if np.min(np.linalg.eigvalsh(entries)) < -TOL_NORM:
            raise ShapeError("density matrix has a negative eigenvalue")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class SchmidtForm:
    """Two-qubit state as coeffs[0]*|u0>|v0> + coeffs[1]*|u1>|v1>.

    coeffs are non-negative and descending; basis_a[:, i] and
    basis_b[:, i] are the local kets |ui>, |vi>, each matrix unitary.
    """

    coeffs: tuple
    basis_a: np.ndarray
    basis_b: np.ndarray

    def __post_init__(self):
        c = (float(self.coeffs[0]), float(self.coeffs[1]))
        if c[0] < c[1] or c[1] < -TOL_NORM:
            raise ShapeError("Schmidt coefficients must be descending and non-negative")
        if abs(c[0] ** 2 + c[1] ** 2 - 1.0) > TOL_NORM:
            raise NormalizationError("Schmidt coefficients must square-sum to 1")
        object.__setattr__(self, "coeffs", c)

    def reconstruct(self) -> np.ndarray:
        """Four amplitudes of the state this decomposition encodes."""
        out = np.zeros(4, dtype=complex)
        for i, c in enumerate(self.coeffs):
            out += c * np.kron(self.basis_a[:, i], self.basis_b[:, i])
        return out


def make_state(labels: Sequence, amps: Iterable) -> PureState:
    """Build a normalized state; rejects zero vectors and bad shapes (PureState's check)."""
    arr = np.array(list(amps), dtype=complex)
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise NormalizationError("amplitudes must be finite")
    norm_sq = float(np.vdot(arr, arr).real)
    if norm_sq < 1e-12:
        raise NormalizationError("cannot normalize a (near-)zero vector")
    return PureState(tuple(labels), arr / math.sqrt(norm_sq))


def basis_state(labels: Sequence, bits: str) -> PureState:
    """Computational basis state, e.g. basis_state(("a", "b"), "01")."""
    labels_t = tuple(labels)
    if len(bits) != len(labels_t) or set(bits) - {"0", "1"}:
        raise ShapeError(f"bit string {bits!r} does not match {labels_t!r}")
    amps = np.zeros(2 ** len(labels_t), dtype=complex)
    amps[int(bits, 2)] = 1.0
    return PureState(labels_t, amps)


def tensor(s1: PureState, s2: PureState) -> PureState:
    """Kronecker product; s1's labels come first (and stay most significant)."""
    if set(s1.qubits) & set(s2.qubits):
        raise LabelCollision(
            f"label sets overlap: {set(s1.qubits) & set(s2.qubits)!r}"
        )
    return PureState(s1.qubits + s2.qubits, np.kron(s1.amps, s2.amps))


def apply_unitary(s: PureState, target, u: np.ndarray) -> PureState:
    """Apply a single-qubit unitary to the named qubit."""
    mat = np.asarray(u, dtype=complex)
    if mat.shape != (2, 2):
        raise ShapeError("single-qubit unitary must be 2x2")
    if np.max(np.abs(mat.conj().T @ mat - np.eye(2))) > TOL_EQ:
        raise NotUnitary("matrix fails U^dag U = I")
    if target not in s.qubits:
        raise LabelMismatch(f"qubit {target!r} not in register {s.qubits!r}")
    axis = s.qubits.index(target)
    t = np.tensordot(mat, s.as_tensor(), axes=([1], [axis]))
    t = np.moveaxis(t, 0, axis)
    return PureState(s.qubits, t.reshape(-1))


def reduced_density(s: PureState, keep: Sequence) -> DensityMatrix:
    """Partial trace keeping the given labels (row order follows keep)."""
    keep_t = tuple(keep)
    if not keep_t:
        raise BadSubset("keep must be nonempty")
    if len(set(keep_t)) != len(keep_t):
        raise BadSubset(f"duplicate labels in keep: {keep_t!r}")
    if not set(keep_t) <= set(s.qubits):
        raise BadSubset(f"{set(keep_t) - set(s.qubits)!r} not in register")
    if len(keep_t) == s.num_qubits:
        raise BadSubset("keep must be a proper subset of the register")
    pos = tuple(s.qubits.index(q) for q in keep_t)
    t = np.moveaxis(s.as_tensor(), pos, range(len(pos)))
    block = t.reshape(2 ** len(keep_t), -1)
    return DensityMatrix(block @ block.conj().T)


def _svd2(a: np.ndarray):
    """Closed-form singular value decomposition of a (..., 2, 2) complex stack.

    Returns (u, s, v) with a = u @ diag(s[..., 0], s[..., 1]) @ v^dag,
    s[..., 0] >= s[..., 1] >= 0 and u, v unitary, solved from the
    quadratic characteristic polynomial of a^dag a. Each branch of the
    one-matrix recipe is an np.where on its threshold, and each value
    takes that recipe's float operations (the determinant as Python's
    complex multiply, norms as np.linalg.norm, products as matvec), so a
    matrix gives the same bits whatever the stack.
    """
    a = np.asarray(a, dtype=complex)
    g = np.matmul(a.conj().swapaxes(-1, -2), a)
    g00, g01, g10, g11 = (g[..., i, j] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    t = g00.real + g11.real
    d = (g00.real * g11.real - g00.imag * g11.imag) - (g01.real * g10.real - g01.imag * g10.imag)
    disc = np.sqrt(np.maximum(t * t - 4.0 * d, 0.0))
    lam1 = np.maximum(0.5 * (t + disc), 0.0)
    s1, s2 = np.sqrt(lam1), np.sqrt(np.maximum(0.5 * (t - disc), 0.0))
    # Eigenvector of g for lam1: both candidate rows solve (g - lam1) v = 0,
    # pick the numerically larger one; degenerate g is a multiple of I.
    c1 = np.stack([g01, lam1 - g00], axis=-1)
    c2 = np.stack([lam1 - g11, g10], axis=-1)
    n1, n2 = rowwise_norm(c1), rowwise_norm(c2)
    first = n1 >= n2
    nv = np.where(first, n1, n2)[..., None]
    # The branch not taken is computed too, and may divide by zero.
    with np.errstate(divide="ignore", invalid="ignore"):
        v1 = np.where(nv <= 1e-14 * np.maximum(t, 1.0)[..., None], _E0,
                      np.where(first[..., None], c1, c2) / nv)
        v2 = np.stack([-v1[..., 1].conj(), v1[..., 0].conj()], axis=-1)
        u1 = matvec(a, v1) / s1[..., None]
        u1 = np.where((s1 > 1e-12)[..., None], u1 / rowwise_norm(u1)[..., None], _E0)
        u2 = matvec(a, v2) / s2[..., None]
        u2 = u2 - rowwise_vdot(u1, u2)[..., None] * u1
        n2 = rowwise_norm(u2)
        # Rounding can leave s2 of a rank-one matrix above its floor with
        # a v2 along u1, so that nothing of u2 is left; any unit vector
        # orthogonal to u1 then serves, unless u1 is the floor's e0.
        solved = (s2 > 1e-9 * np.maximum(s1, 1e-300)) & ((n2 > 0.0) | (s1 <= 1e-12))
        u2 = np.where(solved[..., None], u2 / n2[..., None],
                      np.stack([-u1[..., 1].conj(), u1[..., 0].conj()], axis=-1))
    u, s, v = np.stack([u1, u2], axis=-1), np.stack([s1, s2], axis=-1), np.stack([v1, v2], axis=-1)
    # Below the floor of s1, u1 = e0 whatever a is, and u2 can come out
    # 0 / 0. The singular vectors of a are those of a / max|a|, whose s1
    # is at least 1, so that second solve is finite.
    if np.isnan(u).any():
        redo = np.isnan(u).any(axis=(-2, -1)) & np.isfinite(a).all(axis=(-2, -1))
        scale = np.abs(a[redo]).max(axis=(-2, -1))
        u[redo], s[redo], v[redo] = _svd2(a[redo] / scale[:, None, None])
        s[redo] *= scale[:, None]
    return u, s, v


def schmidt(s: PureState) -> SchmidtForm:
    """Schmidt decomposition of a two-qubit state."""
    if s.num_qubits != 2:
        raise ShapeError("Schmidt decomposition is defined here for exactly 2 qubits")
    u, sv, v = _svd2(s.amps.reshape(2, 2))
    # a[i, j] = sum_k s_k u[i, k] conj(v[j, k]), so the second local ket
    # is the conjugated right singular vector.
    return SchmidtForm((sv[0], sv[1]), u, v.conj())


def shannon_entropy(weights, cap: float) -> float:
    """-sum w log2 w in bits over the positive weights (0 log 0 = 0), clamped to [0, cap]."""
    h = 0.0
    for w in weights:
        if w > 0.0:
            h -= w * math.log2(w)
    return min(max(h, 0.0), cap)


def entropy(d: DensityMatrix) -> float:
    """Von Neumann entropy in ebits, with 0 log 0 = 0; clamped to [0, log2 dim]."""
    return shannon_entropy(np.linalg.eigvalsh(d.entries), math.log2(d.dim))


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2 after aligning registers; invariant under global phase."""
    if set(a.qubits) != set(b.qubits):
        raise LabelMismatch(f"label sets differ: {a.qubits!r} vs {b.qubits!r}")
    if a.qubits == b.qubits:
        b_amps = b.amps
    else:
        perm = tuple(b.qubits.index(q) for q in a.qubits)
        b_amps = b.as_tensor().transpose(perm).reshape(-1)
    val = abs(np.vdot(a.amps, b_amps)) ** 2
    return min(float(val), 1.0)


def rowwise_vdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.vdot(a[..., :], b[..., :]) for every row, broadcast over leading axes.

    Computed as a stacked (1 x n) @ (n x 1) matmul, which reduces each
    row the way np.vdot reduces a vector, so a row gives the same bits
    as the single-vector call.
    """
    return (a.conj()[..., None, :] @ b[..., :, None])[..., 0, 0]


def rowwise_norm(vecs: np.ndarray) -> np.ndarray:
    """np.linalg.norm of every row of a (..., 2) complex stack, same bits."""
    re, im = vecs.real, vecs.imag
    return np.sqrt(rowwise_vdot(re, re) + rowwise_vdot(im, im))


def matvec(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """mats (..., 2, 2) times vecs (..., 2), broadcast over the leading axes.

    Written out as 0 + m[:, 0] v0 + m[:, 1] v1, the products and the sum
    from +0 of a single 2x2 matmul, so it gives the same bits, the sign
    of a zero entry included.
    """
    return 0.0 + mats[..., 0] * vecs[..., None, 0] + mats[..., 1] * vecs[..., None, 1]


def states_close(a: PureState, b: PureState) -> bool:
    """Phase-insensitive state equality: fidelity >= 1 - TOL_EQ."""
    return fidelity(a, b) >= 1.0 - TOL_EQ
