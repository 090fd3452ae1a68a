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
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .complexfmt import finite_array
from .errors import (
    BadSubset,
    LabelCollision,
    LabelMismatch,
    NormalizationError,
    ShapeError,
)
from .tolerances import TOL_NORM

PAULI_I = np.eye(2, dtype=complex)


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
        amps = finite_array(self.amps, complex, "amplitudes", ShapeError, NormalizationError).copy()
        if amps.ndim != 1 or amps.size != 2 ** len(labels):
            raise ShapeError(
                f"{len(labels)} labels need {2 ** len(labels)} amplitudes, got {amps.size}"
            )
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

    def __repr__(self) -> str:
        return f"PureState(qubits={self.qubits!r}, amps={np.array2string(self.amps, precision=6)})"


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on 1..3 qubits: reduced_density's
    result and entropy's input, validated once here."""

    entries: np.ndarray

    def __post_init__(self):
        entries = finite_array(self.entries, complex, "density matrix entries", ShapeError,
                               NormalizationError).copy()
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
    basis_b[:, i] are the local kets |ui>, |vi>, each matrix unitary
    within TOL_NORM and kept as a read-only complex copy.
    """

    coeffs: tuple
    basis_a: np.ndarray
    basis_b: np.ndarray

    def __post_init__(self):
        c = finite_array(self.coeffs, float, "Schmidt coefficients", ShapeError, NormalizationError)
        if c.shape != (2,):
            raise ShapeError(f"a Schmidt form needs two coefficients, got shape {c.shape}")
        if c[0] < c[1] or c[1] < -TOL_NORM:
            raise ShapeError("Schmidt coefficients must be descending and non-negative")
        if abs(c[0] ** 2 + c[1] ** 2 - 1.0) > TOL_NORM:
            raise NormalizationError("Schmidt coefficients must square-sum to 1")
        object.__setattr__(self, "coeffs", tuple(c.tolist()))
        for name in ("basis_a", "basis_b"):
            basis = finite_array(getattr(self, name), complex, "Schmidt basis entries", ShapeError,
                                 NormalizationError).copy()
            if basis.shape != (2, 2):
                raise ShapeError(f"a Schmidt basis must be 2x2, got shape {basis.shape}")
            if np.max(np.abs(basis.conj().T @ basis - PAULI_I)) > TOL_NORM:
                raise NormalizationError("a Schmidt basis must be unitary")
            basis.setflags(write=False)
            object.__setattr__(self, name, basis)

    def reconstruct(self) -> np.ndarray:
        """Four amplitudes of the state this decomposition encodes."""
        out = np.zeros(4, dtype=complex)
        for i, c in enumerate(self.coeffs):
            out += c * np.kron(self.basis_a[:, i], self.basis_b[:, i])
        return out


def make_state(labels: Sequence, amps) -> PureState:
    """Build a normalized state from a sequence or array of amplitudes (see finite_array); rejects
    the zero vector and bad shapes (PureState's check). Where |v|^2 is not a normal, finite float,
    v is first divided by its largest real or imaginary part, so any other vector normalizes."""
    arr = finite_array(amps, complex, "amplitudes", ShapeError, NormalizationError)
    norm_sq = float(np.vdot(arr, arr).real)
    if not sys.float_info.min <= norm_sq < math.inf:  # zero, subnormal or overflowed
        scale = np.max(np.maximum(np.abs(arr.real), np.abs(arr.imag)), initial=0.0)
        if not scale > 0.0:
            raise NormalizationError("cannot normalize a zero vector")
        return make_state(labels, arr.real / scale + 1j * (arr.imag / scale))  # complex / real is * (1 / scale)
    return PureState(tuple(labels), arr / math.sqrt(norm_sq))


def tensor(s1: PureState, s2: PureState) -> PureState:
    """Kronecker product; s1's labels come first (and stay most significant)."""
    if set(s1.qubits) & set(s2.qubits):
        raise LabelCollision(
            f"label sets overlap: {set(s1.qubits) & set(s2.qubits)!r}"
        )
    return PureState(s1.qubits + s2.qubits, np.kron(s1.amps, s2.amps))


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
    """LAPACK's SVD of a (..., 2, 2) complex stack as (u, s, v): a = u @ diag(s[..., 0], s[..., 1]) @ v^dag,
    s[..., 0] >= s[..., 1] >= 0 and u, v unitary. Its bits depend on the BLAS kernel; no CLI number uses it."""
    u, s, vh = np.linalg.svd(np.asarray(a, dtype=complex))
    return u, s, vh.conj().swapaxes(-1, -2)


def gram(mats: np.ndarray) -> tuple:
    """(2, ...) real diagonal and (...) g01 of M^dag M for a (..., 2, 2) complex stack, in real
    float operations: |z|^2 as re * re + im * im, products by cmul, rows summed in order."""
    squares = mats.real * mats.real + mats.imag * mats.imag
    diagonal = squares[..., 0, :] + squares[..., 1, :]
    off = cmul(mats[..., 0, 0].conj(), mats[..., 0, 1]) + cmul(mats[..., 1, 0].conj(), mats[..., 1, 1])
    return np.moveaxis(diagonal, -1, 0), off


def cmul(x, y) -> np.ndarray:
    """x * y of complex arrays as Python forms it, (xr yr - xi yi) + i (xr yi + xi yr), each product
    rounded: numpy's complex multiply may fuse one into the sum, as its SIMD dispatch decides."""
    xr, xi, yr, yi = x.real, x.imag, y.real, y.imag
    return from_parts(xr * yr - xi * yi, xr * yi + xi * yr)


def from_parts(re, im) -> np.ndarray:
    """Complex array of parts re and im of one shape (re + 1j * im turns a -0.0 real part into 0.0)."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


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

