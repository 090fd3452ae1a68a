"""Computational basis states and Pauli matrices, which only the tests build."""

import numpy as np

from teleportrix.errors import ShapeError
from teleportrix.qcore import PureState

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def basis_state(labels, bits: str) -> PureState:
    """Computational basis state, e.g. basis_state(("a", "b"), "01")."""
    labels = tuple(labels)
    if len(bits) != len(labels) or set(bits) - {"0", "1"}:
        raise ShapeError(f"bit string {bits!r} does not match {labels!r}")
    amps = np.zeros(2 ** len(labels), dtype=complex)
    amps[int(bits, 2)] = 1.0
    return PureState(labels, amps)
