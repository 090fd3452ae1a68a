"""Computational basis states, Pauli matrices and the four-qubit swap start
state, which only the tests build."""

import numpy as np

from teleportrix.complexfmt import finite_complex, weight
from teleportrix.errors import ShapeError
from teleportrix.qcore import PureState, tensor

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


def swap_inputs(m, n) -> PureState:
    """Four-qubit start state M (|00> + m |11>) N (|01> + n |10>) on (a, b, 1, 2)."""
    m, n = finite_complex(m, "m"), finite_complex(n, "n")
    mw, nw = weight(m, "m"), weight(n, "n")
    return tensor(PureState(("a", "b"), np.array([mw, 0, 0, mw * m])),
                  PureState(("1", "2"), np.array([0, nw, nw * n, 0])))
