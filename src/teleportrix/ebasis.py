"""Two-parameter family of entangled two-qubit bases and resource states.

The family splits into an even-parity pair supported on |00>, |11> and
an odd-parity pair supported on |01>, |10>:

    PhiPlus  = L (|00> + l |11>)        PsiPlus  = P (|01> + p |10>)
    PhiMinus = L (l* |00> - |11>)       PsiMinus = P (p* |01> - |10>)

with L = 1/sqrt(1 + |l|^2) and P = 1/sqrt(1 + |p|^2). l = p = 0 gives
the computational basis, l = p = 1 the Bell basis, and intermediate
values carry intermediate entanglement. The conjugates in the minus
vectors are kept exactly as written; no re-phasing is applied, so the
teleportation transfer matrices read off the same coefficients.

The shared resource is the one-parameter cousin N (|00> + n |11>).
Anywhere these entry points take a complex parameter they also accept
the text format of complexfmt.parse_complex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexfmt import finite_complex, finite_rows, squared_moduli, squared_modulus, weight
from .errors import ParseError
from .qcore import PureState, shannon_entropy

BASIS_LABELS = ("PhiPlus", "PhiMinus", "PsiPlus", "PsiMinus")


def regime_name(k: int, none: str) -> str:
    """Deterministic for k = 4 good outcomes, `none` for 0, else Probabilistic(k=k)."""
    return "Deterministic" if k == 4 else none if k == 0 else f"Probabilistic(k={k})"


# Coefficients of each computational basis vector on its parity pair:
# |00> = L (PhiPlus + l PhiMinus)      |01> = P (PsiPlus + p PsiMinus)
# |11> = L (l* PhiPlus - PhiMinus)     |10> = P (p* PsiPlus - PsiMinus)
_EXPANSIONS = {
    "00": ("ell", lambda c, w: (w, w * c)),
    "11": ("ell", lambda c, w: (w * c.conjugate(), -w)),
    "01": ("p", lambda c, w: (w, w * c)),
    "10": ("p", lambda c, w: (w * c.conjugate(), -w)),
}


@dataclass(frozen=True)
class BasisParams:
    """Parameters (l, p) of one entangled basis; finite complex numbers."""

    ell: complex
    p: complex

    def __post_init__(self):
        object.__setattr__(self, "ell", finite_complex(self.ell, "ell"))
        object.__setattr__(self, "p", finite_complex(self.p, "p"))


@dataclass(frozen=True, eq=False)
class EntangledBasis:
    """Four orthonormal two-qubit vectors keyed by outcome label."""

    params: BasisParams
    vectors: dict


def basis_stack(ell, p) -> np.ndarray:
    """(G, 4, 4) vectors of the family for (G,) arrays of finite l and p.

    Row k of tuple g is the amplitude vector of BASIS_LABELS[k]. A real
    weight times a complex parameter is numpy's complex multiply with a
    zero imaginary part, the two single products Python forms for it,
    so general_basis, the batch of one, keeps its bits.
    """
    params = finite_rows([ell, p], "ell and p")
    lw, pw = 1.0 / np.sqrt(1.0 + squared_moduli(params, ("ell", "p")))
    vecs = np.zeros((params.shape[1], 4, 4), dtype=complex)
    vecs[:, 0, 0], vecs[:, 0, 3] = lw, lw * params[0]
    vecs[:, 1, 0], vecs[:, 1, 3] = lw * params[0].conj(), -lw
    vecs[:, 2, 1], vecs[:, 2, 2] = pw, pw * params[1]
    vecs[:, 3, 1], vecs[:, 3, 2] = pw * params[1].conj(), -pw
    return vecs


def general_basis(params: BasisParams) -> EntangledBasis:
    """Construct the basis for given (l, p); its vectors are on qubits ("0", "1")."""
    if not isinstance(params, BasisParams):
        params = BasisParams(*params)
    rows = basis_stack([params.ell], [params.p])[0]
    return EntangledBasis(params, {k: PureState(("0", "1"), v) for k, v in zip(BASIS_LABELS, rows)})


def resource_state(n) -> PureState:
    """Shared resource N (|00> + n |11>) on qubits ("1", "2"), N = 1/sqrt(1 + |n|^2)."""
    n = finite_complex(n, "n")
    w = weight(n, "n")
    return PureState(("1", "2"), np.array([w, 0, 0, w * n]))


def basis_entropy(c) -> float:
    """Entanglement (ebits) of a family vector with parameter c.

    Evaluates -w log2 w - w |c|^2 log2(w |c|^2) with w = 1/(1 + |c|^2),
    reading 0 log 0 as 0. Equals the von Neumann entropy of either
    one-qubit reduction of the vector.
    """
    c = finite_complex(c, "c")
    mod2 = squared_modulus(c, "c")
    w0 = 1.0 / (1.0 + mod2)
    return shannon_entropy((w0, w0 * mod2), 1.0)


def expand_computational(bits: str, params: BasisParams) -> tuple:
    """Coefficients of a computational vector on its parity pair.

    Returns (coefficient on the plus vector, coefficient on the minus
    vector); the pair is (PhiPlus, PhiMinus) for "00"/"11" and
    (PsiPlus, PsiMinus) for "01"/"10".
    """
    if not isinstance(params, BasisParams):
        params = BasisParams(*params)
    try:
        which, rule = _EXPANSIONS[bits]
    except KeyError:
        raise ParseError(f"computational label must be 00/01/10/11, got {bits!r}") from None
    c = params.ell if which == "ell" else params.p
    return rule(c, weight(c, which))
