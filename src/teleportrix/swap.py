"""Entanglement swapping between two partially entangled pairs.

Pairs (a, b) and (1, 2) start in M (|00> + m |11>) and N (|01> + n |10>).
Measuring (a, 1) in the entangled family (l, p) leaves (b, 2) in a
superposition of at most two vectors of the primed family (l', p'):
even-parity outcomes on (a, 1) land on the PsiPlus'/PsiMinus' pair,
odd-parity outcomes on the PhiPlus'/PhiMinus' pair. The unnormalized
primed coefficients per outcome are

    PhiPlus   ->  L P' [ 1 + m n p'* l*,  p' - m n l* ]
    PhiMinus  ->  L P' [ l - m n p'*,     p' l + m n  ]
    PsiPlus   ->  P L' [ n + m p* l'*,    n l' - m p* ]
    PsiMinus  ->  P L' [ n p - m l'*,     n p l' + m  ]

times the overall M N. An outcome is "reliable" when one coefficient of
its pair vanishes, so (b, 2) collapses onto a single primed vector up to
phase. The primed family is an analysis basis only; nothing is applied
to (b, 2), and nothing is computed from the table above, so the closed
forms can be checked against the contraction below.

Swapping is teleportation of half a pair (Zukowski, Zeilinger, Horne and
Ekert, PRL 71, 4287 (1993)): N (|01> + n |10>) is teleport's resource
with qubit 2 flipped, so with M_k teleport's transfer matrix at (n, l, p)
outcome k leaves R_k^T = X M_k diag(M, M m) on (b, 2). Row b of R_k is
the entry in column b of M_k (teleport._entries) times M (1, m)[b]. R_k
has one nonzero entry per row and column, on |01>, |10> for the Phi
outcomes and on |00>, |11> for the Psi outcomes, so its squares over the
probability are its Schmidt weights, and each outcome has two primed
coefficients of two products each. All of it is real float * and + in a
fixed order, with no matmul, eigvalsh or per-outcome state. swap_stack
does it for G parameter tuples at once; swap_run is its batch of one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .complexfmt import finite_complex, finite_rows, squared_moduli, squared_modulus
from .ebasis import BASIS_LABELS, regime_name
from .errors import NonFinite
from .qcore import PureState, cmul, from_parts, shannon_entropy
from .teleport import _entries
from .tolerances import TOL_EQ, TOL_PROB


@dataclass(frozen=True)
class SwapParams:
    """Initial pair parameters (m, n) plus both basis parameter pairs."""

    m: complex
    n: complex
    ell: complex
    p: complex
    ell_prime: complex
    p_prime: complex

    def __post_init__(self):
        for name in ("m", "n", "ell", "p", "ell_prime", "p_prime"):
            object.__setattr__(self, name, finite_complex(getattr(self, name), name))


@dataclass(frozen=True, eq=False)
class SwapOutcome:
    """One (a, 1) outcome with the analyzed (b, 2) remainder.

    target names the primed vector the remainder collapses onto when the
    outcome is reliable. b2_amps (the normalized remainder on (b, 2)),
    target and b2_entropy are None for outcomes of negligible
    probability.
    """

    label: str
    probability: float
    b2_amps: np.ndarray | None
    reliable: bool
    target: str | None
    b2_entropy: float | None

    @property
    def b2_state(self) -> PureState | None:
        """The remainder as a validated state on (b, 2), built on access."""
        return None if self.b2_amps is None else PureState(("b", "2"), self.b2_amps)


@dataclass(frozen=True)
class SwapRegimeReport:
    """Reliable-outcome count, brute-force probability, condition booleans."""

    regime: str
    reliable_outcomes: tuple
    success_probability: float
    phi_branch_conditions: bool
    psi_branch_conditions: bool


@dataclass(frozen=True, eq=False)
class SwapStack:
    """Every (a, 1) outcome of G parameter tuples, outcome k in label order.

    states[g, k] is the normalized (b, 2) remainder, zero below TOL_PROB,
    where entropies[g, k] is NaN; targets[g, k] indexes the primed vector
    of a reliable outcome and is -1 otherwise.
    """

    probabilities: np.ndarray
    states: np.ndarray
    reliable: np.ndarray
    targets: np.ndarray
    entropies: np.ndarray

    def outcomes(self, g: int) -> tuple:
        """The four SwapOutcome records of tuple g."""
        rows = zip(BASIS_LABELS, self.probabilities[g].tolist(), self.states[g],
                   self.reliable[g].tolist(), self.targets[g].tolist(), self.entropies[g].tolist())
        return tuple(
            SwapOutcome(label, prob, None, False, None, None) if math.isnan(ent) else
            SwapOutcome(label, prob, state, reliable, BASIS_LABELS[target] if reliable else None, ent)
            for label, prob, state, reliable, target, ent in rows)


def swap_stack(m, n, ell, p, ell_prime, p_prime) -> SwapStack:
    """Measure (a, 1) and analyze every (b, 2) remainder of G parameter tuples.

    The arguments are (G,) arrays of finite complex numbers. An outcome of
    probability >= TOL_PROB is reliable when the smaller modulus of its two
    primed coefficients is at most TOL_EQ times the larger. Every product is
    cmul's and every sum runs in a fixed order, so a tuple gives the same
    bits whatever G and whatever the BLAS kernel or SIMD dispatch.
    """
    params = finite_rows([n, ell, p, m, ell_prime, p_prime], "swap parameters")
    mod2 = squared_moduli(params, ("n", "ell", "p", "m", "ell_prime", "p_prime"))  # names one that overflows
    mw, lw, pw = 1.0 / np.sqrt(1.0 + mod2[3:])
    # row b of R_k: teleport's entry in column b of M_k times M (1, m)[b]; rows [g, k, b]
    resid = cmul(_entries(params[:3], mod2[:3]).reshape(4, 2, -1).transpose(2, 0, 1),
                 np.array([mw, mw * params[3]]).T[:, None])
    squares = resid.real * resid.real + resid.imag * resid.imag
    probs = squares[..., 0] + squares[..., 1]
    kept = probs >= TOL_PROB
    norms = np.where(kept, probs, np.inf)[..., None]  # states and weights are 0 where not kept
    root = np.sqrt(norms)
    unit = from_parts(resid.real / root, resid.imag / root)
    states = np.zeros((len(probs), 4, 4), dtype=complex)
    states[:, :2, 1:3], states[:, 2:, 0::3] = unit[:, :2], unit[:, 2:]  # on |01>, |10> or |00>, |11>
    states.setflags(write=False)
    # the conjugated primed pair it lies on, plus (w, (w c)*) and minus (w c, -w): c = p' for Phi, l' for Psi
    w = np.array([pw, lw])
    wc = w * params[5:3:-1]
    terms = cmul(np.array([[w, wc.conj()], [wc, -w]]).transpose(3, 2, 0, 1)[:, :, None],
                 unit.reshape(-1, 2, 2, 1, 2))  # [g, pair, outcome, row, column]
    coeffs = terms[..., 0] + terms[..., 1]
    plus, minus = np.hypot(coeffs.real, coeffs.imag).reshape(-1, 4, 2).transpose(2, 0, 1)
    best = np.maximum(plus, minus)
    reliable = kept & (best > 0.0) & (np.minimum(plus, minus) <= TOL_EQ * best)
    targets = np.where(reliable, (minus > plus) + [2, 2, 0, 0], -1)
    # the remainder's reduced density on b is diagonal: its eigenvalues are squares / p
    weights = (squares / norms).reshape(-1, 2).tolist()
    entropies = np.array([shannon_entropy(pair, 1.0) for pair in weights]).reshape(kept.shape)
    return SwapStack(probs, states, reliable, targets, np.where(kept, entropies, np.nan))


def swap_run(params: SwapParams) -> tuple:
    """Measure (a, 1) and analyze each (b, 2) remainder in the primed basis.

    The batch of one of swap_stack: four SwapOutcome records.
    """
    return swap_stack([params.m], [params.n], [params.ell], [params.p],
                      [params.ell_prime], [params.p_prime]).outcomes(0)


def two_outcome_swap_probability(m, n) -> float:
    """Closed-form reliable probability for the two-outcome basis choice.

    Evaluates M^4 N^4 [ |n|^2 (1 + |m|^2)^2 + |m|^2 (1 + |n|^2)^2 ],
    which is |n|^2/(1+|n|^2)^2 + |m|^2/(1+|m|^2)^2. One half when both
    pairs are maximally entangled. Where |m| and |n| are large, M^4 N^4
    is subnormal (digits lost) or 0 while the bracket grows or
    overflows, so below the smallest normal float the equal two-term
    form is returned instead. A normal M^4 N^4 keeps each bracket term
    below 1 / (M^4 N^4), so the product form is finite wherever it is
    used.
    """
    m = finite_complex(m, "m")
    n = finite_complex(n, "n")
    m2, n2 = squared_modulus(m, "m", power=2), squared_modulus(n, "n", power=2)
    m4 = 1.0 / (1.0 + m2) ** 2
    n4 = 1.0 / (1.0 + n2) ** 2
    if m4 * n4 >= sys.float_info.min:
        return m4 * n4 * (n2 * (1.0 + m2) ** 2 + m2 * (1.0 + n2) ** 2)
    return n2 / (1.0 + n2) ** 2 + m2 / (1.0 + m2) ** 2


def three_outcome_swap_probability(n) -> float:
    """Closed-form reliable probability when |m| = |n| or |m| = 1/|n|.

    Evaluates 3 |n|^2 N^8 (1 + |n|^2)^2, which simplifies to
    3 |n|^2 / (1 + |n|^2)^2; the tests confirm both readings agree with
    brute force.
    """
    n = finite_complex(n, "n")
    n2 = squared_modulus(n, "n", power=4)
    n8 = 1.0 / (1.0 + n2) ** 4
    return 3.0 * n2 * n8 * (1.0 + n2) ** 2


def two_outcome_choice(m, n) -> SwapParams:
    """Basis choice l = 1/n*, p = 1/m*, l' = 1/n, p' = m.

    Makes PhiPlus and PsiPlus reliable for generic (m, n); a third
    outcome joins when |m| = |n| (PsiMinus) or |m| = 1/|n| (PhiMinus).
    """
    m = finite_complex(m, "m")
    n = finite_complex(n, "n")
    if m == 0 or n == 0:
        raise NonFinite("choice needs nonzero pair parameters")
    return SwapParams(m, n, 1 / n.conjugate(), 1 / m.conjugate(), 1 / n, m)


def phase_matched_choice(m, n, ell, p) -> SwapParams:
    """Primed parameters solving both condition sets for pure-phase m, n.

    Sets p' = m n l* and l' = m p*/n. With |m| = |n| = 1 every outcome
    is reliable even though the measurement bases need not be maximally
    entangled; |l| = |p'| and |p| = |l'| hold by construction.
    """
    m = finite_complex(m, "m")
    n = finite_complex(n, "n")
    ell = finite_complex(ell, "ell")
    p = finite_complex(p, "p")
    if n == 0:
        raise NonFinite("choice needs a nonzero n")
    return SwapParams(m, n, ell, p, m * p.conjugate() / n, m * n * ell.conjugate())


def _close(x: complex, y: complex) -> bool:
    """x = y within TOL_EQ relative to max(|x|, |y|, 1); an overflowed product or modulus matches nothing."""
    gap, scale = x - y, max(math.hypot(x.real, x.imag), math.hypot(y.real, y.imag), 1.0)
    return math.isfinite(scale) and math.hypot(gap.real, gap.imag) <= TOL_EQ * scale


def classify_swap(params: SwapParams) -> SwapRegimeReport:
    """Count reliable outcomes by brute force; report condition booleans.

    phi_branch_conditions checks p' = m n l* and l = m n p'* (the pair
    that makes both even-parity outcomes reliable); psi_branch_conditions
    checks n l' = m p* and n p = m l'*. They are reported separately from
    the brute-force count so any disagreement is visible, not hidden.
    """
    return classify_swap_outcomes(params, swap_run(params))


def classify_swap_outcomes(params: SwapParams, outcomes) -> SwapRegimeReport:
    """classify_swap from outcomes swap_run(params) already returned."""
    reliable = tuple(o.label for o in outcomes if o.reliable)
    success = sum(o.probability for o in outcomes if o.reliable)
    m, n = params.m, params.n
    l, p = params.ell, params.p
    lp, pp = params.ell_prime, params.p_prime
    cond_phi = _close(pp, m * n * l.conjugate()) and _close(l, m * n * pp.conjugate())
    cond_psi = _close(n * lp, m * p.conjugate()) and _close(n * p, m * lp.conjugate())
    return SwapRegimeReport(regime_name(len(reliable), "NoReliable"), reliable, float(success),
                            cond_phi, cond_psi)
