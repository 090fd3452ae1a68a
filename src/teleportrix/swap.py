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
to (b, 2). swap_run computes everything by brute-force projection of
the four-qubit state, never from the coefficient table above, so the
closed-form probabilities can be checked against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measure, qcore
from .complexfmt import finite_complex
from .ebasis import BASIS_LABELS, BasisParams, general_basis
from .errors import NonFinite
from .qcore import PureState
from .tolerances import TOL_EQ


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
    outcome is reliable. b2_state, target and b2_entropy are None for
    outcomes of negligible probability.
    """

    label: str
    probability: float
    b2_state: PureState | None
    reliable: bool
    target: str | None
    b2_entropy: float | None


@dataclass(frozen=True)
class SwapRegimeReport:
    """Reliable-outcome count, brute-force probability, condition booleans."""

    regime: str
    reliable_outcomes: tuple
    success_probability: float
    phi_branch_conditions: bool
    psi_branch_conditions: bool


def swap_inputs(m, n) -> PureState:
    """Four-qubit start state on (a, b, 1, 2)."""
    m = finite_complex(m, "m")
    n = finite_complex(n, "n")
    mw = 1.0 / math.sqrt(1.0 + abs(m) ** 2)
    nw = 1.0 / math.sqrt(1.0 + abs(n) ** 2)
    first = PureState(("a", "b"), np.array([mw, 0, 0, mw * m]))
    second = PureState(("1", "2"), np.array([0, nw, nw * n, 0]))
    return qcore.tensor(first, second)


def swap_run(params: SwapParams) -> tuple:
    """Measure (a, 1) and analyze each (b, 2) remainder in the primed basis."""
    joint = swap_inputs(params.m, params.n)
    basis = general_basis(BasisParams(params.ell, params.p))
    primed = general_basis(BasisParams(params.ell_prime, params.p_prime), labels=("b", "2"))
    outcomes = []
    for mo in measure.project_all(joint, ("a", "1"), basis):
        if mo.residual is None:
            outcomes.append(SwapOutcome(mo.label, mo.probability, None, False, None, None))
            continue
        coeffs = {
            label: complex(np.vdot(primed.vectors[label].amps, mo.residual.amps))
            for label in BASIS_LABELS
        }
        mags = {label: abs(c) for label, c in coeffs.items()}
        best = max(mags, key=mags.get)
        others = max(v for label, v in mags.items() if label != best)
        reliable = mags[best] > 0.0 and others <= TOL_EQ * mags[best]
        target = best if reliable else None
        ent = qcore.entropy(qcore.reduced_density(mo.residual, ("b",)))
        outcomes.append(
            SwapOutcome(mo.label, mo.probability, mo.residual, reliable, target, ent)
        )
    return tuple(outcomes)


def two_outcome_swap_probability(m, n) -> float:
    """Closed-form reliable probability for the two-outcome basis choice.

    Evaluates M^4 N^4 [ |n|^2 (1 + |m|^2)^2 + |m|^2 (1 + |n|^2)^2 ],
    which is |n|^2/(1+|n|^2)^2 + |m|^2/(1+|m|^2)^2. One half when both
    pairs are maximally entangled.
    """
    m = finite_complex(m, "m")
    n = finite_complex(n, "n")
    m2, n2 = abs(m) ** 2, abs(n) ** 2
    m4 = 1.0 / (1.0 + m2) ** 2
    n4 = 1.0 / (1.0 + n2) ** 2
    return m4 * n4 * (n2 * (1.0 + m2) ** 2 + m2 * (1.0 + n2) ** 2)


def three_outcome_swap_probability(n) -> float:
    """Closed-form reliable probability when |m| = |n| or |m| = 1/|n|.

    Evaluates 3 |n|^2 N^8 (1 + |n|^2)^2, which simplifies to
    3 |n|^2 / (1 + |n|^2)^2; the tests confirm both readings agree with
    brute force.
    """
    n = finite_complex(n, "n")
    n2 = abs(n) ** 2
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
    scale = max(abs(x), abs(y), 1.0)
    return abs(x - y) <= TOL_EQ * scale


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
    k = len(reliable)
    if k == 4:
        regime = "Deterministic"
    elif k == 0:
        regime = "NoReliable"
    else:
        regime = f"Probabilistic(k={k})"
    m, n = params.m, params.n
    l, p = params.ell, params.p
    lp, pp = params.ell_prime, params.p_prime
    cond_phi = _close(pp, m * n * l.conjugate()) and _close(l, m * n * pp.conjugate())
    cond_psi = _close(n * lp, m * p.conjugate()) and _close(n * p, m * lp.conjugate())
    return SwapRegimeReport(regime, reliable, float(success), cond_phi, cond_psi)
