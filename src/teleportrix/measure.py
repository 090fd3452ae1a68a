"""Projective measurement of a qubit pair in an entangled basis.

project_all enumerates all four outcomes exactly; sample draws one
outcome with a seeded generator. Both are pure functions: sample takes
its randomness as a seed and returns a value, so callers running
parallel shot batches split seeds themselves (the documented scheme is
seed + shot index).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ebasis import BASIS_LABELS, EntangledBasis
from .errors import BadPair
from .qcore import PureState
from .tolerances import TOL_PROB


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    """One projective outcome: label, probability, renormalized residual.

    residual is None when the probability is below TOL_PROB; dividing by
    a near-zero norm would only amplify rounding noise.
    """

    label: str
    probability: float
    residual: PureState | None


def _projection(s: PureState, pair: Sequence, basis: EntangledBasis) -> tuple:
    """(remaining labels, the four unnormalized residuals, their probabilities)."""
    pair_t = tuple(pair)
    if len(pair_t) != 2 or pair_t[0] == pair_t[1]:
        raise BadPair(f"need two distinct labels, got {pair_t!r}")
    if not set(pair_t) <= set(s.qubits):
        raise BadPair(f"{set(pair_t) - set(s.qubits)!r} not in register {s.qubits!r}")
    if s.num_qubits < 3:
        raise BadPair("state must keep at least one unmeasured qubit")
    rest = tuple(q for q in s.qubits if q not in pair_t)
    pos = tuple(s.qubits.index(q) for q in pair_t)
    block = np.moveaxis(s.as_tensor(), pos, (0, 1)).reshape(4, -1)
    resids = [basis.vectors[label].amps.conj() @ block for label in BASIS_LABELS]
    return rest, resids, [float(np.vdot(r, r).real) for r in resids]


def _outcome(k: int, rest: tuple, resid: np.ndarray, prob: float) -> MeasurementOutcome:
    if prob < TOL_PROB:
        return MeasurementOutcome(BASIS_LABELS[k], prob, None)
    return MeasurementOutcome(BASIS_LABELS[k], prob, PureState(rest, resid / np.sqrt(prob)))


def project_all(s: PureState, pair: Sequence, basis: EntangledBasis) -> tuple:
    """All four outcomes of measuring `pair` in `basis`.

    The first element of `pair` is the most significant bit of the basis
    vectors' amplitude index. Probabilities sum to 1 up to rounding
    because the basis is orthonormal and complete on the pair.
    """
    rest, resids, probs = _projection(s, pair, basis)
    return tuple(_outcome(k, rest, r, prob) for k, (r, prob) in enumerate(zip(resids, probs)))


def sample(s: PureState, pair: Sequence, basis: EntangledBasis, seed: int) -> MeasurementOutcome:
    """Draw one outcome by inverse CDF over the four probabilities.

    The generator is numpy's seeded PCG64; the same seed always yields
    the same outcome, by the rule of teleport.sample_outcomes. Only the
    drawn outcome's residual state is built.
    """
    rest, resids, probs = _projection(s, pair, basis)
    u = np.random.default_rng(seed).random()
    k = int(np.count_nonzero(np.cumsum(probs[:3]) <= u))
    return _outcome(k, rest, resids[k], probs[k])
