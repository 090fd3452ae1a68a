"""Projective measurement of a qubit pair in an entangled basis, and shot sampling.

project_all enumerates all four outcomes exactly. Shots against a (K, 4)
table of outcome probabilities follow one rule: shot s uses row s mod K,
each row's four counts are one multinomial draw, count_outcomes sums
them and sample_outcomes lays each row's outcomes over its shots in a
uniformly random order. sample is its one-shot case for one state: it
takes its randomness as a seed and returns a value, so callers running
parallel shot batches split seeds themselves (the documented scheme is
seed + shot index).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .complexfmt import finite_array
from .ebasis import BASIS_LABELS, EntangledBasis
from .errors import BadInput, BadPair
from .qcore import PureState
from .tolerances import TOL_NORM, TOL_PROB


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
    """Draw one outcome: sample_outcomes of one shot from numpy's PCG64 seeded with `seed`.

    The same seed always yields the same outcome. Only the drawn
    outcome's residual state is built.
    """
    rng = np.random.default_rng(_integer(seed, "seed", 0))
    rest, resids, probs = _projection(s, pair, basis)
    k = int(sample_outcomes([probs], 1, rng)[0])
    return _outcome(k, rest, resids[k], probs[k])


def _integer(value, name: str, least: int) -> int:
    """value as an int, BadInput naming it unless it is an integer >= least (a shot count or seed)."""
    try:
        value = operator.index(value)
    except TypeError:
        raise BadInput(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise BadInput(f"{name} must be >= {least}, got {value}")
    return value


def _shot_counts(probabilities, shots: int, rng) -> np.ndarray:
    """(min(K, shots), 4) int64 outcome counts of the rows that get a shot.

    probabilities is a (K, 4) array of nonnegative rows, each summing to 1
    within TOL_NORM (else BadInput). Shot s uses row s mod K, so row i gets
    shots // K + (i < shots % K) shots; one rng.multinomial call draws
    every row's counts from the row divided by its sum, exactly as a loop
    of rng.multinomial(n_i, p_i / sum(p_i)) over the rows would. Time and
    memory are O(K) whatever the shot count. shots must be an integer >= 0.
    """
    shots = _integer(shots, "shots", 0)
    probabilities = finite_array(probabilities, float, "probabilities", BadInput, BadInput)
    if probabilities.ndim != 2 or probabilities.shape[0] == 0 or probabilities.shape[1] != 4:
        raise BadInput(f"probabilities must be a nonempty (K, 4) array, got shape {probabilities.shape}")
    if not probabilities.min() >= 0.0:
        raise BadInput("probabilities must be nonnegative numbers")
    sums = probabilities.sum(axis=1)
    off = np.abs(sums - 1.0).max()
    if not off <= TOL_NORM:
        raise BadInput(f"probability rows must sum to 1 within {TOL_NORM}, one is off by {float(off)!r}")
    rows = min(len(probabilities), shots)
    if rows == 1:  # row 0 gets every shot; numpy's vectorized call costs about 6 us more
        return rng.multinomial(shots, probabilities[0] / sums[0])[None]
    each = np.full(rows, shots // len(probabilities))
    each[:shots % len(probabilities)] += 1
    return rng.multinomial(each, probabilities[:rows] / sums[:rows, None])


def count_outcomes(probabilities, shots: int, rng) -> np.ndarray:
    """(4,) int64 counts of `shots` shots: _shot_counts summed over the rows.

    They equal the bincount of sample_outcomes for the same generator state.
    """
    return _shot_counts(probabilities, shots, rng).sum(axis=0)


def sample_outcomes(probabilities, shots: int, rng) -> np.ndarray:
    """(shots,) outcome indices, shot s drawn from row s mod K (see _shot_counts).

    The counts are drawn first. Each row's outcomes, sorted, then fill its
    row of a (K, shots // K + 1) table, whose entry (i, j) is shot j K + i
    (the last slot is unused where the row gets one shot fewer), and
    rng.permuted puts them in a uniformly random order, the rows that get
    one shot more in one call and the others in a second.
    """
    counts = _shot_counts(probabilities, shots, rng)
    each, extra = divmod(operator.index(shots), len(probabilities))
    ordered = np.repeat(np.arange(counts.size) % 4, counts.ravel())  # row by row, outcomes ascending
    table = np.empty((len(probabilities), each + 1), np.intp)
    split = extra * (each + 1)
    for part, values in ((table[:extra], ordered[:split]), (table[extra:, :each], ordered[split:])):
        part[:] = values.reshape(part.shape)
        if part.size > len(part):  # a row of two or more shots to order
            rng.permuted(part, axis=1, out=part)
    return table.T.ravel()[:shots]
