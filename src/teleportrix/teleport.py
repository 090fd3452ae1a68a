"""Single-qubit teleportation over a partially entangled resource.

Alice holds an unknown qubit a = alpha |0> + beta |1> and qubit 1 of the
shared pair N (|00> + n |11>); Bob holds qubit 2. Alice measures (a, 1)
in the entangled family with parameters (l, p). Conditioned on outcome
k, Bob's unnormalized amplitudes are M_k (alpha, beta)^T for a fixed
2x2 transfer matrix M_k, so the four matrices carry the whole protocol:

    PhiPlus   N L diag(1, n l*)        PsiPlus   N P [[0, p*], [n, 0]]
    PhiMinus  N L diag(l, -n)          PsiMinus  N P [[0, -1], [n p, 0]]

An outcome teleports every input exactly (is "faithful") when
M^dag M = c I for some c > 0: Bob applies the adjoint of the polar
unitary factor of M and recovers the input with unit fidelity. For a
faithful outcome the probability ||M psi||^2 = c is the same for every
input, which is what makes the success probability state independent.
Faithfulness of each branch depends only on |l| or |p| versus |n| and
1/|n|; each faithful branch occurs with probability |n|^2/(1+|n|^2)^2.
The test is relative (M^dag M / c against I), so it holds at any scale
of c; only c == 0 is unfaithful for its size.

Success probabilities reported by classify and run always come from
the matrices themselves; success_probability_analytic is the closed
form kept as a cross-check, never as the source of truth.

The input-independent work (matrices, completeness, Grams,
faithfulness, branch probabilities) is done by branch_stack for a whole
array of G parameter tuples at once; transfer_matrices and
protocol_branches are its batch of one, and sweeps over the resource
parameter go through two_faithful_stack / one_faithful_stack.
evaluate_inputs takes the one-tuple stack, computes its four polar
corrections in one stacked closed-form SVD, and applies the matrices to
a whole (K, 2) batch of inputs at once. Shots against the batch come from
one chunked draw over contiguous slices of the CDF columns:
sample_outcomes yields the outcome index of every shot, count_outcomes
only the four counts. run is the batch of one.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from . import measure, qcore
from .complexfmt import finite_complex, finite_rows, squared_moduli, squared_modulus
from .ebasis import BASIS_LABELS, BasisParams, general_basis, regime_name, resource_state
from .errors import BadInput, CompletenessError, NonFinite, SingularMatrix
from .qcore import PureState, _svd2, matvec, rowwise_norm, rowwise_vdot
from .tolerances import TOL_EQ, TOL_NORM, TOL_PROB

INFINITE = math.inf

# Shots drawn per rng.random call. Working memory is a few arrays of
# this length plus a CDF buffer of 3 (K + SAMPLE_CHUNK) entries for K
# inputs, so it stays small whatever the shot count; the outcomes do
# not depend on it.
SAMPLE_CHUNK = 4096

# Parameter choices with two faithful outcomes, indexed 0..3: join the
# basis parameters to the resource as (l, p) = (n, n*), (n, 1/n),
# (1/n*, 1/n), (1/n*, n*). Each leaves exactly the named pair faithful.
_TWO_FAITHFUL = (
    (lambda n: (n, n.conjugate()), ("PhiMinus", "PsiPlus")),
    (lambda n: (n, 1 / n), ("PhiMinus", "PsiMinus")),
    (lambda n: (1 / n.conjugate(), 1 / n), ("PhiPlus", "PsiMinus")),
    (lambda n: (1 / n.conjugate(), n.conjugate()), ("PhiPlus", "PsiPlus")),
)

# Choices with one faithful outcome, indexed 0..3: (l, p) from n and a
# generic value g that leaves the other pair unfaithful. Index 0 and 3
# divide by n. The rules take Python complex numbers or numpy arrays.
_ONE_FAITHFUL = (
    (lambda n, g: (1 / n.conjugate(), g), "PhiPlus"),
    (lambda n, g: (n, g), "PhiMinus"),
    (lambda n, g: (g, n.conjugate()), "PsiPlus"),
    (lambda n, g: (g, 1 / n), "PsiMinus"),
)


@dataclass(frozen=True)
class ProtocolParams:
    """Resource parameter n and measurement basis parameters (l, p)."""

    n: complex
    ell: complex
    p: complex

    def __post_init__(self):
        for name in ("n", "ell", "p"):
            object.__setattr__(self, name, finite_complex(getattr(self, name), name))

    @property
    def basis_params(self) -> BasisParams:
        return BasisParams(self.ell, self.p)


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """Map from input amplitudes to Bob's unnormalized conditioned pair."""

    label: str
    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class OutcomeRecord:
    """One measurement branch of a protocol run.

    bob_state is the conditioned state after the correction unitary; it
    is None when the branch probability falls below TOL_PROB, or is 0
    on a faithful branch (then fidelity is None as well). faithful is a
    property of the transfer matrix, not of the particular input, so
    fidelity can be 1 for a lucky input even on an unfaithful branch.
    """

    label: str
    probability: float
    faithful: bool
    correction: np.ndarray
    bob_state: PureState | None
    fidelity: float | None


@dataclass(frozen=True)
class RegimeReport:
    """Classification of a parameter tuple by its faithful outcome count."""

    regime: str
    faithful_outcomes: tuple
    success_probability: float
    expected_repetitions: float


@dataclass(frozen=True, eq=False)
class BranchStack:
    """Transfer matrices of G parameter tuples with their Gram analysis.

    matrices[g, k] is M_k of tuple g, in canonical label order.
    probabilities[g, k] = tr(M_k^dag M_k) / 2, the input-independent
    probability of branch k when faithful[g, k] holds.
    """

    matrices: np.ndarray
    probabilities: np.ndarray
    faithful: np.ndarray

    def success(self, labels) -> np.ndarray:
        """Summed branch probability of the named outcomes, per tuple."""
        columns = [BASIS_LABELS.index(label) for label in labels]
        return self.probabilities[:, columns].sum(axis=1)

    def report(self, g: int) -> RegimeReport:
        """Regime, faithful outcomes and their total probability of tuple g."""
        labels = tuple(label for label, f in zip(BASIS_LABELS, self.faithful[g].tolist()) if f)
        success = float(self.success(labels)[g])
        repetitions = 1.0 / success if success > 0.0 else INFINITE
        return RegimeReport(regime_name(len(labels), "NoFaithful"), labels, success, repetitions)


@dataclass(frozen=True, eq=False)
class InputBatch:
    """Every branch of every input in a batch of K inputs.

    probabilities[i, k] = ||M_k psi_i||^2. bob[i, k] is Bob's corrected,
    renormalized state and fidelities[i, k] its fidelity with psi_i;
    below TOL_PROB, bob is zero and the fidelity NaN. A faithful branch
    is kept down to the smallest normal float, since its state is exact
    at any scale; below that the probability has lost bits, and the state
    renormalised by its square root is off unit norm by up to 1e-2.
    corrections holds the four (input-independent) correction unitaries.
    """

    probabilities: np.ndarray
    corrections: np.ndarray
    bob: np.ndarray
    fidelities: np.ndarray


@dataclass(frozen=True, eq=False)
class RunResult:
    """Outcome records plus regime report; sampling fields when sampled."""

    records: tuple
    report: RegimeReport
    shots: int | None = None
    seed: int | None = None
    frequencies: dict | None = None
    shot_labels: tuple | None = None


def branch_stack(n, ell, p) -> BranchStack:
    """The four transfer matrices of G parameter tuples, checked and analysed at once.

    n, ell and p are (G,) arrays of finite complex numbers. The matrices
    satisfy the completeness relation sum_k M_k^dag M_k = I, which is
    what makes the four branch probabilities sum to 1; it is checked for
    every tuple. Every entry is formed with the float operations of the
    scalar expressions in the module docstring, so a tuple gives the
    same bits whatever G.
    """
    mats = _matrix_stack(finite_rows([n, ell, p], "n, ell and p"))
    grams = _grams(mats)
    _check_gram_total(grams)
    probabilities, faithful = _gram_analysis(grams)
    return BranchStack(mats, probabilities, faithful)


# Flat positions, in the (4, 2, 2) stack of one tuple, of the eight
# entries that are not identically zero, in the row order of
# _matrix_stack: the PhiPlus/PhiMinus rows, then the PsiMinus/PsiPlus rows.
_NONZERO = [0, 3, 4, 7, 13, 14, 9, 10]
_EYE = np.eye(2)
# Outcome labels as an object array, so a whole index array maps to
# labels in one indexing step.
_LABEL_ARRAY = np.array(BASIS_LABELS, dtype=object)


def _matrix_stack(params: np.ndarray) -> np.ndarray:
    """(G, 4, 2, 2) matrices of a (3, G) array of n, l and p.

    Each entry gets the bits of the scalar construction: the products
    n l* and n p through the real and imaginary parts exactly as
    Python's complex multiply forms them (numpy's may fuse a product
    into the sum), then a real weight times a complex entry, which
    stays two single products whatever the ufunc does with the zero
    imaginary part of the weight.
    """
    nw, lw, pw = 1.0 / np.sqrt(1.0 + squared_moduli(params, ("n", "ell", "p")))
    (nr, lr, pr), (ni, li, pi) = params.real, params.imag
    entries = np.zeros((8, params.shape[1]), dtype=complex)
    re, im = entries.real, entries.imag
    re[0] = 1.0
    re[1] = nr * lr - ni * -li
    im[1] = nr * -li + ni * lr
    entries[2] = params[1]
    entries[3] = -params[0]
    re[4] = -1.0
    re[5] = nr * pr - ni * pi
    im[5] = nr * pi + ni * pr
    entries[6] = params[2].conj()
    entries[7] = params[0]
    entries[:4] *= nw * lw
    entries[4:] *= nw * pw
    mats = np.zeros((params.shape[1], 16), dtype=complex)
    mats[:, _NONZERO] = entries.T
    return mats.reshape(-1, 4, 2, 2)


def _grams(mats: np.ndarray) -> np.ndarray:
    """M^dag M of every 2x2 matrix of a (..., 2, 2) stack."""
    return np.matmul(mats.conj().swapaxes(-1, -2), mats)


def _check_gram_total(grams: np.ndarray) -> None:
    # grams.sum(axis=-3) loops once per 2x2 block; adds of whole slices keep its order and bits
    total = sum(grams[..., k, :, :] for k in range(grams.shape[-3]))
    deviation = np.abs(total - _EYE).max()
    if not deviation < TOL_NORM:
        raise CompletenessError(
            f"completeness violated: sum M^dag M deviates from I by {float(deviation)!r}")


def _gram_analysis(grams: np.ndarray) -> tuple:
    """Half traces c = tr(G)/2 and faithfulness of a (..., 2, 2) Gram stack.

    Faithful means G / c = I to a relative TOL_EQ with c > 0. Dividing
    by c first makes the test independent of the scale of M, so a
    faithful branch of probability 1e-200 is still faithful; c == 0
    (and NaN) is not.
    """
    c = (grams[..., 0, 0].real + grams[..., 1, 1].real) / 2.0
    positive = c > 0.0
    # The real and imaginary parts over c: numpy's complex / real
    # multiplies by 1 / c, which is inf below c = 1 / DBL_MAX.
    parts = grams.astype(complex, copy=False).view(float)
    scaled = (parts / np.where(positive, c, 1.0)[..., None, None]).view(complex)
    scaled -= _EYE
    dev = np.abs(scaled)
    deviation = np.maximum(np.maximum(dev[..., 0, 0], dev[..., 0, 1]), np.maximum(dev[..., 1, 0], dev[..., 1, 1]))
    return c, positive & (deviation <= TOL_EQ)


def transfer_matrices(params: ProtocolParams) -> tuple:
    """The four transfer matrices, in canonical outcome-label order.

    The batch of one of branch_stack, completeness check included.
    """
    matrices = protocol_branches(params).matrices[0]
    return tuple(TransferMatrix(label, m) for label, m in zip(BASIS_LABELS, matrices))


def check_completeness(matrices) -> None:
    """Raise CompletenessError unless sum_k M_k^dag M_k = I within TOL_NORM.

    Accepts any iterable of 2x2 matrices, a (K, 2, 2) stack, or a
    (G, K, 2, 2) stack checked group by group. A non-finite entry fails
    the check rather than passing it; an empty input raises BadInput.
    """
    if not isinstance(matrices, np.ndarray):
        matrices = np.array(list(matrices), dtype=complex)
    if matrices.size == 0:
        raise BadInput("check_completeness needs at least one matrix")
    _check_gram_total(_grams(matrices))


def is_faithful(tm: TransferMatrix) -> bool:
    """True iff M^dag M = c I for some c > 0 (relative tolerance TOL_EQ)."""
    return bool(_gram_analysis(_grams(tm.matrix))[1])


def branch_probability(tm: TransferMatrix) -> float:
    """Input-independent probability of a faithful branch (tr M^dag M / 2)."""
    return float(_gram_analysis(_grams(tm.matrix))[0])


def _corrections(mats) -> np.ndarray:
    """Adjoints of the polar unitary factors of a (..., 2, 2) stack.

    For a faithful matrix, U M is proportional to the identity, so Bob's
    application of U restores the input exactly. In the maximally
    entangled case the four corrections are the Pauli operators up to
    global phase. The same polar recipe is applied to unfaithful
    branches; it is input independent and gives a principled fidelity
    number there too. A zero matrix gets the identity.
    """
    mats = np.asarray(mats, dtype=complex)
    scale = np.abs(mats).max(axis=(-2, -1))[..., None, None]
    # _svd2 has absolute floors: 1e-12 on s1 and 1e-14 on the eigenvector
    # of the Gram, whose trace t is at least scale^2. The polar factor of
    # M is that of M / scale, so a small M is rescaled first. From an
    # entry of 1e-6 up, t >= 1e-12 puts the eigenvector floor at 1 % of t
    # or less; below about 1e-7 it sends the eigenvector of a generic M
    # to e0. The Gram squares the entries and its determinant squares them
    # again, which overflows from about 1e77, so a large M is rescaled
    # too; up to 1e64 the recipe stays finite and keeps its bits.
    as_is = (scale >= 1e-6) & (scale <= 1e64)
    u, _, v = _svd2(np.where(as_is, mats, mats / np.where(scale > 0.0, scale, 1.0)))
    return np.where(scale > 0.0, np.matmul(v, u.conj().swapaxes(-1, -2)), _EYE)


def correction_unitary(tm: TransferMatrix) -> np.ndarray:
    """The polar correction of one transfer matrix; SingularMatrix if it is zero."""
    if not np.max(np.abs(tm.matrix)) > 0.0:
        raise SingularMatrix("transfer matrix is numerically zero")
    return _corrections(tm.matrix)


def protocol_branches(params: ProtocolParams) -> BranchStack:
    """Matrices, faithfulness and branch probabilities of one parameter tuple.

    The batch of one of branch_stack; report(0) is its regime. The
    corrections are left to evaluate_inputs: classify does not need them.
    """
    return branch_stack([params.n], [params.ell], [params.p])


def classify(params: ProtocolParams) -> RegimeReport:
    """Count faithful outcomes and total their state-independent probability."""
    return protocol_branches(params).report(0)


def success_probability_analytic(n, k: int = 2) -> float:
    """Closed form k |n|^2 / (1 + |n|^2)^2 for k faithful outcomes (k = 1 or 2)."""
    if k not in (1, 2):
        raise BadInput(f"k must be 1 or 2, got {k!r}")
    mod2 = squared_modulus(finite_complex(n, "n"), "n", power=2)
    return k * mod2 / (1.0 + mod2) ** 2


def expected_repetitions(n) -> float:
    """Literal repetition count (1 + |n|^2)^2 / |n|^2; INFINITE at n = 0.

    At |n| = 1 this evaluates to 4 while the reciprocal of the
    two-outcome success probability is 2; repetition_counts carries both
    numbers so reports can show them side by side.
    """
    mod2 = squared_modulus(finite_complex(n, "n"), "n", power=2)
    if mod2 == 0.0:
        return INFINITE
    return (1.0 + mod2) ** 2 / mod2


def repetition_counts(n) -> dict:
    """Both repetition figures: the literal formula and 1/P for two outcomes."""
    p2 = success_probability_analytic(n, k=2)
    return {
        "by_formula": expected_repetitions(n),
        "by_inverse_success": 1.0 / p2 if p2 > 0.0 else INFINITE,
    }


def two_faithful_choice(n, index: int) -> ProtocolParams:
    """One of the four basis choices leaving exactly two faithful outcomes."""
    n = finite_complex(n, "n")
    make, _ = _choice(_TWO_FAITHFUL, index)
    if index != 0 and n == 0:
        raise NonFinite("choice needs a nonzero resource parameter")
    l, p = make(n)
    return ProtocolParams(n, l, p)


def two_faithful_stack(n, index: int) -> BranchStack:
    """branch_stack of two_faithful_choice(n[g], index) for a (G,) array n.

    For real n this gives the bits of the per-point route. Choices 1-3
    divide by n, and numpy's complex division can differ from Python's
    in the last bit when n is not real.
    """
    n = np.asarray(n, dtype=complex)
    make, _ = _choice(_TWO_FAITHFUL, index)
    if index != 0 and not np.all(n):
        raise NonFinite("choice needs a nonzero resource parameter")
    return branch_stack(n, *make(n))


def two_faithful_labels(index: int) -> tuple:
    """The outcome pair that choice `index` makes faithful."""
    return _choice(_TWO_FAITHFUL, index)[1]


def _choice(table: tuple, index: int) -> tuple:
    """Entry `index` of _TWO_FAITHFUL or _ONE_FAITHFUL; BadInput unless an integer 0..3."""
    if index not in range(4) or not isinstance(index, (int, np.integer)):
        raise BadInput(f"index must be 0..3, got {index!r}")
    return table[index]


def _one_faithful_rule(index: int, has_zero: bool):
    rule, _ = _choice(_ONE_FAITHFUL, index)
    if index in (0, 3) and has_zero:
        raise NonFinite("choice needs a nonzero resource parameter")
    return rule


def one_faithful_choice(n, index: int) -> ProtocolParams:
    """One of the four single conditions, the other parameter kept generic.

    The generic value max(|n|, 1/|n|) + 1 is strictly larger than both
    moduli that would make its branch pair faithful.
    """
    n = finite_complex(n, "n")
    rule = _one_faithful_rule(index, n == 0)
    generic = complex(max(abs(n), 1.0 / abs(n) if n != 0 else 0.0) + 1.0)
    return ProtocolParams(n, *rule(n, generic))


def one_faithful_stack(n, index: int) -> BranchStack:
    """branch_stack of one_faithful_choice(n[g], index) for a (G,) array n.

    Bits as for two_faithful_stack: the per-point ones for real n.
    """
    n = np.asarray(n, dtype=complex)
    rule = _one_faithful_rule(index, not np.all(n))
    modulus = np.hypot(n.real, n.imag)
    inverse = np.divide(1.0, modulus, out=np.zeros_like(modulus), where=modulus != 0.0)
    return branch_stack(n, *rule(n, np.maximum(modulus, inverse) + 1.0))


def one_faithful_labels(index: int) -> str:
    """The single outcome that one_faithful_choice(index) makes faithful."""
    return _choice(_ONE_FAITHFUL, index)[1]


def joint_state(input_amps, n) -> PureState:
    """Assembled three-qubit state: input on a, resource on (1, 2)."""
    return qcore.tensor(PureState(("a",), np.array(_parsed_input(input_amps))), resource_state(n))


def _parsed_input(input_amps) -> tuple:
    try:
        return tuple(finite_complex(a, "input amplitude") for a in input_amps)
    except NonFinite as exc:
        raise BadInput(str(exc)) from None


def _input_array(inputs) -> np.ndarray:
    """(K, 2) complex array of finite, normalized (alpha, beta) rows."""
    try:
        psi = np.asarray(inputs, dtype=complex)
    except (TypeError, ValueError):
        raise BadInput("inputs must be (alpha, beta) pairs of complex numbers") from None
    if psi.ndim != 2 or psi.shape[0] == 0 or psi.shape[1] != 2:
        raise BadInput(f"inputs must be a nonempty sequence of (alpha, beta) pairs, got shape {psi.shape}")
    if not np.all(np.isfinite(psi)):
        raise BadInput("input amplitudes must be finite")
    if np.any(np.abs(rowwise_vdot(psi, psi).real - 1.0) > TOL_EQ):
        raise BadInput("input amplitudes must satisfy |alpha|^2 + |beta|^2 = 1")
    return psi


def evaluate_inputs(stack: BranchStack, inputs) -> InputBatch:
    """Probabilities, corrected states and fidelities of a batch of inputs.

    stack is the one-tuple stack of protocol_branches; inputs a (K, 2)
    array or K (alpha, beta) pairs, each finite and normalized. Branch k
    of input i conditions Bob's qubit on M_k psi_i.
    """
    if len(stack.matrices) != 1:
        raise BadInput(f"evaluate_inputs needs a stack of one parameter tuple, got {len(stack.matrices)}")
    psi = _input_array(inputs)
    matrices = stack.matrices[0]
    corrections = _corrections(matrices)
    conditioned = matvec(matrices, psi[:, None, :])
    probs = rowwise_vdot(conditioned, conditioned).real
    kept = (probs >= TOL_PROB) | (stack.faithful[0] & (probs >= sys.float_info.min))
    bob = matvec(corrections, conditioned) / np.sqrt(np.where(kept, probs, 1.0))[..., None]
    bob[~kept] = 0.0
    overlap = rowwise_vdot(bob, psi[:, None, :])
    # |overlap|^2 as qcore.fidelity takes it for one state: hypot, then
    # the C pow of a float's ** (see complexfmt.squared_moduli).
    fids = np.minimum(np.float_power(np.hypot(overlap.real, overlap.imag), 2.0), 1.0)
    fids[~kept] = np.nan
    return InputBatch(probs, corrections, bob, fids)


def haar_inputs(count: int, rng) -> np.ndarray:
    """count Haar-random inputs as a (count, 2) array.

    Each row takes four normal draws, two real parts then two imaginary
    parts, and is scaled to unit norm.
    """
    g = rng.normal(size=(count, 2, 2))
    vec = g[:, 0] + 1j * g[:, 1]
    return vec / rowwise_norm(vec)[:, None]


def _shot_count(shots, least: int) -> int:
    """shots as an int, BadInput unless it is an integer >= least."""
    try:
        shots = operator.index(shots)
    except TypeError:
        raise BadInput(f"shots must be an integer, got {shots!r}") from None
    if shots < least:
        raise BadInput(f"shots must be >= {least}, got {shots}")
    return shots


def _cdf_chunks(probabilities, shots: int, rng):
    """Draws of `shots` shots in chunks of SAMPLE_CHUNK, with their CDF entries.

    probabilities is a (K, 4) array; shot i uses row i mod K. The first
    three CDF columns are laid out once as the rows of a (3, W)
    wrap-around buffer, W = K + min(SAMPLE_CHUNK, shots) and entry j
    holding input j mod K, so the inputs of a chunk are one contiguous
    slice of each row starting at start mod K. Yields (draws, block) per
    chunk, block the (3, len(draws)) view of those slices. Drawing
    rng.random in chunks consumes the generator exactly as one call for
    all shots would. shots must be an integer >= 0, else BadInput.
    """
    shots = _shot_count(shots, 0)
    probabilities = np.asarray(probabilities, dtype=float)
    if probabilities.ndim != 2 or probabilities.shape[0] == 0 or probabilities.shape[1] != 4:
        raise BadInput(f"probabilities must be a nonempty (K, 4) array, got shape {probabilities.shape}")
    rows = len(probabilities)
    width = rows + min(SAMPLE_CHUNK, shots)
    cdf = np.cumsum(probabilities[:, :3], axis=1).T
    # np.tile, not np.resize: np.resize concatenates one copy per
    # repeat, about 0.5 ms for a single input and a full chunk.
    buffer = np.tile(cdf, (1, -(-width // rows)))
    for start in range(0, shots, SAMPLE_CHUNK):
        draws = rng.random(min(SAMPLE_CHUNK, shots - start))
        offset = start % rows
        yield draws, buffer[:, offset:offset + len(draws)]


def sample_outcomes(probabilities: np.ndarray, shots: int, rng):
    """Outcome indices of `shots` draws, yielded in chunks of SAMPLE_CHUNK.

    probabilities is a (K, 4) array; shot i uses row i mod K. Each draw u
    is inverted through that row's CDF: the index is the number of its
    first three cumulative sums that are <= u, i.e. searchsorted(cdf, u,
    side="right") capped at 3. The generator is consumed exactly as one
    rng.random call for all shots would consume it, so the outcomes do
    not depend on the chunk size. count_outcomes gives the counts of
    these indices without forming them.
    """
    for draws, block in _cdf_chunks(probabilities, shots, rng):
        yield (block <= draws).sum(axis=0, dtype=np.intp)


def count_outcomes(probabilities, shots: int, rng) -> np.ndarray:
    """(4,) int64 counts of the sample_outcomes indices for the same generator state.

    Rows must be nonnegative (a negative or NaN entry raises BadInput),
    so the cumulative sums of a row do not decrease and {c0 <= u}
    contains {c1 <= u}, which contains {c2 <= u}. With A_j the number of
    shots whose draw is >= c_j, the counts are S - A0, A0 - A1, A1 - A2
    and A2: three comparisons and counts per chunk, with no per-shot
    index array. Memory is O(SAMPLE_CHUNK + K) whatever the shot count.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    if not np.all(probabilities >= 0.0):
        raise BadInput("probabilities must be nonnegative numbers")
    at_least = [0, 0, 0]
    for draws, block in _cdf_chunks(probabilities, shots, rng):
        for j in range(3):
            at_least[j] += int(np.count_nonzero(block[j] <= draws))
    return -np.diff(np.array([shots, *at_least, 0], dtype=np.int64))


def run(input_amps, params: ProtocolParams, shots: int | None = None, seed: int | None = None) -> RunResult:
    """Run the protocol on one input state.

    With shots=None the result is exhaustive: all four outcome records
    with exact probabilities. With shots set, per-shot outcomes are
    drawn by inverse CDF from one generator seeded with `seed`, and the
    result additionally carries empirical frequencies and the shot
    labels (exhaustive records are still included).
    """
    stack = protocol_branches(params)
    batch = evaluate_inputs(stack, [_parsed_input(input_amps)])
    report = stack.report(0)
    records = []
    for k, label in enumerate(BASIS_LABELS):
        prob = float(batch.probabilities[0, k])
        faithful = label in report.faithful_outcomes
        correction = batch.corrections[k]
        fid = float(batch.fidelities[0, k])
        if math.isnan(fid):
            records.append(OutcomeRecord(label, prob, faithful, correction, None, None))
            continue
        bob = PureState(("2",), batch.bob[0, k])
        records.append(OutcomeRecord(label, prob, faithful, correction, bob, fid))
    if shots is None:
        return RunResult(tuple(records), report)
    shots = _shot_count(shots, 1)
    if seed is None:
        seed = 0
    rng = np.random.default_rng(seed)
    indices = np.concatenate(list(sample_outcomes(batch.probabilities, shots, rng)))
    labels = tuple(_LABEL_ARRAY[indices].tolist())
    counts = np.bincount(indices, minlength=4)
    freqs = {label: int(counts[k]) / shots for k, label in enumerate(BASIS_LABELS)}
    return RunResult(tuple(records), report, shots, seed, freqs, labels)


def measured_probabilities(input_amps, params: ProtocolParams) -> dict:
    """Branch probabilities via an actual projective measurement.

    Assembles the three-qubit state and projects the pair (a, 1); equals
    ||M_k psi||^2 from the transfer matrices. Kept as the independent
    route for verification.
    """
    state = joint_state(input_amps, params.n)
    basis = general_basis(params.basis_params)
    outcomes = measure.project_all(state, ("a", "1"), basis)
    return {o.label: o.probability for o in outcomes}
