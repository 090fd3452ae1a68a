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

Success probabilities reported by classify and run always come from
the matrices themselves; success_probability_analytic is the closed
form kept as a cross-check, never as the source of truth.

The input-independent work (matrices, faithfulness, branch
probabilities) is done once per parameter tuple by protocol_branches;
evaluate_inputs adds the corrections and applies the matrices to a
whole (K, 2) batch of inputs at once, and sample_outcomes draws shots
against the batch. run is the batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measure, qcore
from .complexfmt import finite_complex
from .ebasis import BASIS_LABELS, BasisParams, general_basis, resource_state
from .errors import BadInput, CompletenessError, NonFinite, SingularMatrix
from .qcore import PureState, _svd2, rowwise_vdot
from .tolerances import TOL_EQ, TOL_NORM, TOL_PROB

INFINITE = math.inf

# Shots drawn per rng.random call. Working memory is a few arrays of
# this length, so it stays small whatever the shot count; the outcomes
# do not depend on it.
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


@dataclass(frozen=True)
class ProtocolParams:
    """Resource parameter n and measurement basis parameters (l, p)."""

    n: complex
    ell: complex
    p: complex

    def __post_init__(self):
        object.__setattr__(self, "n", finite_complex(self.n, "n"))
        object.__setattr__(self, "ell", finite_complex(self.ell, "ell"))
        object.__setattr__(self, "p", finite_complex(self.p, "p"))

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
    is None when the branch probability falls below TOL_PROB (then
    fidelity is None as well). faithful is a property of the transfer
    matrix, not of the particular input, so fidelity can be 1 for a
    lucky input even on an unfaithful branch.
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
class ProtocolBranches:
    """The input-independent part of a parameter tuple, computed once.

    transfer holds the four TransferMatrix records in canonical label
    order and faithful is_faithful of each.
    """

    transfer: tuple
    faithful: tuple
    report: RegimeReport


@dataclass(frozen=True, eq=False)
class InputBatch:
    """Every branch of every input in a batch of K inputs.

    probabilities[i, k] = ||M_k psi_i||^2. bob[i, k] is Bob's corrected,
    renormalized state and fidelities[i, k] its fidelity with psi_i;
    below TOL_PROB, bob is zero and the fidelity NaN. corrections holds
    the four (input-independent) correction unitaries.
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


def transfer_matrices(params: ProtocolParams) -> tuple:
    """The four transfer matrices, in canonical outcome-label order.

    They satisfy the completeness relation sum_k M_k^dag M_k = I, which
    is what makes the four branch probabilities sum to 1.
    """
    n, l, p = params.n, params.ell, params.p
    nw, lw, pw = _weight(n, "n"), _weight(l, "ell"), _weight(p, "p")
    mats = (
        TransferMatrix("PhiPlus", nw * lw * np.array([[1, 0], [0, n * l.conjugate()]], dtype=complex)),
        TransferMatrix("PhiMinus", nw * lw * np.array([[l, 0], [0, -n]], dtype=complex)),
        TransferMatrix("PsiPlus", nw * pw * np.array([[0, p.conjugate()], [n, 0]], dtype=complex)),
        TransferMatrix("PsiMinus", nw * pw * np.array([[0, -1], [n * p, 0]], dtype=complex)),
    )
    check_completeness(tm.matrix for tm in mats)
    return mats


def _too_large(name: str, z: complex) -> NonFinite:
    return NonFinite(f"{name} = {z!r} is too large: a power of |{name}| overflows a float")


def _weight(z: complex, name: str) -> float:
    """Normalization 1/sqrt(1 + |z|^2); NonFinite where |z|^2 overflows."""
    try:
        return 1.0 / math.sqrt(1.0 + abs(z) ** 2)
    except OverflowError:
        raise _too_large(name, z) from None


def check_completeness(matrices) -> None:
    """Raise CompletenessError unless sum_k M_k^dag M_k = I within TOL_NORM.

    Accepts any iterable of 2x2 matrices, including a (4, 2, 2) stack.
    A non-finite entry fails the check rather than passing it.
    """
    total = sum(m.conj().T @ m for m in matrices)
    deviation = np.max(np.abs(total - np.eye(2)))
    if not deviation < TOL_NORM:
        raise CompletenessError(f"completeness violated: sum M^dag M deviates from I by {deviation!r}")


def is_faithful(tm: TransferMatrix) -> bool:
    """True iff M^dag M = c I for some c > 1e-12 (relative tolerance 1e-9)."""
    gram = tm.matrix.conj().T @ tm.matrix
    c = float(gram[0, 0].real + gram[1, 1].real) / 2.0
    if c <= 1e-12:
        return False
    return bool(np.max(np.abs(gram - c * np.eye(2))) <= TOL_EQ * c)


def branch_probability(tm: TransferMatrix) -> float:
    """Input-independent probability of a faithful branch (tr M^dag M / 2)."""
    gram = tm.matrix.conj().T @ tm.matrix
    return float(gram[0, 0].real + gram[1, 1].real) / 2.0


def correction_unitary(tm: TransferMatrix) -> np.ndarray:
    """Adjoint of the polar unitary factor of the transfer matrix.

    For a faithful matrix, U M is proportional to the identity, so Bob's
    application of U restores the input exactly. In the maximally
    entangled case the four corrections are the Pauli operators up to
    global phase. The same polar recipe is applied to unfaithful
    branches; it is input independent and gives a principled fidelity
    number there too.
    """
    u, sv, v = _svd2(tm.matrix)
    if sv[0] < 1e-12:
        raise SingularMatrix("transfer matrix is numerically zero")
    return v @ u.conj().T


def protocol_branches(params: ProtocolParams) -> ProtocolBranches:
    """Matrices, faithfulness and regime report of a parameter tuple.

    One transfer_matrices call and one is_faithful call per branch; the
    correction unitaries are left to evaluate_inputs, since classify
    does not need them.
    """
    mats = transfer_matrices(params)
    faithful = tuple(is_faithful(tm) for tm in mats)
    labels = tuple(tm.label for tm, f in zip(mats, faithful) if f)
    success = sum(branch_probability(tm) for tm, f in zip(mats, faithful) if f)
    k = len(labels)
    if k == 4:
        regime = "Deterministic"
    elif k == 0:
        regime = "NoFaithful"
    else:
        regime = f"Probabilistic(k={k})"
    repetitions = 1.0 / success if success > 0.0 else INFINITE
    return ProtocolBranches(mats, faithful, RegimeReport(regime, labels, float(success), repetitions))


def classify(params: ProtocolParams) -> RegimeReport:
    """Count faithful outcomes and total their state-independent probability."""
    return protocol_branches(params).report


def success_probability_analytic(n, k: int = 2) -> float:
    """Closed form k |n|^2 / (1 + |n|^2)^2 for k faithful outcomes (k = 1 or 2)."""
    if k not in (1, 2):
        raise BadInput(f"k must be 1 or 2, got {k!r}")
    n = finite_complex(n, "n")
    try:
        mod2 = abs(n) ** 2
        return k * mod2 / (1.0 + mod2) ** 2
    except OverflowError:
        raise _too_large("n", n) from None


def expected_repetitions(n) -> float:
    """Literal repetition count (1 + |n|^2)^2 / |n|^2; INFINITE at n = 0.

    At |n| = 1 this evaluates to 4 while the reciprocal of the
    two-outcome success probability is 2; repetition_counts carries both
    numbers so reports can show them side by side.
    """
    n = finite_complex(n, "n")
    try:
        mod2 = abs(n) ** 2
        if mod2 == 0.0:
            return INFINITE
        return (1.0 + mod2) ** 2 / mod2
    except OverflowError:
        raise _too_large("n", n) from None


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
    make, _ = _TWO_FAITHFUL[index]
    if index != 0 and n == 0:
        raise NonFinite("choice needs a nonzero resource parameter")
    l, p = make(n)
    return ProtocolParams(n, l, p)


def two_faithful_labels(index: int) -> tuple:
    """The outcome pair that choice `index` makes faithful."""
    return _TWO_FAITHFUL[index][1]


def one_faithful_choice(n, index: int) -> ProtocolParams:
    """One of the four single conditions, the other parameter kept generic.

    The generic value max(|n|, 1/|n|) + 1 is strictly larger than both
    moduli that would make its branch pair faithful.
    """
    n = finite_complex(n, "n")
    generic = complex(max(abs(n), 1.0 / abs(n) if n != 0 else 0.0) + 1.0)
    if index in (0, 3) and n == 0:
        raise NonFinite("choice needs a nonzero resource parameter")
    if index == 0:
        return ProtocolParams(n, 1 / n.conjugate(), generic)
    if index == 1:
        return ProtocolParams(n, n, generic)
    if index == 2:
        return ProtocolParams(n, generic, n.conjugate())
    if index == 3:
        return ProtocolParams(n, generic, 1 / n)
    raise BadInput(f"index must be 0..3, got {index!r}")


def one_faithful_labels(index: int) -> str:
    """The single outcome that one_faithful_choice(index) makes faithful."""
    return ("PhiPlus", "PhiMinus", "PsiPlus", "PsiMinus")[index]


def joint_state(input_amps, n) -> PureState:
    """Assembled three-qubit state: input on a, resource on (1, 2)."""
    alpha, beta = (finite_complex(a, "input amplitude") for a in input_amps)
    input_state = PureState(("a",), np.array([alpha, beta]))
    return qcore.tensor(input_state, resource_state(n))


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


def _apply(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """mats (..., 2, 2) times vecs (..., 2), broadcast over the leading axes.

    Written out as m[:, 0] v0 + m[:, 1] v1, the same two products and one
    sum per entry as a single 2x2 matmul, so it gives the same values.
    """
    return mats[..., 0] * vecs[..., None, 0] + mats[..., 1] * vecs[..., None, 1]


def _correction_or_identity(tm: TransferMatrix) -> np.ndarray:
    try:
        return correction_unitary(tm)
    except SingularMatrix:
        return np.eye(2, dtype=complex)


def evaluate_inputs(branches: ProtocolBranches, inputs) -> InputBatch:
    """Probabilities, corrected states and fidelities of a batch of inputs.

    inputs is a (K, 2) array or a sequence of K (alpha, beta) pairs, each
    finite and normalized. Branch k of input i conditions Bob's qubit on
    M_k psi_i; the correction of a singular branch is the identity.
    """
    psi = _input_array(inputs)
    matrices = np.stack([tm.matrix for tm in branches.transfer])
    corrections = np.stack([_correction_or_identity(tm) for tm in branches.transfer])
    conditioned = _apply(matrices, psi[:, None, :])
    probs = rowwise_vdot(conditioned, conditioned).real
    kept = probs >= TOL_PROB
    bob = _apply(corrections, conditioned) / np.sqrt(np.where(kept, probs, 1.0))[..., None]
    bob[~kept] = 0.0
    overlap = rowwise_vdot(bob, psi[:, None, :])
    # |overlap|^2 as qcore.fidelity takes it for one state: hypot, then a
    # float power per entry. numpy's vectorised abs and square can differ
    # from that in the last bit.
    moduli = np.hypot(overlap.real, overlap.imag).ravel().tolist()
    fids = np.minimum(np.array([m ** 2 for m in moduli]).reshape(probs.shape), 1.0)
    fids[~kept] = np.nan
    return InputBatch(probs, corrections, bob, fids)


def haar_inputs(count: int, rng) -> np.ndarray:
    """count Haar-random inputs as a (count, 2) array.

    Each row takes four normal draws, two real parts then two imaginary
    parts, and is scaled to unit norm.
    """
    g = rng.normal(size=(count, 2, 2))
    re, im = g[:, 0], g[:, 1]
    vec = re + 1j * im
    return vec / np.sqrt(rowwise_vdot(re, re) + rowwise_vdot(im, im))[:, None]


def sample_outcomes(probabilities: np.ndarray, shots: int, rng):
    """Outcome indices of `shots` draws, yielded in chunks of SAMPLE_CHUNK.

    probabilities is a (K, 4) array; shot i uses row i mod K. Each draw u
    is inverted through that row's CDF: the index is the number of its
    first three cumulative sums that are <= u, i.e. searchsorted(cdf, u,
    side="right") capped at 3. Drawing rng.random in chunks consumes the
    generator exactly as one call for all shots would, so the outcomes
    do not depend on the chunk size.
    """
    cdf = np.cumsum(probabilities, axis=1)
    c0, c1, c2 = (np.ascontiguousarray(cdf[:, j]) for j in range(3))
    for start in range(0, shots, SAMPLE_CHUNK):
        draws = rng.random(min(SAMPLE_CHUNK, shots - start))
        row = np.arange(start, start + len(draws)) % len(cdf)
        yield (c0[row] <= draws).astype(np.intp) + (c1[row] <= draws) + (c2[row] <= draws)


def run(input_amps, params: ProtocolParams, shots: int | None = None, seed: int | None = None) -> RunResult:
    """Run the protocol on one input state.

    With shots=None the result is exhaustive: all four outcome records
    with exact probabilities. With shots set, per-shot outcomes are
    drawn by inverse CDF from one generator seeded with `seed`, and the
    result additionally carries empirical frequencies and the shot
    labels (exhaustive records are still included).
    """
    branches = protocol_branches(params)
    batch = evaluate_inputs(branches, [_parsed_input(input_amps)])
    records = []
    for k, tm in enumerate(branches.transfer):
        prob = float(batch.probabilities[0, k])
        correction = batch.corrections[k]
        if prob < TOL_PROB:
            records.append(OutcomeRecord(tm.label, prob, branches.faithful[k], correction, None, None))
            continue
        bob = PureState(("2",), batch.bob[0, k])
        fid = float(batch.fidelities[0, k])
        records.append(OutcomeRecord(tm.label, prob, branches.faithful[k], correction, bob, fid))
    report = branches.report
    if shots is None:
        return RunResult(tuple(records), report)
    if shots < 1:
        raise BadInput(f"shots must be >= 1, got {shots!r}")
    if seed is None:
        seed = 0
    rng = np.random.default_rng(seed)
    indices = np.concatenate(list(sample_outcomes(batch.probabilities, shots, rng)))
    labels = tuple(BASIS_LABELS[i] for i in indices)
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
