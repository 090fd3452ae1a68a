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
Each M_k has one nonzero entry per row and column, x in column 0 and y
in column 1, so M^dag M = diag(|x|^2, |y|^2) exactly and faithful means
|x| = |y|: branch_stack reads the Grams off the eight entries as
re * re + im * im, real float operations that round alike on every host
(a complex matmul's bits depend on the BLAS kernel). So faithfulness
depends only on |l| or |p| versus |n| and 1/|n|; each faithful branch
occurs with probability |n|^2/(1+|n|^2)^2. The test is relative
(|x|^2 / c and |y|^2 / c against 1), so it holds at any scale of c;
only c == 0 is unfaithful for its size.

Success probabilities reported by classify and run always come from
the matrices themselves; success_probability_analytic is the closed
form kept as a cross-check, never as the source of truth.

The input-independent work (matrices, completeness, Grams,
faithfulness, branch probabilities) is done by branch_stack for a whole
array of G parameter tuples, matrices and faithfulness on first read;
transfer_matrices and protocol_branches are its batch of one, and sweeps
over the resource parameter go through two_faithful_stack / one_faithful_stack,
whose batch of one is two_faithful_choice / one_faithful_choice.
evaluate_inputs evaluates a whole (K, 2) batch of inputs as quadratic
forms of the one-tuple stack's Gram diagonals (see InputBatch); only
run reads the closed-form polar corrections (_corrections). Shots
against the batch follow measure's sampling rule (shot s of input s mod
K, one multinomial draw of each input's counts): sample_outcomes gives
the outcome index of every shot, count_outcomes only the four counts, in
time and memory O(K) whatever the shot count. run is the batch of one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import measure, qcore
from .complexfmt import MODULUS_BOUND, finite_complex, finite_rows, squared_moduli, squared_modulus
from .ebasis import BASIS_LABELS, BasisParams, general_basis, regime_name, resource_state
from .errors import BadInput, CompletenessError, NonFinite, SingularMatrix
from .measure import count_outcomes, sample_outcomes  # re-exported under their teleport names
from .qcore import PureState
from .tolerances import TOL_EQ, TOL_NORM, TOL_PROB

INFINITE = math.inf

# Parameter choices with two faithful outcomes, indexed 0..3: join the
# basis parameters to the resource as (l, p) = (n, n*), (n, 1/n),
# (1/n*, 1/n), (1/n*, n*). Each leaves exactly the named pair faithful.
# The rules of both tables take (G,) complex arrays; the flag marks those dividing by n.
_TWO_FAITHFUL = (
    (lambda n: (n, n.conjugate()), ("PhiMinus", "PsiPlus"), False),
    (lambda n: (n, 1 / n), ("PhiMinus", "PsiMinus"), True),
    (lambda n: (1 / n.conjugate(), 1 / n), ("PhiPlus", "PsiMinus"), True),
    (lambda n: (1 / n.conjugate(), n.conjugate()), ("PhiPlus", "PsiPlus"), True),
)

# Choices with one faithful outcome, indexed 0..3: (l, p) from n and a
# generic value g that leaves the other pair unfaithful.
_ONE_FAITHFUL = (
    (lambda n, g: (1 / n.conjugate(), g), "PhiPlus", True),
    (lambda n, g: (n, g), "PhiMinus", False),
    (lambda n, g: (g, n.conjugate()), "PsiPlus", False),
    (lambda n, g: (g, 1 / n), "PsiMinus", True),
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

    entries holds the (8, G) nonzero matrix entries (as _entries gives them), diagonals
    their (2, G, 4) Gram diagonals. probabilities[g, k] = tr(M_k^dag M_k) / 2, the branch
    probability that no input changes when faithful[g, k] holds. faithful and matrices
    (M_k of tuple g at [g, k], in label order) are built on first read: a sweep reads neither.
    """

    entries: np.ndarray
    diagonals: np.ndarray
    probabilities: np.ndarray

    @cached_property
    def faithful(self) -> np.ndarray:
        return _faithful(self.diagonals, self.probabilities)

    @cached_property
    def matrices(self) -> np.ndarray:
        mats = np.zeros((self.entries.shape[1], 16), dtype=complex)
        mats[:, _NONZERO] = self.entries.T
        return mats.reshape(-1, 4, 2, 2)

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
    """Every branch of every input psi = (alpha, beta) in a batch of K inputs.

    M_k has one nonzero entry per column, so H_k = U_k M_k = sqrt(M_k^dag M_k) is diagonal: h
    (polar) is the root of the Gram diagonal g of branch_stack. probabilities[i, k] = p =
    |alpha|^2 g0 + |beta|^2 g1, fidelities[i, k] = min((|alpha|^2 h0 + |beta|^2 h1)^2 / p, 1).
    Built on first read: bob[i, k], Bob's corrected state (alpha h0, beta h1) / sqrt(p), and
    corrections, the U_k of the M_k (matrices), which only run reads. Below TOL_PROB, bob is
    zero and the fidelity NaN. A faithful branch is kept down to the smallest normal float,
    since its state is exact at any scale; below that the probability has lost bits, and the
    state renormalised by its square root is off unit norm by up to 1e-2. inputs holds the psi.
    """

    probabilities: np.ndarray
    fidelities: np.ndarray
    inputs: np.ndarray
    polar: np.ndarray
    matrices: np.ndarray

    @cached_property
    def bob(self) -> np.ndarray:
        root = np.sqrt(np.where(np.isnan(self.fidelities), np.inf, self.probabilities))  # bob is 0 where not kept
        # complex times real: (re * s, im * s), each a single rounded product
        return self.inputs[:, None, :] * (self.polar / root[..., None])

    @cached_property
    def corrections(self) -> np.ndarray:
        return _corrections(self.matrices)


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
    scalar expressions in the module docstring, and the Grams are read off
    the entries (see there), so a tuple gives the same bits whatever G.
    """
    params = finite_rows([n, ell, p], "n, ell and p")
    entries = _entries(params, squared_moduli(params, ("n", "ell", "p")))
    del params  # kept alive to the end, it slowed branch_stack on 8,000 points by about a tenth
    squares = entries.real * entries.real
    squares += entries.imag * entries.imag
    diagonals = squares.reshape(4, 2, -1).transpose(1, 2, 0)  # (2, G, 4)
    _check_gram_total(diagonals)
    return BranchStack(entries, diagonals, _half_traces(diagonals))


# Flat positions, in the (4, 2, 2) stack of one tuple, of the eight
# entries that are not identically zero, in the row order of _entries:
# the entry in column 0 of M_0, then in its column 1, and so on to M_3.
_NONZERO = np.array([0, 3, 4, 7, 10, 9, 14, 13])
# Outcome labels as an object array, so a whole index array maps to
# labels in one indexing step.
_LABEL_ARRAY = np.array(BASIS_LABELS, dtype=object)


def _entries(params: np.ndarray, mod2: np.ndarray) -> np.ndarray:
    """(8, G) nonzero transfer-matrix entries of a (3, G) array of n, l and p with squared_moduli mod2.

    Each entry gets the bits of the scalar construction: the products
    n l* and n p through the real and imaginary parts exactly as
    Python's complex multiply forms them (numpy's may fuse a product
    into the sum), then a real weight times a complex entry, which
    stays two single products whatever the ufunc does with the zero
    imaginary part of the weight.
    """
    nw, lw, pw = 1.0 / np.sqrt(1.0 + mod2)
    (nr, lr, pr), (ni, li, pi) = params.real, params.imag
    entries = np.zeros((8, params.shape[1]), dtype=complex)
    re, im = entries.real, entries.imag
    re[0] = 1.0
    re[1] = nr * lr + ni * li  # the bits of nr * lr - ni * -li and nr * -li + ni * lr
    im[1] = ni * lr - nr * li
    entries[2] = params[1]
    entries[3] = -params[0]
    entries[4] = params[0]
    entries[5] = params[2].conj()
    re[6] = nr * pr - ni * pi
    im[6] = nr * pi + ni * pr
    re[7] = -1.0
    entries[:4] *= nw * lw
    entries[4:] *= nw * pw
    return entries


def _check_gram_total(diagonals: np.ndarray, off=None) -> None:
    """CompletenessError unless each group's K Grams (as qcore.gram gives them, off None
    where all are diagonal) sum to I within TOL_NORM."""
    deviation = np.abs(diagonals.sum(axis=-1) - 1.0).max()
    if off is not None:
        deviation = np.maximum(deviation, np.abs(off.sum(axis=-1)).max())
    if not deviation < TOL_NORM:
        raise CompletenessError(
            f"completeness violated: sum M^dag M deviates from I by {float(deviation)!r}")


def _half_traces(diagonals: np.ndarray) -> np.ndarray:
    return (diagonals[0] + diagonals[1]) / 2.0


def _faithful(diagonals: np.ndarray, c: np.ndarray, off=None) -> np.ndarray:
    """Whether Grams G given as to _check_gram_total, of half traces c = tr(G)/2, are
    faithful: G / c = I to a relative TOL_EQ with c > 0, so a branch of probability
    1e-200 may be faithful, c == 0 (and NaN) is not. g01 / c divides its parts: numpy's
    complex / real multiplies by 1 / c, which is inf below c = 1 / DBL_MAX."""
    positive = c > 0.0
    scale = np.where(positive, c, 1.0)
    ratios = np.abs(diagonals / scale - 1.0)
    deviation = np.maximum(ratios[0], ratios[1])  # two indexings cost less than unpacking
    if off is not None:
        deviation = np.maximum(deviation, np.hypot(off.real / scale, off.imag / scale))
    return positive & (deviation <= TOL_EQ)


def transfer_matrices(params: ProtocolParams) -> tuple:
    """The four transfer matrices in canonical label order: branch_stack's batch of one."""
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
    _check_gram_total(*qcore.gram(matrices))


def is_faithful(tm: TransferMatrix) -> bool:
    """True iff M^dag M = c I for some c > 0 (relative tolerance TOL_EQ)."""
    diagonals, off = qcore.gram(tm.matrix)
    return bool(_faithful(diagonals, _half_traces(diagonals), off))


def branch_probability(tm: TransferMatrix) -> float:
    """Input-independent probability of a faithful branch (tr M^dag M / 2)."""
    return float(_half_traces(qcore.gram(tm.matrix)[0]))


def _corrections(mats) -> np.ndarray:
    """Adjoints U of the polar unitary factors of a (..., 2, 2) stack; I for a zero matrix.

    U M is Hermitian positive semidefinite, c I for a faithful M, so Bob's U
    restores the input exactly. With M = W P, P = sqrt(M^dag M), Cayley-
    Hamilton gives P + det(P) P^-1 = tr(P) I, and W P^-1 = adj(M)^dag /
    conj(det M), so W = (M + e adj(M)^dag) / (s1 + s2) with e = det M /
    |det M| and (s1 + s2)^2 = ||M||_F^2 + 2 |det M|. If det M = 0, then M =
    s u v^dag, adj(M)^dag = s u' v'^dag with u', v' orthogonal to u, v, and
    W is unitary for any unit e; e = 1 is taken. M is first divided by its
    largest real or imaginary part, so nothing overflows, and each product
    is a real float * and + in a fixed order, so no BLAS kernel or complex-
    multiply dispatch sets the bits. det's parts are divided by their larger
    modulus before |det| is formed: a subnormal |det| has lost e's bits.
    """
    mats = np.asarray(mats, dtype=complex)
    scale = np.maximum(np.abs(mats.real), np.abs(mats.imag)).max(axis=(-2, -1))[..., None, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 where det or M is 0, replaced
        (ar, br), (cr, dr) = np.moveaxis(mats.real / scale, (-2, -1), (0, 1))
        (ai, bi), (ci, di) = np.moveaxis(mats.imag / scale, (-2, -1), (0, 1))
        det_re = (ar * dr - ai * di) - (br * cr - bi * ci)
        det_im = (ar * di + ai * dr) - (br * ci + bi * cr)
        big = np.maximum(np.abs(det_re), np.abs(det_im))
        xr, xi = np.where(big > 0.0, det_re / big, 1.0), np.where(big > 0.0, det_im / big, 0.0)
        modulus = np.sqrt(xr * xr + xi * xi)
        er, ei = xr / modulus, xi / modulus
        norm = ((ar * ar + ai * ai) + (br * br + bi * bi)) + ((cr * cr + ci * ci) + (dr * dr + di * di))
        total = np.sqrt(norm + 2.0 * big * modulus)[..., None]
        # U = (A^dag + conj(e) adj A) / (s1 + s2) for A = [[a, b], [c, d]], real and imaginary parts
        parts = np.stack([ar + (er * dr + ei * di), (er * di - ei * dr) - ai, cr - (er * br + ei * bi),
                          -ci - (er * bi - ei * br), br - (er * cr + ei * ci), -bi - (er * ci - ei * cr),
                          dr + (er * ar + ei * ai), (er * ai - ei * ar) - di], axis=-1) / total
    return np.where(scale == 0.0, qcore.PAULI_I, parts.view(complex).reshape(mats.shape))


def correction_unitary(tm: TransferMatrix) -> np.ndarray:
    """The polar correction of one transfer matrix; SingularMatrix if it is zero."""
    if not np.max(np.abs(tm.matrix)) > 0.0:
        raise SingularMatrix("transfer matrix is numerically zero")
    return _corrections(tm.matrix)


def protocol_branches(params: ProtocolParams) -> BranchStack:
    """Matrices, faithfulness and branch probabilities of one parameter tuple.

    The batch of one of branch_stack; report(0) is its regime. The
    corrections are left to InputBatch: classify does not need them.
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
    """One of the four basis choices leaving exactly two faithful outcomes: the batch of one of
    two_faithful_stack, so its (l, p) have the stack's bits."""
    n = finite_complex(n, "n")
    ell, p = _two_faithful(np.array([n]), index)
    return ProtocolParams(n, complex(ell[0]), complex(p[0]))


def two_faithful_stack(n, index: int) -> BranchStack:
    """branch_stack of two_faithful_choice(n[g], index) for a (G,) array n."""
    n = np.asarray(n, dtype=complex)
    return branch_stack(n, *_two_faithful(n, index))


def _two_faithful(n: np.ndarray, index: int) -> tuple:
    """(l, p) arrays of rule `index` of _TWO_FAITHFUL; where the rule divides by n, _refuse
    names the first n where 1/|n| reaches MODULUS_BOUND."""
    make, _, divides = _choice(_TWO_FAITHFUL, index, not np.all(n))
    with np.errstate(over="ignore", invalid="ignore"):  # 1/|n| is inf below |n| = 1 / DBL_MAX
        if divides:
            _refuse(1.0 / np.hypot(n.real, n.imag), n, "1/n")
        return make(n)


def two_faithful_labels(index: int) -> tuple:
    """The outcome pair that choice `index` makes faithful."""
    return _choice(_TWO_FAITHFUL, index)[1]


def _choice(table: tuple, index: int, has_zero: bool = False) -> tuple:
    """Entry `index` (rule, labels, divides) of _TWO_FAITHFUL or _ONE_FAITHFUL: BadInput unless
    index is an integer 0..3, NonFinite where the rule divides by n and n has a zero."""
    if index not in range(4) or not isinstance(index, (int, np.integer)):
        raise BadInput(f"index must be 0..3, got {index!r}")
    if table[index][2] and has_zero:
        raise NonFinite("choice needs a nonzero resource parameter")
    return table[index]


def _refuse(moduli: np.ndarray, n: np.ndarray, what: str) -> None:
    """NonFinite naming |n| (n, if |n|^2 overflows) at the first n[g] where moduli[g] >= MODULUS_BOUND."""
    too_large = np.flatnonzero(~(moduli < MODULUS_BOUND))
    if too_large.size:
        z = n[too_large[0]]
        squared_modulus(complex(z), "n")
        raise NonFinite(f"{what} is too large at |n| = {float(np.hypot(z.real, z.imag))!r}: "
                        "it or a power of it overflows a float")


def one_faithful_choice(n, index: int) -> ProtocolParams:
    """One of the four single conditions, the other parameter kept generic (see _one_faithful):
    the batch of one of one_faithful_stack."""
    n = finite_complex(n, "n")
    ell, p = _one_faithful(np.array([n]), index)
    return ProtocolParams(n, complex(ell[0]), complex(p[0]))


def one_faithful_stack(n, index: int) -> BranchStack:
    """branch_stack of one_faithful_choice(n[g], index) for a (G,) array n."""
    n = np.asarray(n, dtype=complex)
    return branch_stack(n, *_one_faithful(n, index))


def _one_faithful(n: np.ndarray, index: int) -> tuple:
    """(l, p) arrays of rule `index` of _ONE_FAITHFUL at the generic value 2 max(|n|, 1/|n|) + 1.

    It is 1 at n = 0 and otherwise over twice both moduli that would make its
    branch pair faithful, so that pair stays unfaithful at any |n|; NonFinite names
    it through _refuse at the first n where it reaches MODULUS_BOUND.
    """
    rule, _, _ = _choice(_ONE_FAITHFUL, index, not np.all(n))
    with np.errstate(over="ignore"):  # 1/|n| is inf below |n| = 1 / DBL_MAX
        modulus = np.hypot(n.real, n.imag)
        inverse = np.divide(1.0, modulus, out=np.zeros_like(modulus), where=modulus != 0.0)
        generic = 2.0 * np.maximum(modulus, inverse) + 1.0
    _refuse(generic, n, "the generic value 2 max(|n|, 1/|n|) + 1")
    return rule(n, generic)


def one_faithful_labels(index: int) -> str:
    """The single outcome that one_faithful_choice(index) makes faithful."""
    return _choice(_ONE_FAITHFUL, index)[1]


def _parsed_input(input_amps) -> tuple:
    try:
        return tuple(finite_complex(a, "input amplitude") for a in input_amps)
    except NonFinite as exc:
        raise BadInput(str(exc)) from None


def evaluate_inputs(stack: BranchStack, inputs) -> InputBatch:
    """Probabilities, corrected states and fidelities of a batch of inputs.

    stack is the one-tuple stack of protocol_branches; inputs a (K, 2) array or
    K (alpha, beta) pairs, each finite with |alpha|^2 + |beta|^2 = 1 within
    TOL_NORM. Branch k of input i conditions Bob's qubit on M_k psi_i.
    """
    if len(stack.probabilities) != 1:
        raise BadInput(f"evaluate_inputs needs a stack of one parameter tuple, got {len(stack.probabilities)}")
    try:
        psi = np.asarray(inputs, dtype=complex)
    except (TypeError, ValueError):
        raise BadInput("inputs must be (alpha, beta) pairs of complex numbers") from None
    if psi.ndim != 2 or psi.shape[0] == 0 or psi.shape[1] != 2:
        raise BadInput(f"inputs must be a nonempty sequence of (alpha, beta) pairs, got shape {psi.shape}")
    with np.errstate(over="ignore"):  # |alpha|^2 is inf from |alpha| = 1e154 up
        moduli = psi.real * psi.real + psi.imag * psi.imag
    if not (np.abs((moduli[:, 0] + moduli[:, 1]) - 1.0) <= TOL_NORM).all():  # so NaN and inf fail
        raise BadInput("input amplitudes must be finite, with |alpha|^2 + |beta|^2 = 1 within TOL_NORM")
    g = stack.diagonals[:, 0].T  # (4, 2): Gram diagonal j of M_k at [k, j]
    forms = np.array([g, np.sqrt(g)])  # g and h, exact for the monomial M_k
    probs, overlaps = moduli[:, :1] * forms[:, None, :, 0] + moduli[:, 1:] * forms[:, None, :, 1]
    kept = probs >= np.where(stack.faithful[0], sys.float_info.min, TOL_PROB)
    ratio = overlaps / np.sqrt(np.where(kept, probs, np.nan))  # NaN where not kept
    fids = np.minimum(ratio * ratio, 1.0)
    return InputBatch(probs, fids, psi, forms[1], stack.matrices[0])


def haar_inputs(count: int, rng) -> np.ndarray:
    """count Haar-random inputs as a (count, 2) array.

    Each row takes four normal draws, two real parts then two imaginary
    parts, and is divided by its norm, in real float operations.
    """
    g = rng.normal(size=(count, 2, 2))
    unit = g / np.sqrt((g * g).sum(axis=2).sum(axis=1))[:, None, None]  # two-term sums: any order rounds alike
    return unit[:, 0] + 1j * unit[:, 1]


def run(input_amps, params: ProtocolParams, shots: int | None = None, seed: int | None = None) -> RunResult:
    """Run the protocol on one input state.

    With shots=None the result is exhaustive: all four outcome records
    with exact probabilities. With shots set, per-shot outcomes are
    drawn by sample_outcomes from one generator seeded with `seed`, and
    the result additionally carries empirical frequencies and the shot
    labels (exhaustive records are still included).
    """
    stack = protocol_branches(params)
    batch = evaluate_inputs(stack, [_parsed_input(input_amps)])
    report = stack.report(0)
    records = []
    for k, label in enumerate(BASIS_LABELS):
        fid = float(batch.fidelities[0, k])
        kept = not math.isnan(fid)
        records.append(OutcomeRecord(label, float(batch.probabilities[0, k]), label in report.faithful_outcomes,
                                     batch.corrections[k], PureState(("2",), batch.bob[0, k]) if kept else None,
                                     fid if kept else None))
    if shots is None:
        return RunResult(tuple(records), report)
    shots = measure._integer(shots, "shots", 1)
    seed = 0 if seed is None else measure._integer(seed, "seed", 0)
    # rows sum to 1 within 2 TOL_NORM (input norm and completeness), the sampler's bound is TOL_NORM
    rows = batch.probabilities / batch.probabilities.sum(axis=1, keepdims=True)
    indices = sample_outcomes(rows, shots, np.random.default_rng(seed))
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
    state = qcore.tensor(PureState(("a",), np.array(_parsed_input(input_amps))), resource_state(params.n))
    outcomes = measure.project_all(state, ("a", "1"), general_basis(params.basis_params))
    return {o.label: o.probability for o in outcomes}
