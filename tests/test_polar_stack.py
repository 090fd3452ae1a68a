"""The stacked closed-form SVD and polar corrections against the one-matrix
recipe they replaced: bit-for-bit u, s, v and corrections, whatever the
stack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polar_reference import reference_correction, reference_svd2
from teleportrix import qcore, teleport
from teleportrix.errors import BadInput, SingularMatrix
from teleportrix.qcore import PAULI_I, make_state
from teleportrix.teleport import ProtocolParams, TransferMatrix


def _bits(x):
    return np.asarray(x, dtype=complex).view(np.int64)


def assert_matches_reference(mats):
    """Every matrix of an (N, 2, 2) stack against the one-matrix recipe, bit for bit."""
    u, s, v = qcore._svd2(mats)
    corrections = teleport._corrections(mats)
    for i, m in enumerate(mats):
        # the bare recipe divides 0 by 0 on some matrices below its floors
        with np.errstate(divide="ignore", invalid="ignore"):
            ru, rs, rv = reference_svd2(m)
            correction = reference_correction(m)
        assert np.array_equal(_bits(u[i]), _bits(ru))
        assert np.array_equal(s[i].view(np.int64), np.array(rs).view(np.int64))
        assert np.array_equal(_bits(v[i]), _bits(rv))
        assert np.array_equal(_bits(corrections[i]), _bits(correction))


def _gaussian(rng, count, scale=1.0):
    return scale * (rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2)))


def test_generic_complex_matrices():
    assert_matches_reference(_gaussian(np.random.default_rng(51), 500))


def test_degenerate_matrices():
    rank_one = np.array([np.outer([1, 2j], [3, 1 - 1j]), np.outer([0, 1], [1, 0]), np.outer([0.6, 0.8j], [1j, 0])])
    multiples = np.array([c * PAULI_I for c in (0.3, 1.0, -2.5j, 1e-8 + 1e-8j, 1e50)])
    assert_matches_reference(np.concatenate([rank_one, multiples, np.zeros((2, 2, 2), dtype=complex)]))


@pytest.mark.parametrize("scale", [1e-12, 1e-13, 1e-14, 1e-20, 1e-150])
def test_entries_below_the_floors(scale):
    rng = np.random.default_rng(52)
    mats = np.concatenate([_gaussian(rng, 50, scale), [scale * np.array([[0, 1j], [1, 0]]), scale * PAULI_I]])
    assert_matches_reference(mats)


def test_transfer_matrices_at_log_uniform_resource():
    rng = np.random.default_rng(53)
    n = 10 ** rng.uniform(-7, 7, size=60) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=60))
    generic = rng.normal(size=(2, 60)) + 1j * rng.normal(size=(2, 60))
    stacks = [teleport.two_faithful_stack(n, index) for index in range(4)]
    stacks += [teleport.one_faithful_stack(n, index) for index in range(4)]
    stacks += [teleport.branch_stack(n, *generic), teleport.branch_stack(n, generic[0], 1 / n)]
    assert_matches_reference(np.concatenate([stack.matrices.reshape(-1, 2, 2) for stack in stacks]))


def test_rows_of_a_stack_equal_the_batch_of_one():
    rng = np.random.default_rng(54)
    g = 40
    stack = teleport.branch_stack(rng.normal(size=g) + 1j * rng.normal(size=g), rng.normal(size=g),
                                  rng.normal(size=g) * 1j)
    u, s, v = qcore._svd2(stack.matrices)
    corrections = teleport._corrections(stack.matrices)
    assert corrections.shape == (g, 4, 2, 2)
    for row in range(g):
        one = qcore._svd2(stack.matrices[row])
        for whole, single in zip((u, s, v), one):
            assert np.array_equal(whole[row].view(np.int64), single.view(np.int64))
        assert np.array_equal(_bits(corrections[row]), _bits(teleport._corrections(stack.matrices[row])))
        for k in range(4):
            # a bare 2x2 matrix is a stack with no leading axes
            bare = qcore._svd2(stack.matrices[row, k])
            for whole, single in zip((u, s, v), bare):
                assert np.array_equal(whole[row, k].view(np.int64), single.view(np.int64))
            tm = TransferMatrix("x", stack.matrices[row, k])
            assert np.array_equal(_bits(corrections[row, k]), _bits(teleport.correction_unitary(tm)))


def test_schmidt_is_the_reference_decomposition():
    rng = np.random.default_rng(55)
    for trial in range(50):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        if trial % 5 == 0:
            amps = np.kron(amps[:2], amps[2:])
        state = make_state(("a", "b"), amps)
        form = qcore.schmidt(state)
        u, sv, v = reference_svd2(state.amps.reshape(2, 2))
        assert form.coeffs == sv
        assert np.array_equal(_bits(form.basis_a), _bits(u))
        assert np.array_equal(_bits(form.basis_b), _bits(v.conj()))


@pytest.mark.parametrize("scale", [1e70, 1e160, 1e300, 2.0**600])
def test_large_matrices_are_rescaled(scale):
    # the Gram of an entry above about 1e77 overflows; the polar factor
    # of M is that of M / max|M|, and with the largest entry of modulus 1
    # that division undoes a power-of-two scale exactly
    rng = np.random.default_rng(56)
    mats = _gaussian(rng, 40)
    mats /= 2.0 * np.abs(mats).max(axis=(1, 2))[:, None, None]
    mats[:, 0, 0] = np.tile([1.0, -1.0, 1j, -1j], 10)
    corrections = teleport._corrections(scale * mats)
    assert np.all(np.isfinite(corrections))
    eye = np.broadcast_to(PAULI_I, corrections.shape)
    np.testing.assert_allclose(corrections @ corrections.conj().swapaxes(-1, -2), eye, atol=1e-14)
    unscaled = teleport._corrections(mats)
    if scale == 2.0**600:
        assert np.array_equal(_bits(corrections), _bits(unscaled))
    np.testing.assert_allclose(corrections, unscaled, rtol=0, atol=1e-14)
    tm = TransferMatrix("x", scale * mats[0])
    assert np.array_equal(_bits(teleport.correction_unitary(tm)), _bits(corrections[0]))


def test_corrections_are_scale_invariant():
    # The polar factor of s A is that of A. Without the rescale, the
    # absolute eigenvector floor of _svd2 sends v1 to e0 for largest
    # entries between about 1e-12 and 1e-7, and the antidiagonal matrix at
    # exactly 1e-12 gives NaN.
    rng = np.random.default_rng(57)
    antidiagonal = np.array([[0, 1j], [1, 0]])
    mats = np.concatenate([_gaussian(rng, 40), [antidiagonal]])
    scales = np.concatenate([10.0 ** np.arange(-300.0, 64.25, 0.25), [1e-12, 1e-7, 1e-6, 2e-6]])
    scaled = teleport._corrections(scales[:, None, None, None] * mats)
    unscaled = teleport._corrections(mats)
    np.testing.assert_allclose(unscaled[-1], [[0, 1], [-1j, 0]], rtol=0, atol=1e-15)
    np.testing.assert_allclose(scaled, np.broadcast_to(unscaled, scaled.shape), rtol=0, atol=1e-12)
    # U A = V S V^dag is Hermitian
    product = unscaled @ mats
    np.testing.assert_allclose(product, product.conj().swapaxes(-1, -2), rtol=0, atol=1e-12)


def _assert_polar_factor(u, a):
    """u is a finite unitary and u a is Hermitian positive semidefinite."""
    assert np.all(np.isfinite(u))
    eye = np.broadcast_to(PAULI_I, u.shape)
    np.testing.assert_allclose(u @ u.conj().swapaxes(-1, -2), eye, rtol=0, atol=1e-12)
    p = u @ a / np.abs(a).max(axis=(-2, -1))[..., None, None]
    np.testing.assert_allclose(p, p.conj().swapaxes(-1, -2), rtol=0, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(p) >= -1e-12)


def test_svd_below_the_floor_of_s1_has_no_nan():
    # Below s1 = 1e-12, u1 is e0 whatever a is; for this matrix a v2 lies
    # along e0 too, and the second column of u was 0 / 0.
    antidiagonal = np.array([[0, 1j], [1, 0]])
    mats = np.array([s * antidiagonal for s in (1e-13, 1e-20, 1e-150)])
    u, s, v = qcore._svd2(mats)
    _assert_polar_factor(v @ u.conj().swapaxes(-1, -2), mats)
    np.testing.assert_allclose(u * s[:, None, :] @ v.conj().swapaxes(-1, -2), mats, rtol=1e-12, atol=0)


def test_rank_one_corrections_have_no_nan():
    # Rounding leaves s2 of this rank-one matrix above its floor at some
    # scales, with a v2 along u1; _corrections was all NaN at 169 of these
    # scales, the three named below among them.
    rank_one = np.outer([1, 2j], [3, 1 - 1j])
    scales = 10.0 ** np.arange(-300.0, 64.25, 0.25)
    assert np.all(np.isfinite(teleport._corrections(scales[:, None, None] * rank_one)))
    mats = np.array([s * rank_one for s in (10**-2.5, 10**-4.5, 10**22.25)])
    _assert_polar_factor(teleport._corrections(mats), mats)


def test_zero_matrix_correction():
    assert np.array_equal(teleport._corrections(np.zeros((1, 2, 2))), [PAULI_I])
    with pytest.raises(SingularMatrix):
        teleport.correction_unitary(TransferMatrix("x", np.zeros((2, 2))))


def test_evaluate_inputs_needs_a_stack_of_one_tuple():
    stack = teleport.two_faithful_stack(np.array([0.5, 2.0]), 0)
    with pytest.raises(BadInput):
        teleport.evaluate_inputs(stack, [(1, 0)])
    one = teleport.protocol_branches(ProtocolParams(0.5, 0.5, 0.5))
    assert teleport.evaluate_inputs(one, [(1, 0)]).probabilities.shape == (1, 4)


_PARTS = st.tuples(st.floats(-1.0, 1.0), st.integers(-40, 40))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(_PARTS, min_size=8, max_size=8), st.integers(0, 3))
def test_property_matches_reference_at_any_scale(parts, zeros):
    # mantissa in [-1, 1] times 10^e per real and imaginary part, the
    # first `zeros` entries cleared
    values = np.array([m * 10.0 ** e for m, e in parts])
    mat = (values[:4] + 1j * values[4:]).reshape(1, 2, 2)
    mat.reshape(-1)[:zeros] = 0.0
    assert_matches_reference(mat)
