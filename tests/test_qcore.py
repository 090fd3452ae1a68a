"""Register algebra: construction, tensor, partial trace, Schmidt
decomposition, entropy, fidelity."""

import math

import numpy as np
import pytest

from teleportrix import qcore
from teleportrix.errors import (
    BadSubset,
    LabelCollision,
    LabelMismatch,
    NormalizationError,
    ShapeError,
)
from teleportrix.qcore import (
    DensityMatrix,
    PureState,
    entropy,
    fidelity,
    make_state,
    reduced_density,
    schmidt,
    tensor,
)

from register_reference import basis_state

RT2 = 1.0 / math.sqrt(2.0)


def haar_state(labels, rng):
    vec = rng.normal(size=2 ** len(labels)) + 1j * rng.normal(size=2 ** len(labels))
    return make_state(labels, vec)


class TestMakeState:
    def test_basis_state(self):
        s = make_state(("a",), (1, 0))
        np.testing.assert_allclose(s.amps, [1, 0])

    def test_normalizes_input(self):
        s = make_state((1, 2), (1, 0, 0, 1))
        np.testing.assert_allclose(s.amps, [RT2, 0, 0, RT2], atol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(NormalizationError, match="^cannot normalize a zero vector$"):
            make_state(("a",), (0, 0))

    # |v|^2 of 2e-14 and 2.5e-13 once fell under an absolute floor of 1e-12, of 1e-400
    # underflowed to 0 and of 1e400 or 2e320 overflowed: each is the unit vector it scales to
    @pytest.mark.parametrize("vec, unit", [([1e-7, 1e-7], [RT2, RT2]), ([3e-7, 4e-7j], [0.6, 0.8j]),
                                           ([1e-200, 0], [1, 0]), ([1e200, 0], [1, 0]),
                                           ([1e160, 1e160], [RT2, RT2])])
    def test_any_nonzero_scale_normalizes(self, vec, unit):
        amps, unit = make_state(("a",), vec).amps, np.array(unit, dtype=complex)
        for got, want in ((amps.real, unit.real), (amps.imag, unit.imag)):
            np.testing.assert_allclose(got, want, rtol=4 * np.finfo(float).eps, atol=0.0)

    def test_smallest_subnormal_normalizes_exactly(self):
        assert make_state(("a",), [5e-324, 0]).amps.tolist() == [1, 0]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            make_state(("a", "b"), (1, 0))

    def test_duplicate_labels(self):
        with pytest.raises(LabelCollision):
            make_state(("a", "a"), (1, 0, 0, 0))

    def test_non_finite_amplitudes(self):
        with pytest.raises(NormalizationError):
            make_state(("a",), (float("nan"), 0))

    def test_direct_constructor_requires_unit_norm(self):
        with pytest.raises(NormalizationError):
            PureState(("a",), np.array([0.9, 0.0]))


class TestTensor:
    def test_basis_product(self):
        s = tensor(basis_state(("a",), "0"), basis_state(("b",), "1"))
        assert s.qubits == ("a", "b")
        np.testing.assert_allclose(s.amps, [0, 1, 0, 0])

    def test_input_times_resource_expansion(self):
        # (alpha, beta) on a joined with N (|00> + n |11>) on (1, 2) has
        # exactly the four terms N (alpha |000> + alpha n |011>
        # + beta |100> + beta n |111>) with a as the leading bit.
        alpha, beta = 0.6, 0.8j
        n = 0.5 - 0.25j
        nw = 1.0 / math.sqrt(1.0 + abs(n) ** 2)
        left = make_state(("a",), (alpha, beta))
        right = make_state(("1", "2"), (1, 0, 0, n))
        joint = tensor(left, right)
        expected = np.zeros(8, dtype=complex)
        expected[0b000] = nw * alpha
        expected[0b011] = nw * alpha * n
        expected[0b100] = nw * beta
        expected[0b111] = nw * beta * n
        np.testing.assert_allclose(joint.amps, expected, atol=1e-15)

    def test_plus_plus_uniform(self):
        plus = make_state(("a",), (1, 1))
        s = tensor(plus, make_state(("b",), plus.amps))
        np.testing.assert_allclose(s.amps, [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_label_collision(self):
        with pytest.raises(LabelCollision):
            tensor(basis_state(("a",), "0"), basis_state(("a",), "0"))


class TestApplyUnitary:
    """Local unitaries, applied to the amplitudes as np.kron of the two one-qubit matrices."""

    def test_entropy_invariant_under_local_unitary(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            s = haar_state(("a", "b"), rng)
            base = entropy(reduced_density(s, ("a",)))
            local = np.kron(random_unitary(rng), random_unitary(rng))  # U_a (x) U_b on register (a, b)
            rotated = make_state(s.qubits, local @ s.amps)
            assert abs(entropy(reduced_density(rotated, ("a",))) - base) < 1e-9


def random_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestReducedDensity:
    def test_bell_reduction_is_mixed(self):
        bell = make_state(("1", "2"), (1, 0, 0, 1))
        rho = reduced_density(bell, ("1",))
        np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-12)

    def test_product_state_rank_one(self):
        s = tensor(make_state(("a",), (0.6, 0.8)), basis_state(("b",), "0"))
        rho = reduced_density(s, ("a",))
        evals = np.linalg.eigvalsh(rho.entries)
        np.testing.assert_allclose(sorted(evals), [0.0, 1.0], atol=1e-12)

    def test_resource_reduction_diagonal(self):
        n = 0.5
        s = make_state(("1", "2"), (1, 0, 0, n))
        rho = reduced_density(s, ("2",))
        np.testing.assert_allclose(rho.entries, np.diag([0.8, 0.2]), atol=1e-12)

    def test_bad_subsets(self):
        s = make_state(("1", "2"), (1, 0, 0, 1))
        with pytest.raises(BadSubset):
            reduced_density(s, ())
        with pytest.raises(BadSubset):
            reduced_density(s, ("1", "2"))
        with pytest.raises(BadSubset):
            reduced_density(s, ("z",))

    def test_schmidt_symmetry_of_entropy(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            s = haar_state(("a", "b", "c"), rng)
            ea = entropy(reduced_density(s, ("a",)))
            ebc = entropy(reduced_density(s, ("b", "c")))
            assert abs(ea - ebc) < 1e-9
        for _ in range(100):
            s = haar_state(("a", "b", "c", "d"), rng)
            e1 = entropy(reduced_density(s, ("a", "c")))
            e2 = entropy(reduced_density(s, ("b", "d")))
            assert abs(e1 - e2) < 1e-9


class TestSchmidt:
    def test_resource_state_coefficients(self):
        for n in (0.5, 2.0, 0.3 + 0.4j):
            nw = 1.0 / math.sqrt(1.0 + abs(n) ** 2)
            s = make_state(("1", "2"), (1, 0, 0, n))
            form = schmidt(s)
            expected = sorted([nw, nw * abs(n)], reverse=True)
            np.testing.assert_allclose(form.coeffs, expected, atol=1e-12)

    def test_product_state(self):
        form = schmidt(basis_state(("a", "b"), "00"))
        np.testing.assert_allclose(form.coeffs, [1.0, 0.0], atol=1e-12)

    def test_bell_state(self):
        form = schmidt(make_state(("a", "b"), (1, 0, 0, 1)))
        np.testing.assert_allclose(form.coeffs, [RT2, RT2], atol=1e-12)

    def test_rejects_wrong_size(self):
        with pytest.raises(ShapeError):
            schmidt(basis_state(("a",), "0"))

    def test_reconstruction_on_random_states(self):
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(1000):
            s = haar_state(("a", "b"), rng)
            form = schmidt(s)
            for basis in (form.basis_a, form.basis_b):
                assert np.max(np.abs(basis.conj().T @ basis - np.eye(2))) < 1e-9
            worst = max(worst, float(np.max(np.abs(form.reconstruct() - s.amps))))
        assert worst <= 1e-9


class TestEntropy:
    def test_maximally_mixed(self):
        assert entropy(DensityMatrix(np.eye(2) / 2)) == pytest.approx(1.0, abs=1e-12)

    def test_pure_projector(self):
        assert entropy(DensityMatrix(np.diag([1.0, 0.0]))) == pytest.approx(0.0, abs=1e-12)

    def test_binary_weights(self):
        expected = -(0.8 * math.log2(0.8) + 0.2 * math.log2(0.2))
        got = entropy(DensityMatrix(np.diag([0.8, 0.2])))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.7219280948873623, abs=1e-12)

    def test_density_matrix_validation(self):
        with pytest.raises(ShapeError):
            DensityMatrix(np.array([[1.0, 0.5], [0.0, 0.0]]))
        with pytest.raises(ShapeError):
            DensityMatrix(np.diag([0.7, 0.7]))

    @pytest.mark.parametrize("entry", [float("nan"), float("inf")], ids=repr)
    def test_density_matrix_with_a_non_finite_entry_is_rejected(self, entry):
        with pytest.raises(NormalizationError):
            DensityMatrix([[entry, 0.0], [0.0, 1.0]])


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(29)
        s = haar_state(("a", "b"), rng)
        assert fidelity(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert fidelity(basis_state(("a",), "0"), basis_state(("a",), "1")) == 0.0

    def test_half_overlap(self):
        plus = make_state(("a",), (1, 1))
        assert fidelity(basis_state(("a",), "0"), plus) == pytest.approx(0.5, abs=1e-12)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(31)
        s = haar_state(("a",), rng)
        phased = PureState(("a",), s.amps * np.exp(0.7j))
        assert fidelity(s, phased) == pytest.approx(1.0, abs=1e-12)

    def test_register_order_alignment(self):
        s = basis_state(("a", "b"), "01")
        flipped = basis_state(("b", "a"), "10")
        assert fidelity(s, flipped) == pytest.approx(1.0, abs=1e-12)

    def test_label_mismatch(self):
        with pytest.raises(LabelMismatch):
            fidelity(basis_state(("a",), "0"), basis_state(("b",), "0"))
