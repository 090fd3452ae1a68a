"""Entanglement swapping: joint state, outcome analysis, reliability
conditions, closed-form probability cross-checks."""

import cmath
import math

import numpy as np
import pytest

from register_reference import swap_inputs
from teleportrix import qcore
from teleportrix.ebasis import BasisParams, basis_entropy, general_basis
from teleportrix.errors import NonFinite
from teleportrix.swap import (
    SwapParams,
    classify_swap,
    phase_matched_choice,
    swap_run,
    three_outcome_swap_probability,
    two_outcome_choice,
    two_outcome_swap_probability,
)

RT2 = 1.0 / math.sqrt(2.0)


def random_modulus(rng, lo=0.2, hi=0.9):
    return rng.uniform(lo, hi)


def random_phase(rng):
    return cmath.exp(1j * rng.uniform(0, 2 * math.pi))


def random_complex(rng, lo=0.2, hi=2.0):
    return random_modulus(rng, lo, hi) * random_phase(rng)


class TestSwapInputs:
    def test_two_bell_pairs(self):
        joint = swap_inputs(1, 1)
        assert joint.qubits == ("a", "b", "1", "2")
        expected = np.kron([RT2, 0, 0, RT2], [0, RT2, RT2, 0])
        np.testing.assert_allclose(joint.amps, expected, atol=1e-15)

    def test_product_times_bell(self):
        joint = swap_inputs(0, 1)
        expected = np.kron([1, 0, 0, 0], [0, RT2, RT2, 0])
        np.testing.assert_allclose(joint.amps, expected, atol=1e-15)

    def test_prefactors(self):
        joint = swap_inputs(0.5, 2)
        mw, nw = 1 / math.sqrt(1.25), 1 / math.sqrt(5)
        assert abs(joint.amps[0b0001]) == pytest.approx(mw * nw, abs=1e-12)
        assert abs(joint.amps[0b1110]) == pytest.approx(mw * 0.5 * nw * 2, abs=1e-12)

    def test_non_finite(self):
        with pytest.raises(NonFinite):
            swap_inputs(float("inf"), 1)


class TestSwapRun:
    def test_all_bell_case_fully_reliable(self):
        outcomes = swap_run(SwapParams(1, 1, 1, 1, 1, 1))
        for o in outcomes:
            assert o.reliable
            assert o.probability == pytest.approx(0.25, abs=1e-12)
            assert o.b2_entropy == pytest.approx(1.0, abs=1e-9)

    def test_tutorial_choice_two_reliable(self):
        params = two_outcome_choice(0.5, 1.6)
        outcomes = {o.label: o for o in swap_run(params)}
        assert outcomes["PhiPlus"].reliable
        assert outcomes["PhiPlus"].target == "PsiPlus"
        assert outcomes["PsiPlus"].reliable
        assert outcomes["PsiPlus"].target == "PhiPlus"
        assert not outcomes["PhiMinus"].reliable
        assert not outcomes["PsiMinus"].reliable
        total = sum(o.probability for o in outcomes.values() if o.reliable)
        assert total == pytest.approx(two_outcome_swap_probability(0.5, 1.6), abs=1e-12)

    def test_reciprocal_moduli_three_reliable(self):
        # |m| = 1/|n| puts the two resources at equal entanglement, so a
        # third outcome (PhiMinus) becomes reliable; the designated
        # PhiPlus/PsiPlus pair still carries the two-outcome closed form.
        params = two_outcome_choice(0.5, 2)
        outcomes = {o.label: o for o in swap_run(params)}
        reliable = {label for label, o in outcomes.items() if o.reliable}
        assert reliable == {"PhiPlus", "PhiMinus", "PsiPlus"}
        designated = outcomes["PhiPlus"].probability + outcomes["PsiPlus"].probability
        assert designated == pytest.approx(0.32, abs=1e-12)
        assert designated == pytest.approx(two_outcome_swap_probability(0.5, 2), abs=1e-12)
        total = sum(o.probability for o in outcomes.values() if o.reliable)
        assert total == pytest.approx(0.48, abs=1e-12)
        assert total == pytest.approx(three_outcome_swap_probability(2), abs=1e-12)

    def test_equal_moduli_three_reliable(self):
        params = two_outcome_choice(0.5, 0.5)
        outcomes = {o.label: o for o in swap_run(params)}
        reliable = {label for label, o in outcomes.items() if o.reliable}
        assert reliable == {"PhiPlus", "PsiPlus", "PsiMinus"}
        total = sum(o.probability for o in outcomes.values() if o.reliable)
        assert total == pytest.approx(0.48, abs=1e-12)

    def test_reliable_outcome_matches_target_vector(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            params = two_outcome_choice(random_complex(rng), random_complex(rng))
            primed = general_basis(BasisParams(params.ell_prime, params.p_prime))
            for o in swap_run(params):
                if o.reliable:
                    target = qcore.PureState(("b", "2"), primed.vectors[o.target].amps)
                    assert qcore.fidelity(o.b2_state, target) == pytest.approx(1.0, abs=1e-9)

    def test_probability_conservation_random(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            params = SwapParams(*(random_complex(rng, 0.0, 2.0) for _ in range(6)))
            outcomes = swap_run(params)
            assert abs(sum(o.probability for o in outcomes) - 1.0) < 1e-10


class TestClosedForms:
    def test_reference_values(self):
        assert two_outcome_swap_probability(1, 1) == pytest.approx(0.5, abs=1e-15)
        assert two_outcome_swap_probability(0, 2) == pytest.approx(4 / 25, abs=1e-15)
        assert two_outcome_swap_probability(0.5, 0) == pytest.approx(0.16, abs=1e-15)
        assert two_outcome_swap_probability(0.5, 2) == pytest.approx(0.32, abs=1e-15)
        assert three_outcome_swap_probability(1) == pytest.approx(0.75, abs=1e-15)
        assert three_outcome_swap_probability(0.5) == pytest.approx(0.48, abs=1e-15)

    def test_printed_form_equals_simplified_form(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = random_complex(rng)
            n2 = abs(n) ** 2
            assert three_outcome_swap_probability(n) == pytest.approx(
                3 * n2 / (1 + n2) ** 2, abs=1e-13
            )

    def test_three_outcome_form_at_maximal_entanglement(self):
        # At m = n = 1 every outcome is reliable (0.25 each); the three
        # outcomes the matched case designates sum to the closed form.
        outcomes = {o.label: o for o in swap_run(two_outcome_choice(1.0, 1.0))}
        assert all(o.reliable for o in outcomes.values())
        designated = sum(outcomes[label].probability
                         for label in ("PhiPlus", "PsiPlus", "PsiMinus"))
        assert designated == pytest.approx(three_outcome_swap_probability(1), abs=1e-12)

    def test_three_outcome_is_1p5_times_two_outcome_at_equal_moduli(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = random_complex(rng)
            assert three_outcome_swap_probability(n) == pytest.approx(
                1.5 * two_outcome_swap_probability(n, n), abs=1e-13
            )

    def test_brute_force_matches_two_outcome_form(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            m, n = random_complex(rng), random_complex(rng)
            if abs(abs(m) - abs(n)) < 1e-3 or abs(abs(m) * abs(n) - 1) < 1e-3:
                continue
            outcomes = swap_run(two_outcome_choice(m, n))
            total = sum(o.probability for o in outcomes if o.reliable)
            assert abs(total - two_outcome_swap_probability(m, n)) < 1e-12

    def test_brute_force_matches_three_outcome_form_both_subcases(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            r = random_modulus(rng)
            n = r * random_phase(rng)
            for m in (r * random_phase(rng), (1 / r) * random_phase(rng)):
                outcomes = swap_run(two_outcome_choice(m, n))
                reliable = [o for o in outcomes if o.reliable]
                assert len(reliable) == 3
                total = sum(o.probability for o in reliable)
                assert abs(total - three_outcome_swap_probability(n)) < 1e-12


class TestStandardSwapping:
    def test_phase_resources_with_non_bell_bases(self):
        # Both resources maximally entangled (pure phases) while the
        # measurement and analysis bases are not; every outcome stays
        # reliable and hands (b, 2) a vector of the primed family, so the
        # swapped entanglement equals that family's entropy.
        rng = np.random.default_rng(16)
        for _ in range(100):
            m, n = random_phase(rng), random_phase(rng)
            ell, p = random_complex(rng), random_complex(rng)
            params = phase_matched_choice(m, n, ell, p)
            assert abs(abs(params.ell) - abs(params.p_prime)) < 1e-12
            assert abs(abs(params.p) - abs(params.ell_prime)) < 1e-12
            outcomes = swap_run(params)
            expected_entropy = {
                "PhiPlus": basis_entropy(params.p_prime),
                "PhiMinus": basis_entropy(params.p_prime),
                "PsiPlus": basis_entropy(params.ell_prime),
                "PsiMinus": basis_entropy(params.ell_prime),
            }
            for o in outcomes:
                assert o.reliable
                assert abs(o.b2_entropy - expected_entropy[o.label]) < 1e-9

    def test_reliability_invariant_under_consistent_phase_rotation(self):
        # Rotating m by a phase while propagating it through the
        # condition equations (p and p' pick up the same phase, l, l', n
        # stay fixed) must not change which outcomes are reliable.
        rng = np.random.default_rng(18)
        for _ in range(50):
            m, n = random_complex(rng), random_complex(rng)
            base = two_outcome_choice(m, n)
            before = tuple(o.reliable for o in swap_run(base))
            assert any(before)
            theta = random_phase(rng)
            rotated = SwapParams(
                m * theta, n, base.ell, base.p * theta,
                base.ell_prime, base.p_prime * theta,
            )
            after = tuple(o.reliable for o in swap_run(rotated))
            assert before == after


class TestClassifySwap:
    def test_standard_case_deterministic(self):
        report = classify_swap(SwapParams(1, 1, 1, 1, 1, 1))
        assert report.regime == "Deterministic"
        assert report.success_probability == pytest.approx(1.0, abs=1e-12)
        assert report.phi_branch_conditions
        assert report.psi_branch_conditions

    def test_two_outcome_regime(self):
        report = classify_swap(two_outcome_choice(0.5, 1.6))
        assert report.regime == "Probabilistic(k=2)"
        assert set(report.reliable_outcomes) == {"PhiPlus", "PsiPlus"}
        assert report.success_probability == pytest.approx(
            two_outcome_swap_probability(0.5, 1.6), abs=1e-12
        )
        assert not (report.phi_branch_conditions and report.psi_branch_conditions)

    def test_single_condition_one_reliable(self):
        # l = 1/n*, p' = m and nothing else constrained (including m, n
        # themselves: their moduli must stay unrelated).
        m, n = 0.5, 1.7
        params = SwapParams(m, n, 1 / np.conj(n), 0.7 + 0.3j, 1.9, m)
        report = classify_swap(params)
        assert report.regime == "Probabilistic(k=1)"
        assert report.reliable_outcomes == ("PhiPlus",)

    def test_overflowed_product_matches_nothing(self):
        # p' = 1e10 against m n l* = 1e310, which overflows to inf: the check
        # |p' - inf| <= TOL_EQ * inf used to hold
        report = classify_swap(SwapParams(1e150, 1e150, 1e10, 1, 1, 1e10))
        assert not report.phi_branch_conditions
        assert report.regime == "Probabilistic(k=1)"

    def test_unrelated_parameters_give_nothing(self):
        params = SwapParams(0.5, 2, 0.3, 0.9, 1.4, 0.8 + 0.2j)
        report = classify_swap(params)
        assert report.regime == "NoReliable"
        assert report.success_probability == 0.0
