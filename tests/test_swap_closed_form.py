"""The two-outcome swap closed form stays finite where its product form is not."""

import pytest

from teleportrix.swap import two_outcome_swap_probability


def _product_form(m, n):
    m2, n2 = abs(m) ** 2, abs(n) ** 2
    m4, n4 = 1.0 / (1.0 + m2) ** 2, 1.0 / (1.0 + n2) ** 2
    return m4 * n4 * (n2 * (1.0 + m2) ** 2 + m2 * (1.0 + n2) ** 2)


@pytest.mark.parametrize("mod,expected", [(1e60, 2e-120), (1e76, 2e-152)])
def test_large_equal_moduli_give_the_two_term_form(mod, expected):
    assert two_outcome_swap_probability(mod, mod) == pytest.approx(expected, rel=1e-12, abs=0)


def test_large_unequal_complex_moduli_give_the_two_term_form():
    assert two_outcome_swap_probability(1e60j, -1e76) == pytest.approx(1e-120 + 1e-152, rel=1e-12, abs=0)


@pytest.mark.parametrize("m,n", [(1, 1), (0.5, 1.6), (0.3 - 0.4j, 2j), (1e-7, 1e7), (1e30, 1e30), (0, 3)])
def test_finite_product_form_is_kept_bit_for_bit(m, n):
    assert two_outcome_swap_probability(m, n) == _product_form(m, n)


@pytest.mark.parametrize("mod,expected", [(1e40, 2e-80), (1e45, 2e-90), (1e60, 2e-120)])
def test_subnormal_weight_product_gives_the_two_term_form(mod, expected):
    # M^4 N^4 is subnormal at 1e40 (digits lost) and 0 from about 1e41;
    # abs=0, since approx's default absolute tolerance of 1e-12 would
    # accept any of these tiny values, 0 included
    assert two_outcome_swap_probability(mod, mod) == pytest.approx(expected, rel=1e-12, abs=0)
