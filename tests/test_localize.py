import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from colstab import format_element
from colstab.localize import format_over_c3

from conftest import LAUR3, POLY3, elements


def test_zero_prints_as_zero(ring3):
    assert format_over_c3(ring3.zero) == "0"


def test_normalization_strips_common_pivot_factors(ring3):
    c3 = ring3.c(3)
    assert format_over_c3(ring3.var(1) * c3) == "a1"
    # the denominator is c3 itself, so only one factor cancels
    assert format_over_c3(ring3.var(1) * c3 * c3) == format_element(ring3.var(1) * c3)
    assert format_over_c3(ring3.one) == "1 / c3^1"


@pytest.mark.parametrize("ring", [POLY3, LAUR3], ids=["polynomial", "laurent"])
@settings(deadline=None)
@given(data=st.data())
def test_multiples_of_c3_print_as_the_quotient(ring, data):
    g = data.draw(elements(ring))
    assert format_over_c3(g * ring.c(3)) == format_element(g)


@pytest.mark.parametrize("ring", [POLY3, LAUR3], ids=["polynomial", "laurent"])
@settings(deadline=None)
@given(data=st.data())
def test_indivisible_numerators_print_over_c3(ring, data):
    g = data.draw(elements(ring))
    # c3 divides g exactly when g vanishes at the base point of variable 3
    assume(not g.specialize(3).is_zero)
    assert format_over_c3(g) == f"{format_element(g)} / c3^1"
