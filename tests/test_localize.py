import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colstab import DenomTooDeepError, LocalizedElement, loc_decompose

from conftest import LAUR3, POLY3, elements


def test_normalization_strips_common_pivot_factors(ring3):
    c3 = ring3.c(3)
    f = LocalizedElement(ring3.var(1) * c3 * c3, 2)
    assert f.denom_exp == 0
    assert f.num == ring3.var(1)
    again = LocalizedElement(f.num, f.denom_exp)
    assert again == f


def test_equality_through_normalization(ring3):
    c3 = ring3.c(3)
    f = LocalizedElement(ring3.var(2) * c3, 1)
    g = LocalizedElement(ring3.var(2), 0)
    assert f == g
    assert hash(f) == hash(g)


def test_localized_elements_carry_no_arithmetic():
    for name in ("__add__", "__sub__", "__mul__", "__neg__", "unit_inverse"):
        assert not hasattr(LocalizedElement, name)


def test_decompose_examples():
    one_over = LocalizedElement(LAUR3.one, 1)
    dec = loc_decompose(one_over, 2)
    assert dec.pole == LAUR3.one
    assert all(h.is_zero for h in dec.heads)
    assert dec.tail.is_zero

    f = LocalizedElement(LAUR3.var(1) * LAUR3.c(3) + LAUR3.var(2), 1)
    dec = loc_decompose(f, 1)
    assert dec.pole == LAUR3.var(2)
    assert dec.heads == (LAUR3.var(1),)
    assert dec.tail.is_zero
    assert dec.reconstruct() == f

    with pytest.raises(DenomTooDeepError):
        loc_decompose(LocalizedElement(LAUR3.var(1), 2), 1)


@pytest.mark.parametrize("ring", [POLY3, LAUR3], ids=["polynomial", "laurent"])
@settings(deadline=None)
@given(data=st.data())
def test_decompose_reconstructs(ring, data):
    g = data.draw(elements(ring))
    e = data.draw(st.integers(0, 1))
    t = data.draw(st.integers(1, 3))
    f = LocalizedElement(g, e)
    if f.denom_exp > 1:
        return
    dec = loc_decompose(f, t)
    assert dec.reconstruct() == f
    assert dec.pole.free_of(3)
    for head in dec.heads:
        assert head.free_of(3)
