"""Laurent stabilizers from Fox calculus, which shares no code with colstab:
certification, the two residue routes, the homomorphism rho and the chain
rule on them."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from colstab import Coeff, Mode, RingDescriptor, check_stab, residues, residues_closed_form, rho
from colstab.matrix import transvection

import fox

LAURENT = [RingDescriptor(Mode.LAURENT, 3, coeff) for coeff in Coeff]


def _ring_id(ring):
    return ring.coeff.value


# Compositions of up to three generators; a commutator multiplication makes
# a word five times longer, so three keeps every entry small.
automorphisms = st.lists(st.sampled_from(sorted(fox.GENERATORS)), max_size=3).map(
    lambda names: _compose_all(fox.GENERATORS[name] for name in names)
)


def _compose_all(generators):
    phi = fox.IDENTITY
    for generator in generators:
        phi = fox.compose(phi, generator)
    return phi


def test_fox_row_of_a_conjugation():
    # d(x3^-1 x1 x3)/dx1 = x3^-1 and d/dx3 = -x3^-1 + x3^-1 x1.
    assert fox.fox_row((-3, 1, 3)) == [{(0, 0, -1): 1}, {}, {(0, 0, -1): -1, (1, 0, -1): 1}]
    assert fox.compose(fox.conjugation(1, 3), fox.conjugation(1, 3))[0] == (-3, -3, 1, 3, 3)


@pytest.mark.parametrize("ring", LAURENT, ids=_ring_id)
@pytest.mark.parametrize("i, sign", [(1, -1), (2, 1)])
def test_conjugation_by_x3_maps_to_a_mixed_transvection(ring, i, sign):
    # x1 -> x3^-1 x1 x3 and x2 -> x3^-1 x2 x3 map to t21(-c1*c2) and
    # t21(c1*c2), the targets no tame word reaches.
    a = check_stab(fox.jacobian(ring, fox.conjugation(i, 3)))
    c1, c2 = ring.c(1), ring.c(2)
    assert a.mat.det() == ring.parse("a3^-1")
    assert rho(a).mat == transvection(ring, 2, 2, 1, sign * c1 * c2)
    assert residues(a) == residues_closed_form(a)


@pytest.mark.parametrize("ring", LAURENT, ids=_ring_id)
@settings(max_examples=40, deadline=None)
@given(phi=automorphisms, psi=automorphisms)
def test_fox_jacobians_are_certified_stabilizers(ring, phi, psi):
    a = check_stab(fox.jacobian(ring, phi))
    b = check_stab(fox.jacobian(ring, psi))
    assert residues(a) == residues_closed_form(a)
    assert rho(a * b).mat == rho(a).mat * rho(b).mat
    # The chain rule, abelianized: phi acts trivially on the abelianization,
    # so J(phi after psi) = J(psi) * J(phi), with no matrix product in the
    # source.
    assert fox.jacobian(ring, fox.compose(phi, psi)) == b.mat * a.mat
    if ring.coeff is Coeff.RATIONALS:
        coeffs = [c for row in a.mat.rows for x in row for c in x.terms.values()]
        assert all(isinstance(c, Fraction) for c in coeffs)
