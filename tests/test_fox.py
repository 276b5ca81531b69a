"""Laurent stabilizers from Fox calculus, which shares no code with colstab:
certification, the two residue routes, the homomorphism rho, the chain rule,
determinant multiplicativity and the preimage of an image on them."""

from fractions import Fraction

import pytest
from hypothesis import event, given, settings

from colstab import (
    Coeff,
    Mode,
    RingDescriptor,
    check_stab,
    identity,
    preimage,
    residues,
    residues_closed_form,
    rho,
)
from colstab.matrix import transvection
from colstab.stab import _rank_one_adjugate

import fox
from conftest import automorphisms

LAURENT = [RingDescriptor(Mode.LAURENT, 3, coeff) for coeff in Coeff]


def _ring_id(ring):
    return ring.coeff.value


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


@pytest.mark.parametrize("ring", LAURENT, ids=_ring_id)
@settings(max_examples=40, deadline=None)
@given(phi=automorphisms, psi=automorphisms)
def test_fox_determinants_multiply_through_check_stab(ring, phi, psi):
    # check_stab's determinant, of J(psi after phi) = J(phi) * J(psi) taken
    # from the composition, with no matrix product, and of each factor.
    dets = [
        _rank_one_adjugate(check_stab(fox.jacobian(ring, x)).mat)[1]
        for x in (fox.compose(psi, phi), phi, psi)
    ]
    assert dets[0] == dets[1] * dets[2]
    assert all(d.is_unit() for d in dets)


@pytest.mark.parametrize("ring", LAURENT, ids=_ring_id)
@settings(max_examples=40, deadline=None)
@given(phi=automorphisms)
def test_a_lifted_fox_image_leaves_a_kernel_member(ring, phi):
    # ker rho is larger than H, so the quotient is tested by its image.
    a = check_stab(fox.jacobian(ring, phi))
    report = preimage(rho(a))
    event(report.status)
    if report.ok:
        assert rho(a * report.preimage.inverse()).mat == identity(ring, 2)
