"""Ring elements carried over a power of c_3.

A localized element stores value = num * c3^(-denom_exp) and keeps the pair
normalized: either the denominator exponent is zero or c3 does not divide the
numerator.  Matrices never hold these: ``stab.reduce`` returns c3 times the
reduced block, whose entries all lie in the depth-one module.  A localized
element is the printed and decomposed form of one such entry over c3.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ring import (
    ColstabError,
    NotDivisibleError,
    RingElement,
    _divide_c,
    c_adic_decompose,
)


class DenomTooDeepError(ColstabError):
    pass


PIVOT = 3


class LocalizedElement:
    """num / c3^denom_exp over a ring with at least three variables."""

    __slots__ = ("num", "denom_exp", "_hash")

    def __init__(self, num: RingElement, denom_exp: int = 0):
        if num.ring.nvars < PIVOT:
            raise ValueError("localization needs at least three variables")
        if denom_exp < 0:
            raise ValueError("denominator exponent must be >= 0")
        if num.is_zero:
            denom_exp = 0
        while denom_exp > 0:
            try:
                num = _divide_c(num, PIVOT)
            except NotDivisibleError:
                break
            denom_exp -= 1
        self.num = num
        self.denom_exp = denom_exp
        self._hash = None

    @property
    def ring(self):
        return self.num.ring

    def __eq__(self, other):
        if not isinstance(other, LocalizedElement):
            return NotImplemented
        return self.denom_exp == other.denom_exp and self.num == other.num

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.denom_exp))
        return self._hash

    def __str__(self):
        if self.denom_exp == 0:
            return str(self.num)
        return f"{self.num} / c3^{self.denom_exp}"

    def __repr__(self):
        return f"LocalizedElement({self!s})"


@dataclass(frozen=True)
class LocDecomposition:
    """f = pole * c3^-1 + sum_i heads[i] * c3^i + tail * c3^depth."""

    pole: RingElement
    heads: tuple
    tail: RingElement

    def reconstruct(self) -> LocalizedElement:
        c3 = self.tail.ring.c(PIVOT)
        num = self.tail
        for head in reversed(self.heads):
            num = num * c3 + head
        return LocalizedElement(self.pole + num * c3, 1)


def loc_decompose(f: LocalizedElement, t: int) -> LocDecomposition:
    """Split f along powers of c3 from the pole up to depth t.

    The pole and the heads are free of variable 3; the tail may involve it.
    Inputs with denominator exponent >= 2 lie outside the depth-one module and
    are rejected.
    """
    if t < 0:
        raise ValueError("depth must be >= 0")
    if f.denom_exp >= 2:
        raise DenomTooDeepError(
            f"denominator exponent {f.denom_exp} exceeds the depth-one module"
        )
    ring = f.ring
    if f.denom_exp == 0:
        if t == 0:
            return LocDecomposition(ring.zero, (), f.num)
        dec = c_adic_decompose(f.num, PIVOT, t)
        return LocDecomposition(ring.zero, dec.heads, dec.tail)
    dec = c_adic_decompose(f.num, PIVOT, t + 1)
    return LocDecomposition(dec.heads[0], dec.heads[1:], dec.tail)
