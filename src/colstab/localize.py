"""The printed form of a ring element over c3.

Matrices never hold localized entries: ``stab.reduce`` returns c3 times the
reduced block, whose entries all have denominator c3.  ``colstab reduce``
prints each block entry from its numerator, cancelling c3 where it divides.
"""

from __future__ import annotations

from .ring import NotDivisibleError, RingElement, format_element


def format_over_c3(num: RingElement) -> str:
    """``num / c3`` in lowest terms: the quotient when c3 divides ``num``
    (zero included), otherwise ``"<num> / c3^1"``."""
    try:
        return format_element(num.divide_exact(num.ring.c(3)))
    except NotDivisibleError:
        return f"{format_element(num)} / c3^1"
