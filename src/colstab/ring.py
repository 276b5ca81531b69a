"""Exact sparse arithmetic in polynomial and Laurent polynomial rings.

Elements live in K[a1, ..., an] (polynomial mode) or K[a1^{+-1}, ..., an^{+-1}]
(Laurent mode) with K the integers or the rationals.  Each variable carries a
distinguished element c_i: the variable itself in polynomial mode, a_i - 1 in
Laurent mode.  The c_i vanish at the base point (all zeros, respectively all
ones) and generate the augmentation ideal.

Monomials are packed exponent vectors (Monagan and Pearce): one Python int
per monomial with a fixed-width field per variable, variable 1 in the most
significant field, each field holding its exponent plus a bias so that
Laurent exponents fit too.  Integer order of the keys is lexicographic order
of the exponent vectors, a product of two monomials is one integer addition,
and one variable's exponent is read or replaced with a shift and a mask.
Exponents are bounded in magnitude by ``MAX_EXPONENT``, the number of
variables by ``MAX_NVARS`` and a decomposition depth by ``MAX_DEPTH``.
"""

from __future__ import annotations

import functools
import re
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import repeat
from operator import lshift

MAX_EXPONENT = 1 << 20
"""Largest exponent magnitude an element may carry, in either mode.

The parser rejects a larger exponent with ``ParseError``; a product that
would carry one raises ``ExponentRangeError``.  Keys never wrap silently.
"""

MAX_NVARS = 64
"""Largest variable count; a larger one raises ``OutOfRangeError``.  A key has
one field per variable and a descriptor builds every ``c_i``, so setup memory
grows with the square of the count."""

MAX_DEPTH = 64
"""Largest depth ``c_adic_decompose`` peels and ``c_heads`` reads; a larger
one raises ``OutOfRangeError``.  In Laurent mode ``a_k^-1`` has a nonzero head
at every depth, so the depth alone sets the cost."""

# A field holds exponent + _BIAS.  The bias leaves room for the sum of two
# in-range exponents, so a product of in-range monomials is computed without
# carrying into a neighbouring field before its range is checked.
_FIELD_BITS = MAX_EXPONENT.bit_length() + 2
_BIAS = 1 << (_FIELD_BITS - 1)
_FIELD_MASK = (1 << _FIELD_BITS) - 1


class ColstabError(Exception):
    """Base class for structured failures raised by this package."""


class ParseError(ColstabError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DescriptorMismatchError(ColstabError):
    pass


class NotDivisibleError(ColstabError):
    pass


class NotInIdealError(ColstabError):
    pass


class ExponentRangeError(ColstabError):
    """An exponent of magnitude above ``MAX_EXPONENT`` would be stored."""

    def __init__(self, magnitude: int):
        super().__init__(
            f"exponent of magnitude {_shown(magnitude)} exceeds the limit {MAX_EXPONENT}"
        )


class OutOfRangeError(ColstabError, ValueError):
    """An argument outside the range its operation accepts, such as a
    variable index, coefficient or exponent vector outside the ring's range,
    a letter that is no generator's, or a word longer than
    ``tame.MAX_WORD_LENGTH``."""


def _shown(value, form=str) -> str:
    """``form(value)``, the text of a rejected value in an error message.

    An integer with more digits than Python converts to text,
    ``sys.get_int_max_str_digits()``, is named by its digit count instead,
    in a tuple too, and any other value that will not convert by its type:
    building the message never raises."""
    try:
        return form(value)
    except ValueError:  # past sys.get_int_max_str_digits()
        if isinstance(value, int):
            n, digits = abs(value), max(1, int(value.bit_length() * 0.30103) - 1)
            while n >= 10**digits:
                digits += 1
            return f"<an integer of {digits} digits>"
        if isinstance(value, tuple):
            inner = ", ".join(_shown(x, repr) for x in value)
            return f"({inner},)" if len(value) == 1 else f"({inner})"
        return f"<a {type(value).__name__} too long to print>"


class Mode(Enum):
    POLYNOMIAL = "polynomial"
    LAURENT = "laurent"


class Coeff(Enum):
    INTEGERS = "int"
    RATIONALS = "rat"


_INTERNED: dict = {}


class RingDescriptor:
    """Shape of the coefficient ring: mode, number of variables, coefficient domain.

    Interned: the constructor returns one canonical instance per
    ``(mode, nvars, coeff)``, so rings compare by identity.  ``zero``, ``one``
    and the ``c(i)`` are built once per descriptor.  Instances are immutable.
    """

    __slots__ = ("mode", "nvars", "coeff", "zero", "one", "_c", "_shifts", "_origin")

    def __new__(cls, mode: Mode, nvars: int, coeff: Coeff = Coeff.INTEGERS):
        # Checked before the lookup: 3.0 and True hash as the ints they
        # equal, and a raw "polynomial" or "int" would build a hybrid ring.
        if not isinstance(mode, Mode):
            raise OutOfRangeError(f"mode must be a Mode, not {_shown(mode, repr)}")
        if not isinstance(coeff, Coeff):
            raise OutOfRangeError(f"coeff must be a Coeff, not {_shown(coeff, repr)}")
        if not isinstance(nvars, int) or isinstance(nvars, bool):
            raise OutOfRangeError(f"nvars must be an int, not {_shown(nvars, repr)}")
        key = (mode, nvars, coeff)
        ring = _INTERNED.get(key)
        if ring is not None:
            return ring
        if not 1 <= nvars <= MAX_NVARS:
            raise OutOfRangeError(f"nvars must lie in 1..{MAX_NVARS}")
        ring = super().__new__(cls)

        def init(name, value):
            object.__setattr__(ring, name, value)

        init("mode", mode)
        init("nvars", nvars)
        init("coeff", coeff)
        # Bit offset of each variable's field, variable 1 highest.
        shifts = tuple(_FIELD_BITS * (nvars - 1 - i) for i in range(nvars))
        init("_shifts", shifts)
        # The key of the exponent vector 0: every field at the bias.
        init("_origin", sum(_BIAS << s for s in shifts))
        init("zero", _element(ring, {}, 0))
        init("one", ring.const(1))
        unit = _coerce_coeff(ring, 1)
        variables = [_element(ring, {ring._origin + (1 << s): unit}, 1) for s in shifts]
        if mode is Mode.LAURENT:
            variables = [v - 1 for v in variables]
        init("_c", tuple(variables))
        # setdefault, so that of two threads building one ring both get the first.
        return _INTERNED.setdefault(key, ring)

    def __setattr__(self, name, value):
        raise AttributeError("RingDescriptor is immutable")

    def __reduce__(self):
        return RingDescriptor, (self.mode, self.nvars, self.coeff)

    def __repr__(self):
        return f"RingDescriptor(mode={self.mode}, nvars={self.nvars}, coeff={self.coeff})"

    # -- element constructors -------------------------------------------------

    def const(self, value) -> RingElement:
        value = _coerce_coeff(self, value)
        return _element(self, {self._origin: value} if value else {}, 0)

    def var(self, i: int) -> RingElement:
        """The variable a_i (1-based)."""
        self._check_index(i)
        key = self._origin + (1 << self._shifts[i - 1])
        return _element(self, {key: _coerce_coeff(self, 1)}, 1)

    def c(self, i: int) -> RingElement:
        """The distinguished element c_i: a_i in polynomial mode, a_i - 1 in Laurent mode."""
        self._check_index(i)
        return self._c[i - 1]

    def monomial(self, coeff, exps) -> RingElement:
        key, span = self._pack(exps)
        coeff = _coerce_coeff(self, coeff)
        return _element(self, {key: coeff}, span) if coeff else self.zero

    def parse(self, text: str) -> RingElement:
        return parse_element(self, text)

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.nvars:
            raise OutOfRangeError(f"variable index {_shown(i)} outside 1..{self.nvars}")

    # -- packed monomial keys ---------------------------------------------------

    def _pack(self, exps) -> tuple[int, int]:
        """Key of a validated exponent vector and its largest exponent
        magnitude.  A vector that is not a sequence of integers fails one of
        the steps below with a ``TypeError``, which is raised again as
        ``OutOfRangeError``: no exponent is checked for its type."""
        try:
            vector = tuple(exps)
            if len(vector) != self.nvars:
                raise OutOfRangeError("exponent vector has wrong length")
            low, high = min(vector), max(vector)
            if low < 0 and self.mode is Mode.POLYNOMIAL:
                raise OutOfRangeError("negative exponent in polynomial mode")
            magnitude = max(high, -low)
            if magnitude > MAX_EXPONENT:
                raise ExponentRangeError(magnitude)
            return self._origin + sum(map(lshift, vector, self._shifts)), magnitude
        except TypeError:
            raise OutOfRangeError(
                f"exponent vector must be a sequence of integers, not {_shown(exps, repr)}"
            ) from None

    def _unpack(self, key: int) -> tuple:
        return tuple(((key >> s) & _FIELD_MASK) - _BIAS for s in self._shifts)

    def _field(self, k: int) -> tuple[int, int]:
        """Mask of variable k's field and the masked value of exponent 0."""
        shift = self._shifts[k - 1]
        return _FIELD_MASK << shift, _BIAS << shift


def _element(ring: RingDescriptor, terms: dict, span: int) -> RingElement:
    """An element from packed terms with no zero coefficient; span bounds the
    magnitude of every exponent in them."""
    g = object.__new__(RingElement)
    g.ring = ring
    g._terms = terms
    g._span = span
    g._hash = None
    return g


_PLUS = repeat(1)


def _dot(row, col, signs=None):
    """The sum of the products row[i]*col[i], each negated where signs[i] is
    negative, accumulated term by term in one dict of packed keys.

    This is the package's one sparse product; ``a * b`` is ``_dot((a,), (b,))``.
    In-range operands leave each field of a summed key within its width, so
    the exponent range is checked once, on the result: products that cancel
    never raise.  When the first product has a monomial factor, the dict
    starts as the other factor's terms with shifted keys (a copy when that
    factor is +1), and zero coefficients are filtered only where two
    products may have met.
    """
    ring = row[0].ring
    origin = ring._origin
    acc = {}
    span = 0
    merged = False  # whether two products may have met at one key
    for a, b, sign in zip(row, col, signs or _PLUS):
        if a.ring is not ring or b.ring is not ring:
            raise DescriptorMismatchError("operands live in different rings")
        small, large = a._terms, b._terms
        if not small or not large:
            continue
        if len(small) > len(large):
            small, large = large, small
        bound = a._span + b._span
        if bound > span:
            span = bound
        if not acc and len(small) == 1:
            # A monomial factor shifts every key, so no two products meet.
            ((k1, c1),) = small.items()
            if sign < 0:
                c1 = -c1
            if k1 == origin and c1 == 1:
                acc = dict(large)
            else:
                k1 -= origin
                acc = {k1 + k2: c1 * c2 for k2, c2 in large.items()}
            continue
        merged = True
        get = acc.get
        for k1, c1 in small.items():
            k1 -= origin
            if sign < 0:
                c1 = -c1
            for k2, c2 in large.items():
                key = k1 + k2
                acc[key] = get(key, 0) + c1 * c2
    if merged:
        acc = {key: c for key, c in acc.items() if c}
    if span > MAX_EXPONENT:
        span = max((abs(e) for key in acc for e in ring._unpack(key)), default=0)
        if span > MAX_EXPONENT:
            raise ExponentRangeError(span)
    return _element(ring, acc, span)


class RingElement:
    """A sparse exact (Laurent) polynomial: a map from exponent vectors to coefficients.

    Canonical form: no stored coefficient is zero.  ``_terms`` maps packed
    monomial keys to coefficients; ``terms`` shows them as exponent tuples.
    ``_span`` is an upper bound on the magnitude of every exponent, which lets
    a product skip its range check while the bounds of its operands stay
    small.  Instances are immutable; all arithmetic returns fresh elements.
    """

    __slots__ = ("ring", "_terms", "_span", "_hash")

    def __init__(self, ring: RingDescriptor, terms):
        """The element with ``terms``, a map from exponent tuples to coefficients.

        Distinct exponent tuples pack to distinct keys, so no two terms merge."""
        packed = {}
        span = 0
        for exps, coeff in dict(terms).items():
            key, magnitude = ring._pack(exps)
            coeff = _coerce_coeff(ring, coeff)
            if coeff:
                span = max(span, magnitude)
                packed[key] = coeff
        self.ring = ring
        self._terms = packed
        self._span = span
        self._hash = None

    # -- canonical views ------------------------------------------------------

    @property
    def terms(self):
        unpack = self.ring._unpack
        return {unpack(key): coeff for key, coeff in self._terms.items()}

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def free_of(self, k: int) -> bool:
        """True when no term involves variable k."""
        self.ring._check_index(k)
        mask, zero = self.ring._field(k)
        return all((key & mask) == zero for key in self._terms)

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring is not self.ring:
                raise DescriptorMismatchError("operands live in different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other._terms:
            return self
        acc = dict(self._terms)
        for key, coeff in other._terms.items():
            val = acc.get(key, 0) + coeff
            if val:
                acc[key] = val
            else:
                del acc[key]
        return _element(self.ring, acc, max(self._span, other._span))

    __radd__ = __add__

    def __neg__(self):
        return _element(
            self.ring, {key: -c for key, c in self._terms.items()}, self._span
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other._terms:
            return self
        acc = dict(self._terms)
        for key, coeff in other._terms.items():
            val = acc.get(key, 0) - coeff
            if val:
                acc[key] = val
            else:
                del acc[key]
        return _element(self.ring, acc, max(self._span, other._span))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if not isinstance(other, RingElement):
            # An element operand skips this; _dot checks its ring.
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _dot((self,), (other,))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise OutOfRangeError("only nonnegative integer powers are supported")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, RingElement):
            return self.ring is other.ring and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            # Not coerced, so a number outside the coefficient domain is
            # unequal rather than an error.
            value = self._constant()
            return value is not None and value == other
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            value = self._constant()
            # A constant hashes as the number it equals.
            self._hash = (
                hash(frozenset(self._terms.items())) if value is None else hash(value)
            )
        return self._hash

    def _constant(self):
        """The value of a constant element, zero included, else None."""
        terms = self._terms
        origin = self.ring._origin
        if len(terms) > 1 or (terms and origin not in terms):
            return None
        return terms.get(origin, 0)

    def __bool__(self):
        return bool(self._terms)

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"RingElement({format_element(self)!r})"

    # -- named operations -----------------------------------------------------

    def specialize(self, k: int) -> RingElement:
        """Evaluate variable k at the base point (c_k -> 0); a ring homomorphism."""
        ring = self.ring
        ring._check_index(k)
        mask, zero = ring._field(k)
        if ring.mode is Mode.POLYNOMIAL:
            kept = {key: c for key, c in self._terms.items() if (key & mask) == zero}
            return _element(ring, kept, self._span)
        acc = {}
        for key, coeff in self._terms.items():
            key += zero - (key & mask)
            acc[key] = acc.get(key, 0) + coeff
        return _element(ring, {key: c for key, c in acc.items() if c}, self._span)

    def divide_exact(self, d: RingElement) -> RingElement:
        """Exact quotient by a product of c_i powers; NotDivisibleError otherwise."""
        divisor = self._coerce(d)
        if divisor is None:
            raise TypeError(
                f"divisor must be a ring element or a number, not {type(d).__name__}"
            )
        factors = _c_power_factors(divisor)
        if factors is None:
            raise NotDivisibleError("divisor is not a product of c_i powers")
        q = self
        for k, e in factors:
            for _ in range(e):
                q = _divide_c(q, k)
        return q

    def is_unit(self) -> bool:
        return self.unit_inverse() is not None

    def unit_inverse(self) -> RingElement | None:
        """Multiplicative inverse when the element is a unit, else None."""
        if len(self._terms) != 1:
            return None
        ring = self.ring
        ((key, coeff),) = self._terms.items()
        if ring.mode is Mode.POLYNOMIAL and key != ring._origin:
            return None
        if ring.coeff is Coeff.INTEGERS:
            if coeff not in (1, -1):
                return None
            inv_coeff = coeff
        else:
            inv_coeff = Fraction(1) / coeff
        # Field by field, 2*bias - (e + bias) = -e + bias.
        return _element(ring, {2 * ring._origin - key: inv_coeff}, self._span)

    def promote(self, ring: RingDescriptor) -> RingElement:
        """Reinterpret in a ring with more variables (same mode and coefficients)."""
        if ring.mode is not self.ring.mode or ring.coeff is not self.ring.coeff:
            raise DescriptorMismatchError("promotion must preserve mode and coefficients")
        if ring.nvars < self.ring.nvars:
            raise DescriptorMismatchError("promotion cannot drop variables")
        shift = _FIELD_BITS * (ring.nvars - self.ring.nvars)
        pad = ring._origin - (self.ring._origin << shift)
        return _element(
            ring,
            {(key << shift) + pad: c for key, c in self._terms.items()},
            self._span,
        )


def _coerce_coeff(ring: RingDescriptor, value):
    if ring.coeff is Coeff.INTEGERS:
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise OutOfRangeError("fractional coefficient in an integer ring")
            return int(value)
        if isinstance(value, int):
            return int(value)  # a bool is kept as the int it equals
        raise OutOfRangeError(f"bad coefficient {_shown(value, repr)}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise OutOfRangeError(f"bad coefficient {_shown(value, repr)}")


def _divide_c(g: RingElement, k: int) -> RingElement:
    """Exact quotient of g by c_k."""
    ring = g.ring
    ring._check_index(k)
    if g.is_zero:
        return g
    mask, zero = ring._field(k)
    unit = 1 << ring._shifts[k - 1]
    if ring.mode is Mode.POLYNOMIAL:
        if any((key & mask) == zero for key in g._terms):
            raise NotDivisibleError(f"not divisible by c{k}")
        return _element(
            ring, {key - unit: c for key, c in g._terms.items()}, g._span
        )
    # Laurent mode: synthetic division by (a_k - 1), one column of terms at a
    # time, a column being the terms that agree outside field k.  Going down
    # the column, the quotient's coefficient at a power of a_k is the sum of
    # the column's coefficients above it; that sum over the whole column is
    # the remainder.  The remainders add up to g at the base point, so a
    # nonzero value there rules divisibility out before any column is built.
    if sum(g._terms.values()):
        raise NotDivisibleError(f"not divisible by c{k}")
    columns: dict = {}
    for key, coeff in g._terms.items():
        field = key & mask
        columns.setdefault(key - field, []).append((field, coeff))
    quotient = {}
    for rest, column in columns.items():
        column.sort(reverse=True)
        total = 0
        upper = None
        for field, coeff in column:
            if total:
                for level in range(field, upper, unit):
                    quotient[rest + level] = total
            total += coeff
            upper = field
        if total:
            raise NotDivisibleError(f"not divisible by c{k}")
    return _element(ring, quotient, g._span)


# A pass over a benchmark workload's pool divides by 4 to 54 distinct
# divisors (preimage_lift 4, certify_words 6, verify_all 54).
@functools.lru_cache(maxsize=256)
def _c_power_factors(d: RingElement) -> tuple | None:
    """The pairs (k, e), e > 0, in increasing k, with d the product of the
    c_k^e; None when d is zero or no such product.  Kept in one bounded memo
    shared by all rings, so a repeated divisor is factored once."""
    if d.is_zero:  # zero divides by every c_k, so the loop below would not end
        return None
    factors = []
    rest = d
    for k in range(1, d.ring.nvars + 1):
        e = 0
        # A nonzero element free of variable k has no factor c_k.
        while not rest.free_of(k):
            try:
                rest = _divide_c(rest, k)
            except NotDivisibleError:
                break
            e += 1
        if e:
            factors.append((k, e))
    return tuple(factors) if rest == d.ring.one else None


@dataclass(frozen=True)
class CAdicDecomposition:
    """g = sum_i heads[i] * c_k^i + tail * c_k^depth, heads free of variable k."""

    k: int
    heads: tuple
    tail: RingElement

    def reconstruct(self) -> RingElement:
        ring = self.tail.ring
        ck = ring.c(self.k)
        acc = ring.zero
        power = ring.one
        for head in self.heads:
            acc = acc + head * power
            power = power * ck
        return acc + self.tail * power


def c_adic_decompose(g: RingElement, k: int, t: int) -> CAdicDecomposition:
    """Peel off t heads of g along powers of c_k; the division is exact by construction."""
    if not 1 <= t <= MAX_DEPTH:
        raise OutOfRangeError(f"depth must lie in 1..{MAX_DEPTH}")
    g.ring._check_index(k)
    heads = []
    current = g
    for _ in range(t):
        head = current.specialize(k)
        heads.append(head)
        current = _divide_c(current - head, k)
    return CAdicDecomposition(k=k, heads=tuple(heads), tail=current)


def _last_variable_heads(g: RingElement, t: int) -> tuple:
    """Laurent ``c_heads`` along the last variable to depth t <= 3, in one
    pass over the keys in sorted order.

    The last variable's field is the lowest bits of a key, so the terms that
    differ only in it are adjacent: a run of keys with one ``key >> _FIELD_BITS``.
    Heads 0, 1 and 2 of a run are the sums of c, e*c and C(e, 2)*c over its
    terms, each added up in a local and stored once, at the run's key with
    the field reset to exponent 0, where it is not zero.
    """
    terms = g._terms
    heads = ({}, {}, {})
    h0, h1, h2 = heads
    deep = t == 3
    keys = sorted(terms)
    keys.append(-1)  # no key's run, so it closes the last one
    # Run 0 starts with zero sums, so closing it stores nothing unless it is
    # a real run, as it is over one variable.
    run = s0 = s1 = s2 = 0
    for key in keys:
        if key >> _FIELD_BITS != run:
            base = (run << _FIELD_BITS) + _BIAS
            if s0:
                h0[base] = s0
            if s1:
                h1[base] = s1
            if s2:
                h2[base] = s2
            if key < 0:
                break
            run = key >> _FIELD_BITS
            s0 = s1 = s2 = 0
        c = terms[key]
        e = (key & _FIELD_MASK) - _BIAS
        s0 += c
        s1 += e * c
        if deep:
            s2 += e * (e - 1) // 2 * c
    return tuple(_element(g.ring, acc, g._span) for acc in heads[:t])


def c_heads(g: RingElement, k: int, t: int) -> tuple:
    """The first t heads of g along powers of c_k, as ``c_adic_decompose``
    peels them, with no division.

    The heads are the Taylor coefficients of g in c_k at the base point.  In
    polynomial mode head i is the terms of a_k-degree i with a_k removed, read
    in one pass over the terms.  In Laurent mode a_k^e = (1 + c_k)^e, so a
    term contributes its coefficient times the binomial C(e, i) to head i, for
    negative e too.  Along the last variable to depth 3 or less, the case the
    stabilizer maps read, ``_last_variable_heads`` sums each run of adjacent
    keys in one pass; otherwise the terms are grouped by e first, so each
    binomial is taken once per exponent of a_k rather than once per term.
    """
    if not 1 <= t <= MAX_DEPTH:
        raise OutOfRangeError(f"depth must lie in 1..{MAX_DEPTH}")
    ring = g.ring
    ring._check_index(k)
    mask, zero = ring._field(k)
    shift = ring._shifts[k - 1]
    accs = [{} for _ in range(t)]
    if ring.mode is Mode.POLYNOMIAL:
        # Terms of one degree differ outside field k, so none collide.
        for key, coeff in g._terms.items():
            field = key & mask
            e = (field >> shift) - _BIAS
            if e < t:
                accs[e][key - field + zero] = coeff
        return tuple(_element(ring, acc, g._span) for acc in accs)
    if k == ring.nvars and t <= 3:
        return _last_variable_heads(g, t)
    # Terms of one exponent e differ outside field k, so within a group the
    # keys stay distinct when field k is reset to exponent 0.
    groups: dict = {}
    for key, coeff in g._terms.items():
        field = key & mask
        group = groups.get(field)
        if group is None:
            groups[field] = group = []
        group.append((key + zero - field, coeff))
    for field, group in groups.items():
        e = (field >> shift) - _BIAS
        binomial = 1
        for i, acc in enumerate(accs):
            get = acc.get
            for key, coeff in group:
                acc[key] = get(key, 0) + binomial * coeff
            # C(e, i + 1) = C(e, i) * (e - i) / (i + 1), an exact division;
            # zero from i = e on when e >= 0.
            binomial = binomial * (e - i) // (i + 1)
            if not binomial:
                break
    return tuple(
        _element(ring, {key: c for key, c in acc.items() if c}, g._span)
        for acc in accs
    )


def in_delta(g: RingElement, p: int) -> bool:
    """Membership of g in the augmentation ideal (p = 1) or its square (p = 2):
    g and, for p = 2, every linear head ``c_heads(g, k, 2)[1]`` vanish at the
    base point.  Read off the terms, building no element."""
    if p not in (1, 2):
        raise OutOfRangeError("only first and second powers are supported")
    ring, terms = g.ring, g._terms
    origin = ring._origin
    if ring.mode is Mode.POLYNOMIAL:  # no constant term, and for p = 2 no term a_k
        linear = (origin + (1 << s) for s in ring._shifts)
        return origin not in terms and (p == 1 or not any(k in terms for k in linear))
    # A zero coefficient sum; for p = 2 also a zero sum of coefficient times
    # the field of a_k, its exponent plus a bias that adds bias times zero.
    items = terms.items()
    return not sum(terms.values()) and (
        p == 1 or not any(sum(c * (k >> s & _FIELD_MASK) for k, c in items) for s in ring._shifts)
    )


def _two_variable(g: RingElement) -> bool:
    """Whether g involves only a1 and a2, read through one mask over the fields of a3 on."""
    mask = (1 << _FIELD_BITS * max(g.ring.nvars - 2, 0)) - 1
    zero = g.ring._origin & mask
    return all(key & mask == zero for key in g._terms)


def _require_two_variable(g: RingElement) -> None:
    if not _two_variable(g):
        raise NotInIdealError("split input must involve only the first two variables")


def delta_split_linear(beta: RingElement) -> tuple[RingElement, RingElement]:
    """Split beta in the augmentation ideal as beta1*c1 + beta2*c2, beta1 free of variable 2.

    The split is made deterministic by specializing variable 2 first; only the
    reconstruction identity is canonical, not the pair itself.  Membership
    is tested first, so every division is exact.
    """
    _require_two_variable(beta)
    if not in_delta(beta, 1):
        raise NotInIdealError("element is not in the augmentation ideal")
    # beta = h0 + tail*c2 with h0 = beta at c2 = 0, which involves a1 only and
    # vanishes at the base point, so c1 divides it.
    dec = c_adic_decompose(beta, 2, 1)
    return _divide_c(dec.heads[0], 1), dec.tail


def delta_split_quadratic(
    delta: RingElement,
) -> tuple[RingElement, RingElement, RingElement, RingElement]:
    """Split delta in the squared ideal as d11*c1^2 + (d12 + d12p)*c1*c2 + d22*c2^2.

    The deterministic rule sets d12p = 0 and reads d11, d12 off the heads of
    delta along c2, so d11 and d12 are free of variable 2.  Membership is
    tested first, so every division is exact.
    """
    _require_two_variable(delta)
    if not in_delta(delta, 2):
        raise NotInIdealError("element is not in the squared augmentation ideal")
    # delta = h0 + h1*c2 + tail*c2^2 with h0, h1 in a1 only; delta in the
    # square puts h0 in the square of (c1) and h1 in (c1).
    dec = c_adic_decompose(delta, 2, 2)
    h0, h1 = dec.heads
    return _divide_c(_divide_c(h0, 1), 1), _divide_c(h1, 1), delta.ring.zero, dec.tail


# -- text codec ----------------------------------------------------------------

# One token per match: a number, a variable aN, an operator, or any other
# non-space character, which is an error.
_TOKEN = re.compile(r"\s*(\d+|a\d+|[+\-*/^]|\S)")

# The canonical text ``format_element`` prints: terms joined by " + " or
# " - ", the first one optionally led by "-"; a term is a coefficient, a
# monomial, or both joined by "*"; a monomial is "*"-joined factors aN or
# aN^e.  Integer rings print no denominators, so their pattern admits none.
# Every quantifier is possessive and the term alternation atomic, so a match
# keeps no backtracking state: each repetition and alternative begins with a
# character that nothing after it can consume ("a", a digit, "^", "*", "/",
# a space), so giving characters back could never turn a failure into a match.
_MONOMIAL = r"a\d++(?:\^-?+\d++)?+(?:\*a\d++(?:\^-?+\d++)?+)*+"


def _canonical(fraction: str) -> re.Pattern:
    term = rf"(?>\d++{fraction}(?:\*{_MONOMIAL})?+|{_MONOMIAL})"
    return re.compile(rf"-?+{term}(?: [+-] {term})*+", re.ASCII)


_CANONICAL_INT = _canonical("")
_CANONICAL_RAT = _canonical(r"(?:/\d++)?+")

_MEMO_SIZE = 4096
"""Entries of each monomial memo of the codec, over all rings.  The matrices
of 400 seeded length-8 tame words per mode, in three variables, hold about
2.3k-2.4k distinct monomials in the two modes together."""


def _read_monomial(ring: RingDescriptor, text: str) -> tuple[int, int]:
    """Packed key and span of one monomial's text, read by the general parser."""
    g = _parse_general(ring, text)
    (key,) = g._terms
    return key, g._span


# A printed factor takes at most 16 characters, "*" included, so a longer
# monomial text is not printer output; the parser reads it through
# _read_monomial and the memo never holds it.  That bounds the memo in bytes
# as well as in entries.
_PRINTED_FACTOR_CHARS = 16
_monomial_key = functools.lru_cache(maxsize=_MEMO_SIZE)(_read_monomial)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _monomial_text(ring: RingDescriptor, key: int) -> str:
    """Printed monomial of a packed key, empty for the exponent vector 0."""
    factors = []
    for i, shift in enumerate(ring._shifts, 1):
        e = ((key >> shift) & _FIELD_MASK) - _BIAS
        if e:
            factors.append(f"a{i}" if e == 1 else f"a{i}^{e}")
    return "*".join(factors)


def _fail(text: str, tokens: list, i: int, message: str):
    """Raise the error of the first unexpected character, else ``message`` at token i.

    Token positions are recovered here, on the error path only.  A grammar
    error is reported only for text free of unexpected characters, wherever
    they are.
    """
    positions = [m.start(1) for m in _TOKEN.finditer(text)] + [len(text)]
    for token, at in zip(tokens, positions):
        # Numbers and variables are the tokens of more than one character.
        if len(token) == 1 and not token.isdecimal() and token not in "+-*/^":
            raise ParseError(f"unexpected character {token!r}", at)
    raise ParseError(message, positions[i])


def parse_element(ring: RingDescriptor, text: str) -> RingElement:
    """Parse the expression grammar: terms joined by '+'/'-', the first may be
    signed; a term is an integer (or p/q) coefficient or a factor, followed by
    '*'-joined factors; a factor is aN or aN^k, k negative in Laurent mode only.

    Canonical text, the form ``format_element`` prints, is checked by one
    regex and split into terms at its spaces, and each monomial's key comes
    from a bounded memo that the general parser fills; a monomial text longer
    than any the printer writes is read the same way but not kept.  All
    other text, and canonical text that route cannot finish (a monomial the
    general parser rejects, a zero denominator, a number too long for
    ``int``), goes to ``_parse_general``, the one authority for the grammar:
    element, message and position never depend on the route.
    """
    rational = ring.coeff is Coeff.RATIONALS
    canonical = _CANONICAL_RAT if rational else _CANONICAL_INT
    if isinstance(text, str) and canonical.fullmatch(text):
        # Canonical text has a space only on each side of a separating sign,
        # so splitting at spaces alternates terms and signs.
        negative = text[0] == "-"
        parts = (text[1:] if negative else text).split(" ")
        signs = ["-" if negative else "+", *parts[1::2]]
        one = Fraction(1) if rational else 1
        origin = ring._origin
        printed = _PRINTED_FACTOR_CHARS * ring.nvars
        acc: dict = {}
        span = 0
        try:
            for sign, term in zip(signs, parts[::2]):
                if term[0] == "a":
                    coeff, monomial = one, term
                else:
                    numerator, _, monomial = term.partition("*")
                    if rational:
                        numerator, _, denominator = numerator.partition("/")
                        coeff = Fraction(int(numerator), int(denominator or 1))
                    else:
                        coeff = int(numerator)
                if monomial:
                    read = _monomial_key if len(monomial) <= printed else _read_monomial
                    key, width = read(ring, monomial)
                    if width > span:
                        span = width
                else:
                    key = origin
                if sign == "-":
                    coeff = -coeff
                acc[key] = acc.get(key, 0) + coeff
        except (ParseError, ValueError, ZeroDivisionError):
            pass  # the general parser raises the error, with its position
        else:
            return _element(ring, {key: c for key, c in acc.items() if c}, span)
    return _parse_general(ring, text)


def _parse_general(ring: RingDescriptor, text: str) -> RingElement:
    """Parse any text of ``parse_element``'s grammar, or raise its ``ParseError``.

    The text is tokenized in one pass and every term is added straight into
    one dict of packed keys.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected an expression string, got {type(text).__name__}", 0)
    tokens = _TOKEN.findall(text)
    tokens.append("")  # the end of the text
    nvars, shifts = ring.nvars, ring._shifts
    polynomial = ring.mode is Mode.POLYNOMIAL
    rational = ring.coeff is Coeff.RATIONALS
    one = Fraction(1) if rational else 1
    acc: dict = {}
    span = 0
    i = 0
    negate = False
    if tokens[0] == "+" or tokens[0] == "-":
        negate = tokens[0] == "-"
        i = 1
    try:
        while True:
            token = tokens[i]
            exps = [0] * nvars
            if token[:1].isdecimal():
                coeff = int(token)
                i += 1
                if tokens[i] == "/":
                    if not rational:
                        _fail(text, tokens, i, "rational coefficients are not enabled")
                    i += 1
                    if not tokens[i][:1].isdecimal():
                        _fail(text, tokens, i, "expected a denominator")
                    denominator = int(tokens[i])
                    if not denominator:
                        _fail(text, tokens, i, "zero denominator")
                    coeff = Fraction(coeff, denominator)
                    i += 1
                elif rational:
                    coeff = Fraction(coeff)
                factor = tokens[i] == "*"
                i += factor
            elif token[:1] == "a" and len(token) > 1:
                coeff = one
                factor = True
            else:
                _fail(text, tokens, i, "expected a coefficient or a variable")
            while factor:
                token = tokens[i]
                if not (token[:1] == "a" and len(token) > 1):
                    _fail(text, tokens, i, "expected a variable")
                index = int(token[1:])
                if not 1 <= index <= nvars:
                    _fail(text, tokens, i, f"unknown variable {token!r}")
                exponent = 1
                at = i  # where a range error points: the exponent, else the variable
                i += 1
                if tokens[i] == "^":
                    i += 1
                    negative = tokens[i] == "-"
                    i += negative
                    if not tokens[i][:1].isdecimal():
                        _fail(text, tokens, i, "expected an exponent")
                    exponent = int(tokens[i])
                    if negative and exponent:
                        if polynomial:
                            _fail(text, tokens, i, "negative exponent in polynomial mode")
                        exponent = -exponent
                    at = i
                    i += 1
                exponent += exps[index - 1]
                if not -MAX_EXPONENT <= exponent <= MAX_EXPONENT:
                    _fail(
                        text, tokens, at,
                        f"exponent {exponent} outside -{MAX_EXPONENT}..{MAX_EXPONENT}",
                    )
                exps[index - 1] = exponent
                if exponent > span or -exponent > span:
                    span = abs(exponent)
                factor = tokens[i] == "*"
                i += factor
            key = ring._origin + sum(map(lshift, exps, shifts))
            acc[key] = acc.get(key, 0) + (-coeff if negate else coeff)
            token = tokens[i]
            if token == "+" or token == "-":
                negate = token == "-"
                i += 1
            elif not token:
                break
            else:
                _fail(text, tokens, i, f"expected '+' or '-' before {token!r}")
    except ValueError:  # a number with more digits than int() converts
        _fail(text, tokens, i, "number has too many digits")
    return _element(ring, {key: c for key, c in acc.items() if c}, span)


def format_element(g: RingElement) -> str:
    """Canonical text form: terms in descending lexicographic exponent order,
    each monomial's text taken from a bounded memo.

    A coefficient whose integer (numerator or denominator) has more digits
    than Python converts to text, ``sys.get_int_max_str_digits()``, raises
    ``OutOfRangeError`` naming that limit; the parser refuses such a number
    too, so whatever is printed parses back.
    """
    if g.is_zero:
        return "0"
    ring = g.ring
    terms = g._terms
    out = []
    try:
        for key in sorted(terms, reverse=True):
            coeff = terms[key]
            if coeff < 0:
                out.append(" - ")
                coeff = -coeff
            else:
                out.append(" + ")
            mono = _monomial_text(ring, key)
            if not mono:
                out.append(str(coeff))
            elif coeff == 1:
                out.append(mono)
            else:
                out.append(f"{coeff}*{mono}")
    except ValueError:  # an integer with more digits than str() converts
        raise OutOfRangeError(
            "a coefficient has more than the "
            f"{sys.get_int_max_str_digits()} digits an integer may print with"
        ) from None
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)
