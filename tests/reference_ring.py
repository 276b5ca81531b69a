"""The tuple-keyed ring kernel the packed kernel replaced, kept as a test oracle.

Copied unchanged from ``colstab/ring.py`` before monomials were packed: the
descriptor, the element with its arithmetic and ``specialize``, ``_divide_c``,
``c_adic_decompose``, the parser and the printer.  Exponent vectors are
tuples and every arithmetic step builds tuples.  One fault is mended:
``divide_exact`` rejects a zero divisor up front, as the packed kernel does,
where the copy divided zero by ``c_k`` forever.  The error and enum types are
shared with ``colstab.ring`` so results and errors compare directly.
``tests/test_ring_reference.py`` compares the two kernels.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from colstab.ring import (
    Coeff,
    DescriptorMismatchError,
    Mode,
    NotDivisibleError,
    ParseError,
)


@dataclass(frozen=True)
class RingDescriptor:
    """Shape of the coefficient ring: mode, number of variables, coefficient domain."""

    mode: Mode
    nvars: int
    coeff: Coeff = Coeff.INTEGERS

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("nvars must be >= 1")

    # -- element constructors -------------------------------------------------

    @property
    def zero(self) -> RingElement:
        return RingElement(self, {})

    @property
    def one(self) -> RingElement:
        return self.const(1)

    def const(self, value) -> RingElement:
        return RingElement(self, {(0,) * self.nvars: value})

    def var(self, i: int) -> RingElement:
        """The variable a_i (1-based)."""
        self._check_index(i)
        exps = [0] * self.nvars
        exps[i - 1] = 1
        return RingElement(self, {tuple(exps): 1})

    def c(self, i: int) -> RingElement:
        """The distinguished element c_i: a_i in polynomial mode, a_i - 1 in Laurent mode."""
        if self.mode is Mode.POLYNOMIAL:
            return self.var(i)
        return self.var(i) - 1

    def monomial(self, coeff, exps) -> RingElement:
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError("exponent vector has wrong length")
        return RingElement(self, {exps: coeff})

    def parse(self, text: str) -> RingElement:
        return parse_element(self, text)

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.nvars:
            raise ValueError(f"variable index {i} outside 1..{self.nvars}")


class RingElement:
    """A sparse exact (Laurent) polynomial: a map from exponent vectors to coefficients.

    Canonical form: no stored coefficient is zero.  Instances are immutable;
    all arithmetic returns fresh elements.
    """

    __slots__ = ("ring", "_terms", "_hash")

    def __init__(self, ring: RingDescriptor, terms, *, _clean: bool = False):
        self.ring = ring
        if _clean:
            self._terms = terms
        else:
            cleaned = {}
            for exps, coeff in dict(terms).items():
                exps = tuple(exps)
                if len(exps) != ring.nvars:
                    raise ValueError("exponent vector has wrong length")
                if ring.mode is Mode.POLYNOMIAL and any(e < 0 for e in exps):
                    raise ValueError("negative exponent in polynomial mode")
                coeff = _coerce_coeff(ring, coeff)
                if coeff:
                    cleaned[exps] = cleaned.get(exps, 0) + coeff
                    if not cleaned[exps]:
                        del cleaned[exps]
            self._terms = cleaned
        self._hash = None

    # -- canonical views ------------------------------------------------------

    @property
    def terms(self):
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def free_of(self, k: int) -> bool:
        """True when no term involves variable k."""
        self.ring._check_index(k)
        return all(e[k - 1] == 0 for e in self._terms)

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring != self.ring:
                raise DescriptorMismatchError("operands live in different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self._terms)
        for exps, coeff in other._terms.items():
            val = acc.get(exps, 0) + coeff
            if val:
                acc[exps] = val
            elif exps in acc:
                del acc[exps]
        return RingElement(self.ring, acc, _clean=True)

    __radd__ = __add__

    def __neg__(self):
        return RingElement(
            self.ring, {e: -c for e, c in self._terms.items()}, _clean=True
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exps = tuple(x + y for x, y in zip(e1, e2))
                val = acc.get(exps, 0) + c1 * c2
                if val:
                    acc[exps] = val
                elif exps in acc:
                    del acc[exps]
        return RingElement(self.ring, acc, _clean=True)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self._terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self._terms)

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"RingElement({format_element(self)!r})"

    # -- named operations -----------------------------------------------------

    def specialize(self, k: int) -> RingElement:
        """Evaluate variable k at the base point (c_k -> 0); a ring homomorphism."""
        self.ring._check_index(k)
        idx = k - 1
        if self.ring.mode is Mode.POLYNOMIAL:
            kept = {e: c for e, c in self._terms.items() if e[idx] == 0}
            return RingElement(self.ring, kept, _clean=True)
        acc = {}
        for exps, coeff in self._terms.items():
            collapsed = exps[:idx] + (0,) + exps[idx + 1 :]
            val = acc.get(collapsed, 0) + coeff
            if val:
                acc[collapsed] = val
            elif collapsed in acc:
                del acc[collapsed]
        return RingElement(self.ring, acc, _clean=True)

    def divide_exact(self, d: RingElement) -> RingElement:
        """Exact quotient by a product of c_i powers; NotDivisibleError otherwise."""
        d = self._coerce(d)
        if d.is_zero:  # c_k divides zero, so the loop below would not end
            raise NotDivisibleError("divisor is not a product of c_i powers")
        exps = [0] * self.ring.nvars
        rest = d
        for k in range(1, self.ring.nvars + 1):
            while True:
                try:
                    rest = _divide_c(rest, k)
                except NotDivisibleError:
                    break
                exps[k - 1] += 1
        if rest != self.ring.one:
            raise NotDivisibleError("divisor is not a product of c_i powers")
        q = self
        for k in range(1, self.ring.nvars + 1):
            for _ in range(exps[k - 1]):
                q = _divide_c(q, k)
        return q

    def is_unit(self) -> bool:
        return self.unit_inverse() is not None

    def unit_inverse(self) -> RingElement | None:
        """Multiplicative inverse when the element is a unit, else None."""
        if len(self._terms) != 1:
            return None
        (exps, coeff), = self._terms.items()
        if self.ring.mode is Mode.POLYNOMIAL and any(e != 0 for e in exps):
            return None
        if self.ring.coeff is Coeff.INTEGERS:
            if coeff not in (1, -1):
                return None
            inv_coeff = coeff
        else:
            inv_coeff = Fraction(1) / coeff
        inv_exps = tuple(-e for e in exps)
        return RingElement(self.ring, {inv_exps: inv_coeff})

    def promote(self, ring: RingDescriptor) -> RingElement:
        """Reinterpret in a ring with more variables (same mode and coefficients)."""
        if ring.mode is not self.ring.mode or ring.coeff is not self.ring.coeff:
            raise DescriptorMismatchError("promotion must preserve mode and coefficients")
        if ring.nvars < self.ring.nvars:
            raise DescriptorMismatchError("promotion cannot drop variables")
        pad = (0,) * (ring.nvars - self.ring.nvars)
        return RingElement(ring, {e + pad: c for e, c in self._terms.items()}, _clean=True)


def _coerce_coeff(ring: RingDescriptor, value):
    if ring.coeff is Coeff.INTEGERS:
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise ValueError("fractional coefficient in an integer ring")
            return int(value)
        if isinstance(value, int):
            return value
        raise ValueError(f"bad coefficient {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise ValueError(f"bad coefficient {value!r}")


def _divide_c(g: RingElement, k: int) -> RingElement:
    """Exact quotient of g by c_k."""
    ring = g.ring
    ring._check_index(k)
    if g.is_zero:
        return g
    idx = k - 1
    if ring.mode is Mode.POLYNOMIAL:
        quotient = {}
        for exps, coeff in g._terms.items():
            if exps[idx] < 1:
                raise NotDivisibleError(f"not divisible by c{k}")
            quotient[exps[:idx] + (exps[idx] - 1,) + exps[idx + 1 :]] = coeff
        return RingElement(ring, quotient, _clean=True)
    # Laurent mode: synthetic division by (a_k - 1) after clearing negative powers.
    lo = min(e[idx] for e in g._terms)
    hi = max(e[idx] for e in g._terms)
    levels: list[dict] = [{} for _ in range(hi - lo + 1)]
    for exps, coeff in g._terms.items():
        rest = exps[:idx] + (0,) + exps[idx + 1 :]
        levels[exps[idx] - lo][rest] = coeff
    degree = hi - lo
    if degree == 0:
        raise NotDivisibleError(f"not divisible by c{k}")
    q_levels: list[dict] = [{} for _ in range(degree)]
    carry: dict = {}
    for d in range(degree, 0, -1):
        coeffs = dict(carry)
        for rest, coeff in levels[d].items():
            val = coeffs.get(rest, 0) + coeff
            if val:
                coeffs[rest] = val
            elif rest in coeffs:
                del coeffs[rest]
        q_levels[d - 1] = coeffs
        carry = coeffs
    remainder = dict(carry)
    for rest, coeff in levels[0].items():
        val = remainder.get(rest, 0) + coeff
        if val:
            remainder[rest] = val
        elif rest in remainder:
            del remainder[rest]
    if remainder:
        raise NotDivisibleError(f"not divisible by c{k}")
    quotient = {}
    for d, level in enumerate(q_levels):
        for rest, coeff in level.items():
            quotient[rest[:idx] + (d + lo,) + rest[idx + 1 :]] = coeff
    return RingElement(ring, quotient, _clean=True)


@dataclass(frozen=True)
class CAdicDecomposition:
    """g = sum_i heads[i] * c_k^i + tail * c_k^depth, heads free of variable k."""

    k: int
    heads: tuple
    tail: RingElement

    @property
    def depth(self) -> int:
        return len(self.heads)

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
    if t < 1:
        raise ValueError("depth must be >= 1")
    g.ring._check_index(k)
    heads = []
    current = g
    for _ in range(t):
        head = current.specialize(k)
        heads.append(head)
        current = _divide_c(current - head, k) if current != head else g.ring.zero
    return CAdicDecomposition(k=k, heads=tuple(heads), tail=current)


# -- text codec ----------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|(a\d+)|([+\-*/^])|(\S))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        if m.group(4) is not None:
            raise ParseError(f"unexpected character {m.group(4)!r}", m.start(4))
        if m.group(1) is not None:
            tokens.append(("int", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("var", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, ring: RingDescriptor, text: str):
        self.ring = ring
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def parse(self) -> RingElement:
        result = self.parse_term(allow_sign=True)
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                term = self.parse_term(allow_sign=False)
                result = result + term if value == "+" else result - term
            elif kind == "end":
                return result
            else:
                _, value, at = self.peek()
                raise ParseError(f"expected '+' or '-' before {value!r}", at)

    def parse_term(self, allow_sign: bool) -> RingElement:
        sign = 1
        kind, value, at = self.peek()
        if allow_sign and kind == "op" and value in "+-":
            self.advance()
            sign = -1 if value == "-" else 1
            kind, value, at = self.peek()
        if kind == "int":
            term = self.ring.const(self.parse_coeff())
        elif kind == "var":
            term = self.parse_factor()
        else:
            raise ParseError("expected a coefficient or a variable", at)
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                term = term * self.parse_factor()
            else:
                break
        return term * sign if sign < 0 else term

    def parse_coeff(self):
        kind, value, at = self.advance()
        numerator = int(value)
        kind, value, at = self.peek()
        if kind == "op" and value == "/":
            if self.ring.coeff is not Coeff.RATIONALS:
                raise ParseError("rational coefficients are not enabled", at)
            self.advance()
            kind, value, at = self.advance()
            if kind != "int":
                raise ParseError("expected a denominator", at)
            return Fraction(numerator, int(value))
        return numerator

    def parse_factor(self) -> RingElement:
        kind, value, at = self.advance()
        if kind != "var":
            raise ParseError("expected a variable", at)
        index = int(value[1:])
        if not 1 <= index <= self.ring.nvars:
            raise ParseError(f"unknown variable {value!r}", at)
        exponent = 1
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            negative = False
            kind, value, at = self.peek()
            if kind == "op" and value == "-":
                self.advance()
                negative = True
            kind, value, at = self.advance()
            if kind != "int":
                raise ParseError("expected an exponent", at)
            exponent = -int(value) if negative else int(value)
            if exponent < 0 and self.ring.mode is Mode.POLYNOMIAL:
                raise ParseError("negative exponent in polynomial mode", at)
        exps = [0] * self.ring.nvars
        exps[index - 1] = exponent
        return RingElement(self.ring, {tuple(exps): 1})


def parse_element(ring: RingDescriptor, text: str) -> RingElement:
    return _Parser(ring, text).parse()


def format_element(g: RingElement) -> str:
    """Canonical text form: terms in descending lexicographic exponent order."""
    if g.is_zero:
        return "0"
    chunks = []
    for exps in sorted(g._terms, reverse=True):
        coeff = g._terms[exps]
        factors = []
        for i, e in enumerate(exps):
            if e == 0:
                continue
            factors.append(f"a{i + 1}" if e == 1 else f"a{i + 1}^{e}")
        mono = "*".join(factors)
        negative = coeff < 0
        magnitude = -coeff if negative else coeff
        if mono and magnitude == 1:
            body = mono
        elif mono:
            body = f"{magnitude}*{mono}"
        else:
            body = str(magnitude)
        chunks.append((negative, body))
    negative, body = chunks[0]
    out = [f"-{body}" if negative else body]
    for negative, body in chunks[1:]:
        out.append(f" - {body}" if negative else f" + {body}")
    return "".join(out)
