"""Differential tests: the packed ring kernel against the tuple kernel it replaced.

``reference_ring`` is that kernel, copied unchanged but for one mended
fault.  Every operation here must give the same exponent-tuple terms, the
same printed text and the same errors in both, apart from inputs the packed
parser rejects and the tuple parser did not: exponents beyond
``MAX_EXPONENT`` and zero denominators.
The division-free heads ``c_heads`` are checked against the tuple kernel's
``c_adic_decompose``, and the fused matrix products, determinants and
adjugates against sums of tuple-kernel element products.  The parser's route
for canonical text is checked against ``_parse_general``, the parser every
other text takes.
"""

import itertools
import re
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import colstab.ring
import reference_ring as ref
from colstab.matrix import Mat
from colstab.ring import (
    _MEMO_SIZE,
    MAX_EXPONENT,
    Coeff,
    DescriptorMismatchError,
    Mode,
    NotDivisibleError,
    ParseError,
    RingDescriptor,
    RingElement,
    _c_power_factors,
    _divide_c,
    _monomial_key,
    _monomial_text,
    _parse_general,
    c_adic_decompose,
    c_heads,
    format_element,
    parse_element,
)


@st.composite
def rings(draw):
    mode = draw(st.sampled_from(list(Mode)))
    nvars = draw(st.integers(2, 4))
    coeff = draw(st.sampled_from(list(Coeff)))
    return RingDescriptor(mode, nvars, coeff), ref.RingDescriptor(mode, nvars, coeff)


def term_dicts(ring, max_terms=5):
    low = 0 if ring.mode is Mode.POLYNOMIAL else -3
    exps = st.tuples(*([st.integers(low, 3)] * ring.nvars))
    if ring.coeff is Coeff.RATIONALS:
        coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool)
    else:
        coeffs = st.integers(-5, 5).filter(bool)
    return st.dictionaries(exps, coeffs, max_size=max_terms)


def pair(draw, rings_, max_terms=5):
    new_ring, ref_ring = rings_
    terms = draw(term_dicts(new_ring, max_terms))
    return RingElement(new_ring, terms), ref.RingElement(ref_ring, terms)


def same(new, old):
    """Equal as exponent-tuple maps and as printed text."""
    assert new.terms == old.terms
    assert format_element(new) == ref.format_element(old)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_arithmetic_matches_the_tuple_kernel(data):
    rings_ = data.draw(rings())
    g, g_ref = pair(data.draw, rings_)
    h, h_ref = pair(data.draw, rings_)
    same(g, g_ref)
    same(g * h, g_ref * h_ref)
    same(g + h, g_ref + h_ref)
    same(g - h, g_ref - h_ref)
    same(-g, -g_ref)
    same(3 - g, 3 - g_ref)
    same(g * 2, g_ref * 2)
    same(g**2, g_ref**2)
    assert (g == h) == (g_ref == h_ref)
    inverse, inverse_ref = g.unit_inverse(), g_ref.unit_inverse()
    assert (inverse is None) == (inverse_ref is None)
    if inverse is not None:
        same(inverse, inverse_ref)
    wider = RingDescriptor(rings_[0].mode, 4, rings_[0].coeff)
    wider_ref = ref.RingDescriptor(rings_[0].mode, 4, rings_[0].coeff)
    same(g.promote(wider), g_ref.promote(wider_ref))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_specialize_and_division_match_the_tuple_kernel(data):
    rings_ = data.draw(rings())
    ring, ring_ref = rings_
    g, g_ref = pair(data.draw, rings_)
    k = data.draw(st.integers(1, ring.nvars))
    same(g.specialize(k), g_ref.specialize(k))
    assert g.free_of(k) == g_ref.free_of(k)
    # Multiples of c_k are divisible; g itself usually is not.
    for num, num_ref in ((g, g_ref), (g * ring.c(k), g_ref * ring_ref.c(k))):
        try:
            expected = ref._divide_c(num_ref, k)
        except NotDivisibleError as exc:
            with pytest.raises(NotDivisibleError, match=re.escape(str(exc))):
                _divide_c(num, k)
        else:
            same(_divide_c(num, k), expected)
    d = ring.c(k) * ring.c(1)
    same((g * d).divide_exact(d), (g_ref * ring_ref.c(k) * ring_ref.c(1)).divide_exact(
        ring_ref.c(k) * ring_ref.c(1)
    ))
    t = data.draw(st.integers(1, 3))
    dec, dec_ref = c_adic_decompose(g, k, t), ref.c_adic_decompose(g_ref, k, t)
    for head, head_ref in zip(dec.heads, dec_ref.heads, strict=True):
        same(head, head_ref)
    same(dec.tail, dec_ref.tail)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_c_heads_match_the_tuple_kernel(data):
    # Half the draws are three-variable Laurent elements of up to 40 terms,
    # so that several terms share an exponent of a_k and their keys off
    # field k meet across exponents.
    if data.draw(st.booleans()):
        coeff = data.draw(st.sampled_from(list(Coeff)))
        rings_ = RingDescriptor(Mode.LAURENT, 3, coeff), ref.RingDescriptor(Mode.LAURENT, 3, coeff)
        g, g_ref = pair(data.draw, rings_, max_terms=40)
    else:
        rings_ = data.draw(rings())
        g, g_ref = pair(data.draw, rings_)
    ring, _ = rings_
    k = data.draw(st.integers(1, min(3, ring.nvars)))
    t = data.draw(st.integers(1, 6))
    heads = c_heads(g, k, t)
    for head, head_ref in zip(heads, ref.c_adic_decompose(g_ref, k, t).heads, strict=True):
        same(head, head_ref)


def test_c_heads_at_depth_64_of_far_exponents():
    # a3^e = (1 + c3)^e, so head i is C(n, i) + C(-n, i), where
    # C(-n, i) = (-1)^i C(n + i - 1, i).  Division would build a dense
    # column of 400,000 terms at each of the 64 depths.
    ring = RingDescriptor(Mode.LAURENT, 3)
    n = 200000
    heads = c_heads(ring.parse(f"a3^-{n} + a3^{n}"), 3, 64)
    assert heads == tuple(
        ring.const(comb(n, i) + (-1) ** i * comb(n + i - 1, i)) for i in range(64)
    )


def _ref_det(rows):
    """Cofactor expansion along the first column in tuple-kernel arithmetic."""
    if len(rows) == 1:
        return rows[0][0]
    acc = rows[0][0].ring.zero
    for i, row in enumerate(rows):
        term = row[0] * _ref_det([r[1:] for k, r in enumerate(rows) if k != i])
        acc = acc - term if i % 2 else acc + term
    return acc


def _ref_adjugate(rows):
    n = len(rows)
    if n == 1:
        return [[rows[0][0].ring.one]]

    def cofactor(i, j):
        m = _ref_det([r[:j] + r[j + 1 :] for k, r in enumerate(rows) if k != i])
        return -m if (i + j) % 2 else m

    return [[cofactor(j, i) for j in range(n)] for i in range(n)]


def entry(draw, rings_):
    """A matrix entry: one in four times a unit, whose products the fused
    kernels take as copies under the right sign; one in four times at most a
    monomial with any coefficient, negative exponents included in Laurent
    mode, whose products fill an empty accumulator by shifted keys."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        sign = draw(st.sampled_from([1, -1]))
        return tuple(ring.const(sign) for ring in rings_)
    return pair(draw, rings_, 1 if kind == 1 else 5)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fused_matrix_kernels_match_the_tuple_kernel(data):
    rings_ = data.draw(rings())
    n = data.draw(st.integers(1, 3))
    pairs = [[[entry(data.draw, rings_) for _ in range(n)] for _ in range(n)] for _ in range(2)]
    a, b = (Mat([[x for x, _ in row] for row in m]) for m in pairs)
    a_ref, b_ref = ([[x for _, x in row] for row in m] for m in pairs)
    product = a * b
    for i in range(n):
        for j in range(n):
            want = rings_[1].zero
            for k in range(n):
                want = want + a_ref[i][k] * b_ref[k][j]
            same(product[i, j], want)
    same(a.det(), _ref_det(a_ref))
    adjugate, adjugate_ref = a.adjugate(), _ref_adjugate(a_ref)
    for i in range(n):
        for j in range(n):
            same(adjugate[i, j], adjugate_ref[i][j])


def _compare_parse(ring, ring_ref, text):
    try:
        expected = ref.parse_element(ring_ref, text)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            parse_element(ring, text)
        assert str(err.value) == str(exc)
        assert err.value.position == exc.position
        return
    except ZeroDivisionError:
        with pytest.raises(ParseError) as err:
            parse_element(ring, text)
        assert str(err.value).startswith("zero denominator")
        assert text[err.value.position] == "0"
        return
    try:
        got = parse_element(ring, text)
    except ParseError as exc:
        # The one new rejection: an exponent past the range, which needs
        # literals adding up to more than it.
        assert "outside" in str(exc)
        assert sum(int(run) for run in re.findall(r"\d+", text)) > MAX_EXPONENT
        return
    same(got, expected)


ALPHABET = "a1234^-+*/ 0%x"
# Whole tokens as well as characters, so that more strings get past the first
# token and exercise the later errors and the successful parses.
PIECES = ["a1", "a2", "a3", "a4", "^", "-", "+", "*", "/", " ", "0", "1", "2", "12", "%", "x"]


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_parser_matches_the_tuple_kernel_on_random_strings(data):
    ring, ring_ref = data.draw(rings())
    text = data.draw(
        st.one_of(
            st.text(alphabet=ALPHABET, max_size=20),
            st.lists(st.sampled_from(PIECES), max_size=12).map("".join),
        )
    )
    _compare_parse(ring, ring_ref, text)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_parser_matches_the_tuple_kernel_on_printed_elements(data):
    rings_ = data.draw(rings())
    g, g_ref = pair(data.draw, rings_)
    _compare_parse(*rings_, format_element(g))


@pytest.mark.parametrize(
    "text",
    ["1/0", "a1 + 3/0*a2", "2/00", "1/2 - 0/0"],
    ids=["constant", "coefficient", "padded", "zero-numerator"],
)
def test_zero_denominator_is_a_parse_error_at_the_denominator(text):
    ring = RingDescriptor(Mode.POLYNOMIAL, 3, Coeff.RATIONALS)
    with pytest.raises(ParseError) as err:
        parse_element(ring, text)
    assert err.value.position == text.index("/0") + 1


def _same_as_general(ring, text):
    """``parse_element`` gives ``_parse_general``'s element, span included, or
    its error with the same message and position."""
    try:
        expected = _parse_general(ring, text)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            parse_element(ring, text)
        assert str(err.value) == str(exc)
        assert err.value.position == exc.position
        return
    got = parse_element(ring, text)
    assert got == expected
    assert got._span == expected._span


@st.composite
def printed(draw):
    """Printed elements of every mode and coefficient domain, some exponents at
    the limits of their range."""
    ring, _ = draw(rings())
    low = 0 if ring.mode is Mode.POLYNOMIAL else -MAX_EXPONENT
    exponent = st.integers(max(low, -3), 3) | st.sampled_from(
        [e for e in (low, MAX_EXPONENT, MAX_EXPONENT - 1, -MAX_EXPONENT + 1) if e >= low]
    )
    exps = st.tuples(*([exponent] * ring.nvars))
    if ring.coeff is Coeff.RATIONALS:
        coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool)
    else:
        coeffs = st.integers(-12, 12).filter(bool)
    terms = draw(st.dictionaries(exps, coeffs, max_size=6))
    return ring, format_element(RingElement(ring, terms))


@settings(max_examples=400, deadline=None)
@given(case=printed())
def test_canonical_route_matches_the_general_parser_on_printed_elements(case):
    _same_as_general(*case)


_THREE_VARIABLE_RINGS = [
    RingDescriptor(mode, 3, coeff) for mode in Mode for coeff in Coeff
]


@pytest.mark.parametrize(
    "ring", _THREE_VARIABLE_RINGS, ids=lambda r: f"{r.mode.value}-{r.coeff.value}"
)
@pytest.mark.parametrize(
    "text",
    [
        "+a1", "a2*a1", "a1*a1", "a01", "a1^-0", "a1^01",
        "a4", "a1^-1", f"a1^{MAX_EXPONENT + 1}", f"a1^{MAX_EXPONENT}*a1",
        "3/0*a1", "1/2", "1" * 5000 + "*a1", "a1^" + "1" * 5000, "a" + "1" * 5000,
        "2a1", "a1 +a2", "a1  +  a2", "a1 + a2 ", "-0", "3*a1 - 3*a1 + 0",
        "a1*a1^-1", "a1 - a2^-2*a3 + 5/3", "\u0663*a1",
    ],
    ids=[
        "leading-plus", "unordered", "repeated", "padded-index", "minus-zero-exponent",
        "padded-exponent", "unknown-variable", "negative-exponent",
        "exponent-past-limit", "product-past-limit", "zero-denominator",
        "fraction", "long-coefficient", "long-exponent", "long-index",
        "no-operator", "unspaced-plus", "double-spaces", "trailing-space",
        "minus-zero", "cancelling", "inverse-pair", "mixed", "non-ascii-digit",
    ],
)
def test_canonical_route_matches_the_general_parser_near_canonical_text(ring, text):
    _same_as_general(ring, text)


# The canonical patterns as they stood with backtracking quantifiers; the
# possessive patterns of ``colstab.ring`` must accept exactly their language.
_BACKTRACKING_MONOMIAL = r"a\d+(?:\^-?\d+)?(?:\*a\d+(?:\^-?\d+)?)*"


def _backtracking_canonical(fraction):
    term = rf"(?:\d+{fraction}(?:\*{_BACKTRACKING_MONOMIAL})?|{_BACKTRACKING_MONOMIAL})"
    return re.compile(rf"-?{term}(?: [+-] {term})*", re.ASCII)


_CANONICAL_PAIRS = [
    (colstab.ring._CANONICAL_INT, _backtracking_canonical("")),
    (colstab.ring._CANONICAL_RAT, _backtracking_canonical(r"(?:/\d+)?")),
]
CANONICAL_ALPHABET = "0123456789a^-*/+ "


@st.composite
def near_canonical(draw):
    """Printed text, strings over the canonical alphabet, and printed text
    with a stretch replaced by such a string."""
    text = draw(printed())[1]
    noise = draw(st.text(alphabet=CANONICAL_ALPHABET, max_size=12))
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, len(text)))
    return draw(st.sampled_from([text, noise, text[:i] + noise + text[j:]]))


@settings(max_examples=200, deadline=None)
@given(text=near_canonical())
def test_canonical_patterns_accept_what_the_backtracking_patterns_accept(text):
    for possessive, backtracking in _CANONICAL_PAIRS:
        assert bool(possessive.fullmatch(text)) == bool(backtracking.fullmatch(text))


def test_canonical_patterns_agree_on_every_short_string():
    # Every string of up to six characters over one digit and the other
    # characters of canonical text, among them "--a1", "1/1/1", "a1^1^1",
    # "a1*-1" and "1 -a1", which random draws seldom reach.
    alphabet = "1a^-*/+ "
    for n in range(7):
        for chars in itertools.product(alphabet, repeat=n):
            text = "".join(chars)
            for possessive, backtracking in _CANONICAL_PAIRS:
                assert bool(possessive.fullmatch(text)) == bool(backtracking.fullmatch(text)), text


def test_canonical_patterns_keep_no_backtracking_state():
    # Every repetition is possessive and every alternation atomic, read off
    # the parsed patterns.
    def check(items, atomic):
        for op, arg in items:
            name = str(op)
            assert name not in ("MAX_REPEAT", "MIN_REPEAT"), name
            assert name != "BRANCH" or atomic, "alternation outside an atomic group"
            if name == "BRANCH":
                for branch in arg[1]:
                    check(branch, False)
            elif name == "ATOMIC_GROUP":
                check(arg, True)
            elif name in ("POSSESSIVE_REPEAT", "SUBPATTERN"):
                check(arg[-1], False)

    for possessive, _ in _CANONICAL_PAIRS:
        check(re._parser.parse(possessive.pattern, possessive.flags), False)


def test_reparsing_printed_text_skips_the_general_parser(monkeypatch):
    ring = RingDescriptor(Mode.LAURENT, 3, Coeff.RATIONALS)
    text = format_element(ring.parse("a1^-2*a3 - 5/3*a2^7 + a1*a2*a3 + 4"))
    calls = []

    def counted(ring, text):
        calls.append(text)
        return _parse_general(ring, text)

    monkeypatch.setattr(colstab.ring, "_parse_general", counted)
    _monomial_key.cache_clear()
    first = parse_element(ring, text)
    assert sorted(calls) == ["a1*a2*a3", "a1^-2*a3", "a2^7"]
    calls.clear()
    assert parse_element(ring, text) == first
    assert calls == []


def test_monomial_memos_stay_within_their_size():
    ring = RingDescriptor(Mode.POLYNOMIAL, 2)
    for e in range(2, _MEMO_SIZE + 100):
        text = f"a1^{e}*a2 + 1"
        assert format_element(parse_element(ring, text)) == text
    for memo in (_monomial_key, _monomial_text):
        info = memo.cache_info()
        assert info.maxsize == _MEMO_SIZE
        assert info.currsize <= _MEMO_SIZE


def test_monomial_memo_keeps_no_text_longer_than_a_printed_monomial():
    ring = RingDescriptor(Mode.POLYNOMIAL, 3)
    _monomial_key.cache_clear()
    for e in range(50):
        assert parse_element(ring, "a1*" * 200 + f"a2^{e}") == ring.parse(f"a1^200*a2^{e}")
    assert _monomial_key.cache_info().currsize == 50  # the short texts only


def c_products(ring):
    """Products of the c_k, each to at most the cube."""
    c = [ring.c(k) for k in range(1, ring.nvars + 1)]
    exps = st.tuples(*([st.integers(0, 3)] * ring.nvars))
    return exps.map(lambda e: prod((ck**ek for ck, ek in zip(c, e)), start=ring.one))


def divisors(ring):
    """c-power products, and elements that are none: zero, units, constants,
    sums and products with a variable (in Laurent mode a_k = 1 + c_k)."""
    c1, c2 = ring.c(1), ring.c(2)
    others = [ring.zero, ring.one, -ring.one, ring.const(2), c1 + c2, c1 * ring.var(2)]
    if ring.mode is Mode.LAURENT:
        others += [ring.var(k) for k in range(1, ring.nvars + 1)]
    return st.one_of(c_products(ring), st.sampled_from(others))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_divide_exact_matches_the_tuple_kernel(data):
    mode = data.draw(st.sampled_from(list(Mode)))
    coeff = data.draw(st.sampled_from(list(Coeff)))
    nvars = data.draw(st.integers(3, 4))
    rings_ = RingDescriptor(mode, nvars, coeff), ref.RingDescriptor(mode, nvars, coeff)
    ring, ring_ref = rings_
    g, g_ref = pair(data.draw, rings_)
    d = data.draw(divisors(ring))
    # A multiple of a c-power product is divisible by some of its divisors.
    m = data.draw(c_products(ring))
    num, num_ref = g * m, g_ref * ref.RingElement(ring_ref, m.terms)
    try:
        expected = num_ref.divide_exact(ref.RingElement(ring_ref, d.terms))
    except NotDivisibleError as exc:
        with pytest.raises(NotDivisibleError, match=f"^{re.escape(str(exc))}$"):
            num.divide_exact(d)
    else:
        same(num.divide_exact(d), expected)


def test_divisor_from_another_ring_is_a_mismatch():
    polynomial = RingDescriptor(Mode.POLYNOMIAL, 3)
    for other in (
        RingDescriptor(Mode.LAURENT, 3),
        RingDescriptor(Mode.POLYNOMIAL, 4),
        RingDescriptor(Mode.POLYNOMIAL, 3, Coeff.RATIONALS),
    ):
        d = other.c(1)
        assert d.divide_exact(d) == other.one  # the memo now holds d
        with pytest.raises(DescriptorMismatchError, match="different rings"):
            polynomial.var(1).divide_exact(d)


def test_divisor_memo_stays_within_its_size():
    ring = RingDescriptor(Mode.POLYNOMIAL, 3)
    maxsize = _c_power_factors.cache_info().maxsize
    g = ring.parse("a1^9*a2^9*a3^9 + a1^9*a2^9*a3^8")
    count = 0
    for exps in itertools.product(range(8), repeat=3):
        d = ring.monomial(1, exps)
        assert (g * d).divide_exact(d) == g
        count += 1
    assert count > maxsize
    assert _c_power_factors.cache_info().currsize <= maxsize


def test_a_repeated_divisor_is_factored_once():
    ring = RingDescriptor(Mode.LAURENT, 3)
    g = ring.parse("a1^2 - a2*a3^-1 + 3")
    _c_power_factors.cache_clear()
    for _ in range(5):
        d = ring.c(1) * ring.c(2) ** 2  # equal, not identical, each time
        assert (g * d).divide_exact(d) == g
    info = _c_power_factors.cache_info()
    assert (info.misses, info.hits) == (1, 4)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_products_match_sympy(data):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.rings import ring as sympy_ring

    ring, _ = data.draw(rings())
    terms = [data.draw(term_dicts(ring, max_terms=8)) for _ in range(2)]
    domain = sympy.QQ if ring.coeff is Coeff.RATIONALS else sympy.ZZ
    poly_ring, *_ = sympy_ring([f"a{i + 1}" for i in range(ring.nvars)], domain)
    shift = 3  # clears the Laurent exponents, which are at least -3
    shifted = [
        poly_ring.from_dict(
            {tuple(e + shift for e in exps): c for exps, c in t.items()}
        )
        for t in terms
    ]
    product = RingElement(ring, terms[0]) * RingElement(ring, terms[1])
    want = {
        tuple(e - 2 * shift for e in exps): Fraction(int(c.numerator), int(c.denominator))
        if domain is sympy.QQ
        else int(c)
        for exps, c in (shifted[0] * shifted[1]).items()
    }
    assert product.terms == want
