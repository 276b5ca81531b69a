import ast
import copy
import inspect
import pickle
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import colstab
from colstab import (
    Coeff,
    ColstabError,
    DescriptorMismatchError,
    ExponentRangeError,
    Letter,
    Mat,
    Mode,
    NotDivisibleError,
    NotInIdealError,
    ParseError,
    RingDescriptor,
    RingElement,
    c_adic_decompose,
    cohn_matrix,
    delta_split_linear,
    delta_split_quadratic,
    format_element,
    gen_T,
    in_delta,
    mat_from_document,
    mat_to_document,
    parse_element,
    transvection,
)

from colstab.ring import (
    _BIAS,
    MAX_EXPONENT,
    OutOfRangeError,
    _c_power_factors,
    _element,
    _require_two_variable,
    _two_variable,
    c_heads,
)
from conftest import LAUR2, LAUR3, POLY2, POLY3, at_base_point, elements


# -- descriptors ----------------------------------------------------------------


def test_descriptors_are_interned():
    assert RingDescriptor(Mode.POLYNOMIAL, 3) is POLY3
    assert RingDescriptor(Mode.POLYNOMIAL, 3, Coeff.INTEGERS) is POLY3
    assert RingDescriptor(Mode.POLYNOMIAL, 3, Coeff.RATIONALS) is not POLY3
    assert RingDescriptor(Mode.LAURENT, 3) is not POLY3
    assert LAUR3.one is LAUR3.one and LAUR3.c(2) is LAUR3.c(2)
    # Copies and pickles resolve to the canonical instance, so identity
    # checks keep working on them.
    assert copy.deepcopy(LAUR3.c(1)).ring is LAUR3
    assert pickle.loads(pickle.dumps(LAUR3.c(1))) == LAUR3.c(1)
    with pytest.raises(AttributeError):
        POLY3.nvars = 4


@pytest.mark.parametrize(
    "args, message",
    [
        (("polynomial", 3), "mode must be a Mode, not 'polynomial'"),
        ((Mode.POLYNOMIAL, 3, "int"), "coeff must be a Coeff, not 'int'"),
        ((Mode.POLYNOMIAL, 3.0), "nvars must be an int, not 3.0"),
        ((Mode.LAURENT, True), "nvars must be an int, not True"),
        ((Mode.LAURENT, "3"), "nvars must be an int, not '3'"),
    ],
    ids=["raw-mode", "raw-coeff", "float-nvars", "bool-nvars", "str-nvars"],
)
def test_descriptor_takes_only_a_mode_an_int_and_a_coeff(args, message):
    # Each is refused before the intern lookup, where 3.0 and True would find
    # the rings of 3 and 1 variables and a raw string would build a ring
    # that acts as one mode or domain and prints as another.
    RingDescriptor(Mode.POLYNOMIAL, 3)
    RingDescriptor(Mode.LAURENT, 1)
    interned = dict(colstab.ring._INTERNED)
    with pytest.raises(OutOfRangeError, match=f"^{re.escape(message)}$"):
        RingDescriptor(*args)
    assert colstab.ring._INTERNED == interned


def test_equality_with_numbers_reads_the_constant_term():
    rat = RingDescriptor(Mode.LAURENT, 3, Coeff.RATIONALS)
    assert (POLY3.one == Fraction(1, 2)) is False
    assert POLY3.one == 1 and POLY3.one == Fraction(1) and rat.one == 1
    assert POLY3.zero == 0 and POLY3.zero != 1
    assert rat.const(Fraction(1, 2)) == Fraction(1, 2)
    assert POLY3.var(1) != 1 and POLY3.var(1) + 1 != 1 and POLY3.var(1) != 0
    assert LAUR3.parse("a1*a1^-1 + 2") == 3
    for g, number in [(POLY3.one, 1), (POLY3.zero, 0), (POLY3.const(-5), -5),
                      (rat.const(Fraction(1, 2)), Fraction(1, 2))]:
        assert hash(g) == hash(number)
        assert len({g, number}) == 1


# -- codec ----------------------------------------------------------------------


def test_parse_terms_and_round_trip():
    g = POLY3.parse("a1^2*a2 - 3")
    assert g.terms == {(2, 1, 0): 1, (0, 0, 0): -3}
    assert format_element(g) == "a1^2*a2 - 3"


def test_parse_laurent_inverse_monomial():
    g = LAUR3.parse("a1^-1")
    assert g.terms == {(-1, 0, 0): 1}
    assert format_element(g) == "a1^-1"


def test_parse_negative_exponent_rejected_in_polynomial_mode():
    with pytest.raises(ParseError) as err:
        POLY3.parse("a1^-1")
    assert err.value.position > 0


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        POLY3.parse("a1 + + 2")
    with pytest.raises(ParseError):
        POLY3.parse("a9")
    with pytest.raises(ParseError):
        POLY3.parse("3 % 4")


def test_parse_rejects_non_string_input_at_position_0():
    with pytest.raises(ParseError) as err:
        POLY3.parse(1)
    assert err.value.position == 0


def test_parse_rationals_only_when_enabled():
    ratring = RingDescriptor(Mode.POLYNOMIAL, 2, Coeff.RATIONALS)
    g = ratring.parse("1/2*a1 - 3/4")
    assert g.terms == {(1, 0): Fraction(1, 2), (0, 0): Fraction(-3, 4)}
    assert format_element(g) == "1/2*a1 - 3/4"
    with pytest.raises(ParseError):
        POLY2.parse("1/2*a1")


@pytest.mark.parametrize("coeff", list(Coeff), ids=lambda c: c.value)
def test_bool_coefficients_are_stored_as_numbers(coeff):
    # A bool kept as a coefficient prints as "True", which the parser rejects.
    ring = RingDescriptor(Mode.POLYNOMIAL, 3, coeff)
    for flag, text in ((True, "1"), (False, "0")):
        origin = (0, 0, 0)
        made = (ring.const(flag), ring.monomial(flag, origin), RingElement(ring, {origin: flag}))
        for g in made:
            assert format_element(g) == text
            assert parse_element(ring, text) == g
            assert mat_from_document(mat_to_document(Mat([[g]]))) == Mat([[g]])
    assert format_element(ring.monomial(True, (1, 0, 0))) == "a1"


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: POLY3.const(1.5), "bad coefficient 1.5"),
        (lambda: POLY3.monomial(1, (0, -1, 0)), "negative exponent in polynomial mode"),
        (lambda: POLY3.monomial(1, (0, 1)), "exponent vector has wrong length"),
        (
            lambda: gen_T(POLY3, 1, 2, 3, Fraction(1, 2)),
            "fractional coefficient in an integer ring",
        ),
    ],
    ids=["float-coefficient", "negative-exponent", "short-exponents", "fraction-parameter"],
)
def test_coefficients_and_exponents_outside_the_ring_are_domain_errors(make, message):
    # Both a ColstabError, for library callers, and a ValueError, as before.
    with pytest.raises(OutOfRangeError, match=f"^{message}$") as err:
        make()
    assert isinstance(err.value, ColstabError) and isinstance(err.value, ValueError)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: POLY3.var(1) ** -1, "only nonnegative integer powers are supported"),
        (lambda: in_delta(POLY3.one, 3), "only first and second powers are supported"),
        (lambda: transvection(POLY3, 3, 1, 1, POLY3.one), "transvection indices must differ"),
        (lambda: Letter("t", (1, 2, 3), POLY3.one), "unknown letter kind 't'"),
        (
            lambda: Letter("T", (1, 1, 2), POLY3.one),
            "T letter indices must be one of ((1, 2, 3), (2, 1, 3), (3, 1, 2)), not (1, 1, 2)",
        ),
        (lambda: cohn_matrix(LAUR3), "the Cohn matrix lives over the polynomial ring"),
        (
            lambda: cohn_matrix(RingDescriptor(Mode.POLYNOMIAL, 1)),
            "the Cohn matrix needs at least two variables",
        ),
    ],
    ids=[
        "negative-power", "third-ideal-power", "equal-transvection-indices",
        "letter-kind", "letter-indices", "laurent-cohn", "one-variable-cohn",
    ],
)
def test_arguments_outside_an_operations_range_are_domain_errors(make, message):
    # A library caller catches each as a ColstabError; each keeps its
    # message and stays a ValueError.
    with pytest.raises(OutOfRangeError, match=f"^{re.escape(message)}$") as err:
        make()
    assert isinstance(err.value, ColstabError) and isinstance(err.value, ValueError)


@pytest.mark.parametrize("ring", [POLY3, LAUR3], ids=["polynomial", "laurent"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_codec_round_trip_random(ring, data):
    g = data.draw(elements(ring))
    assert parse_element(ring, format_element(g)) == g


# -- arithmetic -----------------------------------------------------------------


def test_difference_of_squares():
    a1 = POLY3.var(1)
    assert (a1 + 1) * (a1 - 1) == a1 * a1 - 1


def test_cohn_determinant_expansion():
    a1, a2 = POLY2.var(1), POLY2.var(2)
    assert (1 + a1 * a2) * (1 - a1 * a2) + a1**2 * a2**2 == POLY2.one


def test_laurent_monomial_times_inverse():
    a1 = LAUR3.var(1)
    assert a1 * LAUR3.parse("a1^-1") == LAUR3.one


@pytest.mark.parametrize("ring", [POLY3, LAUR3], ids=["polynomial", "laurent"])
def test_exponents_at_the_limit_parse_and_multiply(ring):
    top = ring.parse(f"a1^{MAX_EXPONENT - 1}")
    assert (top * ring.var(1)).terms == {(MAX_EXPONENT, 0, 0): 1}
    g = ring.parse(f"a2^{MAX_EXPONENT}*a3 + 1")
    assert g.terms == {(0, MAX_EXPONENT, 1): 1, (0, 0, 0): 1}
    assert ring.parse(format_element(g)) == g
    assert ring.var(2) ** MAX_EXPONENT == ring.monomial(1, (0, MAX_EXPONENT, 0))


def test_laurent_exponents_at_the_limit():
    low = LAUR3.parse(f"a1^-{MAX_EXPONENT}")
    # The operands' bounds add up past the limit; the exact product does not.
    assert low * LAUR3.parse(f"a1^{MAX_EXPONENT}*a2") == LAUR3.var(2)
    assert (low * LAUR3.c(2)).terms == {(-MAX_EXPONENT, 1, 0): 1, (-MAX_EXPONENT, 0, 0): -1}


@pytest.mark.parametrize("ring", [POLY3, LAUR3], ids=["polynomial", "laurent"])
def test_exponents_past_the_limit_raise(ring):
    text = f"a1 + a2^{MAX_EXPONENT + 1}"
    with pytest.raises(ParseError, match="outside") as err:
        ring.parse(text)
    assert err.value.position == text.index("^") + 1
    text = f"a1^{MAX_EXPONENT}*a3*a1"
    with pytest.raises(ParseError, match="outside") as err:
        ring.parse(text)
    assert err.value.position == text.rindex("a1")
    top = ring.parse(f"a1^{MAX_EXPONENT}")
    with pytest.raises(ExponentRangeError):
        top * ring.var(1)
    with pytest.raises(ExponentRangeError):
        ring.c(1) * (top + 1)
    with pytest.raises(ExponentRangeError):
        ring.var(2) ** (MAX_EXPONENT + 1)
    with pytest.raises(ExponentRangeError):
        RingElement(ring, {(0, 0, MAX_EXPONENT + 1): 1})


def test_negative_laurent_exponents_past_the_limit_raise():
    with pytest.raises(ParseError, match="outside"):
        LAUR3.parse(f"a3^-{MAX_EXPONENT + 1}")
    low = LAUR3.parse(f"a3^-{MAX_EXPONENT}")
    with pytest.raises(ExponentRangeError):
        low * LAUR3.parse("a3^-1")
    with pytest.raises(ExponentRangeError):
        low.unit_inverse() * LAUR3.var(3)


def test_descriptor_mismatch_raises():
    with pytest.raises(DescriptorMismatchError):
        POLY3.var(1) + LAUR3.var(1)


@pytest.mark.parametrize("ring", [POLY3, LAUR3], ids=["polynomial", "laurent"])
@settings(deadline=None)
@given(data=st.data())
def test_ring_axioms_random(ring, data):
    g = data.draw(elements(ring))
    h = data.draw(elements(ring))
    k = data.draw(elements(ring))
    assert g + h == h + g
    assert g * h == h * g
    assert (g + h) * k == g * k + h * k
    assert (g * h) * k == g * (h * k)
    assert g + ring.zero == g
    assert g * ring.one == g
    assert g - g == ring.zero


# -- specialize -----------------------------------------------------------------


def test_specialize_examples():
    g = POLY3.parse("a3^2*a1 + a3 + a2")
    assert g.specialize(3) == POLY3.var(2)
    assert LAUR3.var(3).specialize(3) == LAUR3.one
    assert LAUR3.parse("a3^-1").specialize(3) == LAUR3.one


@pytest.mark.parametrize("ring", [POLY3, LAUR3], ids=["polynomial", "laurent"])
@settings(deadline=None)
@given(data=st.data())
def test_specialize_is_a_homomorphism(ring, data):
    g = data.draw(elements(ring))
    h = data.draw(elements(ring))
    k = data.draw(st.integers(1, ring.nvars))
    assert (g + h).specialize(k) == g.specialize(k) + h.specialize(k)
    assert (g * h).specialize(k) == g.specialize(k) * h.specialize(k)
    assert g.specialize(k).free_of(k)


# -- exact division -------------------------------------------------------------


def test_divide_examples():
    g = POLY3.parse("a3^2*a1 + a3")
    assert g.divide_exact(POLY3.var(3)) == POLY3.parse("a3*a1 + 1")

    f = LAUR3.parse("a3^-1") - 1
    q = f.divide_exact(LAUR3.c(3))
    assert q == -LAUR3.parse("a3^-1")
    assert q * LAUR3.c(3) == f

    with pytest.raises(NotDivisibleError):
        POLY3.var(1).divide_exact(POLY3.var(3))


def test_divisor_must_be_c_product():
    with pytest.raises(NotDivisibleError):
        (POLY3.var(1) * 2).divide_exact(POLY3.const(2))
    for ring in (POLY3, LAUR3):
        with pytest.raises(NotDivisibleError):
            ring.var(1).divide_exact(ring.zero)


@pytest.mark.parametrize("divisor", ["a1", 1.5, None, [1]], ids=repr)
def test_divisor_of_another_type_is_a_type_error(divisor):
    before = _c_power_factors.cache_info()
    with pytest.raises(TypeError, match=f"not {type(divisor).__name__}$"):
        POLY3.var(1).divide_exact(divisor)
    assert _c_power_factors.cache_info() == before


@pytest.mark.parametrize("ring", [POLY3, LAUR3], ids=["polynomial", "laurent"])
@settings(deadline=None)
@given(data=st.data())
def test_divide_round_trip_random(ring, data):
    g = data.draw(elements(ring))
    exps = data.draw(st.tuples(*([st.integers(0, 2)] * 3)))
    d = ring.one
    for k, e in enumerate(exps, start=1):
        d = d * ring.c(k) ** e
    assert (g * d).divide_exact(d) == g


# -- c-adic decomposition ---------------------------------------------------------


def test_c_adic_examples():
    dec = c_adic_decompose(POLY3.parse("a1*a3^2 + a3 + a2"), 3, 2)
    assert list(dec.heads) == [POLY3.var(2), POLY3.one]
    assert dec.tail == POLY3.var(1)

    dec = c_adic_decompose(LAUR3.var(3), 3, 2)
    assert list(dec.heads) == [LAUR3.one, LAUR3.one]
    assert dec.tail == LAUR3.zero

    dec = c_adic_decompose(LAUR3.parse("a3^-1"), 3, 1)
    assert list(dec.heads) == [LAUR3.one]
    assert dec.tail == -LAUR3.parse("a3^-1")
    assert dec.reconstruct() == LAUR3.parse("a3^-1")


@pytest.mark.parametrize("ring", [POLY3, LAUR3], ids=["polynomial", "laurent"])
@settings(deadline=None)
@given(data=st.data())
def test_c_adic_round_trip_random(ring, data):
    g = data.draw(elements(ring))
    k = data.draw(st.integers(1, ring.nvars))
    t = data.draw(st.integers(1, 3))
    dec = c_adic_decompose(g, k, t)
    assert dec.reconstruct() == g
    for head in dec.heads:
        assert head.free_of(k)


def test_c_adic_unique_for_fixed_depth(ring3):
    g = ring3.parse("a1*a3^2 + 2*a3 - a2")
    first = c_adic_decompose(g, 3, 2)
    second = c_adic_decompose(g, 3, 2)
    assert first == second


# -- units ----------------------------------------------------------------------


def test_unit_examples():
    assert POLY3.const(-1).unit_inverse() == POLY3.const(-1)
    u = LAUR3.parse("a1^2*a2^-1")
    assert u.unit_inverse() == LAUR3.parse("a1^-2*a2")
    assert u * u.unit_inverse() == LAUR3.one
    assert not (1 + POLY3.var(1)).is_unit()
    assert not (1 + LAUR3.var(1)).is_unit()


def test_rational_units():
    ratring = RingDescriptor(Mode.POLYNOMIAL, 2, Coeff.RATIONALS)
    g = ratring.const(Fraction(3, 4))
    assert g * g.unit_inverse() == ratring.one


# -- augmentation ideal -----------------------------------------------------------


def test_in_delta_examples():
    assert in_delta(POLY2.parse("a1*a2"), 2)
    assert not in_delta(POLY2.var(1), 2)
    assert in_delta(LAUR2.c(1) * LAUR2.c(2), 2)
    assert not in_delta(POLY2.one, 1)
    assert not in_delta(LAUR2.one, 1)


@pytest.mark.parametrize("ring", [POLY2, LAUR2], ids=["polynomial", "laurent"])
@settings(deadline=None)
@given(data=st.data())
def test_in_delta_matches_base_point_vanishing(ring, data):
    g = data.draw(elements(ring))
    assert in_delta(g, 1) == at_base_point(g).is_zero


@pytest.mark.parametrize("ring", [POLY2, LAUR2], ids=["polynomial", "laurent"])
@settings(deadline=None)
@given(data=st.data())
def test_products_of_generators_land_in_delta_powers(ring, data):
    g = data.draw(elements(ring))
    h = data.draw(elements(ring))
    k1 = data.draw(st.integers(1, 2))
    k2 = data.draw(st.integers(1, 2))
    assert in_delta(g * ring.c(k1), 1)
    assert in_delta(g * ring.c(k1) * ring.c(k2) + h * ring.c(1) * ring.c(2), 2)


# Both modes, both coefficient domains, one to four variables.
SMALL_RINGS = [
    RingDescriptor(mode, nvars, coeff)
    for mode in Mode
    for coeff in Coeff
    for nvars in (1, 2, 3, 4)
]


def _ring_id(ring):
    return f"{ring.mode.value}-{ring.coeff.value}-{ring.nvars}"


def _in_delta_by_heads(g, p):
    """The route ``in_delta`` replaced: g at the base point, then the linear
    head of g along each c_k there."""
    if not at_base_point(g).is_zero:
        return False
    return p == 1 or all(
        at_base_point(c_heads(g, k, 2)[1]).is_zero for k in range(1, g.ring.nvars + 1)
    )


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=_ring_id)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_in_delta_matches_the_heads_route(ring, data):
    # Multiplying by up to two c_k makes members of the ideal and of its
    # square common draws; adding a second element makes near misses.
    g = data.draw(elements(ring))
    for k in data.draw(st.lists(st.integers(1, ring.nvars), max_size=2)):
        g = g * ring.c(k)
    if data.draw(st.booleans()):
        h = data.draw(elements(ring, max_terms=2))
        g = g + h * ring.c(data.draw(st.integers(1, ring.nvars)))
    for p in (1, 2):
        assert in_delta(g, p) == _in_delta_by_heads(g, p)


def _grouped_heads(g, k, t):
    """Laurent ``c_heads`` as it stood before the sorted pass: the terms
    grouped by the exponent e of a_k, then each group added into every head
    with the binomial C(e, i)."""
    ring = g.ring
    mask, zero = ring._field(k)
    shift = ring._shifts[k - 1]
    accs = [{} for _ in range(t)]
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
            binomial = binomial * (e - i) // (i + 1)
            if not binomial:
                break
    return tuple(
        _element(ring, {key: c for key, c in acc.items() if c}, g._span) for acc in accs
    )


def _laurent3_terms(ring):
    """Strategy for the terms of a three-variable Laurent element, as a list of
    (exponents, coefficient): few exponents of a1 and a2, so that runs of
    keys that differ only in a3 are long, and exponents of a3 near zero or
    near either end of the range."""
    if ring.coeff is Coeff.RATIONALS:
        coeffs = st.fractions(-4, 4, max_denominator=3).filter(bool)
    else:
        coeffs = st.integers(-4, 4).filter(bool)
    far = st.integers(MAX_EXPONENT - 3, MAX_EXPONENT)
    e3 = st.integers(-3, 3) | far | far.map(lambda e: -e)
    exps = st.tuples(st.integers(-1, 1), st.integers(-1, 1), e3)
    return st.lists(st.tuples(exps, coeffs), max_size=12)


@pytest.mark.parametrize("coeff", list(Coeff), ids=lambda c: c.value)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_last_variable_heads_match_the_grouped_body(coeff, data):
    # Empty, one-term and many-term elements, plus runs whose heads cancel:
    # (a3 - 1)^p * a3^e * m has zero heads below depth p, so c3^3 times
    # anything is zero at every depth the sorted pass takes.
    ring = RingDescriptor(Mode.LAURENT, 3, coeff)
    g = ring.zero
    for exps, c in data.draw(_laurent3_terms(ring)):
        g = g + ring.monomial(c, exps)
    for _ in range(data.draw(st.integers(0, 2))):
        p = data.draw(st.integers(1, 3))
        e = data.draw(st.integers(-MAX_EXPONENT, MAX_EXPONENT - p))
        m = ring.monomial(data.draw(st.integers(-3, 3)), [data.draw(st.integers(-1, 1)), 0, e])
        g = g + m * ring.c(3) ** p
    t = data.draw(st.integers(1, 3))
    assert c_heads(g, 3, t) == _grouped_heads(g, 3, t)


def test_last_variable_heads_of_edge_elements():
    ring = LAUR3
    c3 = ring.c(3)
    n = MAX_EXPONENT
    cases = {
        "0": (ring.zero,) * 3,
        "3*a1*a3^-2": tuple(ring.parse(x) for x in ("3*a1", "-6*a1", "9*a1")),
        # a3^n = (1 + c3)^n: heads C(n, 0..2); a3^-n: C(-n, 0..2).
        f"a3^{n}": tuple(ring.const(x) for x in (1, n, n * (n - 1) // 2)),
        f"a3^-{n}": tuple(ring.const(x) for x in (1, -n, n * (n + 1) // 2)),
    }
    for text, expected in cases.items():
        assert c_heads(ring.parse(text), 3, 3) == expected
    # A run that cancels at every depth, beside one that does not.
    g = ring.parse("a1*a2^-1") * c3**3 + ring.parse("a2*a3")
    assert c_heads(g, 3, 3) == (ring.parse("a2"), ring.parse("a2"), ring.zero)


def test_only_last_variable_heads_to_depth_three_take_the_sorted_pass(monkeypatch):
    # The sorted pass runs for k == nvars and t <= 3 in Laurent mode; the
    # grouped route takes every other variable and depth, and polynomial
    # mode bypasses both.
    sorted_pass = colstab.ring._last_variable_heads
    taken = []

    def spy(g, t):
        taken.append(t)
        return sorted_pass(g, t)

    monkeypatch.setattr(colstab.ring, "_last_variable_heads", spy)
    for ring in SMALL_RINGS:
        g = ring.zero
        for k in range(1, ring.nvars + 1):
            g = g + ring.c(k) * ring.c(k) - ring.var(k) * 3
        for k in range(1, ring.nvars + 1):
            for t in (1, 2, 3, 4, 64):
                taken.clear()
                heads = c_heads(g, k, t)
                routed = ring.mode is Mode.LAURENT and k == ring.nvars and t <= 3
                assert taken == ([t] if routed else [])
                if ring.mode is Mode.LAURENT:
                    assert heads == _grouped_heads(g, k, t)


def _to_sympy(sympy, g, symbols):
    """g as a sympy expression in the symbols a1..an."""
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(x**e for x, e in zip(symbols, exps)))
            for exps, c in g.terms.items()
        )
    )


@pytest.mark.parametrize("coeff", list(Coeff), ids=lambda c: c.value)
@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_c_heads_match_sympy(mode, coeff, data):
    # An oracle that shares no code with c_heads: the heads along c_k are
    # the coefficients of g in powers of c_k, so of a_k in polynomial mode
    # and, with a_k = 1 + s, of the series of g in s in Laurent mode.  Every
    # variable and every depth up to 3 is checked on each element.
    sympy = pytest.importorskip("sympy")
    ring = RingDescriptor(mode, 3, coeff)
    g = data.draw(elements(ring, max_terms=6))
    symbols = sympy.symbols("a1:4")
    expr = _to_sympy(sympy, g, symbols)
    s = sympy.Symbol("s")
    for k, ak in enumerate(symbols, start=1):
        if mode is Mode.POLYNOMIAL:
            want = [expr.coeff(ak, i) for i in range(3)]
        else:
            series = sympy.expand(sympy.series(expr.subs(ak, 1 + s), s, 0, 3).removeO())
            want = [series.coeff(s, i) for i in range(3)]
        for t in (1, 2, 3):
            heads = c_heads(g, k, t)
            assert len(heads) == t
            for head, coeff_i in zip(heads, want):
                assert sympy.expand(_to_sympy(sympy, head, symbols) - coeff_i) == 0


def test_in_delta_reads_the_gradient_of_every_variable():
    # Laurent: a1*a2^-1 - 1 vanishes at the base point with gradient (1, -1).
    ring = RingDescriptor(Mode.LAURENT, 4, Coeff.RATIONALS)
    g = ring.monomial(Fraction(1, 2), [1, -1, 0, 0]) - Fraction(1, 2)
    assert in_delta(g, 1) and not in_delta(g, 2)
    assert in_delta(g * ring.c(4), 2)
    for k in range(1, 5):
        assert not in_delta(ring.c(k), 2)
        assert not in_delta(POLY3.var(min(k, 3)), 2)
    assert in_delta(ring.c(1) * ring.c(2) - ring.c(3) * ring.c(4), 2)


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=_ring_id)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_two_variable_matches_free_of(ring, data):
    # Half the draws are promoted from the first two variables.
    low = RingDescriptor(ring.mode, min(ring.nvars, 2), ring.coeff)
    g = data.draw(elements(low)).promote(ring)
    if data.draw(st.booleans()):
        g = g + data.draw(elements(ring, max_terms=1))
    assert _two_variable(g) == all(g.free_of(k) for k in range(3, ring.nvars + 1))


# -- ideal splits -----------------------------------------------------------------


def test_linear_split_examples():
    assert delta_split_linear(POLY2.parse("a1*a2")) == (POLY2.zero, POLY2.var(1))
    assert delta_split_linear(POLY2.c(1)) == (POLY2.one, POLY2.zero)
    with pytest.raises(NotInIdealError):
        delta_split_linear(POLY2.one)


def test_quadratic_split_examples():
    zero, one = POLY2.zero, POLY2.one
    assert delta_split_quadratic(POLY2.parse("a2^2")) == (zero, zero, zero, one)
    assert delta_split_quadratic(POLY2.c(1) * POLY2.c(2)) == (zero, one, zero, zero)
    assert delta_split_quadratic(POLY2.zero) == (zero, zero, zero, zero)
    with pytest.raises(NotInIdealError):
        delta_split_quadratic(POLY2.c(1))


@pytest.mark.parametrize("ring", [POLY2, LAUR2], ids=["polynomial", "laurent"])
@settings(deadline=None)
@given(data=st.data())
def test_linear_split_reconstructs(ring, data):
    b1 = data.draw(elements(ring))
    b2 = data.draw(elements(ring))
    beta = b1 * ring.c(1) + b2 * ring.c(2)
    s1, s2 = delta_split_linear(beta)
    assert s1 * ring.c(1) + s2 * ring.c(2) == beta
    assert s1.free_of(2)


@pytest.mark.parametrize("ring", [POLY2, LAUR2], ids=["polynomial", "laurent"])
@settings(deadline=None)
@given(data=st.data())
def test_quadratic_split_reconstructs(ring, data):
    c1, c2 = ring.c(1), ring.c(2)
    parts = [data.draw(elements(ring)) for _ in range(3)]
    delta = parts[0] * c1 * c1 + parts[1] * c1 * c2 + parts[2] * c2 * c2
    d11, d12, d12p, d22 = delta_split_quadratic(delta)
    assert d12p.is_zero
    assert d11 * c1 * c1 + (d12 + d12p) * c1 * c2 + d22 * c2 * c2 == delta
    assert d11.free_of(2) and d12.free_of(2)


def _linear_split_by_division(beta):
    """The route ``delta_split_linear`` replaced: specialize variable 2,
    divide through ``divide_exact`` and multiply back by c1."""
    _require_two_variable(beta)
    if not in_delta(beta, 1):
        raise NotInIdealError("element is not in the augmentation ideal")
    ring = beta.ring
    beta1 = beta.specialize(2).divide_exact(ring.c(1))
    beta2 = (beta - beta1 * ring.c(1)).divide_exact(ring.c(2))
    return beta1, beta2


def _quadratic_split_by_division(delta):
    """The route ``delta_split_quadratic`` replaced: four ``divide_exact``
    calls and two products by powers of c1."""
    _require_two_variable(delta)
    if not in_delta(delta, 2):
        raise NotInIdealError("element is not in the squared augmentation ideal")
    ring = delta.ring
    c1, c2 = ring.c(1), ring.c(2)
    c1_sq = c1 * c1
    d11 = delta.specialize(2).divide_exact(c1_sq)
    rem = (delta - d11 * c1_sq).divide_exact(c2)
    d12 = rem.specialize(2).divide_exact(c1)
    d22 = (rem - d12 * c1).divide_exact(c2)
    return d11, d12, ring.zero, d22


def _split_outcome(split, g):
    """The split of g, or the type and message of the error it raises."""
    try:
        return split(g)
    except ColstabError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "ring", [ring for ring in SMALL_RINGS if ring.nvars >= 2], ids=_ring_id
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_splits_match_the_division_route(ring, data):
    # Elements of the first two variables times up to two of c1, c2 are
    # members of the ideal and of its square; an added multiple of some c_k
    # makes near misses and, from three variables on, inputs involving a3.
    plane = RingDescriptor(ring.mode, 2, ring.coeff)
    g = data.draw(elements(plane)).promote(ring)
    for k in data.draw(st.lists(st.integers(1, 2), max_size=2)):
        g = g * ring.c(k)
    if data.draw(st.booleans()):
        h = data.draw(elements(ring, max_terms=2))
        g = g + h * ring.c(data.draw(st.integers(1, ring.nvars)))
    for split, oracle in (
        (delta_split_linear, _linear_split_by_division),
        (delta_split_quadratic, _quadratic_split_by_division),
    ):
        assert _split_outcome(split, g) == _split_outcome(oracle, g)


# -- layering -------------------------------------------------------------------

# Attributes of the packed representation, its constructor from packed terms,
# the one-step division by c_k and the exponent range.
PACKED = {"_terms", "_span", "_origin", "_element", "_divide_c", "MAX_EXPONENT"}


def _names_used(path):
    """Every attribute, name and imported name in a source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_no_module_imports_a_name_it_does_not_use():
    # No linter runs on the package, so an import a deletion leaves behind
    # shows up here.  __init__ imports only to export.
    package = Path(colstab.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))


def test_no_module_raises_a_bare_value_error():
    # A domain error of the library is a ColstabError, so that one except
    # clause catches them all; OutOfRangeError is also a ValueError for
    # callers that catch that.  TypeError stays for operands of a wrong type.
    package = Path(colstab.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                bare = isinstance(exc, ast.Name) and exc.id == "ValueError"
                assert not bare, f"{path.name}:{node.lineno} raises a bare ValueError"


def test_only_the_ring_module_reads_packed_terms():
    package = Path(colstab.__file__).parent
    assert PACKED <= _names_used(package / "ring.py")
    for path in sorted(package.glob("*.py")):
        if path.name != "ring.py":
            assert not PACKED & _names_used(path), path.name


# The names ``colstab`` exports, by the module that defines them.  A change
# to the public surface shows up as an edit here.
PUBLIC_NAMES = {
    # matrix
    "Mat", "NotAUnitError", "ShapeError", "identity", "mat_from_document",
    "mat_to_document", "promote", "transvection",
    # ring
    "CAdicDecomposition", "Coeff", "ColstabError", "DescriptorMismatchError",
    "ExponentRangeError", "Mode", "NotDivisibleError", "NotInIdealError",
    "ParseError", "RingDescriptor", "RingElement", "c_adic_decompose",
    "delta_split_linear", "delta_split_quadratic", "format_element", "in_delta",
    "parse_element",
    # stab
    "CongruenceMatrix", "NotInSchemeError", "NotStabilizingError", "PreimageReport",
    "RelationFailedError", "ResidueQuadruple", "StabMatrix", "annihilator_block",
    "check_stab", "column", "compose_residues", "in_H", "in_scheme", "preimage",
    "r_decompose", "reduce", "residues", "residues_closed_form", "rho",
    # tame
    "Letter", "NotInStab2Error", "TameWord", "cohn_matrix", "eval_word", "gen_S",
    "gen_T", "prop2_check", "sample_tame", "stab2", "stab2_param",
}


def test_public_surface_is_the_listed_names():
    exported = {
        name
        for name, value in vars(colstab).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == PUBLIC_NAMES


@pytest.mark.parametrize("coeff", list(Coeff), ids=["int", "rat"])
def test_format_element_names_the_digit_limit_and_prints_up_to_it(coeff):
    # Python converts integers of at most sys.get_int_max_str_digits() digits
    # to text, 4300 by default; the parser refuses longer numbers, so the
    # printer refuses them too, with a domain error rather than a bare
    # ValueError.
    ring = RingDescriptor(Mode.LAURENT, 3, coeff)
    limit = sys.get_int_max_str_digits()
    assert limit
    message = f"^a coefficient has more than the {limit} digits an integer may print with$"
    big = 10**limit
    too_long = [ring.const(big), ring.monomial(-big, [1, -1, 0]) + ring.one]
    if coeff is Coeff.RATIONALS:
        too_long.append(ring.const(Fraction(1, big)))
    for g in too_long:
        with pytest.raises(OutOfRangeError, match=message):
            format_element(g)
        with pytest.raises(OutOfRangeError, match=message):
            mat_to_document(Mat([[g]]))
    longest = ring.monomial(-(big - 1), [2, 0, -1])
    assert parse_element(ring, format_element(longest)) == longest
