import ast
import copy
import inspect
import pickle
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
    Mat,
    Mode,
    NotDivisibleError,
    NotInIdealError,
    ParseError,
    RingDescriptor,
    RingElement,
    c_adic_decompose,
    delta_split_linear,
    delta_split_quadratic,
    format_element,
    in_delta,
    mat_from_document,
    mat_to_document,
    parse_element,
)

from colstab.ring import (
    MAX_EXPONENT,
    _c_power_factors,
    _require_two_variable,
    _two_variable,
    c_heads,
)
from conftest import LAUR2, LAUR3, POLY2, POLY3, elements


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
    assert in_delta(g, 1) == g.specialize_all().is_zero


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
    if not g.specialize_all().is_zero:
        return False
    return p == 1 or all(
        c_heads(g, k, 2)[1].specialize_all().is_zero for k in range(1, g.ring.nvars + 1)
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
