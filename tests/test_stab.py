import ast
import inspect
import json
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, event, given, settings, strategies as st

import colstab
from colstab import (
    CongruenceMatrix,
    Mat,
    Mode,
    NotAUnitError,
    NotDivisibleError,
    NotInSchemeError,
    NotStabilizingError,
    Letter,
    RingDescriptor,
    RingElement,
    ShapeError,
    TameWord,
    annihilator_block,
    c_adic_decompose,
    check_stab,
    cohn_matrix,
    column,
    compose_residues,
    delta_split_quadratic,
    eval_word,
    gen_S,
    gen_T,
    identity,
    in_H,
    in_delta,
    in_scheme,
    preimage,
    r_decompose,
    reduce,
    residues,
    residues_closed_form,
    rho,
    sample_tame,
    transvection,
)
from colstab.stab import (
    CandidateSplits,
    RelationFailedError,
    ResidueQuadruple,
    SearchBudget,
    StabMatrix,
    _rank_one_adjugate,
    _shaped_lift,
    candidate_from_splits,
    canonical_splits,
    matrix_from_splits,
)

from colstab.cli import main
from colstab.matrix import mat_to_document, promote
from colstab.ring import Coeff, _divide_c, _dot, c_heads, format_element
from colstab.tame import S_INDICES, T_INDICES
from colstab.verify import _random_element, _random_scheme_zero_defect, _sample_kernel_member

import fox
import reference_ring as ref
from conftest import (
    LAUR3,
    POLY3,
    at_base_point,
    automorphisms,
    conjugator,
    elements,
    words,
    zeros,
)


def _sample(ring, seed, length=6):
    return eval_word(ring, sample_tame(ring, seed, length))


# -- certification ----------------------------------------------------------------


def test_check_stab_accepts_row_perturbations(ring3):
    rng = random.Random(3)
    for _ in range(10):
        a = ring3.monomial(rng.randint(-3, 3), [rng.randint(0, 2)] * 3)
        check_stab(gen_T(ring3, 3, 1, 2, a).mat)


def _name(node):
    """The bare name of a Name or Attribute node, else None."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _call_sites(match):
    """Names of the functions in the package source that hold a call node
    ``match`` accepts; a call outside every function counts as <module>."""
    sites = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = node.name
        if isinstance(node, ast.Call) and match(node):
            sites.add(enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in sorted(Path(colstab.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return sites


def _calls_of(name):
    """Matches calls of ``name``, bare or as an attribute."""
    return lambda call: _name(call.func) == name


def test_stab_matrix_is_built_only_where_its_docstring_says():
    named = set(re.findall(r"``(\w+)``", StabMatrix.__doc__))
    assert named == {"check_stab", "__mul__", "inverse", "eval_word", "preimage"}
    assert _call_sites(_calls_of("StabMatrix")) == named


def test_letters_multiply_only_through_times_letters():
    assert _call_sites(_calls_of("_apply_letter")) == {"_times_letters"}
    assert _call_sites(_calls_of("_times_letters")) == {"eval_word", "stab2", "preimage"}


def test_only_rho_builds_a_congruence_matrix_unvalidated():
    # Any __new__ that names the class, object.__new__(CongruenceMatrix)
    # included, skips the validating __post_init__.
    def unvalidated(call):
        return _name(call.func) == "__new__" and any(
            _name(arg) == "CongruenceMatrix" for arg in call.args
        )

    assert _call_sites(unvalidated) == {"rho"}


def test_check_stab_accepts_identity(ring3):
    assert check_stab(identity(ring3, 3)).mat == identity(ring3, 3)


def test_check_stab_reports_defect(ring3):
    with pytest.raises(NotStabilizingError) as err:
        check_stab(transvection(ring3, 3, 1, 2, ring3.one))
    assert err.value.defect == [ring3.c(2), ring3.zero, ring3.zero]


def test_check_stab_requires_unit_determinant(ring3):
    c1, c2 = ring3.c(1), ring3.c(2)
    one, zero = ring3.one, ring3.zero
    m = Mat([[one + c2 * c2, -(c1 * c2), zero], [zero, one, zero], [zero, zero, one]])
    assert m.apply_column(column(ring3)) == column(ring3)
    with pytest.raises(NotAUnitError) as err:
        check_stab(m)
    assert err.value.det == ring3.one + c2 * c2


def test_check_stab_rejects_a_wrong_shape_by_name(ring3):
    for m in (identity(ring3, 2), zeros(ring3, 3, 2), identity(ring3, 4)):
        with pytest.raises(ShapeError, match=f"not {m.nrows}x{m.ncols}$"):
            check_stab(m)


def test_congruence_matrix_rejects_a_wrong_shape_by_name(ring3):
    # in_scheme stays a predicate; the validating constructor names the shape.
    for m in (identity(ring3, 3), zeros(ring3, 2, 3)):
        assert not in_scheme(m)
        message = f"^a congruence matrix is 2x2, not {m.nrows}x{m.ncols}$"
        with pytest.raises(ShapeError, match=message):
            CongruenceMatrix(m)


# -- reduction ---------------------------------------------------------------------


def _c3_identity(ring):
    return identity(ring, 2).scale(ring.c(3))


def test_reduce_of_special_row_perturbation(ring3):
    t = gen_T(ring3, 3, 1, 2, ring3.const(-1))
    assert reduce(t) == _c3_identity(ring3) + annihilator_block(ring3)


def test_reduce_identity(ring3):
    assert reduce(check_stab(identity(ring3, 3))) == _c3_identity(ring3)


def test_reduce_of_embedded_block(ring3):
    a = ring3.parse("a1 - 2")
    s = gen_S(ring3, 1, 2, a)
    expected = identity(ring3, 2) + annihilator_block(ring3).scale(a)
    assert reduce(s) == expected.scale(ring3.c(3))


def test_reduce_matches_full_conjugation(ring3):
    # C * (c3 * C^-1 A C) == c3 * A * C, with the numerator in the upper-left block.
    c3 = ring3.c(3)
    zero = ring3.zero
    for seed in range(8):
        a = _sample(ring3, seed)
        n = reduce(a)
        diff = a.mat - identity(ring3, 3)
        conjugated = Mat(
            [
                [n[0, 0], n[0, 1], zero],
                [n[1, 0], n[1, 1], zero],
                [diff[2, 0], diff[2, 1], c3],
            ]
        )
        c = conjugator(ring3)
        assert c * conjugated == (a.mat * c).scale(c3)


def test_reduce_is_multiplicative(ring3):
    rng = random.Random(23)
    c3 = ring3.c(3)
    for _ in range(100):
        a = _sample(ring3, rng.getrandbits(32), length=4)
        b = _sample(ring3, rng.getrandbits(32), length=4)
        assert reduce(a * b).scale(c3) == reduce(a) * reduce(b)


def test_reduced_entries_stay_in_depth_one_module(ring3):
    # The blocks of a and b multiply to a block that still has denominator c3
    # at most: the product of the numerators is divisible by c3.
    c3 = ring3.c(3)
    for seed in range(10):
        product = reduce(_sample(ring3, seed)) * reduce(_sample(ring3, seed + 100))
        for row in product.rows:
            for x in row:
                assert _divide_c(x, 3) * c3 == x


# -- decomposition of the reduced block ---------------------------------------------


def test_parts_of_special_row_perturbation(ring3):
    t = gen_T(ring3, 3, 1, 2, ring3.const(-1))
    parts = r_decompose(reduce(t))
    assert parts.pole == annihilator_block(ring3)
    assert parts.order0 == zeros(ring3, 2, 2)
    assert parts.order1 == zeros(ring3, 2, 2)
    assert parts.tail == zeros(ring3, 2, 2)


def test_parts_of_identity(ring3):
    parts = r_decompose(reduce(check_stab(identity(ring3, 3))))
    for m in (parts.pole, parts.order0, parts.order1, parts.tail):
        assert m == zeros(ring3, 2, 2)


def test_parts_of_embedded_block(ring3):
    a = ring3.parse("a2 + 1")
    parts = r_decompose(reduce(gen_S(ring3, 1, 2, a)))
    assert parts.pole == zeros(ring3, 2, 2)
    assert parts.order0 == annihilator_block(ring3).scale(a)
    assert parts.order1 == zeros(ring3, 2, 2)


def test_parts_reconstruct_random(ring3):
    for seed in range(10):
        n = reduce(_sample(ring3, seed))
        assert r_decompose(n).reconstruct() == n


def test_parts_match_the_reference_kernel(ring3):
    # Differential: each part entry equals the split, in the tuple kernel, of
    # the numerator entry minus its share of c3 times the identity.
    ref_ring = ref.RingDescriptor(ring3.mode, ring3.nvars, ring3.coeff)
    rng = random.Random(41)
    for _ in range(40):
        n = reduce(_sample(ring3, rng.getrandbits(32), length=8))
        parts = r_decompose(n)
        for i in range(2):
            for j in range(2):
                entry = ref.RingElement(ref_ring, n[i, j].terms)
                if i == j:
                    entry = entry - ref_ring.c(3)
                dec = ref.c_adic_decompose(entry, 3, 3)
                assert [
                    part[i, j].terms
                    for part in (parts.pole, parts.order0, parts.order1, parts.tail)
                ] == [x.terms for x in (*dec.heads, dec.tail)]


def test_splits_and_parts_are_read_off_c_adic_decompose(ring3, monkeypatch):
    # One route returns a tail: each split decomposes its input once along
    # c2, r_decompose each numerator entry once along c3, and none of them
    # divides through divide_exact.
    calls = []

    def logged(name, original):
        def wrapper(*args):
            calls.append((name, *args[1:]))
            return original(*args)

        return wrapper

    decompose = colstab.ring.c_adic_decompose
    for module in (colstab.ring, colstab.stab):
        monkeypatch.setattr(
            module, "c_adic_decompose", logged("c_adic_decompose", decompose), raising=False
        )
    monkeypatch.setattr(
        RingElement, "divide_exact", logged("divide_exact", RingElement.divide_exact)
    )
    c1, c2 = ring3.c(1), ring3.c(2)
    colstab.ring.delta_split_linear(c1 * c2 + c1 + c2 * c2)
    assert calls == [("c_adic_decompose", 2, 1)]
    calls.clear()
    colstab.ring.delta_split_quadratic(c1 * c1 * ring3.var(1) + c1 * c2 + c2 * c2 * c2)
    assert calls == [("c_adic_decompose", 2, 2)]
    calls.clear()
    r_decompose(reduce(_sample(ring3, 7)))
    assert calls == [("c_adic_decompose", 3, 3)] * 4


# -- residues ----------------------------------------------------------------------


def test_residues_of_identity(ring3):
    q = residues(check_stab(identity(ring3, 3)))
    assert q == ResidueQuadruple(ring3.zero, ring3.zero, ring3.zero, ring3.zero)


def test_residues_of_row_perturbations(ring3):
    a = ring3.parse("a1*a2 - 2")  # two-variable parameter
    q = residues(gen_T(ring3, 3, 1, 2, a))
    assert (q.alpha, q.beta, q.gamma, q.delta) == (-a, ring3.zero, ring3.zero, ring3.zero)

    q = residues(gen_T(ring3, 1, 2, 3, a))
    c2 = ring3.c(2)
    assert (q.alpha, q.beta, q.gamma, q.delta) == (
        ring3.zero,
        ring3.zero,
        ring3.zero,
        a * c2 * c2,
    )


def test_block_sandwich_oracles(ring3):
    x = annihilator_block(ring3)
    c1, c2 = ring3.c(1), ring3.c(2)
    one, zero = ring3.one, ring3.zero
    e12 = Mat([[zero, one], [zero, zero]])
    e21 = Mat([[zero, zero], [one, zero]])
    assert x * e12 * x == x.scale(c2 * c2)
    assert x * e21 * x == x.scale(-(c1 * c1))


def test_closed_form_matches_relations_on_samples(ring3):
    for seed in range(40):
        a = _sample(ring3, seed, length=8)
        assert residues_closed_form(a) == residues(a)


def _dense_reduction_heads(n):
    """Heads 0, 1 and 2 along c3 of n - c3*I, as matrices, the difference
    taken as a matrix."""
    diff = n - identity(n.ring, 2).scale(n.ring.c(3))
    heads = [[c_heads(x, 3, 3) for x in row] for row in diff.rows]
    return tuple(Mat([[h[level] for h in row] for row in heads]) for level in range(3))


def _dense_solve_multiple(m, block):
    """The unique scalar s with m = s * block, checked as a scaled matrix."""
    try:
        s = m[0, 0].divide_exact(block[0, 0])
    except NotDivisibleError as exc:
        raise RelationFailedError(f"inexact division in residue relation: {exc}") from exc
    if block.scale(s) != m:
        raise RelationFailedError("matrix is not a scalar multiple of the block")
    return s


def _dense_residues(a):
    """The relations route as dense 2x2 block products: the reduced numerator
    entry by entry, then order0*block, block*order0 and block*order1*block
    each solved as a multiple of the block."""
    m, ring = a.mat, a.ring
    c3 = ring.c(3)
    numerator = Mat(
        [[m[i, j] * c3 - ring.c(i + 1) * m[2, j] for j in range(2)] for i in range(2)]
    )
    block = annihilator_block(ring)
    pole, order0, order1 = _dense_reduction_heads(numerator)
    products = (pole, order0 * block, block * order0, block * order1 * block)
    return ResidueQuadruple(*(_dense_solve_multiple(x, block) for x in products))


def _outcome(route, a):
    """The residues of a by a route, or the message of its RelationFailedError."""
    try:
        return route(a)
    except RelationFailedError as exc:
        return str(exc)


@pytest.mark.parametrize("ring", [POLY3, LAUR3], ids=["polynomial", "laurent"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_residues_match_the_dense_route_on_words(ring, data):
    a = eval_word(ring, data.draw(words(ring)))
    q = residues(a)
    assert q == _dense_residues(a)
    assert q == residues_closed_form(a)


def _syzygy_row(p, q, r):
    """A row with zero product against the column (c1, c2, c3)."""
    c1, c2, c3 = (p.ring.c(k) for k in (1, 2, 3))
    return [p * c2 + q * c3, -p * c1 + r * c3, -q * c1 - r * c2]


@pytest.mark.parametrize("ring", [POLY3, LAUR3], ids=["polynomial", "laurent"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_column_fixing_matrix_satisfies_the_relations(ring, data):
    # The identity plus rows that annihilate the column, whatever its
    # determinant: the relations hold, so all three routes agree.
    coords = data.draw(st.lists(elements(ring, max_terms=2, max_deg=2), min_size=9, max_size=9))
    rows = [_syzygy_row(*coords[3 * r : 3 * r + 3]) for r in range(3)]
    m = identity(ring, 3) + Mat(rows)
    assert m.apply_column(column(ring)) == column(ring)
    a = StabMatrix(m)
    assert residues(a) == _dense_residues(a) == residues_closed_form(a)


def _broken(ring, entries):
    """The identity with 1-based entries increased, wrapped uncertified."""
    rows = [list(row) for row in identity(ring, 3).rows]
    for (i, j), value in entries.items():
        rows[i - 1][j - 1] += value
    return StabMatrix(Mat(rows))


def test_residues_fail_as_the_dense_route_does(ring3):
    one, c2 = ring3.one, ring3.c(2)
    inexact = "inexact division in residue relation: not divisible by "
    not_multiple = "matrix is not a scalar multiple of the block"
    cases = [
        ({(3, 1): one}, inexact + "c2"),  # alpha
        ({(3, 1): c2, (3, 2): one}, not_multiple),  # alpha
        ({(1, 2): one}, inexact + "c1"),  # beta
        ({(1, 1): one}, not_multiple),  # beta
    ]
    for entries, message in cases:
        a = _broken(ring3, entries)
        assert _outcome(residues, a) == _outcome(_dense_residues, a) == message


@pytest.mark.parametrize("ring", [POLY3, LAUR3], ids=["polynomial", "laurent"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_residues_fail_as_the_dense_route_does_on_any_matrix(ring, data):
    entries = data.draw(
        st.dictionaries(
            st.tuples(st.integers(1, 3), st.integers(1, 3)),
            elements(ring, max_terms=2, max_deg=2),
            max_size=4,
        )
    )
    a = _broken(ring, entries)
    assert _outcome(residues, a) == _outcome(_dense_residues, a)


def _parent_residues_closed_form(a):
    """The closed form as it stood before its sums were fused: the heads of
    the entries of the matrix minus identity, then one product or difference
    at a time."""
    m, ring = a.mat, a.ring
    c1, c2, one = ring.c(1), ring.c(2), ring.one

    a11_0, a11_1 = c_heads(m[0, 0] - one, 3, 2)
    _, a12_1 = c_heads(m[0, 1], 3, 2)
    a21_0, a21_1 = c_heads(m[1, 0], 3, 2)
    _, a22_1 = c_heads(m[1, 1] - one, 3, 2)
    a31_0, a31_1 = c_heads(m[2, 0], 3, 2)
    a32_0, a32_1 = c_heads(m[2, 1], 3, 2)
    try:
        alpha = (-a31_0).divide_exact(c2)
        alpha_check = a32_0.divide_exact(c1)
        gamma = a11_0 - a21_0.divide_exact(c2) * c1
    except NotDivisibleError as exc:
        raise RelationFailedError(f"inexact division in closed form: {exc}") from exc
    if alpha != alpha_check:
        raise RelationFailedError("the two closed forms for alpha disagree")
    beta = -a31_1 * c1 - a32_1 * c2
    delta = (a11_1 - a22_1) * c1 * c2 + a12_1 * c2 * c2 - a21_1 * c1 * c1
    return ResidueQuadruple(alpha, beta, gamma, delta)


# Both modes, both coefficient domains, three and four variables.
RINGS = [
    RingDescriptor(mode, nvars, coeff) for mode in Mode for coeff in Coeff for nvars in (3, 4)
]


def _ring_id(ring):
    return f"{ring.mode.value}-{ring.coeff.value}-{ring.nvars}"


RINGS3 = [ring for ring in RINGS if ring.nvars == 3]


def test_closed_form_fails_with_each_message_as_its_parent_body(ring3):
    one, c1, c2 = ring3.one, ring3.c(1), ring3.c(2)
    inexact = "inexact division in closed form: not divisible by "
    cases = [
        ({(3, 1): one}, inexact + "c2"),  # alpha
        ({(3, 2): one}, inexact + "c1"),  # its check
        ({(2, 1): one}, inexact + "c2"),  # gamma
        ({(3, 1): -c2, (3, 2): 2 * c1}, "the two closed forms for alpha disagree"),
    ]
    for entries, message in cases:
        a = _broken(ring3, entries)
        assert _outcome(residues_closed_form, a) == message
        assert _outcome(_parent_residues_closed_form, a) == message


@pytest.mark.parametrize("ring", RINGS3, ids=_ring_id)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_closed_form_matches_its_parent_body(ring, data):
    # Words give stabilizers; the identity plus up to four arbitrary entries
    # gives StabMatrix wrapped around matrices that mostly are not, which
    # fail with each of the three RelationFailedError messages.
    params = elements(ring, max_terms=2, max_deg=2)
    broken = st.dictionaries(st.tuples(st.integers(1, 3), st.integers(1, 3)), params, max_size=4)
    a = data.draw(
        st.one_of(
            words(ring, max_length=6).map(lambda word: eval_word(ring, word)),
            broken.map(lambda entries: _broken(ring, entries)),
        )
    )
    assert _outcome(residues_closed_form, a) == _outcome(_parent_residues_closed_form, a)


def _parent_in_H(a):
    """in_H as it stood before the heads were shared: every entry's heads
    taken afresh, row by row, depth 2 on the first two columns and 1 on the
    third."""
    one, zero = a.ring.one, a.ring.zero
    for i, row in enumerate(a.mat.rows):
        for j, x in enumerate(row):
            head0, *rest = c_heads(x, 3, 1 if j == 2 else 2)
            if head0 != (one if i == j else zero) or any(rest):
                return False
    return True


def _seeded_stabilizer(ring, seed, length, denominator, kernel):
    """A kernel member, or a sampled word whose parameters are divided by
    denominator over the rationals, so that its coefficients are fractions."""
    if kernel:
        return _sample_kernel_member(random.Random(seed), ring)
    letters = sample_tame(ring, seed, length).letters
    if ring.coeff is Coeff.RATIONALS:
        scale = Fraction(1, denominator)
        letters = tuple(Letter(x.kind, x.indices, x.param * scale) for x in letters)
    return eval_word(ring, TameWord(letters))


@pytest.mark.parametrize("ring", RINGS3, ids=_ring_id)
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(0, 8),
    denominator=st.integers(1, 3),
    kernel=st.booleans(),
)
def test_shared_heads_match_fresh_heads_and_the_parent_bodies(
    ring, seed, length, denominator, kernel
):
    a = _seeded_stabilizer(ring, seed, length, denominator, kernel)
    # Over three variables rho's parent body is the closed form's matrix.
    assert rho(a).mat == _parent_residues_closed_form(a).to_matrix()
    assert residues_closed_form(a) == _parent_residues_closed_form(a)
    assert in_H(a) == _parent_in_H(a)
    if kernel:
        assert in_H(a)
    for i in range(3):
        for j in range(2):
            assert a._c3_heads[i][j] == c_heads(a.mat[i, j], 3, 2)


@pytest.mark.parametrize("ring", RINGS3, ids=_ring_id)
def test_a_stabilizer_takes_each_head_once(ring, monkeypatch):
    taken = []

    def counting(x, k, t):
        taken.append((x, k, t))
        return c_heads(x, k, t)

    monkeypatch.setattr(colstab.stab, "c_heads", counting)
    member = _sample_kernel_member(random.Random(5), ring)
    other = _sample(ring, 5, length=8)
    for a, in_kernel in ((member, True), (other, False)):
        taken.clear()
        for _ in range(2):
            rho(a)
            residues_closed_form(a)
            assert in_H(a) is in_kernel
        # The first two columns once each, row by row, whatever reads them;
        # the third's one head per in_H call, and only once the first two pass.
        first_two = [(x, 3, 2) for row in a.mat.rows for x in row[:2]]
        third = [(row[2], 3, 1) for row in a.mat.rows]
        assert taken == first_two + (third * 2 if in_kernel else [])


def _parent_residues(a):
    """The relations route as it stood before it read the entries' heads:
    heads 0, 1 and 2 along c3 of the reduced numerator ``reduce(a)``."""
    ring = a.ring
    c1, c2 = ring.c(1), ring.c(2)
    u, v = (c1, c2), (c2, -c1)
    block = annihilator_block(ring).rows
    heads = [[c_heads(x, 3, 3) for x in row] for row in reduce(a).rows]
    pole, order0, order1 = colstab.stab._reduction_heads(heads, ring.one)
    solve = colstab.stab._solve_multiple
    alpha = solve(pole[0] + pole[1], block[0] + block[1])
    beta = solve([_dot(row, u) for row in order0], u)
    gamma = solve([_dot(v, col) for col in zip(*order0)], v)
    delta = _dot(order1[0] + order1[1], [y for col in zip(*block) for y in col])
    return ResidueQuadruple(alpha, beta, gamma, delta)


@pytest.mark.parametrize("ring", RINGS3, ids=_ring_id)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_residues_match_their_parent_body(ring, data):
    # Seeded words (fractional parameters over the rationals) and kernel
    # members are stabilizers; the identity plus up to four arbitrary
    # entries mostly is not, and fails with either RelationFailedError
    # message.
    params = elements(ring, max_terms=2, max_deg=2)
    broken = st.dictionaries(st.tuples(st.integers(1, 3), st.integers(1, 3)), params, max_size=4)
    seeded = st.builds(
        _seeded_stabilizer,
        st.just(ring),
        st.integers(0, 2**32 - 1),
        st.integers(0, 8),
        st.integers(1, 3),
        st.booleans(),
    )
    a = data.draw(st.one_of(seeded, broken.map(lambda entries: _broken(ring, entries))))
    assert _outcome(residues, a) == _outcome(_parent_residues, a)


@pytest.mark.parametrize("ring", RINGS3, ids=_ring_id)
def test_residues_take_the_entries_heads_and_build_no_numerator(ring, monkeypatch):
    samples = [_sample(ring, 11, length=8), _sample_kernel_member(random.Random(11), ring)]
    expected = [_parent_residues(a) for a in samples]
    taken = []

    def counting(x, k, t):
        taken.append((x, k, t))
        return c_heads(x, k, t)

    def forbidden(a):
        raise AssertionError("formed the reduced numerator")

    monkeypatch.setattr(colstab.stab, "c_heads", counting)
    monkeypatch.setattr(colstab.stab, "reduce", forbidden)
    for a, quadruple in zip(samples, expected):
        taken.clear()
        assert residues(a) == quadruple
        # Heads 0 and 1 of rows 1 and 2 and heads 0 to 2 of row 3, in the
        # first two columns; each entry once, and no memo kept.
        rows = a.mat.rows
        depths = [(x, 3, 3 if i == 2 else 2) for i, row in enumerate(rows) for x in row[:2]]
        assert Counter(taken) == Counter(depths)
        assert "_c3_heads" not in vars(a) and "_closed_form" not in vars(a)


def test_residues_never_reads_the_shared_heads(ring3):
    a, b = _sample(ring3, 9, length=8), _sample(ring3, 10, length=8)
    expected = residues(a)
    assert "_c3_heads" not in vars(a)
    # With another stabilizer's heads in its memo, the closed form follows
    # the memo while the relations route takes the entries' heads afresh.
    poisoned = StabMatrix(a.mat)
    vars(poisoned)["_c3_heads"] = b._c3_heads
    assert residues(poisoned) == expected
    assert residues_closed_form(poisoned) == residues(b) != expected


@pytest.fixture
def closed_forms_taken(monkeypatch):
    """The stabilizers whose closed-form body runs, in order."""
    taken = []
    body = colstab.stab._closed_form_residues

    def counting(a):
        taken.append(a)
        return body(a)

    monkeypatch.setattr(colstab.stab, "_closed_form_residues", counting)
    return taken


@pytest.mark.parametrize("ring", RINGS3, ids=_ring_id)
def test_a_stabilizer_takes_its_closed_form_once(ring, closed_forms_taken):
    taken = closed_forms_taken
    a = _sample(ring, 7, length=8)
    for _ in range(2):
        image = rho(a)
        assert residues_closed_form(a).to_matrix() == image.mat
    assert taken == [a] and taken[0] is a
    # preimage's guard takes the closed form of its lift; rho and
    # residues_closed_form of the reported preimage then read it.
    taken.clear()
    report = preimage(image)
    assert report.ok and taken == [report.preimage]
    for _ in range(2):
        assert rho(report.preimage).mat == image.mat
        residues_closed_form(report.preimage)
    assert len(taken) == 1


def test_a_failed_closed_form_is_never_kept(ring3, closed_forms_taken):
    message = "inexact division in closed form: not divisible by c2"
    a = _broken(ring3, {(3, 1): ring3.one})
    for route in (residues_closed_form, rho, residues_closed_form):
        with pytest.raises(RelationFailedError) as excinfo:
            route(a)
        assert str(excinfo.value) == message
        assert "_closed_form" not in vars(a)
    assert len(closed_forms_taken) == 3


def test_residues_never_reads_either_memo(ring3):
    a, b = _sample(ring3, 9, length=8), _sample(ring3, 10, length=8)
    expected = residues(a)
    assert "_c3_heads" not in vars(a) and "_closed_form" not in vars(a)
    # With another stabilizer's residues kept as its closed form, rho and
    # residues_closed_form follow the memo; the relations route does not.
    poisoned = StabMatrix(a.mat)
    vars(poisoned)["_closed_form"] = residues_closed_form(b)
    assert residues(poisoned) == expected != residues(b)
    assert residues_closed_form(poisoned) == residues(b)
    assert rho(poisoned).mat == rho(b).mat
    assert "_c3_heads" not in vars(poisoned)


def test_heads_only_callers_divide_by_no_c3(ring3, monkeypatch):
    # The residues, rho and in_H read heads along c3 only; none needs the
    # quotient by c3 that a tail would.
    divide_c = colstab.ring._divide_c

    def guarded(g, k):
        if k == 3:
            raise AssertionError("divided by c3")
        return divide_c(g, k)

    monkeypatch.setattr(colstab.ring, "_divide_c", guarded)
    rng = random.Random(53)
    for _ in range(8):
        a = _sample(ring3, rng.getrandbits(32), length=8)
        rho(a)
        residues_closed_form(a)
        residues(a)
        in_H(a)


def test_residue_maps_build_no_identity_and_scale_no_matrix(monkeypatch):
    # The maps read the entries they need and compare entries, so none
    # builds an identity or scales a matrix; their values are unchanged.
    samples = [_sample(ring, seed, length=8) for ring in (POLY3, LAUR3) for seed in range(6)]
    samples += [gen_T(ring, 1, 2, 3, ring.c(3)) for ring in (POLY3, LAUR3)]  # in H
    maps = (rho, residues, residues_closed_form, in_H, lambda a: r_decompose(reduce(a)))
    expected = [[f(a) for f in maps] for a in samples]

    def forbidden(*args, **kwargs):
        raise AssertionError("built a scaffold matrix")

    monkeypatch.setattr(colstab.stab, "identity", forbidden)
    monkeypatch.setattr(Mat, "scale", forbidden)
    assert [[f(a) for f in maps] for a in samples] == expected


def test_delta_formula_uses_second_diagonal_head(ring3):
    # The lower-right head, not a repeat of the lower-left one, enters the
    # mixed term; with the lower-left head there the value would differ by
    # a*c1*c2 on this input.
    a = ring3.parse("a1 + 1")
    t = gen_T(ring3, 2, 1, 3, a)
    q = residues(t)
    c1, c2 = ring3.c(1), ring3.c(2)
    assert q.delta == -a * c1 * c1
    assert residues_closed_form(t).delta == q.delta
    miswired = q.delta - a * c1 * c2
    assert miswired != q.delta


# -- the homomorphism --------------------------------------------------------------


def test_rho_examples(ring3):
    a = ring3.parse("a2 - 1")
    assert rho(gen_S(ring3, 1, 2, a)).mat == identity(ring3, 2)

    img = rho(gen_T(ring3, 3, 1, 2, a)).mat
    assert img == Mat([[ring3.one, -a], [ring3.zero, ring3.one]])

    c1, c2 = ring3.c(1), ring3.c(2)
    img = rho(gen_S(ring3, 1, 3, a)).mat
    assert img == Mat([[ring3.one, ring3.zero], [a * c1 * c1 * c2, ring3.one]])

    img = rho(gen_S(ring3, 2, 3, a)).mat
    assert img == Mat([[ring3.one, ring3.zero], [-a * c1 * c2 * c2, ring3.one]])


def test_rho_rejects_images_outside_the_scheme(ring3):
    ring4 = RingDescriptor(ring3.mode, 4)
    a = gen_T(ring4, 3, 1, 2, ring4.var(4))
    assert residues_closed_form(a).alpha == -ring4.var(4)
    with pytest.raises(NotInSchemeError):
        rho(a)


@pytest.mark.parametrize("ring", RINGS, ids=_ring_id)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_rho_fails_exactly_off_the_scheme(ring, data):
    # rho runs at most the two-variable test; the scheme test in full
    # decides the same on every word, over three variables and four.
    a = eval_word(ring, data.draw(words(ring)))
    image = residues_closed_form(a).to_matrix()
    expected = in_scheme(image)
    event(f"in the scheme: {expected}")  # both occur at four variables
    if expected:
        assert rho(a).mat == image
    else:
        with pytest.raises(NotInSchemeError, match="^matrix does not satisfy the congruence scheme$"):
            rho(a)


@pytest.mark.parametrize("ring", RINGS, ids=_ring_id)
def test_kernel_members_and_lifts_land_in_the_scheme(ring):
    rng = random.Random(67)
    for _ in range(6):
        assert in_scheme(rho(_sample_kernel_member(rng, ring)).mat)
    for target in _liftable_targets(ring, 71, count=3):
        assert in_scheme(rho(preimage(target).preimage).mat)


@pytest.mark.parametrize("ring", RINGS, ids=_ring_id)
def test_rho_runs_no_scheme_test_and_no_determinant(ring, monkeypatch):
    # Over three variables rho tests nothing; over more, only that the
    # entries involve a1 and a2.
    samples = [_sample(ring, seed, length=8) for seed in range(6)]
    samples.append(gen_T(ring, 3, 1, 2, ring.var(ring.nvars)))  # off the scheme at four

    def image(a):
        try:
            return rho(a).mat
        except NotInSchemeError as exc:
            return str(exc)

    expected = [image(a) for a in samples]

    def forbidden(*args, **kwargs):
        raise AssertionError("rho re-tested what its theorem guarantees")

    monkeypatch.setattr(colstab.stab, "in_scheme", forbidden)
    monkeypatch.setattr(Mat, "det", forbidden)
    if ring.nvars == 3:
        monkeypatch.setattr(colstab.stab, "_two_variable", forbidden)
    assert [image(a) for a in samples] == expected


def test_rho_is_multiplicative_in_operand_order(ring3):
    rng = random.Random(31)
    for _ in range(40):
        a = _sample(ring3, rng.getrandbits(32), length=5)
        b = _sample(ring3, rng.getrandbits(32), length=5)
        left = rho(a * b).mat
        assert left == rho(a).mat * rho(b).mat
        if rho(a).mat * rho(b).mat != rho(b).mat * rho(a).mat:
            assert left != rho(b).mat * rho(a).mat


def test_rho_respects_identity_and_inverse(ring3):
    assert rho(check_stab(identity(ring3, 3))).mat == identity(ring3, 2)
    for seed in range(10):
        a = _sample(ring3, seed)
        assert rho(a.inverse()).mat == rho(a).mat.inverse()


# -- the stabilizer's inverse and certification determinant -------------------------


def _assert_the_general_routes_agree(a):
    """The column-identity routes against ``Mat.inverse`` and ``Mat.det``."""
    inverse = a.inverse()
    assert inverse.mat == a.mat.inverse()
    assert (a * inverse).mat == identity(a.ring, 3)
    det = a.mat.det()
    assert _rank_one_adjugate(a.mat)[1] == det
    assert det.is_unit() and check_stab(a.mat) == a


@pytest.mark.parametrize("ring", RINGS3, ids=_ring_id)
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    other=st.integers(0, 2**32 - 1),
    length=st.integers(0, 5),
    denominator=st.integers(1, 3),
    kernel=st.booleans(),
)
def test_stab_inverse_and_det_match_the_general_routes(
    ring, seed, other, length, denominator, kernel
):
    # Lengths stay short: over Laurent rationals a length-4 word times a
    # length-3 one can have entries of two hundred terms, and the general
    # routes take over a second on it.
    a = _seeded_stabilizer(ring, seed, length, denominator, kernel)
    b = _seeded_stabilizer(ring, other, 2, denominator, False)
    for x in (a, a * b):
        _assert_the_general_routes_agree(x)


@pytest.mark.parametrize("ring", RINGS3, ids=_ring_id)
def test_stab_inverse_when_the_difference_has_rank_below_two(ring):
    # Words of length 0 and 1: a - I has rank at most one, so its adjugate
    # and w vanish.
    for seed in range(12):
        for length in (0, 1):
            a = _seeded_stabilizer(ring, seed, length, 2, False)
            assert (a.mat - identity(ring, 3)).adjugate() == zeros(ring, 3, 3)
            _assert_the_general_routes_agree(a)


@pytest.mark.parametrize("ring", [r for r in RINGS3 if r.mode is Mode.LAURENT], ids=_ring_id)
@settings(max_examples=40, deadline=None)
@given(phi=automorphisms, psi=automorphisms)
def test_stab_inverse_and_det_match_on_fox_jacobians(ring, phi, psi):
    # Their determinants are monomials, so the inverse is scaled.
    a = check_stab(fox.jacobian(ring, phi))
    b = check_stab(fox.jacobian(ring, psi))
    event("determinant one" if a.mat.det() == ring.one else "monomial determinant")
    for x in (a, a * b):
        _assert_the_general_routes_agree(x)


@pytest.mark.parametrize("ring", RINGS3, ids=_ring_id)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_check_stab_reports_the_determinant_of_a_column_fixing_non_unit(ring, data):
    coords = data.draw(st.lists(elements(ring, max_terms=2, max_deg=1), min_size=9, max_size=9))
    cand, defect = candidate_from_splits(CandidateSplits(*coords))
    assume(defect)
    det = cand.det()
    assert _rank_one_adjugate(cand)[1] == det
    if det.is_unit():
        check_stab(cand)
    else:
        with pytest.raises(NotAUnitError) as err:
            check_stab(cand)
        assert err.value.det == det


@pytest.mark.parametrize("ring", RINGS3, ids=_ring_id)
def test_stab_inverse_and_certificate_take_no_general_route(ring, monkeypatch):
    rng = random.Random(61)
    samples = [_sample(ring, rng.getrandbits(32), length=n) for n in range(9)]
    samples.append(_sample_kernel_member(rng, ring))
    if ring.mode is Mode.LAURENT:
        samples.append(check_stab(fox.jacobian(ring, fox.conjugation(1, 3))))
    expected = [(a.mat.inverse(), a.mat.det()) for a in samples]

    def forbidden(*args, **kwargs):
        raise AssertionError("a general matrix route was taken")

    for name in ("inverse", "adjugate", "det"):
        monkeypatch.setattr(Mat, name, forbidden)
    monkeypatch.setattr(colstab.matrix, "_det", forbidden)
    for a, (inverse, det) in zip(samples, expected):
        assert a.inverse().mat == inverse
        assert check_stab(a.mat) == a
        assert _rank_one_adjugate(a.mat)[1] == det


@pytest.mark.parametrize("ring", RINGS3, ids=_ring_id)
def test_stab_inverse_of_an_uncertified_non_unit_raises_with_its_determinant(ring):
    # The matrix fixes the column, with determinant 1 + 2*c1, a unit in no
    # ring; only check_stab certifies, and a bare StabMatrix is not checked.
    one, zero, c1, c3 = ring.one, ring.zero, ring.c(1), ring.c(3)
    m = Mat([[one, zero, zero], [zero, one, zero], [-2 * c3, zero, 1 + 2 * c1]])
    assert m.apply_column(column(ring)) == column(ring)
    for certify in (lambda: StabMatrix(m).inverse(), lambda: check_stab(m)):
        with pytest.raises(NotAUnitError) as err:
            certify()
        assert err.value.det == m.det() == 1 + 2 * c1


def test_reprs_show_the_canonical_text():
    ring = RingDescriptor(Mode.LAURENT, 3)
    assert repr(ring) == "RingDescriptor(mode=Mode.LAURENT, nvars=3, coeff=Coeff.INTEGERS)"
    assert repr(ring.c(1)) == "RingElement('a1 - 1')"
    a = gen_S(RingDescriptor(Mode.POLYNOMIAL, 3), 1, 2, 1)
    assert repr(a.mat) == f"Mat({a})"
    assert str(a) == "[a1*a2 + 1, -a1^2, 0; a2^2, -a1*a2 + 1, 0; 0, 0, 1]"


def test_preimage_needs_three_variables():
    ring = RingDescriptor(Mode.POLYNOMIAL, 2)
    with pytest.raises(NotInSchemeError, match="^preimage needs a ring with at least three"):
        preimage(CongruenceMatrix(identity(ring, 2)))


def test_compose_residues_examples(ring3):
    zero = ring3.zero
    z = ResidueQuadruple(zero, zero, zero, zero)
    assert compose_residues(z, z) == z

    a = ring3.parse("a1 + 2")
    d = ring3.parse("a2")
    q = ResidueQuadruple(-a, zero, zero, zero)
    q2 = ResidueQuadruple(zero, zero, zero, d)
    composed = compose_residues(q, q2)
    assert composed.to_matrix() == q.to_matrix() * q2.to_matrix()
    assert (composed.alpha, composed.beta, composed.gamma, composed.delta) == (
        -a,
        -a * d,
        zero,
        d,
    )


def test_residues_of_inverse_cancel(ring3):
    for seed in range(10):
        a = _sample(ring3, seed, length=5)
        q = compose_residues(residues(a), residues(a.inverse()))
        assert q.to_matrix() == identity(ring3, 2)


# -- the congruence scheme ----------------------------------------------------------


def test_in_scheme_examples(ring3):
    assert in_scheme(identity(ring3, 2))
    assert not in_scheme(transvection(ring3, 2, 2, 1, ring3.c(1)))
    if ring3.mode is Mode.POLYNOMIAL:
        assert in_scheme(cohn_matrix(ring3))


def test_scheme_rejects_third_variable(ring3):
    assert not in_scheme(transvection(ring3, 2, 1, 2, ring3.c(3)))


def test_images_land_in_scheme(ring3):
    for seed in range(15):
        assert in_scheme(rho(_sample(ring3, seed)).mat)


def test_congruence_matrix_validates(ring3):
    with pytest.raises(NotInSchemeError):
        CongruenceMatrix(transvection(ring3, 2, 2, 1, ring3.c(1)))


# -- lifting ------------------------------------------------------------------------


def test_candidate_determinant_identity_free_parameters():
    # all nine split coordinates treated as independent symbols
    ring = RingDescriptor(Mode.POLYNOMIAL, 12)
    sym = [ring.var(i) for i in range(4, 13)]
    splits = CandidateSplits(*sym)
    cand, defect = candidate_from_splits(splits)
    assert cand.det() == matrix_from_splits(splits).det() + defect
    col = [ring.c(1), ring.c(2), ring.c(3)]
    assert cand.apply_column(col) == col


def _expanded_candidate(s):
    """The candidate and its defect as one product per term: the route
    ``candidate_from_splits`` replaced with fused sums."""
    ring = s.alpha.ring
    one = ring.one
    c1, c2, c3 = ring.c(1), ring.c(2), ring.c(3)
    cand = Mat(
        [
            [
                one + s.gamma2 * c2 + s.d12p * c3,
                -s.gamma2 * c1 + s.d22 * c3,
                -s.d12p * c1 - s.d22 * c2,
            ],
            [
                -s.gamma1 * c2 - s.d11 * c3,
                one + s.gamma1 * c1 - s.d12 * c3,
                s.d11 * c1 + s.d12 * c2,
            ],
            [
                -s.alpha * c2 - s.beta1 * c3,
                s.alpha * c1 - s.beta2 * c3,
                one + s.beta1 * c1 + s.beta2 * c2,
            ],
        ]
    )
    defect = (
        s.d12p * c3
        + s.gamma1 * s.d12p * c1 * c3
        - s.d12 * c3
        - s.d12p * s.d12 * c3 * c3
        - s.gamma2 * s.d12 * c2 * c3
        + s.beta2 * s.d12p * c2 * c3
        - s.beta1 * s.d12 * c1 * c3
        - s.beta1 * s.d22 * c2 * c3
        + s.gamma1 * s.d22 * c2 * c3
        - s.gamma2 * s.d11 * c1 * c3
        + s.d11 * s.d22 * c3 * c3
        + s.beta2 * s.d11 * c1 * c3
    )
    return cand, defect


def _random_coordinate(rng, ring):
    """A random element over every variable; in a rational ring each term
    gets a fractional coefficient."""
    g = _random_element(rng, ring, max_terms=3, bound=3)
    if ring.coeff is Coeff.RATIONALS:
        g = RingElement(ring, {e: c / rng.randint(1, 4) for e, c in g.terms.items()})
    return g


@pytest.mark.parametrize("ring", RINGS, ids=_ring_id)
def test_candidate_matches_the_expanded_products(ring):
    rng = random.Random(43)
    for _ in range(25):
        splits = CandidateSplits(*[_random_coordinate(rng, ring) for _ in range(9)])
        assert candidate_from_splits(splits) == _expanded_candidate(splits)
    # A zero coordinate skips its products.
    zero = CandidateSplits(*[ring.zero] * 9)
    assert candidate_from_splits(zero) == (identity(ring, 3), ring.zero)


def test_traced_callables_stay_plain_functions():
    # The benchmark tracer wraps only what inspect.isfunction accepts, so a
    # memo must sit behind these names, never replace them.
    for fn in (
        colstab.matrix.identity,
        colstab.stab.annihilator_block,
        in_delta,
        candidate_from_splits,
    ):
        assert inspect.isfunction(fn), fn


def test_candidate_for_identity_is_identity(ring3):
    cand, defect = candidate_from_splits(canonical_splits(identity(ring3, 2)))
    assert cand == identity(ring3, 3)
    assert defect.is_zero


def test_candidate_for_upper_transvection(ring3):
    f = ring3.parse("a1*a2 - 1")
    b = CongruenceMatrix(transvection(ring3, 2, 1, 2, f))
    cand, defect = candidate_from_splits(canonical_splits(b.mat))
    assert defect.is_zero
    assert cand == gen_T(ring3, 3, 1, 2, -f).mat
    assert rho(check_stab(cand)).mat == b.mat


def test_cohn_candidate_frozen():
    ring = POLY3
    b = CongruenceMatrix(cohn_matrix(ring))
    cand, defect = candidate_from_splits(canonical_splits(b.mat))
    assert defect.is_zero
    expected = Mat(
        [
            [ring.parse("1 - a1*a2"), ring.parse("a1^2 + a3"), ring.parse("-a2")],
            [ring.zero, ring.one, ring.zero],
            [
                ring.parse("a1^2*a2"),
                ring.parse("-a1^3 - a1*a3"),
                ring.parse("1 + a1*a2"),
            ],
        ]
    )
    assert cand == expected
    assert cand.det() == ring.one
    assert rho(check_stab(cand)).mat == b.mat


def test_preimage_of_identity(ring3):
    report = preimage(CongruenceMatrix(identity(ring3, 2)))
    assert report.ok
    assert report.preimage.mat == identity(ring3, 3)


def test_preimage_of_cohn_matrix_is_the_direct_candidate():
    ring = POLY3
    b = CongruenceMatrix(cohn_matrix(ring))
    report = preimage(b)
    assert report.ok
    direct, _ = candidate_from_splits(canonical_splits(b.mat))
    assert report.preimage.mat == direct
    assert report.preimage.mat.det() == ring.one
    assert rho(report.preimage).mat == b.mat


def test_preimage_obstructed_on_mixed_transvection(ring3):
    b = CongruenceMatrix(
        transvection(ring3, 2, 2, 1, ring3.c(1) * ring3.c(2))
    )
    report = preimage(b)
    assert report.status == "OBSTRUCTED"
    assert report.stage == "transvection-preimage"
    assert report.obstruction == ring3.one
    doc = report.to_document()
    assert doc["status"] == "OBSTRUCTED" and doc["obstruction"] == "1"


def test_candidate_for_mixed_transvection_has_nonunit_determinant(ring3):
    b = CongruenceMatrix(transvection(ring3, 2, 2, 1, ring3.c(1) * ring3.c(2)))
    cand, defect = candidate_from_splits(canonical_splits(b.mat))
    assert defect == -ring3.c(3)
    assert cand.det() == ring3.one - ring3.c(3)
    assert not cand.det().is_unit()


def test_preimage_found_by_word_search(ring3):
    target = transvection(
        ring3, 2, 2, 1, ring3.c(1) * ring3.c(1) * ring3.c(2)
    )
    report = preimage(CongruenceMatrix(target))
    assert report.ok
    assert rho(report.preimage).mat == target


def _in_I(g):
    """Membership in I = (c1^2, c2^2): the heads of g along c1 and then c2,
    to depth two each, are the coordinates of g modulo I on 1, c2, c1, c1*c2."""
    heads = c_adic_decompose(g, 1, 2).heads
    return all(h.is_zero for head in heads for h in c_adic_decompose(head, 2, 2).heads)


def test_in_I_oracle(ring3):
    c1, c2 = ring3.c(1), ring3.c(2)
    a = ring3.parse("a1*a2 - 3")
    assert _in_I(a * c1 * c1 + c2 * c2) and _in_I(ring3.zero)
    for g in (ring3.one, c1, c2, c1 * c2, c1 * c1 + c1 * c2):
        assert not _in_I(g)


def test_letter_images_are_transvections(ring3):
    """The image of every letter, with a-bar the parameter with variable 3
    at its base point."""
    c1, c2 = ring3.c(1), ring3.c(2)
    images = {
        ("T", (3, 1, 2)): lambda b: transvection(ring3, 2, 1, 2, -b),
        ("T", (1, 2, 3)): lambda b: transvection(ring3, 2, 2, 1, b * c2 * c2),
        ("T", (2, 1, 3)): lambda b: transvection(ring3, 2, 2, 1, -b * c1 * c1),
        ("S", (1, 3)): lambda b: transvection(ring3, 2, 2, 1, b * c1 * c1 * c2),
        ("S", (2, 3)): lambda b: transvection(ring3, 2, 2, 1, -b * c1 * c2 * c2),
        ("S", (1, 2)): lambda b: identity(ring3, 2),
    }
    assert set(images) == {("T", i) for i in T_INDICES} | {("S", i) for i in S_INDICES}
    rng = random.Random(17)
    for (kind, indices), image in images.items():
        for _ in range(12):
            a = _random_element(rng, ring3, span=2) + _random_element(rng, ring3)
            letter = Letter(kind, indices, a)
            assert rho(letter.evaluate(ring3)).mat == image(a.specialize(3))


def test_word_images_are_upper_unitriangular_modulo_I(ring3):
    rng = random.Random(19)
    for _ in range(30):
        image = rho(_sample(ring3, rng.getrandbits(32))).mat
        assert _in_I(image[1, 0])
        assert _in_I(image[0, 0] - ring3.one) and _in_I(image[1, 1] - ring3.one)


def _two_variable_elements(ring):
    low = 0 if ring.mode is Mode.POLYNOMIAL else -2
    exps = st.tuples(st.integers(low, 3), st.integers(low, 3), st.just(0))
    coeffs = st.integers(-4, 4).filter(bool)
    return st.dictionaries(exps, coeffs, max_size=4).map(lambda d: RingElement(ring, d))


@pytest.mark.parametrize("ring", [POLY3, LAUR3], ids=["polynomial", "laurent"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mixed_transvection_lifts_iff_mu_vanishes_at_the_base_point(ring, data):
    mu = data.draw(_two_variable_elements(ring))
    target = CongruenceMatrix(transvection(ring, 2, 2, 1, mu * ring.c(1) * ring.c(2)))
    report = preimage(target)
    assert report.ok == in_delta(mu, 1)
    if report.ok:
        assert rho(report.preimage).mat == target.mat
    else:
        assert report.stage == "transvection-preimage"
        assert at_base_point(report.obstruction) == at_base_point(mu)


def test_every_tame_word_image_lifts(ring3):
    rng = random.Random(29)
    for _ in range(25):
        target = rho(_sample(ring3, rng.getrandbits(32), length=rng.randint(1, 6)))
        report = preimage(target)
        assert report.ok
        assert rho(report.preimage).mat == target.mat
        assert report.preimage.mat.det().is_unit()


def test_correction_parameter_involves_variable_1_only(ring3):
    # preimage's mu is the mixed coordinate of the quadratic split of the
    # remainder's lower-left entry; when it vanishes at the base point, c1
    # divides it exactly.
    c1 = ring3.c(1)
    rng = random.Random(31)
    for _ in range(40):
        b = rho(_sample(ring3, rng.getrandbits(32), length=rng.randint(1, 6))).mat
        base = b.map(lambda x: x.specialize(2))
        _, mu, _, _ = delta_split_quadratic((base.inverse() * b)[1, 0])
        assert mu.free_of(2) and mu.free_of(3)
        if in_delta(mu, 1):
            assert mu.divide_exact(c1) * c1 == mu


def _logged_preimage(monkeypatch, target, names):
    """preimage(target) with each named function of colstab.stab wrapped to
    log its entry as its name and its exit as "/" and its name."""
    calls = []

    def logged(name):
        original = getattr(colstab.stab, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            try:
                return original(*args, **kwargs)
            finally:
                calls.append("/" + name)

        return wrapper

    for name in names:
        monkeypatch.setattr(colstab.stab, name, logged(name))
    return preimage(target), calls


def test_obstructed_preimage_lifts_nothing(ring3, monkeypatch):
    target = CongruenceMatrix(transvection(ring3, 2, 2, 1, ring3.c(1) * ring3.c(2)))
    report, calls = _logged_preimage(
        monkeypatch,
        target,
        ("check_stab", "canonical_splits", "candidate_from_splits", "_shaped_lift"),
    )
    assert report.status == "OBSTRUCTED" and report.stage == "transvection-preimage"
    assert calls == []


@pytest.mark.parametrize(
    "make_target",
    [
        lambda: CongruenceMatrix(cohn_matrix(POLY3)),
        lambda: rho(_sample(POLY3, 40)),
        lambda: rho(_sample(LAUR3, 40)),
    ],
    ids=["cohn", "word-polynomial", "word-laurent"],
)
def test_successful_preimage_certifies_by_construction(make_target, monkeypatch):
    # The lifts are certified by construction and the 2x2 matrices they come
    # from lie in the scheme by closure, so the one check left is the final
    # residue comparison, which needs no scheme test: its matrix must equal
    # the validated input.
    report, calls = _logged_preimage(
        monkeypatch,
        make_target(),
        ("check_stab", "in_scheme", "rho", "residues_closed_form"),
    )
    assert report.ok
    assert calls == ["residues_closed_form", "/residues_closed_form"]


def _parent_preimage(b):
    """The lift of a liftable scheme matrix as preimage assembled it before
    letters became column updates: the correction as a transvection and a
    2x2 product, then first * second * gen_S(ring, 1, 3, mu/c1)."""
    ring = b.ring
    c1, c2 = ring.c(1), ring.c(2)
    base = b.mat.map(lambda x: x.specialize(2))
    remainder = base.inverse() * b.mat
    _, mu, _, _ = delta_split_quadratic(remainder[1, 0])
    correction = transvection(ring, 2, 2, 1, -mu * c1 * c2)
    lift_base, _ = candidate_from_splits(canonical_splits(base))
    lift_corr, _ = candidate_from_splits(canonical_splits(remainder * correction))
    first, second = StabMatrix(lift_base), StabMatrix(lift_corr)
    return first * second * gen_S(ring, 1, 3, mu.divide_exact(c1))


def _liftable_targets(ring, seed, count=6):
    """Seeded rho images of words, promoted to ring, and in polynomial mode
    the Cohn matrix."""
    ring3 = RingDescriptor(ring.mode, 3, ring.coeff)
    rng = random.Random(seed)
    targets = [
        CongruenceMatrix(promote(rho(_sample(ring3, rng.getrandbits(32), rng.randint(1, 6))).mat, ring))
        for _ in range(count)
    ]
    if ring.mode is Mode.POLYNOMIAL:
        targets.append(CongruenceMatrix(cohn_matrix(ring)))
    return targets


@pytest.mark.parametrize("ring", RINGS, ids=_ring_id)
def test_preimage_equals_the_parent_assembly(ring):
    for target in _liftable_targets(ring, 7919):
        report = preimage(target)
        assert report.ok
        assert report.preimage == _parent_preimage(target)


def _scheme_matrices(ring):
    """Scheme matrices from two sources: rho images of sampled tame words,
    over three variables and promoted to ring, and the zero-defect families
    of the preimage suite."""
    seeds = st.integers(0, 2**32 - 1)
    ring3 = RingDescriptor(ring.mode, 3, ring.coeff)
    images = st.builds(
        lambda seed, length: promote(rho(_sample(ring3, seed, length)).mat, ring),
        seeds,
        st.integers(1, 6),
    )
    drawn = seeds.map(lambda seed: _random_scheme_zero_defect(random.Random(seed), ring))
    return st.one_of(images, drawn)


@pytest.mark.parametrize("ring", [POLY3, LAUR3], ids=["polynomial", "laurent"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_preimage_sources_lie_in_the_scheme_by_closure(ring, data):
    # preimage checks none of these; the scheme test and check_stab are
    # their oracles here.
    b = data.draw(_scheme_matrices(ring))
    other = data.draw(_scheme_matrices(ring))
    c1, c2 = ring.c(1), ring.c(2)
    assert in_scheme(b) and in_scheme(other)
    base = b.map(lambda x: x.specialize(2))
    assert in_scheme(base)
    assert in_scheme(b * other) and in_scheme(other * b)
    assert in_scheme(b.inverse()) and in_scheme(base.inverse())
    remainder = base.inverse() * b
    _, mu, _, _ = delta_split_quadratic(remainder[1, 0])
    assert in_scheme(remainder * transvection(ring, 2, 2, 1, -mu * c1 * c2))
    report = preimage(CongruenceMatrix(b))
    assert report.ok
    assert check_stab(report.preimage.mat) == report.preimage


@pytest.mark.parametrize(
    "ring", RINGS3 + [RingDescriptor(Mode.LAURENT, 4, Coeff.RATIONALS)], ids=_ring_id
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_shaped_splits_and_mu_match_the_general_route(ring, data):
    # preimage reads mu and both factors' splits off their shapes; the
    # general route, delta_split_quadratic and canonical_splits, is the
    # oracle for what it reads.
    b = data.draw(_scheme_matrices(ring))
    c1, c2 = ring.c(1), ring.c(2)
    base = b.map(lambda x: x.specialize(2))
    remainder = base.inverse() * b
    _, mu, _, _ = delta_split_quadratic(remainder[1, 0])
    assert c_heads(remainder[1, 0], 2, 2)[1].divide_exact(c1) == mu
    corrected = remainder * transvection(ring, 2, 2, 1, -mu * c1 * c2)
    calls = []
    original = colstab.stab._shaped_lift
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            colstab.stab,
            "_shaped_lift",
            lambda m, k: calls.append((m, k)) or original(m, k),
        )
        assert preimage(CongruenceMatrix(b)).ok
    assert calls == [(base, 1), (corrected, 2)]
    for m, k in calls:
        lift, defect = candidate_from_splits(canonical_splits(m))
        assert _shaped_lift(m, k) == lift
        assert defect.is_zero


@pytest.mark.parametrize("ring", RINGS, ids=_ring_id)
def test_successful_preimage_takes_no_general_split(ring, monkeypatch):
    general = (
        "canonical_splits",
        "candidate_from_splits",
        "delta_split_linear",
        "delta_split_quadratic",
        "c_adic_decompose",
    )
    for target in _liftable_targets(ring, 7919, count=3):
        report, calls = _logged_preimage(monkeypatch, target, general)
        monkeypatch.undo()
        assert report.ok
        assert calls == []


@pytest.mark.parametrize("fault", ["split", "mu"])
def test_an_inexact_split_is_a_fault_and_exits_4(monkeypatch, capsys, fault):
    # Off its shape a division fails; that is a fault of preimage, never a
    # domain error of the input (NotDivisibleError, exit 3).
    if fault == "split":
        # Each factor split along the other variable.
        original = colstab.stab._shaped_lift
        monkeypatch.setattr(colstab.stab, "_shaped_lift", lambda m, k: original(m, 3 - k))
    else:
        monkeypatch.setattr(colstab.stab, "c_heads", lambda g, k, t: (g.ring.zero, g.ring.c(2)))
    message = "^preimage: an inexact split: not divisible by c1$"
    target = cohn_matrix(POLY3)
    with pytest.raises(RuntimeError, match=message) as err:
        preimage(CongruenceMatrix(target))
    assert isinstance(err.value.__cause__, NotDivisibleError)
    code = main(["preimage", "--inline", json.dumps(mat_to_document(target))])
    payload = json.loads(capsys.readouterr().out)
    assert code == 4
    assert payload["error"] == "internal"
    assert payload["message"] == "RuntimeError: " + message[1:-1]


@pytest.mark.parametrize("fault", ["lift", "image", "image-outside-scheme"])
def test_preimage_faults_raise_and_exit_4(monkeypatch, capsys, fault):
    # A wrong lift, or an image other than the target, in the scheme or not,
    # is a fault of preimage, never an obstruction or a domain error of the
    # input.
    if fault == "lift":
        monkeypatch.setattr(colstab.stab, "_shaped_lift", lambda m, k: identity(m.ring, 3))
        message = "^preimage: rho of the lift differs from the target$"
    else:
        zero = POLY3.zero
        alpha = POLY3.var(3) if fault == "image-outside-scheme" else zero
        image = ResidueQuadruple(alpha, zero, zero, zero)
        monkeypatch.setattr(colstab.stab, "residues_closed_form", lambda a: image)
        message = "^preimage: rho of the lift differs from the target$"
    target = cohn_matrix(POLY3)
    with pytest.raises(RuntimeError, match=message):
        preimage(CongruenceMatrix(target))
    code = main(["preimage", "--inline", json.dumps(mat_to_document(target))])
    payload = json.loads(capsys.readouterr().out)
    assert code == 4
    assert payload["error"] == "internal"
    assert payload["message"] == "RuntimeError: " + message[1:-1]


@pytest.mark.parametrize("nvars", [3, 4])
@pytest.mark.parametrize("coeff", list(Coeff), ids=["int", "rat"])
@pytest.mark.parametrize("mode", list(Mode), ids=["polynomial", "laurent"])
def test_transcript_determinant_is_the_cofactor_determinant(mode, coeff, nvars):
    ring = RingDescriptor(mode, nvars, coeff)
    # rho needs the stabilizer over three variables; its image is promoted.
    ring3 = RingDescriptor(mode, 3, coeff)
    rng = random.Random(37)
    targets = [CongruenceMatrix(_random_scheme_zero_defect(rng, ring)) for _ in range(8)]
    for _ in range(8):
        image = rho(_sample(ring3, rng.getrandbits(32), length=rng.randint(1, 6))).mat
        targets.append(CongruenceMatrix(promote(image, ring)))
    if mode is Mode.POLYNOMIAL:
        targets.append(CongruenceMatrix(cohn_matrix(ring)))
    for target in targets:
        report = preimage(target)
        assert report.ok
        assert report.transcript["determinant"] == format_element(report.preimage.mat.det())


def test_search_budget_is_inert(ring3):
    c1, c2 = ring3.c(1), ring3.c(2)
    targets = [
        CongruenceMatrix(transvection(ring3, 2, 2, 1, c1 * c2)),
        CongruenceMatrix(transvection(ring3, 2, 2, 1, 5 * c1 * c1 * c2)),
        rho(_sample(ring3, 3)),
    ]
    for target in targets:
        assert preimage(target, SearchBudget(2)).to_document() == preimage(target).to_document()


# -- the kernel subgroup --------------------------------------------------------------


def test_kernel_examples(ring3):
    assert in_H(check_stab(identity(ring3, 3)))

    c2, c3 = ring3.c(2), ring3.c(3)
    t = gen_T(ring3, 1, 2, 3, c3)
    one, zero = ring3.one, ring3.zero
    expected = Mat(
        [
            [one, c3 * c3, -(c2 * c3)],
            [zero, one, zero],
            [zero, zero, one],
        ]
    )
    assert t.mat == expected
    assert in_H(t)
    assert rho(t).mat == identity(ring3, 2)

    assert not in_H(gen_T(ring3, 1, 2, 3, ring3.one))


def test_H_is_a_proper_subgroup_of_ker_rho(ring3):
    # S(1,2; a) maps to the identity for every a, but lies in H only when
    # c3^2 divides a: S(1,2; 1) is the witness that H is proper.
    one, c3 = ring3.one, ring3.c(3)
    for a in (one, ring3.var(1), ring3.var(3), c3):
        s = gen_S(ring3, 1, 2, a)
        assert rho(s).mat == identity(ring3, 2)
        assert not in_H(s)
    for a in (c3 * c3, ring3.var(1) * c3 * c3):
        assert in_H(gen_S(ring3, 1, 2, a))


def _parent_kernel_member(rng, ring, max_len=4):
    """The kernel sampler as it stood before it evaluated a word: a chain of
    3x3 products of letter matrices, from the certified identity."""
    c3 = ring.c(3)
    c3_sq = c3 * c3
    kinds = (
        lambda p: gen_T(ring, 1, 2, 3, p * c3),
        lambda p: gen_T(ring, 2, 1, 3, p * c3),
        lambda p: gen_T(ring, 3, 1, 2, p * c3_sq),
        lambda p: gen_S(ring, 1, 3, p * c3),
        lambda p: gen_S(ring, 2, 3, p * c3),
        lambda p: gen_S(ring, 1, 2, p * c3_sq),
    )
    result = check_stab(identity(ring, 3))
    for _ in range(rng.randint(1, max_len)):
        p = _random_element(rng, ring, max_terms=2, bound=2)
        result = result * rng.choice(kinds)(p)
    return result


@pytest.mark.parametrize("ring", RINGS3, ids=_ring_id)
def test_kernel_sampler_matches_the_parent_product_chain(ring):
    for seed in range(25):
        rng, parent_rng = random.Random(seed), random.Random(seed)
        assert _sample_kernel_member(rng, ring) == _parent_kernel_member(parent_rng, ring)
        assert rng.getstate() == parent_rng.getstate()


def test_preimage_and_kernel_sampler_build_no_letter_matrix(ring3, monkeypatch):
    # Both apply their letters as column updates, through the route
    # eval_word takes; neither builds a letter matrix or a transvection.
    targets = _liftable_targets(ring3, 11)
    expected = [preimage(target).preimage for target in targets]
    members = [_sample_kernel_member(random.Random(seed), ring3) for seed in range(8)]

    def forbidden(*args, **kwargs):
        raise AssertionError("built a letter matrix or a transvection")

    for module in (colstab.matrix, colstab.stab, colstab.tame, colstab.verify):
        for name in ("gen_S", "gen_T", "transvection"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(Letter, "evaluate", forbidden)
    assert [preimage(target).preimage for target in targets] == expected
    assert [_sample_kernel_member(random.Random(seed), ring3) for seed in range(8)] == members


def test_kernel_members_map_to_identity(ring3):
    c3 = ring3.c(3)
    rng = random.Random(41)
    for _ in range(20):
        a = gen_T(ring3, 1, 2, 3, ring3.const(rng.randint(-2, 2)) * c3)
        b = gen_S(ring3, 1, 3, ring3.const(rng.randint(-2, 2)) * c3)
        product = a * b
        assert in_H(product)
        assert rho(product).mat == identity(ring3, 2)
