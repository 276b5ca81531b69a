import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import colstab
from colstab import (
    Coeff,
    DescriptorMismatchError,
    Letter,
    Mat,
    Mode,
    NotInStab2Error,
    RingDescriptor,
    ShapeError,
    TameWord,
    annihilator_block,
    check_stab,
    cohn_matrix,
    eval_word,
    gen_S,
    gen_T,
    identity,
    in_scheme,
    preimage,
    prop2_check,
    rho,
    sample_tame,
    stab2,
    stab2_param,
)
from colstab.ring import OutOfRangeError, _dot
from colstab.stab import CongruenceMatrix
from colstab.tame import (
    MAX_COEFF_BOUND,
    MAX_WORD_LENGTH,
    S_INDICES,
    T_INDICES,
    _apply_letter,
)

from conftest import LAUR2, LAUR3, POLY2, POLY3, elements, words


def _random_element(rng, ring, max_terms=2, bound=3):
    acc = ring.zero
    for _ in range(rng.randint(0, max_terms)):
        low = 0 if ring.mode is Mode.POLYNOMIAL else -1
        exps = [rng.randint(low, 2) for _ in range(ring.nvars)]
        acc = acc + ring.monomial(rng.randint(-bound, bound), exps)
    return acc


# -- generators ---------------------------------------------------------------------


def test_gen_T_frozen_example(ring3):
    t = gen_T(ring3, 3, 1, 2, ring3.const(-1))
    one, zero = ring3.one, ring3.zero
    expected = Mat(
        [
            [one, zero, zero],
            [zero, one, zero],
            [-ring3.c(2), ring3.c(1), one],
        ]
    )
    assert t.mat == expected
    assert t.mat.det() == ring3.one


def test_gen_T_zero_parameter_is_identity(ring3):
    assert gen_T(ring3, 1, 2, 3, ring3.zero).mat == identity(ring3, 3)


def test_gen_T_index_constraints(ring3):
    with pytest.raises(ValueError):
        gen_T(ring3, 1, 1, 2, ring3.one)
    with pytest.raises(ValueError):
        gen_T(ring3, 1, 3, 2, ring3.one)


def test_gen_S_one_parameter_group(ring3):
    a = ring3.parse("a1 - 1")
    b = ring3.parse("a2^2 + 1")
    assert (gen_S(ring3, 1, 2, a) * gen_S(ring3, 1, 2, b)).mat == gen_S(
        ring3, 1, 2, a + b
    ).mat
    assert gen_S(ring3, 1, 2, ring3.zero).mat == identity(ring3, 3)
    with pytest.raises(ValueError):
        gen_S(ring3, 2, 1, a)


def _unit(ring, i, j):
    one, zero = ring.one, ring.zero
    return Mat([[one if (r, s) == (i, j) else zero for s in (1, 2, 3)] for r in (1, 2, 3)])


def _letter_matrix(ring, letter):
    """The letter as its defining sum of matrix units: an oracle that shares
    no code with the column updates letters are evaluated by."""
    a, c = letter.param, {k: ring.c(k) for k in (1, 2, 3)}
    one = _unit(ring, 1, 1) + _unit(ring, 2, 2) + _unit(ring, 3, 3)
    if letter.kind == "T":
        i, j, k = letter.indices
        return one + _unit(ring, i, j).scale(a * c[k]) - _unit(ring, i, k).scale(a * c[j])
    i, j = letter.indices
    return (
        one
        + _unit(ring, i, i).scale(a * c[i] * c[j])
        - _unit(ring, i, j).scale(a * c[i] * c[i])
        + _unit(ring, j, i).scale(a * c[j] * c[j])
        - _unit(ring, j, j).scale(a * c[i] * c[j])
    )


def test_generators_certify_with_ring_parameters(ring3):
    """Every letter equals its defining sum of matrix units, and check_stab
    certifies it unchanged."""
    rng = random.Random(7)
    params = [0, -1] + [_random_element(rng, ring3) for _ in range(8)]
    for a in params:
        r = ring3.const(a) if isinstance(a, int) else a
        for i, j, k in T_INDICES:
            t = gen_T(ring3, i, j, k, a)
            assert t.mat == _letter_matrix(ring3, Letter("T", (i, j, k), r))
            assert check_stab(t.mat).mat == t.mat
            assert t.mat.det() == ring3.one
        for i, j in S_INDICES:
            s = gen_S(ring3, i, j, a)
            assert s.mat == _letter_matrix(ring3, Letter("S", (i, j), r))
            assert check_stab(s.mat).mat == s.mat
            assert s.mat.det() == ring3.one


@pytest.mark.parametrize(
    "param, error",
    [
        # (numerator, c3-exponent) pairs: elements of the localization
        ((POLY3.one, 1), ShapeError),
        ((LAUR3.var(1), 0), ShapeError),
        (1.5, ShapeError),
        ("a1", ShapeError),
        (POLY2.var(1), DescriptorMismatchError),
        (RingDescriptor(Mode.POLYNOMIAL, 3, Coeff.RATIONALS).one, DescriptorMismatchError),
    ],
    ids=["localized", "localized-order-0", "float", "string", "two-variable", "rational"],
)
def test_generators_reject_parameters_outside_the_ring(ring3, param, error):
    for build in (
        lambda: gen_T(ring3, 1, 2, 3, param),
        lambda: gen_S(ring3, 1, 3, param),
    ):
        with pytest.raises(error):
            build()


# -- the two-variable stabilizer -------------------------------------------------------


def test_stab2_examples(ring2):
    assert stab2(ring2.zero) == identity(ring2, 2)
    assert stab2_param(identity(ring2, 2)) == ring2.zero
    a = ring2.parse("a1*a2 - 2")
    b = ring2.parse("a2")
    assert stab2(a) * stab2(b) == stab2(a + b)
    assert stab2(a) == identity(ring2, 2) + annihilator_block(ring2).scale(a)


def test_stab2_rejects_determinant_other_than_one(ring2):
    c1, c2 = ring2.c(1), ring2.c(2)
    shaped = Mat(
        [
            [ring2.one + c2 * c2, -c2 * c1],
            [ring2.zero, ring2.one],
        ]
    )
    assert shaped.apply_column([c1, c2]) == [c1, c2]
    with pytest.raises(NotInStab2Error):
        stab2_param(shaped)


def test_stab2_rejects_non_stabilizing(ring2):
    with pytest.raises(NotInStab2Error) as err:
        stab2_param(Mat([[ring2.one, ring2.one], [ring2.zero, ring2.one]]))
    assert err.value.witness is not None


def test_stab2_param_needs_a_2x2_matrix(ring2):
    with pytest.raises(NotInStab2Error, match="^input must be a 2x2 matrix$"):
        stab2_param(identity(ring2, 3))


@pytest.mark.parametrize("ring", [POLY2, LAUR2], ids=["polynomial", "laurent"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_column_fixing_determinant_one_matrix_is_in_the_family(ring, data):
    # stab2_param checks only the column and the determinant: the rows of
    # m - I are r1*(c2, -c1) and r2*(c2, -c1), and det(m) = 1 exactly when
    # (r1, r2) = a*(c1, c2).  About half the draws are off that line.
    c1, c2 = ring.c(1), ring.c(2)
    a = data.draw(elements(ring, max_terms=3, max_deg=2))
    r1, r2 = a * c1, a * c2
    if data.draw(st.booleans()):
        r1 = r1 + data.draw(elements(ring, max_terms=2, max_deg=1))
    m = Mat([[1 + r1 * c2, -r1 * c1], [r2 * c2, 1 - r2 * c1]])
    if m.det() == ring.one:
        assert stab2(stab2_param(m)) == m
    else:
        with pytest.raises(NotInStab2Error, match="^determinant is not 1$"):
            stab2_param(m)


def test_stab2_group_isomorphism_random(ring2):
    rng = random.Random(9)
    for _ in range(50):
        a = _random_element(rng, ring2)
        b = _random_element(rng, ring2)
        m = stab2(a)
        assert m.apply_column([ring2.c(1), ring2.c(2)]) == [ring2.c(1), ring2.c(2)]
        assert m.det() == ring2.one
        assert stab2(a) * stab2(b) == stab2(a + b)
        assert stab2_param(stab2(a)) == a


# -- words --------------------------------------------------------------------------


def test_empty_word_evaluates_to_identity(ring3):
    assert eval_word(ring3, sample_tame(ring3, 5, 0)).mat == identity(ring3, 3)
    assert eval_word(ring3, TameWord(())) == check_stab(identity(ring3, 3))


def test_sampler_draws_up_to_the_length_ceiling_and_rejects_longer(ring3, monkeypatch):
    assert len(sample_tame(ring3, 7, MAX_WORD_LENGTH)) == MAX_WORD_LENGTH

    def forbidden(*args):
        raise AssertionError("sampled a letter")

    # The ceiling is checked before the first draw, so no long word is begun.
    monkeypatch.setattr(colstab.tame, "_random_param", forbidden)
    for length in (MAX_WORD_LENGTH + 1, 10**6):
        with pytest.raises(
            OutOfRangeError, match=f"^word length must be at most {MAX_WORD_LENGTH}, got {length}$"
        ):
            sample_tame(ring3, 7, length)


def test_sampler_draws_up_to_the_coefficient_cap_and_rejects_larger(ring3, monkeypatch):
    word = sample_tame(ring3, 7, 6, MAX_COEFF_BOUND)
    assert len(word) == 6
    assert all(
        abs(c) <= MAX_COEFF_BOUND for letter in word.letters for c in letter.param.terms.values()
    )

    def forbidden(*args):
        raise AssertionError("sampled a letter")

    # The cap is checked before the first draw.
    monkeypatch.setattr(colstab.tame, "_random_param", forbidden)
    for bound in (MAX_COEFF_BOUND + 1, 10**4000 - 1):
        with pytest.raises(
            OutOfRangeError,
            match=f"^coefficient bound must be at most {MAX_COEFF_BOUND}, got [0-9]+$",
        ):
            sample_tame(ring3, 7, 4, bound)


def test_sampler_is_deterministic(ring3):
    first = sample_tame(ring3, 42, 5)
    second = sample_tame(ring3, 42, 5)
    assert first == second
    assert eval_word(ring3, first).mat == eval_word(ring3, second).mat


def test_explicit_word_stabilizes(ring3):
    word = TameWord(
        (
            Letter("T", (3, 1, 2), ring3.one),
            Letter("S", (1, 2), ring3.one),
        )
    )
    check_stab(eval_word(ring3, word).mat)


def test_sampled_words_certify(ring3):
    for seed in range(20):
        word = sample_tame(ring3, seed, seed % 9)
        a = eval_word(ring3, word)
        check_stab(a.mat)
        assert in_scheme(rho(a).mat)


def _letter_product(ring, word):
    product = identity(ring, 3)
    for letter in word.letters:
        product = product * _letter_matrix(ring, letter)
    return product


def test_eval_word_matches_certified_letter_product(ring3):
    for seed in range(6):
        word = sample_tame(ring3, 1000 + seed, 8)
        a = eval_word(ring3, word)
        assert a.mat == check_stab(_letter_product(ring3, word)).mat
        assert a.mat.det().is_unit()


_WORD_RINGS = [
    RingDescriptor(mode, nvars, coeff)
    for mode in Mode
    for coeff in Coeff
    for nvars in (3, 4)
]


@pytest.mark.parametrize(
    "ring", _WORD_RINGS, ids=lambda r: f"{r.mode.value}-{r.coeff.value}-{r.nvars}"
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_eval_word_equals_the_letter_product(ring, data):
    word = data.draw(words(ring))
    assert eval_word(ring, word).mat == _letter_product(ring, word)


def _rebuilding_apply_letter(ring, cols, letter):
    """The oracle: ``_apply_letter`` as it was before it shared what a zero
    leaves unchanged, rebuilding every entry of an updated column."""
    one, a = ring.one, letter.param
    if letter.kind == "T":
        i, j, k = letter.indices
        ack, acj = a * ring.c(k), a * ring.c(j)
        col_i, col_j, col_k = cols[i - 1], cols[j - 1], cols[k - 1]
        cols[j - 1] = tuple(_dot((x, ack), (one, y)) for x, y in zip(col_j, col_i))
        cols[k - 1] = tuple(_dot((x, acj), (one, y), (1, -1)) for x, y in zip(col_k, col_i))
    else:
        i, j = letter.indices
        ci, cj = ring.c(i), ring.c(j)
        weights = (a * ci, a * cj)
        col_i, col_j = cols[i - 1], cols[j - 1]
        w = [_dot(weights, pair) for pair in zip(col_i, col_j)]
        cols[i - 1] = tuple(_dot((x, cj), (one, y)) for x, y in zip(col_i, w))
        cols[j - 1] = tuple(_dot((x, ci), (one, y), (1, -1)) for x, y in zip(col_j, w))


def _unchanged_entries(ring, cols, letter):
    """The (column, row) places a letter leaves unchanged in the matrix with
    columns ``cols``, 0-based: every place for a zero parameter; else the
    untouched column, and the rows of an updated column whose update factor,
    column i's entry for T and w's for S, is zero."""
    a = letter.param
    if not a:
        return {(col, row) for col in range(3) for row in range(3)}
    if letter.kind == "T":
        i, j, k = letter.indices
        updated = (j - 1, k - 1)
        zero_rows = [row for row in range(3) if not cols[i - 1][row]]
    else:
        i, j = letter.indices
        updated = (i - 1, j - 1)
        ci, cj = ring.c(i), ring.c(j)
        zero_rows = [
            row for row in range(3) if not a * (ci * cols[i - 1][row] + cj * cols[j - 1][row])
        ]
    places = {(col, row) for col in range(3) if col not in updated for row in range(3)}
    return places | {(col, row) for col in updated for row in zero_rows}


def _seeded_words_with_zeros(ring, seed, count=16):
    """Seeded sampled words, a quarter of whose letters get a zero parameter."""
    rng = random.Random(seed)
    for _ in range(count):
        word = sample_tame(ring, rng.getrandbits(32), rng.randint(0, 8))
        yield TameWord(
            tuple(
                Letter(letter.kind, letter.indices, ring.zero) if rng.random() < 0.25 else letter
                for letter in word.letters
            )
        )


_RINGS3 = [RingDescriptor(mode, 3, coeff) for mode in Mode for coeff in Coeff]


@pytest.mark.parametrize("ring", _RINGS3, ids=lambda r: f"{r.mode.value}-{r.coeff.value}")
def test_letter_updates_match_the_rebuilding_oracle_and_share_unchanged_entries(ring):
    shared = 0
    for word in _seeded_words_with_zeros(ring, 4242):
        cols = list(zip(*identity(ring, 3).rows))
        expected = list(cols)
        for letter in word.letters:
            before = list(cols)
            _apply_letter(ring, cols, letter)
            _rebuilding_apply_letter(ring, expected, letter)
            assert cols == expected
            for col, row in _unchanged_entries(ring, before, letter):
                assert cols[col][row] is before[col][row]
                shared += 1
        assert Mat(zip(*cols)) == eval_word(ring, word).mat
    assert shared


def _raised(build):
    with pytest.raises(Exception) as err:
        build()
    return type(err.value), str(err.value)


@pytest.mark.parametrize(
    "args, ring, error",
    [
        (("T", (1, 1, 2), POLY3.one), POLY3, OutOfRangeError),
        (("T", (2, 3, 1), POLY3.one), POLY3, OutOfRangeError),
        (("T", (1, 2, 4), POLY3.one), POLY3, OutOfRangeError),
        (("S", (2, 1), POLY3.one), POLY3, OutOfRangeError),
        (("S", (1, 4), POLY3.one), POLY3, OutOfRangeError),
        (("T", (3, 1, 2), "a1"), POLY3, ShapeError),
        (("S", (2, 3), 1.5), LAUR3, ShapeError),
    ],
    ids=["T-repeated-index", "T-unordered", "T-index-4", "S-unordered", "S-index-4",
         "T-string", "S-float"],
)
def test_bad_letters_raise_when_made(args, ring, error):
    expected = _raised(lambda: Letter(*args))
    assert expected[0] is error
    # gen_T and gen_S make the letter before anything is evaluated.
    kind, indices, param = args
    gen = gen_T if kind == "T" else gen_S
    assert _raised(lambda: gen(ring, *indices, param)) == expected


@pytest.mark.parametrize(
    "args, ring",
    [
        (("T", (1, 2, 3), POLY2.var(1)), POLY3),
        (("S", (1, 3), LAUR3.var(1)), POLY3),
        (("T", (1, 2, 3), POLY2.one), POLY2),
        (("S", (2, 3), POLY2.one), POLY2),
    ],
    ids=["T-other-ring", "S-other-ring", "T-two-variables", "S-two-variables"],
)
def test_eval_word_raises_as_the_letter_does(args, ring):
    # What depends on the ring is found on evaluation, the same way on
    # every route.
    letter = Letter(*args)
    expected = _raised(lambda: letter.evaluate(ring))
    assert expected[0] in (OutOfRangeError, DescriptorMismatchError)
    lead = Letter("S", (1, 2), ring.one)
    assert _raised(lambda: eval_word(ring, TameWord((lead, letter)))) == expected


def test_unknown_letter_kind_is_rejected(ring3):
    # Rejected when the letter is made, so no route can read it as S.
    with pytest.raises(ValueError, match="^unknown letter kind 't'$"):
        Letter("t", (1, 2), ring3.one)


@pytest.mark.parametrize("param", [1, Fraction(1, 2)])
def test_a_letter_parameter_is_a_ring_element(param):
    # Only gen_T and gen_S, which know the ring, take a number as a constant.
    with pytest.raises(ShapeError, match="^parameter must be a ring element, not "):
        Letter("T", (1, 2, 3), param)


def test_generators_take_numbers_as_constants_of_their_ring():
    ring = RingDescriptor(Mode.POLYNOMIAL, 3, Coeff.RATIONALS)
    half = ring.const(Fraction(1, 2))
    assert gen_T(ring, 1, 2, 3, Fraction(1, 2)) == Letter("T", (1, 2, 3), half).evaluate(ring)
    assert gen_S(ring, 1, 3, Fraction(1, 2)) == Letter("S", (1, 3), half).evaluate(ring)
    assert gen_T(ring, 3, 1, 2, 2) == Letter("T", (3, 1, 2), ring.const(2)).evaluate(ring)


def test_eval_word_builds_no_letter_matrix(ring3, monkeypatch):
    checked = [sample_tame(ring3, 2000 + seed, 8) for seed in range(4)]
    tuples = [("T", idx) for idx in T_INDICES] + [("S", idx) for idx in S_INDICES]
    checked.append(TameWord(tuple(Letter(kind, idx, ring3.var(1)) for kind, idx in tuples)))
    expected = [_letter_product(ring3, word) for word in checked]

    def forbidden(*args, **kwargs):
        raise AssertionError("eval_word built a letter matrix or a matrix product")

    monkeypatch.setattr(colstab.tame, "gen_T", forbidden)
    monkeypatch.setattr(colstab.tame, "gen_S", forbidden)
    monkeypatch.setattr(Letter, "evaluate", forbidden)
    monkeypatch.setattr(Mat, "__mul__", forbidden)
    assert [eval_word(ring3, word).mat for word in checked] == expected


def test_eval_word_determinant_against_sympy(ring3):
    pytest.importorskip("sympy")
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.rings import ring as poly_ring

    n = ring3.nvars
    R, *_ = poly_ring([f"a{i}" for i in range(1, n + 1)], ZZ)
    for seed in range(2):
        a = eval_word(ring3, sample_tame(ring3, 1000 + seed, 8))
        # clear negative exponents row by row; the determinant picks up the shifts
        rows, total = [], [0] * n
        for row in a.mat.rows:
            terms = [x.terms for x in row]
            shift = [max([0] + [-e[v] for t in terms for e in t]) for v in range(n)]
            total = [u + w for u, w in zip(total, shift)]
            rows.append(
                [
                    R.from_dict({tuple(e + w for e, w in zip(exps, shift)): c for exps, c in t.items()})
                    for t in terms
                ]
            )
        det = DomainMatrix(rows, (3, 3), R.to_domain()).det()
        assert det == R.from_dict({tuple(total): 1})


def test_word_image_is_product_of_letter_images(ring3):
    for seed in range(10):
        word = sample_tame(ring3, seed, 5)
        total = identity(ring3, 2)
        for letter in word.letters:
            total = total * rho(eval_word(ring3, TameWord((letter,)))).mat
        assert rho(eval_word(ring3, word)).mat == total


def test_word_json_round_trip(ring3):
    word = sample_tame(ring3, 3, 6)
    data = word.to_json()
    assert data and all(set(obj) >= {"kind", "a"} for obj in data)
    assert [ring3.parse(obj["a"]) for obj in data] == [x.param for x in word.letters]


@pytest.mark.parametrize(
    "ring", _WORD_RINGS, ids=lambda r: f"{r.mode.value}-{r.coeff.value}-{r.nvars}"
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_letter_serializes_and_parses_back(ring, data):
    for letter in data.draw(words(ring)).letters:
        obj = letter.to_obj()
        keys = ("i", "j", "k") if letter.kind == "T" else ("i", "j")
        assert set(obj) == {"kind", "a", *keys}
        assert (obj["kind"], tuple(obj[key] for key in keys)) == (letter.kind, letter.indices)
        assert ring.parse(obj["a"]) == letter.param


# -- triangular images ----------------------------------------------------------------


def test_prop2_examples(ring3):
    a = ring3.parse("a1 + 2")
    assert rho(gen_T(ring3, 3, 1, 2, a)).mat == Mat(
        [[ring3.one, -a], [ring3.zero, ring3.one]]
    )
    c2 = ring3.c(2)
    assert rho(gen_T(ring3, 1, 2, 3, a)).mat == Mat(
        [[ring3.one, ring3.zero], [a * c2 * c2, ring3.one]]
    )
    assert rho(gen_S(ring3, 1, 2, a)).mat == identity(ring3, 2)


def test_all_generator_tokens_have_triangular_images(ring3):
    rng = random.Random(13)
    tokens = [("T", idx) for idx in ((1, 2, 3), (2, 1, 3), (3, 1, 2))]
    tokens += [("S", idx) for idx in ((1, 2), (1, 3), (2, 3))]
    for kind, indices in tokens:
        for _ in range(20):
            letter = Letter(kind, indices, _random_element(rng, ring3))
            assert prop2_check(ring3, letter)


# -- the Cohn matrix ------------------------------------------------------------------


def test_cohn_matrix_contract():
    m = cohn_matrix(POLY2)
    a1, a2 = POLY2.var(1), POLY2.var(2)
    assert m == Mat([[1 + a1 * a2, -(a1 * a1)], [a2 * a2, 1 - a1 * a2]])
    assert m.det() == POLY2.one
    assert in_scheme(m)


def test_cohn_matrix_needs_polynomial_mode():
    with pytest.raises(ValueError):
        cohn_matrix(LAUR2)


def test_cohn_matrix_preimage_succeeds():
    report = preimage(CongruenceMatrix(cohn_matrix(POLY3)))
    assert report.ok
    check_stab(report.preimage.mat)
