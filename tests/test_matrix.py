import json
import random

import pytest

from colstab import (
    DescriptorMismatchError,
    ExponentRangeError,
    Mat,
    Mode,
    NotAUnitError,
    ShapeError,
    annihilator_block,
    cohn_matrix,
    gen_T,
    identity,
    mat_from_document,
    mat_to_document,
    transvection,
)
from colstab.ring import MAX_EXPONENT

from conftest import LAUR3, POLY2, POLY3, conjugator, zeros


def _random_element(rng, ring, max_terms=3, bound=3):
    acc = ring.zero
    for _ in range(rng.randint(0, max_terms)):
        low = 0 if ring.mode is Mode.POLYNOMIAL else -1
        exps = [rng.randint(low, 2) for _ in range(ring.nvars)]
        acc = acc + ring.monomial(rng.randint(-bound, bound), exps)
    return acc


def _random_mat(rng, ring, n):
    return Mat([[_random_element(rng, ring) for _ in range(n)] for _ in range(n)])


def test_identity_is_neutral(ring3):
    rng = random.Random(5)
    for _ in range(10):
        a = _random_mat(rng, ring3, 3)
        assert identity(ring3, 3) * a == a
        assert a * identity(ring3, 3) == a


def test_annihilator_block_kills_the_column(ring3):
    x = annihilator_block(ring3)
    assert x.apply_column([ring3.c(1), ring3.c(2)]) == [ring3.zero, ring3.zero]
    assert x * x == zeros(ring3, 2, 2)


def test_transvections_add_parameters(ring3):
    a = ring3.parse("a1 - 2")
    b = ring3.parse("a2^2")
    lhs = transvection(ring3, 3, 1, 2, a) * transvection(ring3, 3, 1, 2, b)
    assert lhs == transvection(ring3, 3, 1, 2, a + b)
    assert transvection(ring3, 3, 1, 2, ring3.zero) == identity(ring3, 3)
    lower = transvection(ring3, 3, 2, 1, b)
    assert lower[1, 0] == b and lower[0, 1] == ring3.zero
    assert transvection(ring3, 2, 1, 2, 4) == Mat(
        [[ring3.one, ring3.const(4)], [ring3.zero, ring3.one]]
    )
    with pytest.raises(ValueError):
        transvection(ring3, 3, 2, 2, a)
    for i, j in ((0, 1), (1, 4), (4, 3)):
        with pytest.raises(ShapeError, match=rf"^entry \({i}, {j}\) outside a 3x3 matrix$"):
            transvection(ring3, 3, i, j, a)
    with pytest.raises(DescriptorMismatchError):
        transvection(ring3, 3, 1, 2, POLY2.one)


def test_conjugator_determinant(ring3):
    assert conjugator(ring3).det() == ring3.c(3)


def test_cohn_matrix_determinant():
    assert cohn_matrix(POLY2).det() == POLY2.one


def test_row_perturbation_inverse_negates_parameter(ring3):
    a = ring3.parse("a1*a2 - 1")
    t = gen_T(ring3, 3, 1, 2, a)
    assert t.mat.inverse() == gen_T(ring3, 3, 1, 2, -a).mat


def test_determinant_multiplicative(ring3):
    rng = random.Random(11)
    for n in (2, 3):
        for _ in range(50):
            a = _random_mat(rng, ring3, n)
            b = _random_mat(rng, ring3, n)
            assert (a * b).det() == a.det() * b.det()


def test_adjugate_identity(ring3):
    rng = random.Random(13)
    for n in (2, 3):
        for _ in range(25):
            a = _random_mat(rng, ring3, n)
            assert a * a.adjugate() == identity(ring3, n).scale(a.det())


def test_products_check_exponents_exactly():
    # Each product below has a span bound past the limit; only the second
    # carries an exponent past it.
    ring = LAUR3
    top = ring.monomial(1, [MAX_EXPONENT, 0, 0])
    low = ring.monomial(1, [-MAX_EXPONENT, 1, 0])
    assert (Mat([[top, ring.one]]) * Mat([[low], [top]]))[0, 0] == ring.var(2) + top
    with pytest.raises(ExponentRangeError):
        Mat([[top, ring.one]]) * Mat([[ring.var(1)], [top]])
    with pytest.raises(ExponentRangeError):
        Mat([[top, ring.zero], [ring.zero, ring.var(1)]]).det()


def test_fused_sums_check_the_range_of_the_result():
    # Both products carry a1^(MAX_EXPONENT + 1), and they cancel.
    ring = LAUR3
    top = ring.monomial(1, [MAX_EXPONENT, 0, 0])
    a1 = ring.var(1)
    assert (Mat([[top, top]]) * Mat([[a1], [-a1]]))[0, 0] == ring.zero
    with pytest.raises(ExponentRangeError):
        Mat([[top]]) * Mat([[a1]])
    with pytest.raises(ExponentRangeError):
        top * a1


def test_inverse_requires_unit_determinant(ring3):
    bad = ring3.one + ring3.var(1)  # two terms, so a unit in neither mode
    m = Mat([[bad, ring3.zero], [ring3.zero, ring3.one]])
    with pytest.raises(NotAUnitError) as err:
        m.inverse()
    assert err.value.det == bad


def _inverse_by_det(m):
    """The route Mat.inverse replaced: det by its own cofactor expansion,
    then the adjugate's cofactors again."""
    d = m.det()
    witness = d.unit_inverse()
    if witness is None:
        raise NotAUnitError(d)
    return m.adjugate().scale(witness)


def _outcome(route, m):
    try:
        return route(m)
    except NotAUnitError as exc:
        return ("NotAUnitError", exc.det, str(exc))


def test_inverse_matches_the_det_route(ring3):
    rng = random.Random(17)
    for n in (1, 2, 3):
        for _ in range(20):
            m = _random_mat(rng, ring3, n)
            assert _outcome(Mat.inverse, m) == _outcome(_inverse_by_det, m)
    # Unit determinants, so that the inverses themselves are compared too.
    for n in (2, 3):
        for _ in range(10):
            a = transvection(ring3, n, 1, n, _random_element(rng, ring3))
            b = transvection(ring3, n, n, 1, _random_element(rng, ring3))
            m = (a * b).scale(-1) if n == 3 else a * b
            inverse = m.inverse()
            assert inverse == _inverse_by_det(m)
            assert m * inverse == identity(ring3, n)


def test_inverse_scales_only_by_a_determinant_other_than_one(ring3, monkeypatch):
    rng = random.Random(19)
    cases = []
    for n in (2, 3):
        a = transvection(ring3, n, 1, n, _random_element(rng, ring3))
        b = transvection(ring3, n, n, 1, _random_element(rng, ring3))
        cases += [(a * b, 0), ((a * b).scale(-1), n % 2)]
    scaled = []
    scale = Mat.scale
    monkeypatch.setattr(Mat, "scale", lambda m, x: scaled.append(x) or scale(m, x))
    for m, scales in cases:
        scaled.clear()
        assert m.inverse() == _inverse_by_det(m)
        # _inverse_by_det scales once, Mat.inverse once unless det(m) = 1.
        assert len(scaled) == 1 + scales


def test_matrices_hold_ring_elements_only(ring3):
    # (numerator, c3-exponent) pairs stand for elements of the localization
    for bad in ((ring3.one, 1), (ring3.var(1), 0), 1, "a1"):
        with pytest.raises(ShapeError):
            Mat([[bad, ring3.one]])
        with pytest.raises(ShapeError):
            Mat([[ring3.one, bad]])
    assert not hasattr(identity(ring3, 2), "localized")


def test_shape_errors():
    with pytest.raises(ShapeError):
        Mat([[POLY3.one], [POLY3.one, POLY3.zero]])
    with pytest.raises(ShapeError):
        identity(POLY3, 2) * identity(POLY3, 3)
    with pytest.raises(ShapeError):
        Mat([[POLY3.one, LAUR3.one]])
    with pytest.raises(ShapeError, match="^addition needs equal shapes$"):
        identity(POLY3, 2) + identity(POLY3, 3)
    with pytest.raises(ShapeError, match="^column length mismatch$"):
        identity(POLY3, 2).apply_column([POLY3.one])
    row = Mat([[POLY3.one, POLY3.zero]])
    with pytest.raises(ShapeError, match="^determinant needs a square matrix$"):
        row.det()
    with pytest.raises(ShapeError, match="^adjugate needs a square matrix$"):
        row.adjugate()


@pytest.mark.parametrize(
    "ring, message",
    [
        ({"mode": "both", "nvars": 3}, "'mode' must be 'polynomial' or 'laurent', got 'both'"),
        ({"mode": [], "nvars": 3}, "'mode' must be 'polynomial' or 'laurent', got []"),
        ({"nvars": 3}, "ring document needs 'mode', 'polynomial' or 'laurent'"),
        ({"mode": "laurent"}, "ring document needs 'nvars', an integer"),
        ([], "a ring document is an object, not []"),
        ({"mode": "laurent", "nvars": 3, "coeff": []}, "bad coefficient domain []"),
        ({"mode": "laurent", "nvars": "3"}, "'nvars' must be an integer, got '3'"),
    ],
    ids=[
        "unknown-mode", "list-mode", "missing-mode", "missing-nvars", "list-ring",
        "list-coeff", "string-nvars",
    ],
)
def test_a_bad_ring_document_names_its_field(ring, message):
    # Each a ShapeError (exit 3 from the CLI) naming the field and what it
    # may hold, never the text of a KeyError or TypeError.
    with pytest.raises(ShapeError) as err:
        mat_from_document({"ring": ring, "entries": [["1"]]})
    assert str(err.value) == message


def test_a_matrix_meets_only_matrices_and_scale_multiplies(ring3):
    # A scalar multiple is m.scale(x); m * x, x * m and -m are type errors,
    # whatever the scalar.
    m = transvection(ring3, 2, 1, 2, ring3.c(1))
    assert m.scale(2) == m + m and m.scale(-1) == zeros(ring3, 2, 2) - m
    assert (m == 1) is False and m != "m"
    for x in (2, ring3.one, None):
        for make in (lambda: m * x, lambda: x * m, lambda: m + x, lambda: x - m):
            with pytest.raises(TypeError):
                make()
    with pytest.raises(TypeError):
        -m


def test_matrices_are_immutable_dict_keys(ring3):
    m = transvection(ring3, 2, 2, 1, ring3.c(1))
    seen = {m: "key"}
    with pytest.raises(TypeError):
        m.rows[0][0] = ring3.zero
    with pytest.raises(TypeError):
        m.rows[0] = (ring3.zero, ring3.zero)
    assert seen[transvection(ring3, 2, 2, 1, ring3.c(1))] == "key"


def test_json_document_round_trip(ring3):
    rng = random.Random(19)
    m = _random_mat(rng, ring3, 3)
    doc = mat_to_document(m)
    json.dumps(doc)
    assert mat_from_document(doc) == m
    assert doc["ring"]["mode"] == ring3.mode.value


def test_json_document_rejects_garbage():
    with pytest.raises(ShapeError):
        mat_from_document({"entries": [["1"]]})
    with pytest.raises(ShapeError):
        mat_from_document({"ring": {"mode": "polynomial"}, "entries": [["1"]]})
    with pytest.raises(ShapeError):
        mat_from_document(
            {"ring": {"mode": "fancy", "nvars": 2}, "entries": [["1"]]}
        )
