import pytest
from hypothesis import strategies as st

from colstab import Coeff, Letter, Mat, Mode, RingDescriptor, RingElement, TameWord
from colstab.tame import S_INDICES, T_INDICES

import fox

POLY2 = RingDescriptor(Mode.POLYNOMIAL, 2)
LAUR2 = RingDescriptor(Mode.LAURENT, 2)
POLY3 = RingDescriptor(Mode.POLYNOMIAL, 3)
LAUR3 = RingDescriptor(Mode.LAURENT, 3)


def zeros(ring, nrows, ncols):
    """The nrows x ncols zero matrix over ring."""
    return Mat([[ring.zero] * ncols for _ in range(nrows)])


def conjugator(ring):
    """Upper-triangular change of basis carrying the column into its last
    column; the oracle the tests check ``reduce`` against."""
    one, zero = ring.one, ring.zero
    return Mat(
        [
            [one, zero, ring.c(1)],
            [zero, one, ring.c(2)],
            [zero, zero, ring.c(3)],
        ]
    )


def at_base_point(g):
    """g with every variable at the base point (every c_k -> 0): a constant."""
    for k in range(1, g.ring.nvars + 1):
        g = g.specialize(k)
    return g


def elements(ring, max_terms=4, bound=4, max_deg=3):
    """Strategy producing random elements of the given ring, zero included,
    with coefficients of magnitude at most bound; in rational rings they are
    fractions with denominators up to 3."""
    low = 0 if ring.mode is Mode.POLYNOMIAL else -2
    exps = st.tuples(*([st.integers(low, max_deg)] * ring.nvars))
    if ring.coeff is Coeff.RATIONALS:
        coeffs = st.fractions(-bound, bound, max_denominator=3).filter(bool)
    else:
        coeffs = st.integers(-bound, bound).filter(bool)
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda d: RingElement(ring, d)
    )


def words(ring, max_length=10, max_param_terms=8):
    """Strategy producing tame words of length 0..max_length over every T and
    S index tuple, with parameters drawn from the whole ring, zero included.

    The parameters of a word hold at most max_param_terms terms together:
    entry sizes grow with every term, and a length-10 word of two-term
    parameters over four Laurent variables with rational coefficients takes
    up to 18 s to evaluate twice."""
    params = elements(ring, max_terms=2, bound=3, max_deg=1)
    letters = st.one_of(
        st.builds(Letter, st.just("T"), st.sampled_from(T_INDICES), params),
        st.builds(Letter, st.just("S"), st.sampled_from(S_INDICES), params),
    )
    return (
        st.lists(letters, max_size=max_length)
        .filter(lambda ls: sum(len(letter.param.terms) for letter in ls) <= max_param_terms)
        .map(lambda ls: TameWord(tuple(ls)))
    )


def _compose_all(generators):
    phi = fox.IDENTITY
    for generator in generators:
        phi = fox.compose(phi, generator)
    return phi


# IA-automorphisms of M_3 as compositions of up to three generators, for
# ``fox.jacobian``; a commutator multiplication makes a word five times
# longer, so three keeps every entry small.
automorphisms = st.lists(st.sampled_from(sorted(fox.GENERATORS)), max_size=3).map(
    lambda names: _compose_all(fox.GENERATORS[name] for name in names)
)


@pytest.fixture(params=[POLY3, LAUR3], ids=["polynomial", "laurent"])
def ring3(request):
    return request.param


@pytest.fixture(params=[POLY2, LAUR2], ids=["polynomial", "laurent"])
def ring2(request):
    return request.param
