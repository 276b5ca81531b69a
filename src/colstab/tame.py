"""Generators of the tame stabilizer, word sampling, and the Cohn matrix.

Two families generate the tame subgroup: row perturbations T(i, j, k; a) that
cancel against the column, and embedded 2x2 one-parameter stabilizers
S(i, j; a).  Parameters may be arbitrary ring elements; each generator is
certified by construction, for every parameter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .matrix import Mat, ShapeError, identity
from .ring import (
    ColstabError,
    Mode,
    OutOfRangeError,
    RingDescriptor,
    RingElement,
    _dot,
    _shown,
    format_element,
)
from .stab import StabMatrix, rho


class NotInStab2Error(ColstabError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# The longest word ``sample_tame`` draws, the longest length measured to run:
# entry term counts grow about cubically with the length, so a far longer
# word would ask for more time and memory than any host has.
MAX_WORD_LENGTH = 99

# The largest coefficient bound ``sample_tame`` draws with.  A parameter's
# coefficient then has at most seven digits, and the entries' coefficients
# stay far below the 4300 digits an integer prints with by default: a
# seed-5 word of length ``MAX_WORD_LENGTH`` at this bound has entry
# coefficients of at most 341 digits (polynomial) and 447 (Laurent).
MAX_COEFF_BOUND = 1_000_000

# Every index tuple a T and an S letter can carry.
T_INDICES = ((1, 2, 3), (2, 1, 3), (3, 1, 2))
S_INDICES = ((1, 2), (1, 3), (2, 3))


@dataclass(frozen=True)
class Letter:
    """One generator token: kind 'T' with indices (i, j, k) or 'S' with (i, j).

    Checked once, when made: the kind is 'T' or 'S', the indices are one of
    ``T_INDICES`` or ``S_INDICES``, and the parameter is a ring element.
    What depends on the ring a letter is evaluated over, a parameter from
    another ring or a ring without c3, raises on evaluation.
    """

    kind: str
    indices: tuple
    param: RingElement

    def __post_init__(self):
        if self.kind not in ("T", "S"):
            raise OutOfRangeError(f"unknown letter kind {_shown(self.kind, repr)}")
        allowed = T_INDICES if self.kind == "T" else S_INDICES
        if self.indices not in allowed:
            raise OutOfRangeError(
                f"{self.kind} letter indices must be one of {allowed}, "
                f"not {_shown(self.indices, repr)}"
            )
        if not isinstance(self.param, RingElement):
            raise ShapeError(
                f"parameter must be a ring element, not {type(self.param).__name__}"
            )

    def to_obj(self) -> dict:
        obj = {"kind": self.kind}
        if self.kind == "T":
            obj["i"], obj["j"], obj["k"] = self.indices
        else:
            obj["i"], obj["j"] = self.indices
        obj["a"] = format_element(self.param)
        return obj

    def evaluate(self, ring: RingDescriptor) -> StabMatrix:
        """The letter's matrix: the one-letter word."""
        return eval_word(ring, TameWord((self,)))


@dataclass(frozen=True)
class TameWord:
    letters: tuple

    def to_json(self) -> list:
        return [letter.to_obj() for letter in self.letters]

    def __len__(self):
        return len(self.letters)


def gen_T(ring: RingDescriptor, i: int, j: int, k: int, a) -> StabMatrix:
    """Row perturbation: identity plus a*c_k at (i, j) minus a*c_j at (i, k).
    Both entries sit off the diagonal of row i and cancel against the column.
    An int or Fraction ``a`` is taken as a constant of ``ring``."""
    if isinstance(a, (int, Fraction)):
        a = ring.const(a)
    return Letter("T", (i, j, k), a).evaluate(ring)


def gen_S(ring: RingDescriptor, i: int, j: int, a) -> StabMatrix:
    """Embedded one-parameter 2x2 stabilizer acting on rows and columns i, j:
    the identity plus a square-zero block that annihilates (c_i, c_j).
    An int or Fraction ``a`` is taken as a constant of ``ring``."""
    if isinstance(a, (int, Fraction)):
        a = ring.const(a)
    return Letter("S", (i, j), a).evaluate(ring)


def stab2(a: RingElement) -> Mat:
    """The 2x2 stabilizer of the column (c1, c2): identity plus a times the
    square-zero block, the letter S(1, 2; a) on the 2x2 identity."""
    return _times_letters(identity(a.ring, 2), (Letter("S", (1, 2), a),))


def stab2_param(m: Mat) -> RingElement:
    """Invert stab2, rejecting anything outside the one-parameter family.

    A 2x2 matrix that fixes the column (c1, c2) and has determinant 1 lies
    in the family.  Each row of ``b = m - I`` annihilates (c1, c2), so it is
    a multiple of (c2, -c1), as c1 and c2 are coprime; then ``det(b) = 0``,
    ``tr b = det(m) - 1 - det(b) = 0``, and b is a times the annihilator
    block.  So a is ``b[0, 0]/(c1*c2)``, an exact division.
    """
    if m.nrows != 2 or m.ncols != 2:
        raise NotInStab2Error("input must be a 2x2 matrix")
    ring = m.ring
    col = [ring.c(1), ring.c(2)]
    image = m.apply_column(col)
    if image != col:
        defect = [img - c for img, c in zip(image, col)]
        raise NotInStab2Error("matrix does not stabilize the column", defect)
    det = m.det()
    if det != ring.one:
        raise NotInStab2Error("determinant is not 1", det)
    return (m[0, 0] - ring.one).divide_exact(ring.c(1) * ring.c(2))


def _apply_letter(ring: RingDescriptor, cols: list, letter: Letter) -> None:
    """Right-multiply the matrix with columns ``cols`` by one letter, in place.

    Right multiplication by ``T(i, j, k; a)`` adds ``a*c_k`` times column i
    to column j and subtracts ``a*c_j`` times it from column k.
    ``S(i, j; a)`` is the identity plus ``a*u*v^T`` with ``u = (c_i, c_j)``
    and ``v = (c_j, -c_i)`` at rows and columns i, j, so with ``w = a*P*u``
    for the matrix P it adds ``c_j*w`` to column i and subtracts ``c_i*w``
    from column j.  Every updated entry is one fused sum of products.  What
    a letter leaves unchanged is shared, not rebuilt: every column, when the
    parameter is zero; the unchanged column; and in row r of an updated
    column, the entry whose update factor is zero, column i's entry for T
    and w's for S.  The letter was checked when made.
    """
    one, a = ring.one, letter.param
    if not a:
        return
    if letter.kind == "T":
        i, j, k = letter.indices
        ack, acj = a * ring.c(k), a * ring.c(j)
        col_i, col_j, col_k = cols[i - 1], cols[j - 1], cols[k - 1]
        cols[j - 1] = tuple(
            _dot((x, ack), (one, y)) if y else x for x, y in zip(col_j, col_i)
        )
        cols[k - 1] = tuple(
            _dot((x, acj), (one, y), (1, -1)) if y else x for x, y in zip(col_k, col_i)
        )
    else:
        i, j = letter.indices
        ci, cj = ring.c(i), ring.c(j)
        weights = (a * ci, a * cj)
        col_i, col_j = cols[i - 1], cols[j - 1]
        w = [_dot(weights, pair) for pair in zip(col_i, col_j)]
        cols[i - 1] = tuple(_dot((x, cj), (one, y)) if y else x for x, y in zip(col_i, w))
        cols[j - 1] = tuple(
            _dot((x, ci), (one, y), (1, -1)) if y else x for x, y in zip(col_j, w)
        )


def _times_letters(m: Mat, letters) -> Mat:
    """m times the letters, kept as its columns and updated by
    ``_apply_letter``, with no letter matrix or matrix product built.  The
    one route by which anything is multiplied by a letter: ``eval_word``
    (so ``Letter.evaluate``, ``gen_T``, ``gen_S`` and the kernel sampler of
    the verification suites), ``stab2`` and ``preimage`` come here."""
    ring = m.ring
    cols = list(zip(*m.rows))
    for letter in letters:
        _apply_letter(ring, cols, letter)
    return Mat(zip(*cols))


def eval_word(ring: RingDescriptor, word: TameWord) -> StabMatrix:
    """The product of the word's letters; each letter fixes the column and
    has determinant 1 for every parameter, so the product is certified by
    construction."""
    return StabMatrix(_times_letters(identity(ring, 3), word.letters))


def _random_param(rng: random.Random, ring: RingDescriptor, coeff_bound: int) -> RingElement:
    coeff = rng.randint(-coeff_bound, coeff_bound)
    exps = [0] * ring.nvars
    for _ in range(rng.randint(0, 2)):
        idx = rng.randrange(ring.nvars)
        if ring.mode is Mode.POLYNOMIAL:
            exps[idx] += 1
        else:
            exps[idx] += rng.choice((-1, 1))
    return ring.monomial(coeff, exps)


def sample_tame(
    ring: RingDescriptor, seed: int, length: int, coeff_bound: int = 2
) -> TameWord:
    """Deterministic word sampler: uniform token kinds and index tuples,
    parameters monomials of total degree at most 2 with bounded coefficients."""
    if length < 0:
        raise OutOfRangeError(f"word length must be at least 0, got {_shown(length)}")
    if length > MAX_WORD_LENGTH:
        raise OutOfRangeError(
            f"word length must be at most {MAX_WORD_LENGTH}, got {_shown(length)}"
        )
    if coeff_bound < 0:
        raise OutOfRangeError(f"coefficient bound must be at least 0, got {_shown(coeff_bound)}")
    if coeff_bound > MAX_COEFF_BOUND:
        raise OutOfRangeError(
            f"coefficient bound must be at most {MAX_COEFF_BOUND}, "
            f"got {_shown(coeff_bound)}"
        )
    rng = random.Random(seed)
    letters = []
    for _ in range(length):
        param = _random_param(rng, ring, coeff_bound)
        if rng.random() < 0.5:
            letters.append(Letter("T", rng.choice(T_INDICES), param))
        else:
            letters.append(Letter("S", rng.choice(S_INDICES), param))
    return TameWord(tuple(letters))


def prop2_check(ring: RingDescriptor, letter: Letter) -> bool:
    """Whether the image of a single generator token is triangular."""
    b = rho(letter.evaluate(ring)).mat
    return b[1, 0].is_zero or b[0, 1].is_zero


def cohn_matrix(ring: RingDescriptor) -> Mat:
    """The classical unit-determinant 2x2 matrix outside the elementary subgroup."""
    if ring.mode is not Mode.POLYNOMIAL:
        raise OutOfRangeError("the Cohn matrix lives over the polynomial ring")
    if ring.nvars < 2:
        raise OutOfRangeError("the Cohn matrix needs at least two variables")
    a1, a2 = ring.var(1), ring.var(2)
    one = ring.one
    return Mat(
        [
            [one + a1 * a2, -(a1 * a1)],
            [a2 * a2, one - a1 * a2],
        ]
    )
