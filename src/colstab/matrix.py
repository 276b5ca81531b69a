"""Dense matrices over exact ring elements.

Every entry is a ``RingElement`` of one ring.  Sizes here are tiny (2x2 and
3x3), so determinants go by cofactor expansion and inverses by the adjugate
divided through a unit determinant.  Each entry of a product, determinant or
adjugate is one sum of products, taken by the ring's product kernel ``_dot``.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .ring import (
    Coeff,
    ColstabError,
    Mode,
    OutOfRangeError,
    RingDescriptor,
    RingElement,
    _dot,
    format_element,
    parse_element,
)


class ShapeError(ColstabError):
    pass


class NotAUnitError(ColstabError):
    def __init__(self, det):
        super().__init__(f"determinant {det} is not a unit")
        self.det = det


class Mat:
    """Immutable rectangular matrix of ring elements sharing one ring
    descriptor.  ``rows`` is a tuple of tuples."""

    __slots__ = ("rows", "ring")

    def __init__(self, rows):
        rows = tuple(map(tuple, rows))
        if not rows or not rows[0]:
            raise ShapeError("matrix must be nonempty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ShapeError("ragged rows")
        first = rows[0][0]
        ring = first.ring if isinstance(first, RingElement) else None
        for r in rows:
            for x in r:
                if not isinstance(x, RingElement) or x.ring is not ring:
                    raise ShapeError("entries must be ring elements of one ring")
        self.rows = rows
        self.ring = ring

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def _entrywise(self, other, op):
        if not isinstance(other, Mat):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeError("addition needs equal shapes")
        return Mat(
            [[op(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __neg__(self):
        return Mat([[-x for x in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.ncols != other.nrows:
                raise ShapeError(
                    f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
                )
            cols = list(zip(*other.rows))
            return Mat(
                [[_dot(row, col) for col in cols] for row in self.rows]
            )
        if isinstance(other, (RingElement, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (RingElement, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, factor) -> Mat:
        return Mat([[x * factor for x in r] for r in self.rows])

    def apply_column(self, column):
        """Matrix times a column of elements of its ring, returned as a list."""
        column = list(column)
        if len(column) != self.ncols:
            raise ShapeError("column length mismatch")
        return [_dot(row, column) for row in self.rows]

    def map(self, fn) -> Mat:
        return Mat([[fn(x) for x in r] for r in self.rows])

    def det(self):
        if self.nrows != self.ncols:
            raise ShapeError("determinant needs a square matrix")
        return _det(self.rows)

    def adjugate(self) -> Mat:
        if self.nrows != self.ncols:
            raise ShapeError("adjugate needs a square matrix")
        n = self.nrows
        if n == 1:
            return identity(self.ring, 1)
        return Mat([[_cofactor(self.rows, j, i) for j in range(n)] for i in range(n)])

    def inverse(self) -> Mat:
        """Adjugate over the determinant, which its cofactors give; raises unless a unit.

        When the determinant is one the adjugate itself is returned, unscaled.
        """
        adj = self.adjugate()
        d = _dot([r[0] for r in self.rows], adj.rows[0])
        if d == self.ring.one:
            return adj
        witness = d.unit_inverse()
        if witness is None:
            raise NotAUnitError(d)
        return adj.scale(witness)

    def __str__(self):
        return "[" + "; ".join(", ".join(str(x) for x in r) for r in self.rows) + "]"

    def __repr__(self):
        return f"Mat({self!s})"


def _det(rows, sign=1):
    """The determinant, negated when sign is negative, by cofactor expansion
    along the first column."""
    n = len(rows)
    if n == 1:
        return rows[0][0] if sign > 0 else -rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        return _dot((a, b), (d, c), (sign, -sign))
    return _dot([r[0] for r in rows], [_cofactor(rows, i, 0, sign) for i in range(n)])


def _cofactor(rows, i, j, sign=1):
    minor = [r[:j] + r[j + 1 :] for k, r in enumerate(rows) if k != i]
    return _det(minor, -sign if (i + j) % 2 else sign)


# -- builders -------------------------------------------------------------------


def identity(ring: RingDescriptor, n: int) -> Mat:
    return Mat([[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)])


def transvection(ring: RingDescriptor, n: int, i: int, j: int, a: RingElement) -> Mat:
    """Identity plus a single off-diagonal entry a at the 1-based (i, j); an
    int ``a`` is taken as a constant of ``ring``."""
    if i == j:
        raise OutOfRangeError("transvection indices must differ")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ShapeError(f"entry ({i}, {j}) outside a {n}x{n} matrix")
    rows = [[ring.one if r == s else ring.zero for s in range(n)] for r in range(n)]
    rows[i - 1][j - 1] = ring.zero + a
    return Mat(rows)


def promote(m: Mat, ring: RingDescriptor) -> Mat:
    """Reinterpret a ring-element matrix in a larger ring."""
    return m.map(lambda x: x.promote(ring))


# -- JSON document codec ----------------------------------------------------------

_MODES = {mode.value: mode for mode in Mode}
_COEFFS = {coeff.value: coeff for coeff in Coeff}


def ring_to_document(ring: RingDescriptor) -> dict:
    return {"mode": ring.mode.value, "nvars": ring.nvars, "coeff": ring.coeff.value}


def ring_from_document(doc: dict) -> RingDescriptor:
    """The ring of a document: ``coeff`` defaults to "int", and ``nvars`` must
    be a JSON integer, not a bool, float or string; ``ShapeError`` otherwise."""
    try:
        mode = _MODES[doc["mode"]]
        coeff = _COEFFS.get(doc.get("coeff", "int"))
        nvars = doc["nvars"]
    except (KeyError, TypeError) as exc:
        raise ShapeError(f"bad ring document: {exc}") from exc
    if coeff is None:
        raise ShapeError(f"bad coefficient domain {doc.get('coeff')!r}")
    if not isinstance(nvars, int) or isinstance(nvars, bool):
        raise ShapeError(f"'nvars' must be an integer, got {nvars!r}")
    return RingDescriptor(mode, nvars, coeff)


def mat_to_document(m: Mat) -> dict:
    return {
        "ring": ring_to_document(m.ring),
        "entries": [[format_element(x) for x in row] for row in m.rows],
    }


def mat_from_document(doc: dict) -> Mat:
    if not isinstance(doc, dict) or "ring" not in doc or "entries" not in doc:
        raise ShapeError("matrix document needs 'ring' and 'entries'")
    ring = ring_from_document(doc["ring"])
    entries = doc["entries"]
    if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
        raise ShapeError("'entries' must be a list of rows")
    return Mat([[parse_element(ring, text) for text in row] for row in entries])
