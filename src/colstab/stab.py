"""The stabilizer of the column (c1, c2, c3) in GL(3) and its congruence image.

A certified stabilizer fixes the column exactly and has unit determinant.
Conjugating by the upper-triangular matrix with the column in its last column
puts a stabilizer into block form over the ring with c3 inverted; every entry
of its 2x2 block has denominator c3, so the block is carried as c3 times
itself, a matrix of ring elements.  Splitting that numerator along powers of
c3 yields four residues in the first two variables,
which assemble into a 2x2 congruence-type matrix.  The map onto those matrices
is a group homomorphism, and every matrix of the congruence scheme with a
vanishing determinant defect lifts back to an explicit 3x3 stabilizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .matrix import Mat, NotAUnitError, ShapeError, identity, mat_to_document
from .ring import (
    ColstabError,
    NotDivisibleError,
    RingDescriptor,
    RingElement,
    _dot,
    _two_variable,
    c_adic_decompose,
    c_heads,
    delta_split_linear,
    delta_split_quadratic,
    format_element,
    in_delta,
)


class NotStabilizingError(ColstabError):
    def __init__(self, defect):
        super().__init__(
            "matrix does not stabilize the column; defect "
            + str([format_element(x) for x in defect])
        )
        self.defect = defect


class RelationFailedError(ColstabError):
    """An exact division demanded by the residue relations failed."""


class NotInSchemeError(ColstabError):
    pass


def column(ring: RingDescriptor):
    """The stabilized column (c1, c2, c3)."""
    return [ring.c(1), ring.c(2), ring.c(3)]


def annihilator_block(ring: RingDescriptor) -> Mat:
    """The rank-one, square-zero 2x2 matrix annihilating the column (c1, c2)."""
    c1, c2 = ring.c(1), ring.c(2)
    return Mat([[c1 * c2, -(c1 * c1)], [c2 * c2, -(c1 * c2)]])


@dataclass(frozen=True)
class StabMatrix:
    """A 3x3 matrix certified to fix the column and to have unit determinant.

    Built only by ``check_stab``, which checks both properties; by ``__mul__``
    and ``inverse``, which preserve them; and by construction, for
    ``eval_word``, which starts from the identity and applies each letter as
    a column update (every tame generator is a one-letter word), and for the
    lift in ``preimage``: the product of two lifts, each I + X*Z with a zero
    determinant defect, the first with the identity as its row 0 and the
    second with the identity as its row 1, with the letter S(1, 3; mu/c1)
    then applied to its columns as the same column update.
    """

    mat: Mat

    @property
    def ring(self) -> RingDescriptor:
        return self.mat.ring

    @cached_property
    def _c3_heads(self) -> tuple:
        """Heads 0 and 1 along c3 of the entries of the first two columns, by
        row: entry (i, j) is ``c_heads(mat[i, j], 3, 2)``.  Taken once, when
        first read; ``_closed_form`` and ``in_H`` share them, and ``residues``
        never reads them."""
        return tuple(tuple(c_heads(x, 3, 2) for x in row[:2]) for row in self.mat.rows)

    @cached_property
    def _closed_form(self) -> "ResidueQuadruple":
        """The residues from ``_closed_form_residues``, taken once, when first
        read; ``residues_closed_form`` returns them, so ``rho`` and the guard
        of ``preimage`` share them, and ``residues`` never reads them.  A
        ``RelationFailedError`` is raised again on every read, never kept."""
        return _closed_form_residues(self)

    def __mul__(self, other: "StabMatrix") -> "StabMatrix":
        return StabMatrix(self.mat * other.mat)

    def inverse(self) -> "StabMatrix":
        """The inverse, from ``b = a - I``, which annihilates the column.

        Relies on ``a*c = c`` and re-certifies nothing.  ``b*adj(b) = det(b)*I
        = 0``, so the columns of ``adj(b)`` lie in the kernel of b, spanned by
        c: ``adj(b) = c*w^T``, with w over the ring as the c_k are pairwise
        coprime.  Its last row, the cofactors of b's third column, gives
        ``w_j = C_j3/c3``; those are the three 2x2 minors of b's first two
        columns.  With ``t = 1 + tr b``, ``adj(a) = c*w^T + t*I - b`` and
        ``det(a) = t + c.w``, as ``det(b) = 0`` and ``tr adj(b) = c.w``.  So
        six products of two entries make the inverse, where ``Mat.inverse``
        takes nine 2x2 minors and three more products for the determinant.
        """
        one = self.ring.one
        c = column(self.ring)
        (a11, a12, _), (a21, a22, _), (a31, a32, a33) = rows = self.mat.rows
        b11, b22 = a11 - one, a22 - one
        w = [
            cofactor.divide_exact(c[2])
            for cofactor in (
                _dot((a21, b22), (a32, a31), (1, -1)),
                _dot((a12, b11), (a31, a32), (1, -1)),
                _dot((b11, a12), (b22, a21), (1, -1)),
            )
        ]
        # Entry (i, i) of t*I - b is 1 + b_jj + b_kk = a_jj + a_kk - 1, over
        # the other two indices j and k; entry (i, j) off it is -a_ij.
        others = ((a22, a33), (a11, a33), (a11, a22))
        adj = Mat(
            [
                [
                    _dot((ci, *others[i], one), (wj, one, one, one), (1, 1, 1, -1))
                    if i == j
                    else _dot((ci, x), (wj, one), (1, -1))
                    for j, (x, wj) in enumerate(zip(row, w))
                ]
                for i, (ci, row) in enumerate(zip(c, rows))
            ]
        )
        # det(a) = t + c.w, with t = 1 + tr b = a11 + a22 + a33 - 2.
        det = _dot(
            (*c, a11, a22, a33, one, one),
            (*w, one, one, one, one, one),
            (1, 1, 1, 1, 1, 1, -1, -1),
        )
        if det == one:
            return StabMatrix(adj)
        witness = det.unit_inverse()
        if witness is None:
            raise NotAUnitError(det)
        return StabMatrix(adj.scale(witness))

    def __str__(self):
        return str(self.mat)


def check_stab(m: Mat) -> StabMatrix:
    """Certify membership in the stabilizer group, or raise with a witness.

    The determinant is taken only once the column test passes, by
    ``_column_fixing_det``, which relies on it.
    """
    if m.nrows != 3 or m.ncols != 3:
        raise ShapeError(f"a stabilizer is 3x3, not {m.nrows}x{m.ncols}")
    col = column(m.ring)
    image = m.apply_column(col)
    if image != col:
        raise NotStabilizingError([img - c for img, c in zip(image, col)])
    det = _column_fixing_det(m)
    if not det.is_unit():
        raise NotAUnitError(det)
    return StabMatrix(m)


def _column_fixing_det(m: Mat) -> RingElement:
    """The determinant of a 3x3 matrix that fixes the column; relies on that.

    ``b = m - I`` annihilates the column, so ``det(b) = 0`` and
    ``det(m) = 1 + tr b + s2(b)``, with ``s2(b)`` the sum of b's three
    principal 2x2 minors: six products of two entries, where ``Mat.det``
    takes nine.
    """
    one = m.ring.one
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = m.rows
    b11, b22, b33 = a11 - one, a22 - one, a33 - one
    return _dot(
        (one, b11, b22, b33, b11, a12, b11, a13, b22, a23),
        (one, one, one, one, b22, a21, b33, a31, b33, a32),
        (1, 1, 1, 1, 1, -1, 1, -1, 1, -1),
    )


def reduce(a: StabMatrix) -> Mat:
    """c3 times the 2x2 block of the conjugated stabilizer.

    Entry (i, j) is ``a[i, j]*c3 - c_{i+1}*a[3, j]``.  The block itself has
    denominator c3 in every entry; its numerator is returned so that the
    result is a matrix of ring elements, and ``localize.format_over_c3``
    prints a block entry from it.  ``reduce`` is multiplicative up to that
    factor: ``c3 * reduce(a*b) == reduce(a) * reduce(b)``.
    """
    m, ring = a.mat, a.ring
    c3 = ring.c(3)
    return Mat(
        [
            [_dot((m[i, j], ring.c(i + 1)), (c3, m[2, j]), (1, -1)) for j in range(2)]
            for i in range(2)
        ]
    )


@dataclass(frozen=True)
class ReductionParts:
    """Parts of a reduced numerator along powers of c3: pole, order0 and
    order1 are free of variable 3, and c3*identity + pole + c3*order0 +
    c3^2*order1 + c3^3*tail reconstructs the numerator."""

    pole: Mat
    order0: Mat
    order1: Mat
    tail: Mat

    def reconstruct(self) -> Mat:
        c3 = self.pole.ring.c(3)
        inner = self.order0 + (self.order1 + self.tail.scale(c3)).scale(c3)
        return self.pole + (identity(self.pole.ring, 2) + inner).scale(c3)


def _reduction_heads(heads, one) -> tuple:
    """The pole, order0 and order1 of a reduced numerator, each as its rows:
    heads 0, 1 and 2 along c3 of the numerator minus c3 times the identity,
    from heads 0, 1 and 2 of its entries.  The heads of c3 are (0, 1, 0), so
    on the diagonal only head 1 differs, by one."""
    pole, order0, order1 = (
        tuple(tuple(h[level] for h in row) for row in heads) for level in range(3)
    )
    (o11, o12), (o21, o22) = order0
    return pole, ((o11 - one, o12), (o21, o22 - one)), order1


def r_decompose(n: Mat) -> ReductionParts:
    """Entrywise split of a reduced numerator minus c3 times the identity:
    heads 0, 1 and 2 along c3 are the pole, order0 and order1.  c3 has a
    zero tail at depth 3, so the tail is that of the numerator."""
    decs = [[c_adic_decompose(x, 3, 3) for x in row] for row in n.rows]
    heads = [[d.heads for d in row] for row in decs]
    pole, order0, order1 = map(Mat, _reduction_heads(heads, n.ring.one))
    return ReductionParts(pole, order0, order1, Mat([[d.tail for d in row] for row in decs]))


@dataclass(frozen=True)
class ResidueQuadruple:
    """The four residues of a stabilizer with respect to c3."""

    alpha: RingElement
    beta: RingElement
    gamma: RingElement
    delta: RingElement

    def to_matrix(self) -> Mat:
        ring = self.alpha.ring
        one = ring.one
        return Mat([[one + self.beta, self.alpha], [self.delta, one + self.gamma]])

    def __iter__(self):
        return iter((self.alpha, self.beta, self.gamma, self.delta))

    def __str__(self):
        return (
            f"(alpha={self.alpha}, beta={self.beta}, "
            f"gamma={self.gamma}, delta={self.delta})"
        )


def _solve_multiple(w, base) -> RingElement:
    """The unique scalar s with w = s * base, entry by entry, for a sequence
    base whose first entry is a product of c_i powers: one exact division
    fixes s, and the remaining entries are compared."""
    try:
        s = w[0].divide_exact(base[0])
    except NotDivisibleError as exc:
        raise RelationFailedError(f"inexact division in residue relation: {exc}") from exc
    if any(x != s * y for x, y in zip(w[1:], base[1:])):
        raise RelationFailedError("matrix is not a scalar multiple of the block")
    return s


def residues(a: StabMatrix) -> ResidueQuadruple:
    """Residues extracted from the reduction relations: the parts of the
    reduced numerator are fixed multiples of ``annihilator_block``.

    The pole is ``alpha`` times the block; ``order0*block``, ``block*order0``
    and ``block*order1*block`` are ``beta``, ``gamma`` and ``delta`` times it.
    The block has rank one, ``u*v^T`` with ``u = (c1, c2)`` and
    ``v = (c2, -c1)``, and neither vector is zero, so over a domain the middle
    two relations are the vector relations ``order0*u = beta*u`` and
    ``v^T*order0 = gamma*v^T``.  Each relation, the pole's on four entries,
    is one exact division and a comparison of the remaining entries.  Since
    ``block*X*block = (v^T*X*u)*block`` for every X, ``delta`` is
    ``v^T*order1*u``, the trace of ``order1*block``, and its relation holds
    whatever order1 is.  Every relation holds on a matrix that fixes the
    column, so ``RelationFailedError`` comes only from a ``StabMatrix``
    wrapped around a matrix that does not.

    The numerator is never formed; its heads come from those of the
    entries.  ``c_heads`` is linear, ``c_{i+1}`` is free of variable 3 and
    the heads of ``x*c3`` are those of x shifted up by one, so numerator
    entry (i, j), ``a[i, j]*c3 - c_{i+1}*a[3, j]``, has heads 0, 1 and 2
    ``-c_{i+1}*h0(a[3, j])``, ``h0(a[i, j]) - c_{i+1}*h1(a[3, j])`` and
    ``h1(a[i, j]) - c_{i+1}*h2(a[3, j])``.  So it takes heads 0 and 1 of the
    first two rows and heads 0 to 2 of the third, in the first two columns,
    each afresh, and reads neither the shared heads nor the kept closed
    form: an independent route to the residues that ``rho`` takes from
    ``residues_closed_form``.  The verification suites cross-check the two.
    """
    ring = a.ring
    c1, c2, one = ring.c(1), ring.c(2), ring.one
    u, v = (c1, c2), (c2, -c1)
    block = annihilator_block(ring).rows
    top, middle, bottom = a.mat.rows
    bottom_heads = [c_heads(x, 3, 3) for x in bottom[:2]]
    heads = [
        [
            (
                _dot((c,), (l0,), (-1,)),
                _dot((h0, c), (one, l1), (1, -1)),
                _dot((h1, c), (one, l2), (1, -1)),
            )
            for (h0, h1), (l0, l1, l2) in zip((c_heads(x, 3, 2) for x in row[:2]), bottom_heads)
        ]
        for c, row in ((c1, top), (c2, middle))
    ]
    pole, order0, order1 = _reduction_heads(heads, one)
    alpha = _solve_multiple(pole[0] + pole[1], block[0] + block[1])
    beta = _solve_multiple([_dot(row, u) for row in order0], u)
    gamma = _solve_multiple([_dot(v, col) for col in zip(*order0)], v)
    delta = _dot(order1[0] + order1[1], [y for col in zip(*block) for y in col])
    return ResidueQuadruple(alpha, beta, gamma, delta)


def residues_closed_form(a: StabMatrix) -> ResidueQuadruple:
    """Residues from closed formulas in the c3-heads of the entries of the
    matrix minus identity, each read off one entry; the route ``rho`` takes.
    Computed once per stabilizer, by ``_closed_form_residues``, and kept.
    """
    return a._closed_form


def _closed_form_residues(a: StabMatrix) -> ResidueQuadruple:
    """The body of ``residues_closed_form``.

    The heads are the stabilizer's shared ``_c3_heads``, taken of the
    entries themselves: ``c_heads`` is linear and the heads of 1 are (1, 0),
    so on the diagonal only head 0 differs, by one, and gamma's sum takes
    that one off.  gamma and beta are one fused sum each, and delta is two
    nested ones.
    """
    ring = a.ring
    c1, c2, one = ring.c(1), ring.c(2), ring.one
    (
        ((a11_0, a11_1), (_, a12_1)),
        ((a21_0, a21_1), (_, a22_1)),
        ((a31_0, a31_1), (a32_0, a32_1)),
    ) = a._c3_heads
    try:
        alpha = (-a31_0).divide_exact(c2)
        alpha_check = a32_0.divide_exact(c1)
        gamma = _dot((a11_0, one, a21_0.divide_exact(c2)), (one, one, c1), (1, -1, -1))
    except NotDivisibleError as exc:
        raise RelationFailedError(f"inexact division in closed form: {exc}") from exc
    if alpha != alpha_check:
        raise RelationFailedError("the two closed forms for alpha disagree")
    beta = _dot((a31_1, a32_1), (c1, c2), (-1, -1))
    # delta = c2*x - c1*(a21_1*c1) with x = (a11_1 - a22_1)*c1 + a12_1*c2,
    # so no product of two c_i is formed.
    x = _dot((a11_1, a22_1, a12_1), (c1, c1, c2), (1, -1, 1))
    delta = _dot((x, a21_1 * c1), (c2, c1), (1, -1))
    return ResidueQuadruple(alpha, beta, gamma, delta)


def compose_residues(q: ResidueQuadruple, q2: ResidueQuadruple) -> ResidueQuadruple:
    """Residues of a product from the residues of the factors (same operand order)."""
    alpha, beta, gamma, delta = q
    alpha2, beta2, gamma2, delta2 = q2
    return ResidueQuadruple(
        alpha + alpha * gamma2 + alpha2 + alpha2 * beta,
        beta + beta2 + beta * beta2 + alpha * delta2,
        gamma + gamma2 + gamma * gamma2 + delta * alpha2,
        delta + delta2 + delta * beta2 + gamma * delta2,
    )


def in_scheme(b: Mat) -> bool:
    """Membership in the congruence scheme: diagonal 1 modulo the augmentation
    ideal, lower-left in its square, unit determinant, two-variable entries."""
    if b.nrows != 2 or b.ncols != 2:
        return False
    one = b.ring.one
    # A constant involves no variable, so the diagonal is tested as it is.
    return (
        all(_two_variable(x) for row in b.rows for x in row)
        and in_delta(b[0, 0] - one, 1)
        and in_delta(b[1, 1] - one, 1)
        and in_delta(b[1, 0], 2)
        and b.det().is_unit()
    )


@dataclass(frozen=True)
class CongruenceMatrix:
    """A 2x2 matrix validated against the congruence scheme."""

    mat: Mat

    def __post_init__(self):
        m = self.mat
        if m.nrows != 2 or m.ncols != 2:
            raise ShapeError(f"a congruence matrix is 2x2, not {m.nrows}x{m.ncols}")
        if not in_scheme(m):
            raise NotInSchemeError("matrix does not satisfy the congruence scheme")

    @property
    def ring(self) -> RingDescriptor:
        return self.mat.ring


def rho(a: StabMatrix) -> CongruenceMatrix:
    """The homomorphism onto congruence-type 2x2 matrices over two variables.

    Over any base the image of a stabilizer meets every scheme condition but
    one, that its entries involve a1 and a2 only; they are built from
    c3-heads, free of variable 3, so only over four variables or more is
    that tested.  The one ``CongruenceMatrix`` built unvalidated.
    """
    image = residues_closed_form(a).to_matrix()
    if a.ring.nvars > 3 and not all(_two_variable(x) for row in image.rows for x in row):
        raise NotInSchemeError("matrix does not satisfy the congruence scheme")
    b = object.__new__(CongruenceMatrix)
    object.__setattr__(b, "mat", image)
    return b


@dataclass(frozen=True)
class CandidateSplits:
    """Free coordinates of a lifted stabilizer candidate."""

    alpha: RingElement
    beta1: RingElement
    beta2: RingElement
    gamma1: RingElement
    gamma2: RingElement
    d11: RingElement
    d12: RingElement
    d12p: RingElement
    d22: RingElement


def candidate_from_splits(splits: CandidateSplits) -> tuple[Mat, RingElement]:
    """Explicit column-fixing 3x3 matrix assembled from split coordinates.

    Returns the matrix together with its determinant defect: the difference
    between the candidate determinant and the determinant of the 2x2 matrix
    the splits reconstruct.  The defect vanishes exactly when the candidate is
    as invertible as its 2x2 source.
    """
    s = splits
    alpha, b1, b2, g1, g2 = s.alpha, s.beta1, s.beta2, s.gamma1, s.gamma2
    d11, d12, d12p, d22 = s.d11, s.d12, s.d12p, s.d22
    ring = alpha.ring
    one, zero = ring.one, ring.zero
    c1, c2, c3 = ring.c(1), ring.c(2), ring.c(3)
    # cand = I + X*Z, one fused sum per entry.  The rows of Z are the Koszul
    # relations of the column c, so Z*c = 0 and cand fixes c.
    xs = ((-g2, -d12p, -d22), (g1, d11, d12), (alpha, b1, b2))
    zs = ((-c2, -c3, zero), (c1, zero, -c3), (zero, c1, c2))  # the columns of Z
    cand = Mat(
        [
            [_dot((one, *x), (one if i == j else zero, *z)) for j, z in enumerate(zs)]
            for i, x in enumerate(xs)
        ]
    )
    # The twelve-term defect is c3 times d12p - d12 + c1*p1 + c2*p2 + c3*p3.
    p1 = _dot((g1, b1, g2, b2), (d12p, d12, d11, d11), (1, -1, -1, 1))
    p2 = _dot((g2, b2, b1, g1), (d12, d12p, d22, d22), (-1, 1, -1, 1))
    p3 = _dot((d11, d12p), (d22, d12), (1, -1))
    defect = c3 * _dot((d12p, d12, c1, c2, c3), (one, one, p1, p2, p3), (1, -1, 1, 1, 1))
    return cand, defect


def matrix_from_splits(splits: CandidateSplits) -> Mat:
    """The 2x2 matrix a split tuple reconstructs."""
    ring = splits.alpha.ring
    c1, c2 = ring.c(1), ring.c(2)
    beta = splits.beta1 * c1 + splits.beta2 * c2
    gamma = splits.gamma1 * c1 + splits.gamma2 * c2
    delta = (
        splits.d11 * c1 * c1
        + (splits.d12 + splits.d12p) * c1 * c2
        + splits.d22 * c2 * c2
    )
    return ResidueQuadruple(splits.alpha, beta, gamma, delta).to_matrix()


def canonical_splits(m: Mat) -> CandidateSplits:
    """The canonical splits of a scheme matrix, read off its entries: alpha
    is the upper-right entry, beta and gamma are the diagonal minus one, and
    delta is the lower-left entry.  The general route, for any scheme matrix:
    each split tests its entry's form and ideal membership, then peels it
    along c2 with ``delta_split_linear`` and ``delta_split_quadratic``."""
    one = m.ring.one
    beta1, beta2 = delta_split_linear(m[0, 0] - one)
    gamma1, gamma2 = delta_split_linear(m[1, 1] - one)
    d11, d12, d12p, d22 = delta_split_quadratic(m[1, 0])
    return CandidateSplits(m[0, 1], beta1, beta2, gamma1, gamma2, d11, d12, d12p, d22)


def _shaped_lift(m: Mat, k: int) -> Mat:
    """The lift ``candidate_from_splits`` builds from the canonical splits of
    a scheme matrix m whose diagonal minus one lies in (c_k) and whose
    lower-left entry lies in (c_k^2), for k = 1 or 2, read off that shape.

    With ``beta = (m00 - 1)/c_k``, ``gamma = (m11 - 1)/c_k``,
    ``q = m10/c_k``, ``d = q/c_k`` and ``alpha = m01``, the canonical splits
    are ``beta_k = beta``, ``gamma_k = gamma``, ``d_kk = d`` and alpha, and
    every other split is zero.  So the lift I + X*Z has an identity row,
    row 0 for k = 1 and row 1 for k = 2:

        k = 1: [[1, 0, 0],
                [-(gamma*c2 + d*c3), m11, q],
                [-(alpha*c2 + beta*c3), alpha*c1, m00]]
        k = 2: [[m11, d*c3 - gamma*c1, -q],
                [0, 1, 0],
                [-alpha*c2, alpha*c1 - beta*c3, m00]]

    Each split is one exact division, and the tests hold the lift equal to
    that of the general route.  The shape is not checked: off it a division
    raises ``NotDivisibleError``.
    """
    ring = m.ring
    one, zero = ring.one, ring.zero
    c1, c2, c3, c = ring.c(1), ring.c(2), ring.c(3), ring.c(k)
    (m00, alpha), (m10, m11) = m.rows
    beta = (m00 - one).divide_exact(c)
    gamma = (m11 - one).divide_exact(c)
    q = m10.divide_exact(c)
    d = q.divide_exact(c)
    if k == 1:
        return Mat(
            [
                [one, zero, zero],
                [_dot((gamma, d), (c2, c3), (-1, -1)), m11, q],
                [_dot((alpha, beta), (c2, c3), (-1, -1)), alpha * c1, m00],
            ]
        )
    return Mat(
        [
            [m11, _dot((d, gamma), (c3, c1), (1, -1)), -q],
            [zero, one, zero],
            [_dot((alpha,), (c2,), (-1,)), _dot((alpha, beta), (c1, c3), (1, -1)), m00],
        ]
    )


@dataclass(frozen=True)
class SearchBudget:
    """Inert stand-in, accepted and ignored by ``preimage``.

    The correcting-transvection stage is decided exactly, so there is no
    search left to bound.  The class stays only because the ``preimage_lift``
    benchmark workload still constructs it; it goes once that workload no
    longer does.
    """

    word_length: int = 4


@dataclass(frozen=True)
class PreimageReport:
    status: str  # "SUCCESS" | "OBSTRUCTED"
    preimage: Optional[StabMatrix] = None
    transcript: Optional[dict] = None
    stage: Optional[str] = None
    obstruction: Optional[RingElement] = None

    @property
    def ok(self) -> bool:
        return self.status == "SUCCESS"

    def to_document(self) -> dict:
        doc = {"status": self.status}
        if self.stage is not None:
            doc["stage"] = self.stage
        if self.obstruction is not None:
            doc["obstruction"] = format_element(self.obstruction)
        if self.preimage is not None:
            doc["preimage"] = mat_to_document(self.preimage.mat)
        if self.transcript is not None:
            doc["transcript"] = self.transcript
        return doc


def preimage(
    b: CongruenceMatrix, budget: Optional[SearchBudget] = None
) -> PreimageReport:
    """Construct a certified stabilizer mapping onto a scheme matrix.

    Factors the input as ``b = base * remainder``, base being its variable-2
    specialization, corrects the remainder's mixed lower-left coordinate by
    the transvection ``t21(mu*c1*c2)``, and lifts both factors explicitly.
    Specialization is a ring homomorphism, so base is free of variable 2 and
    the remainder is the identity modulo c2: head 1 along c2 of its
    lower-left entry is ``mu*c1``, and mu is read from it by one division by
    c1.  It is the mixed coordinate ``d12`` of ``delta_split_quadratic``, in
    variable 1 only.  The correcting transvection has a tame preimage
    exactly when mu vanishes at the base point: then c1 divides mu and it
    is ``S(1,3; mu/c1)``.  Otherwise no tame word maps onto it, since every
    tame letter maps to a transvection whose lower entry lies in
    I = (c1^2, c2^2), while ``mu*c1*c2`` is ``mu(base)*c1*c2`` modulo I; the
    report then carries mu as the obstruction.  mu is decided first, so an
    obstructed target returns before either factor is lifted.

    Each factor is lifted from its shape by ``_shaped_lift``, never through
    ``canonical_splits`` or ``candidate_from_splits``: base has its diagonal
    minus one in (c1) and its lower-left entry in (c1^2), and the corrected
    remainder has them in (c2) and (c2^2), the correction cancelling head 1
    of that entry.  So only alpha, ``beta_k``, ``gamma_k`` and ``d_kk`` of
    the nine splits can be nonzero, with k = 1 for base and k = 2 for the
    corrected remainder, and the lifts have block shape: base's lift is the
    identity in row 0, the corrected remainder's in row 1.  Their product
    shares the second lift's row 0 and takes one fused sum per entry of
    rows 1 and 2.  The determinant defect of ``candidate_from_splits`` is
    identically zero on such splits: each of its terms has as a factor a
    mixed split, ``d12`` or ``d12'``, or a split of the other index, and all
    of those are zero.  So each lift's determinant is that of its 2x2
    source, and the defect is never formed.

    The result is certified by construction, so an inexact split, mu's
    division included, or a result whose ``rho`` is not the input, is a
    fault of this function: it raises ``RuntimeError``, and is never
    reported as an obstruction.
    """
    ring = b.ring
    if ring.nvars < 3:
        raise NotInSchemeError("preimage needs a ring with at least three variables")
    c1, c2, one = ring.c(1), ring.c(2), ring.one

    # Every 2x2 matrix below lies in the scheme by closure, so none is
    # re-validated: specialization at variable 2 fixes values at the base
    # point, so it keeps Delta, Delta^2, units and two-variable entries; the
    # scheme is closed under products and inverses; and the correction is
    # in it.
    base = b.mat.map(lambda x: x.specialize(2))
    remainder = base.inverse() * b.mat
    try:
        mu = c_heads(remainder[1, 0], 2, 2)[1].divide_exact(c1)
        if not in_delta(mu, 1):
            return PreimageReport(
                status="OBSTRUCTED", stage="transvection-preimage", obstruction=mu
            )
        # The correction t21(-mu*c1*c2) on the right subtracts mu*c1*c2
        # times column 2 from column 1.
        w = mu * c1 * c2
        corrected = Mat(
            [[_dot((x, w), (one, y), (1, -1)), y] for x, y in remainder.rows]
        )
        lift_base, lift_corr = _shaped_lift(base, 1), _shaped_lift(corrected, 2)
    except NotDivisibleError as exc:
        raise RuntimeError(f"preimage: an inexact split: {exc}") from exc

    from .tame import Letter, _times_letters  # deferred; tame builds on this module

    # lift_base * lift_corr: row (x0, x1, x2) of lift_base times lift_corr,
    # whose row 1 is the identity row, is x0*top + x1*e_1 + x2*bottom.
    top, _, bottom = lift_corr.rows
    product = Mat(
        [top]
        + [
            [
                _dot((x0, x2), (top[0], bottom[0])),
                _dot((x0, x1, x2), (top[1], one, bottom[1])),
                _dot((x0, x2), (top[2], bottom[2])),
            ]
            for x0, x1, x2 in lift_base.rows[1:]
        ]
    )
    # Certified by construction: each lift is I + X*Z, which fixes the
    # column, with the determinant of its 2x2 source, a unit; so is their
    # product, and the letter keeps both.  mu/c1 is exact: mu involves
    # variable 1 only and vanishes at the base point.
    letter = Letter("S", (1, 3), mu.divide_exact(c1))
    result = StabMatrix(_times_letters(product, (letter,)))

    # The guard compares rho's matrix with b and runs no scheme test: a
    # matrix equal to the validated input lies in the scheme.
    image = residues_closed_form(result).to_matrix()
    if image != b.mat:
        raise RuntimeError("preimage: rho of the lift differs from the target")
    # det(result) = det(b), with no 3x3 expansion: each lift's determinant is
    # that of its 2x2 source, its defect being identically zero; the
    # correction and the S letter have determinant 1; and base * remainder = b.
    transcript = {
        "image_matches": True,
        "determinant": format_element(b.mat.det()),
        "rho": [[format_element(x) for x in row] for row in image.rows],
    }
    return PreimageReport(status="SUCCESS", preimage=result, transcript=transcript)


def in_H(a: StabMatrix) -> bool:
    """Membership in the explicit subgroup H of ``ker rho``: the matrix minus
    identity has first two columns divisible by c3^2 and last column
    divisible by c3.

    H is a proper subgroup of ``ker rho``.  The witness is S(1,2; 1): it maps
    to the identity, as S(1,2; a) does for every a, but lies in H only when
    c3^2 divides a.

    The first two columns read the stabilizer's shared ``_c3_heads``; the
    third takes its one head only once they pass.
    """
    one, zero = a.ring.one, a.ring.zero
    # c3^t divides x - [i == j] exactly when the first t heads of x along c3
    # vanish, head 0 on the diagonal being 1 instead: the heads of 1 are
    # (1, 0).
    for i, row in enumerate(a._c3_heads):
        for j, (head0, head1) in enumerate(row):
            if head0 != (one if i == j else zero) or head1:
                return False
    return all(
        c_heads(row[2], 3, 1)[0] == (one if i == 2 else zero)
        for i, row in enumerate(a.mat.rows)
    )
