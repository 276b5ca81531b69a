"""Randomized verification suites, run by ``colstab verify`` and by the
acceptance tests.

Each suite takes a ring, a trial count and a seed, draws its inputs from one
seeded stream, and returns one pass/fail tally per property it checks.  All
comparisons are exact.  Every outcome goes through one ``_Tally``, which counts
each trial once per check and is the only builder of ``CheckResult``: a check
that raises after an earlier one passed counts as one failure of its own check
only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .matrix import Mat, NotAUnitError, identity, transvection
from .ring import (
    ColstabError,
    Mode,
    OutOfRangeError,
    RingDescriptor,
    c_adic_decompose,
    delta_split_linear,
    format_element,
)
from .stab import (
    CandidateSplits,
    CongruenceMatrix,
    NotStabilizingError,
    ResidueQuadruple,
    candidate_from_splits,
    canonical_splits,
    check_stab,
    compose_residues,
    in_H,
    matrix_from_splits,
    preimage,
    residues,
    residues_closed_form,
    rho,
)
from .tame import (
    S_INDICES,
    T_INDICES,
    Letter,
    NotInStab2Error,
    TameWord,
    cohn_matrix,
    eval_word,
    prop2_check,
    sample_tame,
    stab2,
    stab2_param,
)


@dataclass
class CheckResult:
    """The pass/fail tally of one checked property."""

    name: str
    passed: int
    failed: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.failed == 0


class _Tally:
    """Pass/fail counts of a suite's checks.  Results come in the order of the
    names given to the constructor, then of each other check's first outcome."""

    def __init__(self, *order):
        self._counts = {name: [0, 0] for name in order}

    def __call__(self, name, ok):
        self._counts.setdefault(name, [0, 0])[0 if ok else 1] += 1

    def results(self, details=None) -> list[CheckResult]:
        details = details or {}
        return [
            CheckResult(name, passed, failed, details.get(name, ""))
            for name, (passed, failed) in self._counts.items()
        ]


def _random_element(
    rng: random.Random, ring: RingDescriptor, max_terms=3, bound=3, span=None
):
    """Sum of up to max_terms random monomials in the first span variables
    (all of them by default)."""
    span = ring.nvars if span is None else span
    ring._check_index(span)  # too few variables is a domain error, not an IndexError
    low = 0 if ring.mode is Mode.POLYNOMIAL else -1
    acc = ring.zero
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * ring.nvars
        for i in range(span):
            exps[i] = rng.randint(low, 2)
        acc = acc + ring.monomial(rng.randint(-bound, bound), exps)
    return acc


def _random_c_divisor(rng, ring):
    d = ring.one
    for k in range(1, min(ring.nvars, 3) + 1):
        for _ in range(rng.randint(0, 2)):
            d = d * ring.c(k)
    return d


def suite_decomposition(ring, trials, seed):
    rng = random.Random(seed)
    tally = _Tally()
    for _ in range(trials):
        g = _random_element(rng, ring)
        h = _random_element(rng, ring)
        tally("codec-round-trip", ring.parse(format_element(g)) == g)
        k = rng.randint(1, ring.nvars)
        t = rng.randint(1, 3)
        tally("c-adic-reconstruction", c_adic_decompose(g, k, t).reconstruct() == g)
        d = _random_c_divisor(rng, ring)
        tally("exact-division-round-trip", (g * d).divide_exact(d) == g)
        k = rng.randint(1, ring.nvars)
        ok = (g * h).specialize(k) == g.specialize(k) * h.specialize(k) and (
            g + h
        ).specialize(k) == g.specialize(k) + h.specialize(k)
        tally("specialize-homomorphism", ok)
        b1 = _random_element(rng, ring, span=2)
        b2 = _random_element(rng, ring, span=2)
        beta = b1 * ring.c(1) + b2 * ring.c(2)
        s1, s2 = delta_split_linear(beta)
        tally("split-reconstruction", s1 * ring.c(1) + s2 * ring.c(2) == beta)
    return tally.results()


def suite_stab2(ring, trials, seed):
    rng = random.Random(seed)
    col = [ring.c(1), ring.c(2)]
    tally = _Tally()
    for _ in range(trials):
        a = _random_element(rng, ring, span=2)
        b = _random_element(rng, ring, span=2)
        m = stab2(a)
        tally("stab2-fixes-column-det-1", m.apply_column(col) == col and m.det() == ring.one)
        tally("stab2-one-parameter-group", m * stab2(b) == stab2(a + b))
        lam = _random_element(rng, ring, span=2)
        shaped = Mat(
            [
                [ring.one + lam * ring.c(1) * ring.c(2), -lam * ring.c(1) * ring.c(1)],
                [lam * ring.c(2) * ring.c(2), ring.one - lam * ring.c(1) * ring.c(2)],
            ]
        )
        try:
            ok = stab2_param(shaped) == lam
        except NotInStab2Error:
            ok = False
        tally("stab2-param-round-trip", ok)
    return tally.results()


def _sample_stab(rng, ring, max_len=8):
    return eval_word(ring, sample_tame(ring, rng.getrandbits(32), rng.randint(0, max_len)))


def suite_relations(ring, trials, seed):
    rng = random.Random(seed)
    tally = _Tally()
    for _ in range(trials):
        a = _sample_stab(rng, ring)
        try:
            # residues checks all four relations and raises if one fails
            q = residues(a)
        except ColstabError:
            q = None
        tally("residue-relations-exact", q is not None)
        try:
            ok = q is not None and residues_closed_form(a) == q
        except ColstabError:
            ok = False
        tally("closed-form-agreement", ok)
    return tally.results()


def suite_homomorphism(ring, trials, seed):
    rng = random.Random(seed)
    tally = _Tally("rho-multiplicative", "rho-identity")
    tally("rho-identity", rho(check_stab(identity(ring, 3))).mat == identity(ring, 2))
    for _ in range(trials):
        a = _sample_stab(rng, ring, max_len=5)
        b = _sample_stab(rng, ring, max_len=5)
        ra, rb = rho(a), rho(b)
        product = ra.mat * rb.mat
        tally("rho-multiplicative", rho(a * b).mat == product)
        tally("rho-inverse", rho(a.inverse()).mat == ra.mat.inverse())
        composed = compose_residues(residues(a), residues(b))
        tally("residue-composition-matches-product", composed.to_matrix() == product)
    return tally.results()


def _random_splits(rng, ring):
    return CandidateSplits(*[_random_element(rng, ring, span=2) for _ in range(9)])


def suite_determinant(ring, trials, seed):
    rng = random.Random(seed)
    tally = _Tally()
    nonzero_defects = 0
    for _ in range(trials):
        splits = _random_splits(rng, ring)
        cand, defect = candidate_from_splits(splits)
        nonzero_defects += not defect.is_zero
        b = matrix_from_splits(splits)
        tally("candidate-determinant-defect", cand.det() == b.det() + defect)
    detail = f"{nonzero_defects} samples had a nonzero defect"
    return tally.results({"candidate-determinant-defect": detail})


def _random_scheme_zero_defect(rng, ring):
    """Scheme matrices whose canonical splits have zero determinant defect."""
    c1, c2 = ring.c(1), ring.c(2)
    family = rng.randrange(3)
    if family < 2:
        # family 0 is congruent to the identity modulo c2, family 1 is free of
        # variable 2; both have determinant exactly 1
        c, span = (c2, 2) if family == 0 else (c1, 1)
        b = _random_element(rng, ring, max_terms=2, bound=2, span=span)
        h = _random_element(rng, ring, max_terms=2, bound=2, span=span)
        alpha = h - b * b + b * h * c
        return ResidueQuadruple(alpha, b * c, (-b + h * c) * c, c * c).to_matrix()
    # upper triangular; in Laurent mode the diagonal may be any monomial units
    alpha = _random_element(rng, ring, max_terms=2, bound=2, span=2)
    if ring.mode is Mode.LAURENT:
        exps = [rng.randint(-1, 1), rng.randint(-1, 1)] + [0] * (ring.nvars - 2)
        m1 = ring.monomial(1, exps)
        exps = [rng.randint(-1, 1), rng.randint(-1, 1)] + [0] * (ring.nvars - 2)
        m2 = ring.monomial(1, exps)
    else:
        m1 = m2 = ring.one
    return Mat([[m1, alpha], [ring.zero, m2]])


def suite_preimage(ring, trials, seed):
    rng = random.Random(seed)
    tally = _Tally()
    for _ in range(trials):
        b = CongruenceMatrix(_random_scheme_zero_defect(rng, ring))
        cand, defect = candidate_from_splits(canonical_splits(b.mat))
        try:
            # check_stab takes the determinant and raises unless it is a unit
            ok = defect.is_zero and rho(check_stab(cand)).mat == b.mat
        except (NotStabilizingError, NotAUnitError):
            ok = False
        tally("candidate-rho-round-trip", ok)
        report = preimage(b)
        ok = report.ok and rho(report.preimage).mat == b.mat
        tally("preimage-success-zero-correction", ok)
    if ring.mode is Mode.POLYNOMIAL:
        cohn = CongruenceMatrix(cohn_matrix(ring))
        report = preimage(cohn)
        ok = report.ok and report.preimage.mat.det() == ring.one
        tally("cohn-preimage", ok and rho(report.preimage).mat == cohn.mat)
    blocked = transvection(ring, 2, 2, 1, ring.c(1) * ring.c(2))
    report = preimage(CongruenceMatrix(blocked))
    ok = report.status == "OBSTRUCTED" and report.stage == "transvection-preimage"
    tally("mixed-transvection-obstructed", ok and report.obstruction == ring.one)
    return tally.results()


def _sample_kernel_member(rng, ring, max_len=4):
    """A product of one to max_len letters of H, evaluated by ``eval_word``."""
    c3 = ring.c(3)
    c3_sq = c3 * c3
    kinds = (
        ("T", (1, 2, 3), c3),
        ("T", (2, 1, 3), c3),
        ("T", (3, 1, 2), c3_sq),
        ("S", (1, 3), c3),
        ("S", (2, 3), c3),
        ("S", (1, 2), c3_sq),
    )
    letters = []
    for _ in range(rng.randint(1, max_len)):
        p = _random_element(rng, ring, max_terms=2, bound=2)
        kind, indices, weight = rng.choice(kinds)
        letters.append(Letter(kind, indices, p * weight))
    return eval_word(ring, TameWord(tuple(letters)))


def suite_kernel(ring, trials, seed):
    rng = random.Random(seed)
    tally = _Tally()
    for _ in range(trials):
        a = _sample_kernel_member(rng, ring)
        tally("kernel-scheme-membership", in_H(a))
        tally("kernel-maps-to-identity", rho(a).mat == identity(ring, 2))
    return tally.results()


def suite_triangular(ring, trials, seed):
    rng = random.Random(seed)
    tally = _Tally()
    tokens = [("T", idx) for idx in T_INDICES] + [("S", idx) for idx in S_INDICES]
    per_token = max(trials // len(tokens), 1)
    for kind, indices in tokens:
        for _ in range(per_token):
            letter = Letter(kind, indices, _random_element(rng, ring, max_terms=2))
            tally("generator-images-triangular", prop2_check(ring, letter))
    return tally.results()


SUITES = {
    "decomposition": suite_decomposition,
    "stab2": suite_stab2,
    "relations": suite_relations,
    "homomorphism": suite_homomorphism,
    "determinant": suite_determinant,
    "preimage": suite_preimage,
    "kernel": suite_kernel,
    "triangular": suite_triangular,
}


# The suites that take rho of stabilizers drawn over every variable of the
# ring, and "all", which runs them.
_THREE_VARIABLE_SUITES = ("homomorphism", "triangular", "all")

# The fewest variables each other suite draws over: two for the
# two-variable draws, three where it builds the column (c1, c2, c3).
_MIN_NVARS = {
    "decomposition": 2,
    "stab2": 2,
    "relations": 3,
    "determinant": 3,
    "preimage": 3,
    "kernel": 3,
}


MAX_TRIALS = 10_000
"""Largest trial count ``run_suite`` accepts, far above every documented and
tested count; the time of a suite grows with it."""


def run_suite(name, ring, trials, seed):
    """Run one suite, or every suite in order for ``"all"``.

    Before any draw, a trial count outside ``1..MAX_TRIALS``, or a ring with
    fewer variables than the suite draws over (exactly three where it takes
    ``rho``), raises ``OutOfRangeError`` naming the bound.
    """
    if trials < 1:
        raise OutOfRangeError(f"trials must be at least 1, got {trials}")
    if trials > MAX_TRIALS:
        raise OutOfRangeError(f"trials must be at most {MAX_TRIALS}, got {trials}")
    if name in _THREE_VARIABLE_SUITES and ring.nvars != 3:
        raise OutOfRangeError(
            f"suite {name!r} needs a three-variable ring, got {ring.nvars} variables: "
            "rho takes stabilizers of (c1, c2, c3) over a1, a2, a3 to the "
            "two-variable congruence scheme"
        )
    least = _MIN_NVARS.get(name, 1)
    if ring.nvars < least:
        raise OutOfRangeError(
            f"suite {name!r} needs a ring with at least {least} variables, "
            f"got {ring.nvars}"
        )
    if name == "all":
        results = []
        for key in SUITES:
            results.extend(SUITES[key](ring, trials, seed))
        return results
    return SUITES[name](ring, trials, seed)
