"""Command-line front end: single computations and randomized verification suites.

Machine-readable JSON goes to standard output; a short human summary goes to
standard error.  Exit codes: 0 success or verified, 1 property violation or
obstructed preimage, 2 parse error, 3 domain error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass

from .localize import LocalizedElement, loc_decompose
from .matrix import (
    Mat,
    NotAUnitError,
    ShapeError,
    identity,
    mat_from_document,
    mat_to_document,
    promote,
    ring_to_document,
    transvection,
)
from .ring import (
    Coeff,
    ColstabError,
    Mode,
    NotDivisibleError,
    ParseError,
    RingDescriptor,
    c_adic_decompose,
    delta_split_linear,
    format_element,
)
from .stab import (
    CandidateSplits,
    CongruenceMatrix,
    DEFAULT_BUDGET,
    NotInSchemeError,
    NotStabilizingError,
    ResidueQuadruple,
    SearchBudget,
    StabMatrix,
    annihilator_block,
    build_preimage_candidate,
    candidate_from_splits,
    check_stab,
    compose_residues,
    in_H,
    in_scheme,
    matrix_from_splits,
    preimage,
    r_decompose,
    reduce,
    residues,
    residues_closed_form,
    rho,
)
from .tame import (
    Letter,
    NotInStab2Error,
    cohn_matrix,
    eval_word,
    gen_S,
    gen_T,
    prop2_check,
    sample_tame,
    stab2,
    stab2_param,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3


# ---------------------------------------------------------------------------
# randomized checks, shared by `verify` and by the acceptance test suite
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: int
    failed: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _random_element(
    rng: random.Random, ring: RingDescriptor, max_terms=3, bound=3, span=None
):
    """Sum of up to max_terms random monomials in the first span variables
    (all of them by default)."""
    low = 0 if ring.mode is Mode.POLYNOMIAL else -1
    acc = ring.zero
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * ring.nvars
        for i in range(ring.nvars if span is None else span):
            exps[i] = rng.randint(low, 2)
        acc = acc + ring.monomial(rng.randint(-bound, bound), exps)
    return acc


def _random_c_divisor(rng, ring):
    d = ring.one
    for k in range(1, min(ring.nvars, 3) + 1):
        for _ in range(rng.randint(0, 2)):
            d = d * ring.c(k)
    return d


def suite_decomposition(ring, trials, seed, budget=None):
    rng = random.Random(seed)
    results = {
        "codec-round-trip": [0, 0],
        "c-adic-reconstruction": [0, 0],
        "exact-division-round-trip": [0, 0],
        "specialize-homomorphism": [0, 0],
        "localized-reconstruction": [0, 0],
        "split-reconstruction": [0, 0],
    }

    def tally(key, ok):
        results[key][0 if ok else 1] += 1

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
        if ring.nvars >= 3:
            f = LocalizedElement(g, rng.randint(0, 1))
            if f.denom_exp <= 1:
                dec = loc_decompose(f, rng.randint(1, 3))
                tally("localized-reconstruction", dec.reconstruct() == f)
        b1 = _random_element(rng, ring, span=2)
        b2 = _random_element(rng, ring, span=2)
        beta = b1 * ring.c(1) + b2 * ring.c(2)
        s1, s2 = delta_split_linear(beta)
        tally("split-reconstruction", s1 * ring.c(1) + s2 * ring.c(2) == beta)
    return [CheckResult(name, p, f) for name, (p, f) in results.items()]


def suite_stab2(ring, trials, seed, budget=None):
    rng = random.Random(seed)
    col = [ring.c(1), ring.c(2)]
    fixes, adds, shapes = [0, 0], [0, 0], [0, 0]
    for _ in range(trials):
        a = _random_element(rng, ring, span=2)
        b = _random_element(rng, ring, span=2)
        m = stab2(a)
        ok = m.apply_column(col) == col and m.det() == ring.one
        fixes[0 if ok else 1] += 1
        adds[0 if stab2(a) * stab2(b) == stab2(a + b) else 1] += 1
        lam = _random_element(rng, ring, span=2)
        shaped = Mat(
            [
                [ring.one + lam * ring.c(1) * ring.c(2), -lam * ring.c(1) * ring.c(1)],
                [lam * ring.c(2) * ring.c(2), ring.one - lam * ring.c(1) * ring.c(2)],
            ]
        )
        try:
            shapes[0 if stab2_param(shaped) == lam else 1] += 1
        except NotInStab2Error:
            shapes[1] += 1
    return [
        CheckResult("stab2-fixes-column-det-1", *fixes),
        CheckResult("stab2-one-parameter-group", *adds),
        CheckResult("stab2-param-round-trip", *shapes),
    ]


def _sample_stab(rng, ring, max_len=8):
    return eval_word(ring, sample_tame(ring, rng.getrandbits(32), rng.randint(0, max_len)))


def suite_relations(ring, trials, seed, budget=None):
    rng = random.Random(seed)
    block = annihilator_block(ring)
    relations, agree = [0, 0], [0, 0]
    for _ in range(trials):
        a = _sample_stab(rng, ring)
        try:
            q = residues(a)
            parts = r_decompose(reduce(a))
            ok = (
                parts.pole == block.scale(q.alpha)
                and parts.order0 * block == block.scale(q.beta)
                and block * parts.order0 == block.scale(q.gamma)
                and block * parts.order1 * block == block.scale(q.delta)
            )
            relations[0 if ok else 1] += 1
            agree[0 if residues_closed_form(a) == q else 1] += 1
        except ColstabError:
            relations[1] += 1
            agree[1] += 1
    return [
        CheckResult("residue-relations-exact", *relations),
        CheckResult("closed-form-agreement", *agree),
    ]


def suite_homomorphism(ring, trials, seed, budget=None):
    rng = random.Random(seed)
    mult, unit, inv, comp = [0, 0], [0, 0], [0, 0], [0, 0]
    unit[0 if rho(check_stab(identity(ring, 3))).mat == identity(ring, 2) else 1] += 1
    for _ in range(trials):
        a = _sample_stab(rng, ring, max_len=5)
        b = _sample_stab(rng, ring, max_len=5)
        ra, rb = rho(a), rho(b)
        mult[0 if rho(a * b).mat == ra.mat * rb.mat else 1] += 1
        inv[0 if rho(a.inverse()).mat == ra.mat.inverse() else 1] += 1
        composed = compose_residues(residues(a), residues(b))
        comp[0 if composed.to_matrix() == ra.mat * rb.mat else 1] += 1
    return [
        CheckResult("rho-multiplicative", *mult),
        CheckResult("rho-identity", *unit),
        CheckResult("rho-inverse", *inv),
        CheckResult("residue-composition-matches-product", *comp),
    ]


def _random_splits(rng, ring):
    return CandidateSplits(*[_random_element(rng, ring, span=2) for _ in range(9)])


def suite_determinant(ring, trials, seed, budget=None):
    rng = random.Random(seed)
    ok, bad, nonzero_defects = 0, 0, 0
    for _ in range(trials):
        splits = _random_splits(rng, ring)
        cand, defect = candidate_from_splits(splits)
        b = matrix_from_splits(splits)
        if not defect.is_zero:
            nonzero_defects += 1
        if cand.det() == b.det() + defect:
            ok += 1
        else:
            bad += 1
    detail = f"{nonzero_defects} samples had a nonzero defect"
    return [CheckResult("candidate-determinant-defect", ok, bad, detail)]


def _random_scheme_zero_defect(rng, ring):
    """Scheme matrices whose canonical splits have zero determinant defect."""
    c1, c2 = ring.c(1), ring.c(2)
    family = rng.randrange(3)
    if family == 0:
        # congruent to the identity modulo c2, determinant exactly 1
        b = _random_element(rng, ring, max_terms=2, bound=2, span=2)
        h = _random_element(rng, ring, max_terms=2, bound=2, span=2)
        beta = b * c2
        gamma = (-b + h * c2) * c2
        alpha = h - b * b + b * h * c2
        delta = c2 * c2
        return ResidueQuadruple(alpha, beta, gamma, delta).to_matrix()
    if family == 1:
        # free of variable 2, determinant exactly 1
        b = _random_element(rng, ring, max_terms=2, bound=2, span=1)
        h = _random_element(rng, ring, max_terms=2, bound=2, span=1)
        beta = b * c1
        gamma = (-b + h * c1) * c1
        alpha = h - b * b + b * h * c1
        delta = c1 * c1
        return ResidueQuadruple(alpha, beta, gamma, delta).to_matrix()
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


def suite_preimage(ring, trials, seed, budget=None):
    budget = budget or DEFAULT_BUDGET
    rng = random.Random(seed)
    round_trips, successes = [0, 0], [0, 0]
    for _ in range(trials):
        b = CongruenceMatrix(_random_scheme_zero_defect(rng, ring))
        cand, defect = build_preimage_candidate(b)
        ok = (
            defect.is_zero
            and cand.det().is_unit()
            and rho(check_stab(cand)).mat == b.mat
        )
        round_trips[0 if ok else 1] += 1
        report = preimage(b, budget)
        ok = report.ok and rho(report.preimage).mat == b.mat
        successes[0 if ok else 1] += 1
    results = [
        CheckResult("candidate-rho-round-trip", *round_trips),
        CheckResult("preimage-success-zero-correction", *successes),
    ]
    if ring.mode is Mode.POLYNOMIAL:
        cohn = CongruenceMatrix(cohn_matrix(ring))
        report = preimage(cohn, budget)
        ok = (
            report.ok
            and report.preimage.mat.det() == ring.one
            and rho(report.preimage).mat == cohn.mat
        )
        results.append(CheckResult("cohn-preimage", 1 if ok else 0, 0 if ok else 1))
    blocked = transvection(ring, 2, 2, 1, ring.c(1) * ring.c(2))
    report = preimage(CongruenceMatrix(blocked), budget)
    ok = (
        report.status == "OBSTRUCTED"
        and report.stage == "transvection-preimage"
        and report.obstruction == ring.one
    )
    results.append(
        CheckResult("mixed-transvection-obstructed", 1 if ok else 0, 0 if ok else 1)
    )
    return results


def _sample_kernel_member(rng, ring, max_len=4):
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


def suite_kernel(ring, trials, seed, budget=None):
    rng = random.Random(seed)
    member, trivial = [0, 0], [0, 0]
    for _ in range(trials):
        a = _sample_kernel_member(rng, ring)
        member[0 if in_H(a) else 1] += 1
        trivial[0 if rho(a).mat == identity(ring, 2) else 1] += 1
    return [
        CheckResult("kernel-scheme-membership", *member),
        CheckResult("kernel-maps-to-identity", *trivial),
    ]


def suite_triangular(ring, trials, seed, budget=None):
    rng = random.Random(seed)
    count = [0, 0]
    tokens = [("T", idx) for idx in ((1, 2, 3), (2, 1, 3), (3, 1, 2))]
    tokens += [("S", idx) for idx in ((1, 2), (1, 3), (2, 3))]
    per_token = max(trials // len(tokens), 1)
    for kind, indices in tokens:
        for _ in range(per_token):
            letter = Letter(kind, indices, _random_element(rng, ring, max_terms=2))
            count[0 if prop2_check(ring, letter) else 1] += 1
    return [CheckResult("generator-images-triangular", *count)]


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


def run_suite(name, ring, trials, seed, budget=None):
    if name == "all":
        results = []
        for key in SUITES:
            results.extend(SUITES[key](ring, trials, seed, budget))
        return results
    return SUITES[name](ring, trials, seed, budget)


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _note(text: str) -> None:
    print(f"[colstab] {text}", file=sys.stderr)


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def _ring_from_flags(args) -> RingDescriptor:
    mode = Mode.POLYNOMIAL if args.mode == "polynomial" else Mode.LAURENT
    coeff = Coeff.INTEGERS if args.coeff == "int" else Coeff.RATIONALS
    return RingDescriptor(mode, args.nvars, coeff)


def _load_document(args) -> dict:
    if args.input:
        with open(args.input, "r", encoding="utf-8") as handle:
            text = handle.read()
    elif args.inline:
        text = args.inline
    else:
        text = sys.stdin.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON document: {exc.msg}", exc.pos)


def _load_matrix(args) -> Mat:
    return mat_from_document(_load_document(args))


def cmd_check_stab(args) -> int:
    m = _load_matrix(args)
    try:
        check_stab(m)
    except NotStabilizingError as exc:
        _emit(
            {
                "subcommand": "check-stab",
                "ok": False,
                "reason": "not-stabilizing",
                "defect": [format_element(x) for x in exc.defect],
            }
        )
        _note("matrix does not stabilize the column")
        return EXIT_VIOLATION
    except NotAUnitError as exc:
        _emit(
            {
                "subcommand": "check-stab",
                "ok": False,
                "reason": "not-invertible",
                "determinant": format_element(exc.det),
            }
        )
        _note("matrix determinant is not a unit")
        return EXIT_VIOLATION
    _emit({"subcommand": "check-stab", "ok": True})
    _note("certified stabilizer")
    return EXIT_OK


class _DomainExit(ColstabError):
    pass


def _certify(args) -> StabMatrix:
    m = _load_matrix(args)
    try:
        return check_stab(m)
    except (NotStabilizingError, NotAUnitError) as exc:
        raise _DomainExit(str(exc)) from exc


def cmd_residues(args) -> int:
    a = _certify(args)
    q = residues_closed_form(a)
    _emit(
        {
            "subcommand": "residues",
            "alpha": format_element(q.alpha),
            "beta": format_element(q.beta),
            "gamma": format_element(q.gamma),
            "delta": format_element(q.delta),
        }
    )
    _note(f"residues {q}")
    return EXIT_OK


def cmd_rho(args) -> int:
    a = _certify(args)
    image = rho(a)
    _emit({"subcommand": "rho", "image": mat_to_document(image.mat)})
    _note(f"image {image.mat}")
    return EXIT_OK


def cmd_reduce(args) -> int:
    a = _certify(args)
    block = reduce(a)
    _emit(
        {
            "subcommand": "reduce",
            "entries": [[str(x) for x in row] for row in block.rows],
        }
    )
    _note(f"reduced block {block}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    ring = _ring_from_flags(args)
    g = ring.parse(args.expr)
    dec = c_adic_decompose(g, args.var, args.depth)
    _emit(
        {
            "subcommand": "decompose",
            "expr": format_element(g),
            "var": args.var,
            "depth": args.depth,
            "heads": [format_element(h) for h in dec.heads],
            "tail": format_element(dec.tail),
        }
    )
    _note(f"heads {[str(h) for h in dec.heads]}, tail {dec.tail}")
    return EXIT_OK


def cmd_preimage(args) -> int:
    m = _load_matrix(args)
    if m.ring.nvars < 3:
        target = RingDescriptor(m.ring.mode, 3, m.ring.coeff)
        m = promote(m, target)
    if not in_scheme(m):
        raise _DomainExit("input matrix is not in the congruence scheme")
    budget = SearchBudget(word_length=args.budget) if args.budget else DEFAULT_BUDGET
    report = preimage(CongruenceMatrix(m), budget)
    doc = {"subcommand": "preimage"}
    doc.update(report.to_document())
    _emit(doc)
    if report.ok:
        _note("preimage constructed and verified")
        return EXIT_OK
    _note(f"obstructed at stage {report.stage}")
    return EXIT_VIOLATION


def cmd_tame_sample(args) -> int:
    ring = _ring_from_flags(args)
    word = sample_tame(ring, args.seed, args.length, args.coeff_bound)
    a = eval_word(ring, word)
    _emit(
        {
            "subcommand": "tame-sample",
            "seed": args.seed,
            "length": args.length,
            "word": word.to_json(),
            "matrix": mat_to_document(a.mat),
        }
    )
    _note(f"sampled word of length {len(word)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    modes = (
        [Mode.POLYNOMIAL, Mode.LAURENT]
        if args.mode == "both"
        else [Mode.POLYNOMIAL if args.mode == "polynomial" else Mode.LAURENT]
    )
    coeff = Coeff.INTEGERS if args.coeff == "int" else Coeff.RATIONALS
    budget = SearchBudget(word_length=args.budget) if args.budget else DEFAULT_BUDGET
    all_ok = True
    blocks = []
    for mode in modes:
        ring = RingDescriptor(mode, args.nvars, coeff)
        results = run_suite(args.suite, ring, args.trials, args.seed, budget)
        for result in results:
            _note(
                f"{mode.value}/{result.name}: {result.passed} passed, "
                f"{result.failed} failed"
            )
        all_ok = all_ok and all(r.ok for r in results)
        blocks.append(
            {
                "ring": ring_to_document(ring),
                "results": [
                    {
                        "check": r.name,
                        "passed": r.passed,
                        "failed": r.failed,
                        "detail": r.detail,
                    }
                    for r in results
                ],
            }
        )
    _emit(
        {
            "subcommand": "verify",
            "suite": args.suite,
            "trials": args.trials,
            "seed": args.seed,
            "ok": all_ok,
            "runs": blocks,
        }
    )
    return EXIT_OK if all_ok else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_ring_flags(parser):
    parser.add_argument(
        "--mode", choices=["polynomial", "laurent"], default="polynomial"
    )
    parser.add_argument("--nvars", type=int, default=3)
    parser.add_argument("--coeff", choices=["int", "rat"], default="int")


def _add_input_flags(parser):
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--input", help="path to a JSON matrix document")
    group.add_argument("--inline", help="JSON matrix document as a string")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colstab",
        description="exact column-stabilizer computations over polynomial and "
        "Laurent polynomial rings",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check-stab", help="certify a 3x3 column stabilizer")
    _add_input_flags(p)
    p.set_defaults(handler=cmd_check_stab)

    p = sub.add_parser("residues", help="residue quadruple of a stabilizer")
    _add_input_flags(p)
    p.set_defaults(handler=cmd_residues)

    p = sub.add_parser("rho", help="congruence image of a stabilizer")
    _add_input_flags(p)
    p.set_defaults(handler=cmd_rho)

    p = sub.add_parser("reduce", help="localized 2x2 block of a stabilizer")
    _add_input_flags(p)
    p.set_defaults(handler=cmd_reduce)

    p = sub.add_parser("decompose", help="split an expression along powers of c_k")
    _add_ring_flags(p)
    p.add_argument("--expr", required=True)
    p.add_argument("--var", type=int, default=3)
    p.add_argument("--depth", type=int, default=2)
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("preimage", help="lift a 2x2 scheme matrix to a stabilizer")
    _add_input_flags(p)
    p.add_argument("--budget", type=int, help="search word length bound")
    p.set_defaults(handler=cmd_preimage)

    p = sub.add_parser("tame-sample", help="sample a word in the tame generators")
    _add_ring_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--length", type=int, default=5)
    p.add_argument("--coeff-bound", type=int, default=2)
    p.set_defaults(handler=cmd_tame_sample)

    p = sub.add_parser("verify", help="run a randomized verification suite")
    p.add_argument(
        "--suite", choices=sorted(SUITES) + ["all"], default="all"
    )
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--mode", choices=["polynomial", "laurent", "both"], default="both"
    )
    p.add_argument("--nvars", type=int, default=3)
    p.add_argument("--coeff", choices=["int", "rat"], default="int")
    p.add_argument("--budget", type=int, help="preimage search word length bound")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        _emit({"subcommand": args.subcommand, "error": "parse", "message": str(exc)})
        _note(f"parse error: {exc}")
        return EXIT_PARSE
    except (_DomainExit, NotInSchemeError, NotInStab2Error, ShapeError, NotDivisibleError) as exc:
        _emit({"subcommand": args.subcommand, "error": "domain", "message": str(exc)})
        _note(f"domain error: {exc}")
        return EXIT_DOMAIN
    except OSError as exc:
        _emit({"subcommand": args.subcommand, "error": "io", "message": str(exc)})
        _note(f"input error: {exc}")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
