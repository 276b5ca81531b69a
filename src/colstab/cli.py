"""Command-line front end over the colstab library.

Machine-readable JSON goes to standard output; a short human summary goes to
standard error.  Exit codes: 0 success or verified, 1 property violation or
obstructed preimage, 2 parse error (a malformed document or expression, input
that is not UTF-8, or a command line the argument parser rejects), 3 domain
error (any other library error, or an unreadable input file), 4 internal
error (any other exception, a fault of this program).  Every exit code but 0
and 1 comes with ``{"subcommand", "error", "message"}`` on standard output,
``error`` being "parse", "domain", "io" or "internal".
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .localize import format_over_c3
from .matrix import (
    Mat,
    NotAUnitError,
    mat_from_document,
    mat_to_document,
    promote,
    ring_to_document,
)
from .ring import (
    Coeff,
    ColstabError,
    Mode,
    ParseError,
    RingDescriptor,
    c_adic_decompose,
    format_element,
)
from .stab import (
    CongruenceMatrix,
    NotStabilizingError,
    check_stab,
    preimage,
    reduce,
    residues_closed_form,
    rho,
)
from .tame import eval_word, sample_tame
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_INTERNAL = 4


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _note(text: str) -> None:
    print(f"[colstab] {text}", file=sys.stderr)


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def _ring_from_flags(args) -> RingDescriptor:
    return RingDescriptor(Mode(args.mode), args.nvars, Coeff(args.coeff))


def _load_document(args) -> dict:
    """The document of ``--inline``, else the ``--input`` file or stdin as UTF-8."""
    if args.inline is not None:
        text = args.inline
    else:
        if args.input is not None:
            with open(args.input, "rb") as handle:
                data = handle.read()
        else:
            data = sys.stdin.buffer.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8: {exc.reason}", exc.start) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON document: {exc.msg}", exc.pos)
    except RecursionError:
        raise ParseError("bad JSON document: nested too deeply", 0) from None


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


def cmd_residues(args) -> int:
    a = check_stab(_load_matrix(args))
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
    a = check_stab(_load_matrix(args))
    image = rho(a)
    _emit({"subcommand": "rho", "image": mat_to_document(image.mat)})
    _note(f"image {image.mat}")
    return EXIT_OK


def cmd_reduce(args) -> int:
    a = check_stab(_load_matrix(args))
    numerator = reduce(a)
    _emit(
        {
            "subcommand": "reduce",
            "entries": [[format_over_c3(x) for x in row] for row in numerator.rows],
        }
    )
    _note(f"reduced block {numerator} / c3")
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
        m = promote(m, RingDescriptor(m.ring.mode, 3, m.ring.coeff))
    report = preimage(CongruenceMatrix(m))
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
    modes = list(Mode) if args.mode == "both" else [Mode(args.mode)]
    coeff = Coeff(args.coeff)
    all_ok = True
    blocks = []
    for mode in modes:
        ring = RingDescriptor(mode, args.nvars, coeff)
        results = run_suite(args.suite, ring, args.trials, args.seed)
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


class _UsageError(Exception):
    """A command line the argument parser rejects."""


class _Parser(argparse.ArgumentParser):
    """Raises ``_UsageError`` where argparse would print usage and exit, so
    that ``main`` answers with a JSON body; subparsers inherit the class."""

    def error(self, message):
        raise _UsageError(message)


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and each handler looks up the library names it calls when it
    runs."""
    parser = _Parser(
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
    p.set_defaults(handler=cmd_verify)

    parser.subcommands = frozenset(sub.choices)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        # The top-level parser has no options besides --help, so a named
        # subcommand is the first argument.
        name = argv[0] if argv and argv[0] in parser.subcommands else None
        _emit({"subcommand": name, "error": "parse", "message": str(exc)})
        _note(f"usage error: {exc}; see colstab --help")
        return EXIT_PARSE
    try:
        return args.handler(args)
    except ParseError as exc:
        _emit({"subcommand": args.subcommand, "error": "parse", "message": str(exc)})
        _note(f"parse error: {exc}")
        return EXIT_PARSE
    except ColstabError as exc:
        _emit({"subcommand": args.subcommand, "error": "domain", "message": str(exc)})
        _note(f"domain error: {exc}")
        return EXIT_DOMAIN
    except OSError as exc:
        _emit({"subcommand": args.subcommand, "error": "io", "message": str(exc)})
        _note(f"input error: {exc}")
        return EXIT_DOMAIN
    except Exception as exc:
        message = f"{type(exc).__name__}: {exc}"
        _emit({"subcommand": args.subcommand, "error": "internal", "message": message})
        _note(f"internal error: {message}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
