"""Command-line front end over the colstab library.

Machine-readable JSON goes to standard output; a short human summary goes to
standard error.  The exit codes are the ``EXIT_*`` constants, and ``_ERRORS``
maps each error to its code and JSON ``error`` field; README's "Command line"
section tabulates both.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields

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
# command handlers: each returns its exit code and its JSON document, which
# ``main`` prints with the ``subcommand`` field added
# ---------------------------------------------------------------------------


def _note(text: str) -> None:
    print(f"[colstab] {text}", file=sys.stderr)


def _emit(subcommand, doc: dict) -> None:
    """Print ``doc`` with the ``subcommand`` field, the one place it is written."""
    print(json.dumps({"subcommand": subcommand, **doc}, sort_keys=True, indent=2))


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
    except ValueError:  # an integer with more digits than int() converts
        raise ParseError("bad JSON document: number has too many digits", 0) from None


def _load_matrix(args) -> Mat:
    return mat_from_document(_load_document(args))


def cmd_check_stab(args) -> tuple[int, dict]:
    m = _load_matrix(args)
    try:
        check_stab(m)
    except NotStabilizingError as exc:
        _note("matrix does not stabilize the column")
        return EXIT_VIOLATION, {
            "ok": False,
            "reason": "not-stabilizing",
            "defect": [format_element(x) for x in exc.defect],
        }
    except NotAUnitError as exc:
        _note("matrix determinant is not a unit")
        return EXIT_VIOLATION, {
            "ok": False,
            "reason": "not-invertible",
            "determinant": format_element(exc.det),
        }
    _note("certified stabilizer")
    return EXIT_OK, {"ok": True}


def cmd_residues(args) -> tuple[int, dict]:
    a = check_stab(_load_matrix(args))
    q = residues_closed_form(a)
    _note(f"residues {q}")
    return EXIT_OK, {f.name: format_element(getattr(q, f.name)) for f in fields(q)}


def cmd_rho(args) -> tuple[int, dict]:
    a = check_stab(_load_matrix(args))
    image = rho(a)
    _note(f"image {image.mat}")
    return EXIT_OK, {"image": mat_to_document(image.mat)}


def cmd_reduce(args) -> tuple[int, dict]:
    a = check_stab(_load_matrix(args))
    numerator = reduce(a)
    _note(f"reduced block {numerator} / c3")
    return EXIT_OK, {
        "entries": [[format_over_c3(x) for x in row] for row in numerator.rows],
    }


def cmd_decompose(args) -> tuple[int, dict]:
    ring = _ring_from_flags(args)
    g = ring.parse(args.expr)
    dec = c_adic_decompose(g, args.var, args.depth)
    _note(f"heads {[str(h) for h in dec.heads]}, tail {dec.tail}")
    return EXIT_OK, {
        "expr": format_element(g),
        "var": args.var,
        "depth": args.depth,
        "heads": [format_element(h) for h in dec.heads],
        "tail": format_element(dec.tail),
    }


def cmd_preimage(args) -> tuple[int, dict]:
    m = _load_matrix(args)
    if m.ring.nvars < 3:
        m = promote(m, RingDescriptor(m.ring.mode, 3, m.ring.coeff))
    report = preimage(CongruenceMatrix(m))
    if report.ok:
        code, summary = EXIT_OK, "preimage constructed and verified"
    else:
        code, summary = EXIT_VIOLATION, f"obstructed at stage {report.stage}"
    _note(summary)
    return code, report.to_document()


def cmd_tame_sample(args) -> tuple[int, dict]:
    ring = _ring_from_flags(args)
    word = sample_tame(ring, args.seed, args.length, args.coeff_bound)
    a = eval_word(ring, word)
    _note(f"sampled word of length {len(word)}")
    return EXIT_OK, {
        "seed": args.seed,
        "length": args.length,
        "word": word.to_json(),
        "matrix": mat_to_document(a.mat),
    }


def cmd_verify(args) -> tuple[int, dict]:
    modes = list(Mode) if args.mode == "both" else [Mode(args.mode)]
    coeff = Coeff(args.coeff)
    all_ok = True
    blocks = []
    for mode in modes:
        ring = RingDescriptor(mode, args.nvars, coeff)
        results = run_suite(args.suite, ring, args.trials, args.seed)
        for r in results:
            _note(f"{mode.value}/{r.name}: {r.passed} passed, {r.failed} failed")
        all_ok = all_ok and all(r.ok for r in results)
        blocks.append({
            "ring": ring_to_document(ring),
            "results": [
                {"check": r.name, "passed": r.passed, "failed": r.failed, "detail": r.detail}
                for r in results
            ],
        })
    return EXIT_OK if all_ok else EXIT_VIOLATION, {
        "suite": args.suite,
        "trials": args.trials,
        "seed": args.seed,
        "ok": all_ok,
        "runs": blocks,
    }


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


# The --input/--inline pair, always one mutually exclusive group.
_INPUT = (
    ("--input", {"help": "path to a JSON matrix document"}),
    ("--inline", {"help": "JSON matrix document as a string"}),
)


def _ring_flags(both=False):
    """--mode, --nvars and --coeff; with ``both``, --mode also takes "both",
    its default."""
    modes = ["polynomial", "laurent", *(["both"] if both else [])]
    return (
        ("--mode", {"choices": modes, "default": "both" if both else "polynomial"}),
        ("--nvars", {"type": int, "default": 3}),
        ("--coeff", {"choices": ["int", "rat"], "default": "int"}),
    )


# Each subcommand as (name, help, handler, flags), in the order --help lists them.
_COMMANDS = (
    ("check-stab", "certify a 3x3 column stabilizer", cmd_check_stab, _INPUT),
    ("residues", "residue quadruple of a stabilizer", cmd_residues, _INPUT),
    ("rho", "congruence image of a stabilizer", cmd_rho, _INPUT),
    ("reduce", "localized 2x2 block of a stabilizer", cmd_reduce, _INPUT),
    ("decompose", "split an expression along powers of c_k", cmd_decompose, (
        *_ring_flags(),
        ("--expr", {"required": True}),
        ("--var", {"type": int, "default": 3}),
        ("--depth", {"type": int, "default": 2}),
    )),
    ("preimage", "lift a 2x2 scheme matrix to a stabilizer", cmd_preimage, _INPUT),
    ("tame-sample", "sample a word in the tame generators", cmd_tame_sample, (
        *_ring_flags(),
        ("--seed", {"type": int, "default": 0}),
        ("--length", {"type": int, "default": 5}),
        ("--coeff-bound", {"type": int, "default": 2}),
    )),
    ("verify", "run a randomized verification suite", cmd_verify, (
        ("--suite", {"choices": sorted(SUITES) + ["all"], "default": "all"}),
        ("--trials", {"type": int, "default": 50}),
        ("--seed", {"type": int, "default": 0}),
        *_ring_flags(both=True),
    )),
)


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
    for name, text, handler, flags in _COMMANDS:
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=handler)
        target = p.add_mutually_exclusive_group() if flags is _INPUT else p
        for flag, options in flags:
            target.add_argument(flag, **options)
    parser.subcommands = frozenset(sub.choices)
    return parser


# An error a handler raises, as (type, exit code, JSON ``error``, summary,
# message); the first row whose type matches answers.
_ERRORS = (
    (ParseError, EXIT_PARSE, "parse", "parse error", str),
    (ColstabError, EXIT_DOMAIN, "domain", "domain error", str),
    (OSError, EXIT_DOMAIN, "io", "input error", str),
    (Exception, EXIT_INTERNAL, "internal", "internal error",
     lambda exc: f"{type(exc).__name__}: {exc}"),
)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        # The top-level parser has no options besides --help, so a named
        # subcommand is the first argument.
        name = argv[0] if argv and argv[0] in parser.subcommands else None
        _emit(name, {"error": "parse", "message": str(exc)})
        _note(f"usage error: {exc}; see colstab --help")
        return EXIT_PARSE
    try:
        code, doc = args.handler(args)
    except Exception as exc:
        _, code, error, summary, form = next(
            row for row in _ERRORS if isinstance(exc, row[0])
        )
        message = form(exc)
        doc = {"error": error, "message": message}
        _note(f"{summary}: {message}")
    _emit(args.subcommand, doc)
    return code


if __name__ == "__main__":
    sys.exit(main())
