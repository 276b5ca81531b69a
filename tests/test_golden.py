"""Golden CLI outputs: every subcommand's stdout, stderr and exit code, byte
for byte.

The files under ``tests/golden/`` pin the observable behaviour of the CLI.
A change to the library that alters any of them changes what users see; such
a change must be deliberate.  To rewrite them after a deliberate change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import json
import pathlib

import pytest

from colstab.cli import build_parser, main

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _doc(mode, nvars, entries):
    return json.dumps(
        {"ring": {"mode": mode, "nvars": nvars, "coeff": "int"}, "entries": entries}
    )


# sample_tame(polynomial, seed 6, length 3), evaluated
POLY_STAB = _doc(
    "polynomial",
    3,
    [
        ["a1*a2^2*a3 + 1", "0", "-a1^2*a2^2"],
        ["4*a1^2*a2^3*a3 + 4*a1*a2 + 2*a3", "-4*a1^2 + 1", "-4*a1^3*a2^3 - 2*a1"],
        ["-2*a1*a2^3*a3 + a2^2*a3^2 - 2*a2", "2*a1", "2*a1^2*a2^3 - a1*a2^2*a3 + 1"],
    ],
)
# sample_tame(laurent, seed 73, length 3), evaluated
LAUR_STAB = _doc(
    "laurent",
    3,
    [
        ["1", "2*a3 - 2", "-2*a2 + 2"],
        ["0", "1", "0"],
        [
            "-1 + a2^-1",
            "a1*a2^-1 - 2*a3 + 2 + 2*a2^-1*a3 - 3*a2^-1",
            "2*a2 - 3 + 2*a2^-1",
        ],
    ],
)
# T(3, 1, 2; a4) over four variables: a stabilizer whose image leaves the scheme
T312_A4 = _doc("polynomial", 4, [["1", "0", "0"], ["0", "1", "0"], ["a2*a4", "-a1*a4", "1"]])
# the transvection adding column 2 to column 1: moves the column
DEFECT = _doc("polynomial", 3, [["1", "1", "0"], ["0", "1", "0"], ["0", "0", "1"]])
# fixes the column, determinant 1 + a2^2
NON_UNIT = _doc("polynomial", 3, [["a2^2 + 1", "-a1*a2", "0"], ["0", "1", "0"], ["0", "0", "1"]])
COHN = _doc("polynomial", 2, [["a1*a2 + 1", "-a1^2"], ["a2^2", "-a1*a2 + 1"]])
T21_C1C2 = _doc("polynomial", 3, [["1", "0"], ["a1*a2", "1"]])
# t21(c1): its lower-left entry lies outside the square of the ideal
T21_C1 = _doc("polynomial", 2, [["1", "0"], ["a1", "1"]])

CASES = {
    "check_stab_certified": ["check-stab", "--inline", POLY_STAB],
    "check_stab_defect": ["check-stab", "--inline", DEFECT],
    "check_stab_not_unit": ["check-stab", "--inline", NON_UNIT],
    "residues_polynomial": ["residues", "--inline", POLY_STAB],
    "residues_laurent": ["residues", "--inline", LAUR_STAB],
    "residues_four_variables": ["residues", "--inline", T312_A4],
    "rho_polynomial": ["rho", "--inline", POLY_STAB],
    "rho_laurent": ["rho", "--inline", LAUR_STAB],
    "rho_four_variables": ["rho", "--inline", T312_A4],
    "reduce_polynomial": ["reduce", "--inline", POLY_STAB],
    "reduce_laurent": ["reduce", "--inline", LAUR_STAB],
    "decompose": ["decompose", "--mode", "laurent", "--expr", "a1*a3^2 - a3^-1 + 2", "--var", "3"],
    "preimage_cohn": ["preimage", "--inline", COHN],
    "preimage_t21": ["preimage", "--inline", T21_C1C2],
    "preimage_not_in_scheme": ["preimage", "--inline", T21_C1],
    "tame_sample_polynomial": ["tame-sample", "--seed", "4", "--length", "4"],
    "tame_sample_laurent": ["tame-sample", "--mode", "laurent", "--seed", "4", "--length", "4"],
    "verify_all": ["verify", "--suite", "all", "--mode", "both", "--trials", "3", "--seed", "11"],
    "verify_all_rat": [
        "verify", "--suite", "all", "--mode", "both", "--coeff", "rat", "--trials", "3", "--seed", "11",
    ],
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    code, out, err = run(CASES[name])
    assert out == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
    assert err == (GOLDEN / f"{name}.stderr").read_text(encoding="utf-8")
    assert code == _exit_codes()[name]


def test_every_subcommand_is_covered():
    subparsers = build_parser()._subparsers._group_actions[0].choices
    assert {argv[0] for argv in CASES.values()} == set(subparsers)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out, err = run(argv)
        (GOLDEN / f"{name}.stdout").write_text(out, encoding="utf-8")
        (GOLDEN / f"{name}.stderr").write_text(err, encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
