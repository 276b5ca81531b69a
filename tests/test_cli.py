import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from colstab import (
    DescriptorMismatchError,
    NotInIdealError,
    RelationFailedError,
    cohn_matrix,
    gen_T,
    mat_to_document,
    transvection,
)
import colstab.cli
import colstab.tame
import colstab.verify
from colstab.cli import main
from colstab.ring import MAX_DEPTH, MAX_EXPONENT, MAX_NVARS
from colstab.tame import MAX_COEFF_BOUND, MAX_WORD_LENGTH

from conftest import POLY2, POLY3

def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err

def _doc(mat):
    return json.dumps(mat_to_document(mat))

def test_residues_of_special_row_perturbation(capsys):
    doc = _doc(gen_T(POLY3, 3, 1, 2, POLY3.const(-1)).mat)
    code, out, _ = run_cli(capsys, "residues", "--inline", doc)
    payload = json.loads(out)
    assert code == 0
    assert (payload["alpha"], payload["beta"], payload["gamma"], payload["delta"]) == (
        "1",
        "0",
        "0",
        "0",
    )

def test_malformed_polynomial_exits_2_with_position(capsys):
    doc = json.dumps(
        {
            "ring": {"mode": "polynomial", "nvars": 3, "coeff": "int"},
            "entries": [["a1 +", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        }
    )
    code, out, _ = run_cli(capsys, "check-stab", "--inline", doc)
    assert code == 2
    assert "position" in json.loads(out)["message"]

def _identity_document(entries):
    return json.dumps({"ring": {"mode": "polynomial", "nvars": 3}, "entries": entries})

@pytest.mark.parametrize(
    "argv, position",
    [
        (["decompose", "--coeff", "rat", "--expr", "1/0"], 2),
        (["decompose", "--expr", f"a1*a3^{MAX_EXPONENT + 1}"], 6),
        (["check-stab", "--inline", _identity_document([[1, 0, 0], [0, 1, 0], [0, 0, 1]])], 0),
    ],
    ids=["zero-denominator", "exponent-range", "non-string-entries"],
)
def test_parser_input_errors_exit_2_with_json(capsys, argv, position):
    code, out, _ = run_cli(capsys, *argv)
    payload = json.loads(out)
    assert code == 2
    assert payload["error"] == "parse"
    assert payload["message"].endswith(f"(at position {position})")

def test_exponent_overflow_in_arithmetic_exits_3(capsys):
    doc = _identity_document(
        [[f"a1^{MAX_EXPONENT}", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    )
    code, out, _ = run_cli(capsys, "check-stab", "--inline", doc)
    payload = json.loads(out)
    assert code == 3
    assert payload["error"] == "domain"
    assert "exceeds the limit" in payload["message"]

def test_bad_json_exits_2(capsys):
    code, out, _ = run_cli(capsys, "check-stab", "--inline", "{not json")
    assert code == 2

def test_non_stabilizer_input_to_residues_exits_3(capsys):
    doc = _doc(transvection(POLY3, 3, 1, 2, POLY3.one))
    code, out, _ = run_cli(capsys, "residues", "--inline", doc)
    assert code == 3
    assert json.loads(out)["error"] == "domain"

@pytest.mark.parametrize("subcommand", ["check-stab", "residues", "rho", "reduce"])
def test_wrong_shape_input_exits_3_naming_the_shape(capsys, subcommand):
    doc = _doc(transvection(POLY3, 2, 1, 2, POLY3.one))
    code, out, _ = run_cli(capsys, subcommand, "--inline", doc)
    payload = json.loads(out)
    assert code == 3
    assert payload["error"] == "domain"
    assert payload["message"] == "a stabilizer is 3x3, not 2x2"

def test_wrong_shape_preimage_input_exits_3_naming_the_shape(capsys):
    doc = _identity_document([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    code, out, _ = run_cli(capsys, "preimage", "--inline", doc)
    payload = json.loads(out)
    assert code == 3
    assert payload["error"] == "domain"
    assert payload["message"] == "a congruence matrix is 2x2, not 3x3"

def test_check_stab_reports_defect_and_exits_1(capsys):
    doc = _doc(transvection(POLY3, 3, 1, 2, POLY3.one))
    code, out, _ = run_cli(capsys, "check-stab", "--inline", doc)
    payload = json.loads(out)
    assert code == 1
    assert payload["ok"] is False
    assert payload["defect"] == ["a2", "0", "0"]

def test_check_stab_accepts_identity(capsys):
    doc = json.dumps(
        {
            "ring": {"mode": "laurent", "nvars": 3, "coeff": "int"},
            "entries": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        }
    )
    code, out, _ = run_cli(capsys, "check-stab", "--inline", doc)
    assert code == 0
    assert json.loads(out)["ok"] is True

def test_preimage_promotes_two_variable_documents(capsys):
    code, out, _ = run_cli(capsys, "preimage", "--inline", _doc(cohn_matrix(POLY2)))
    payload = json.loads(out)
    assert code == 0
    assert payload["status"] == "SUCCESS"
    assert payload["transcript"]["determinant"] == "1"
    assert payload["preimage"]["ring"]["nvars"] == 3

def test_preimage_obstructed_exits_1(capsys):
    doc = _doc(transvection(POLY2, 2, 2, 1, POLY2.c(1) * POLY2.c(2)))
    code, out, _ = run_cli(capsys, "preimage", "--inline", doc)
    payload = json.loads(out)
    assert code == 1
    assert payload["status"] == "OBSTRUCTED"
    assert payload["obstruction"] == "1"
    assert payload["stage"] == "transvection-preimage"

def test_preimage_rejects_non_scheme_input(capsys):
    doc = _doc(transvection(POLY2, 2, 2, 1, POLY2.c(1)))
    code, out, _ = run_cli(capsys, "preimage", "--inline", doc)
    assert code == 3

_DOC = _doc(cohn_matrix(POLY2))
_NON_UTF8 = bytes.fromhex("fffe7b7d")
_NON_UTF8_FILE = "<file of non-UTF-8 bytes>"
_SUBCOMMANDS = [
    ("check-stab", ["--inline", _DOC]),
    ("residues", ["--inline", _DOC]),
    ("rho", ["--inline", _DOC]),
    ("reduce", ["--inline", _DOC]),
    ("decompose", ["--expr", "1"]),
    ("preimage", ["--inline", _DOC]),
    ("tame-sample", []),
    ("verify", ["--trials", "1"]),
]


@pytest.mark.parametrize(
    "argv, subcommand, code",
    [([name, *rest, "--budget", "4"], name, 2) for name, rest in _SUBCOMMANDS]
    + [([name, *rest, "--bogus"], name, 2) for name, rest in _SUBCOMMANDS]
    + [
        (["decompose", "--var", "x", "--expr", "1"], "decompose", 2),
        (["decompose", "--nvars", "1.5", "--expr", "1"], "decompose", 2),
        (["tame-sample", "--length", "abc"], "tame-sample", 2),
        (["tame-sample", "--coeff-bound", "two"], "tame-sample", 2),
        (["verify", "--trials", "abc"], "verify", 2),
        (["verify", "--suite", "nope"], "verify", 2),
        (["decompose"], "decompose", 2),
        (["decompose", "--var", "3"], "decompose", 2),
        (["tame-sample", "--coeff-bound", "-1"], "tame-sample", 3),
        (["check-stab", "--input", "a", "--inline", "b"], "check-stab", 2),
        ([], None, 2),
        (["frobnicate"], None, 2),
        (["check-stab", "--input", _NON_UTF8_FILE], "check-stab", 2),
        (["rho"], "rho", 2),
        (["check-stab", "--inline", "[" * 100000 + "]" * 100000], "check-stab", 2),
    ],
)
def test_malformed_command_lines_exit_with_json(
    capsys, monkeypatch, tmp_path, argv, subcommand, code
):
    # Both the placeholder file and standard input hold bytes that are not UTF-8.
    path = tmp_path / "input.json"
    path.write_bytes(_NON_UTF8)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(_NON_UTF8)))
    argv = [str(path) if arg == _NON_UTF8_FILE else arg for arg in argv]
    exit_code, out, _ = run_cli(capsys, *argv)
    assert exit_code == code
    payload = json.loads(out)
    assert payload["subcommand"] == subcommand
    assert payload["error"] == ("parse" if code == 2 else "domain")
    assert set(payload) == {"subcommand", "error", "message"}


@pytest.mark.parametrize(
    "flag, code, error", [("--inline", 2, "parse"), ("--input", 3, "io")]
)
def test_empty_input_flags_do_not_read_stdin(capsys, monkeypatch, flag, code, error):
    stdin = _identity_document([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin.encode())))
    exit_code, out, _ = run_cli(capsys, "check-stab", flag, "")
    assert exit_code == code
    assert json.loads(out)["error"] == error


_LONG_INT = "1" + "0" * 5000  # past the digit limit of Python's int()


@pytest.mark.parametrize(
    "subcommand, doc",
    [
        ("check-stab", '{"ring":{"mode":"polynomial","nvars":3},"entries":[[%s]]}'),
        ("rho", '{"ring":{"mode":"polynomial","nvars":%s},"entries":[["1"]]}'),
    ],
    ids=["entries", "nvars"],
)
@pytest.mark.parametrize("source", ["--inline", "--input", "stdin"])
def test_json_integer_past_the_digit_limit_exits_2(
    capsys, monkeypatch, tmp_path, subcommand, doc, source
):
    text = doc % _LONG_INT
    if source == "--inline":
        argv = [subcommand, "--inline", text]
    elif source == "--input":
        path = tmp_path / "input.json"
        path.write_text(text, encoding="utf-8")
        argv = [subcommand, "--input", str(path)]
    else:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
        argv = [subcommand]
    exit_code, out, err = run_cli(capsys, *argv)
    assert exit_code == 2
    payload = json.loads(out)
    assert payload["subcommand"] == subcommand
    assert payload["error"] == "parse"
    assert payload["message"].startswith("bad JSON document: ")
    assert "Traceback" not in err


def test_help_exits_0(capsys):
    for argv in (["--help"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        assert "usage" in capsys.readouterr().out

def test_decompose(capsys):
    code, out, _ = run_cli(
        capsys,
        "decompose",
        "--expr",
        "a1*a3^2 + a3 + a2",
        "--var",
        "3",
        "--depth",
        "2",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["heads"] == ["a2", "1"]
    assert payload["tail"] == "a1"

def test_decompose_parse_error_exits_2(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--expr", "a1 ++ 2")
    assert code == 2

def test_reduce_emits_localized_debug_entries(capsys):
    doc = _doc(gen_T(POLY3, 3, 1, 2, POLY3.const(-1)).mat)
    code, out, _ = run_cli(capsys, "reduce", "--inline", doc)
    payload = json.loads(out)
    assert code == 0
    assert payload["entries"][0][0] == "a1*a2 + a3 / c3^1"

def test_tame_sample_deterministic_and_byte_identical(capsys):
    code1, out1, _ = run_cli(capsys, "tame-sample", "--seed", "42", "--length", "5")
    code2, out2, _ = run_cli(capsys, "tame-sample", "--seed", "42", "--length", "5")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert len(payload["word"]) == 5

def test_tame_sample_rejects_negative_length(capsys):
    code, out, _ = run_cli(capsys, "tame-sample", "--length", "-3")
    payload = json.loads(out)
    assert code == 3
    assert payload["error"] == "domain"
    assert "length" in payload["message"]

def test_tame_sample_rejects_a_length_above_the_ceiling_before_sampling(capsys, monkeypatch):
    def forbidden(*args):
        raise AssertionError("sampled a letter")

    monkeypatch.setattr(colstab.tame, "_random_param", forbidden)
    code, out, _ = run_cli(capsys, "tame-sample", "--length", "1000000")
    payload = json.loads(out)
    assert code == 3
    assert payload == {
        "subcommand": "tame-sample",
        "error": "domain",
        "message": f"word length must be at most {MAX_WORD_LENGTH}, got 1000000",
    }

def test_tame_sample_rejects_a_coefficient_bound_above_the_cap_before_sampling(
    capsys, monkeypatch
):
    # 4000 nines: argparse reads the number, and words drawn with it would
    # print coefficients past the digit limit of integer-to-text conversion.
    def forbidden(*args):
        raise AssertionError("sampled a letter")

    monkeypatch.setattr(colstab.tame, "_random_param", forbidden)
    bound = "9" * 4000
    code, out, _ = run_cli(
        capsys, "tame-sample", "--length", "4", "--seed", "1", "--coeff-bound", bound
    )
    payload = json.loads(out)
    assert code == 3
    assert payload == {
        "subcommand": "tame-sample",
        "error": "domain",
        "message": f"coefficient bound must be at most {MAX_COEFF_BOUND}, got {bound}",
    }

def test_tame_sample_of_length_zero_is_the_identity(capsys):
    code, out, _ = run_cli(capsys, "tame-sample", "--length", "0", "--mode", "laurent")
    payload = json.loads(out)
    assert code == 0
    assert payload["word"] == []
    assert payload["matrix"]["entries"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]

def test_verify_homomorphism_contract(capsys):
    code, out, err = run_cli(
        capsys,
        "verify",
        "--suite",
        "homomorphism",
        "--trials",
        "200",
        "--seed",
        "7",
        "--mode",
        "polynomial",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["ok"] is True
    multiplicative = next(
        r
        for r in payload["runs"][0]["results"]
        if r["check"] == "rho-multiplicative"
    )
    assert multiplicative["passed"] == 200
    assert multiplicative["failed"] == 0

@pytest.mark.parametrize("trials", ["0", "-2"])
def test_verify_rejects_vacuous_runs(capsys, trials):
    code, out, _ = run_cli(capsys, "verify", "--suite", "stab2", "--trials", trials)
    payload = json.loads(out)
    assert code == 3
    assert payload["error"] == "domain"
    assert "ok" not in payload

@pytest.mark.parametrize("suite", ["all", "homomorphism", "triangular"])
def test_rho_suites_need_a_three_variable_ring(capsys, suite):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--nvars", "4", "--trials", "1")
    payload = json.loads(out)
    assert code == 3
    assert payload["error"] == "domain"
    assert f"suite {suite!r} needs a three-variable ring" in payload["message"]


@pytest.mark.parametrize(
    "suite, least",
    [
        ("relations", 3),
        ("determinant", 3),
        ("preimage", 3),
        ("kernel", 3),
        ("decomposition", 2),
        ("stab2", 2),
    ],
)
def test_suites_name_their_fewest_variables(capsys, suite, least):
    for nvars in range(1, least):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", suite, "--nvars", str(nvars), "--trials", "1"
        )
        payload = json.loads(out)
        assert code == 3
        assert payload == {
            "subcommand": "verify",
            "error": "domain",
            "message": f"suite {suite!r} needs a ring with at least {least} variables, "
            f"got {nvars}",
        }
    code, out, _ = run_cli(
        capsys, "verify", "--suite", suite, "--nvars", str(least), "--trials", "1"
    )
    assert code == 0
    assert json.loads(out)["ok"]


@pytest.mark.parametrize(
    "suite", ["decomposition", "stab2", "relations", "determinant", "preimage", "kernel"]
)
def test_other_suites_run_at_four_variables(capsys, suite):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--nvars", "4", "--trials", "1")
    assert code == 0
    assert json.loads(out)["ok"]

def _identity_in_ring_of(nvars, n=3):
    entries = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    return json.dumps({"ring": {"mode": "polynomial", "nvars": nvars}, "entries": entries})


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--nvars", "0", "--expr", "1"],
        ["decompose", "--var", "5", "--expr", "1"],
        ["decompose", "--depth", "0", "--expr", "1"],
        ["verify", "--nvars", "0"],
        ["verify", "--nvars", "2"],
        ["tame-sample", "--nvars", "2"],
        ["tame-sample", "--coeff-bound", "-1"],
        ["decompose", "--nvars", "16000", "--expr", "a1 + 1", "--var", "1"],
        ["decompose", "--nvars", str(MAX_NVARS + 1), "--expr", "1"],
        ["decompose", "--expr", "a1", "--var", "1", "--depth", "100000000"],
        ["decompose", "--mode", "laurent", "--expr", "a1^-1", "--var", "1",
         "--depth", str(MAX_DEPTH + 1)],
        ["verify", "--nvars", "64000"],
        ["tame-sample", "--nvars", "64000"],
        ["check-stab", "--inline", _identity_in_ring_of(64000)],
    ]
    + [
        [name, "--inline", _identity_in_ring_of(2)]
        for name in ("check-stab", "residues", "rho", "reduce")
    ]
    + [["verify", "--nvars", "1"], ["verify", "--suite", "decomposition", "--nvars", "1"]]
    # A 1x1 matrix stabilizes no column (exit 1), so exit 3 comes from the ring.
    + [["check-stab", "--inline", _identity_in_ring_of(v, 1)] for v in (True, 3.7, "3", 3.0)],
    ids=[
        "decompose-nvars-0", "decompose-var-5", "decompose-depth-0",
        "verify-nvars-0", "verify-nvars-2", "tame-sample-nvars-2",
        "tame-sample-coeff-bound-negative",
        "decompose-nvars-16000", "decompose-nvars-above-limit",
        "decompose-depth-huge", "decompose-laurent-depth-above-limit",
        "verify-nvars-64000", "tame-sample-nvars-64000", "check-stab-doc-nvars-64000",
        "check-stab-doc-nvars-2", "residues-doc-nvars-2", "rho-doc-nvars-2",
        "reduce-doc-nvars-2", "verify-nvars-1", "verify-decomposition-nvars-1",
        "check-stab-doc-nvars-true", "check-stab-doc-nvars-float",
        "check-stab-doc-nvars-string", "check-stab-doc-nvars-integral-float",
    ],
)
def test_out_of_range_ring_arguments_exit_3_with_json(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    payload = json.loads(out)
    assert code == 3
    assert payload["subcommand"] == argv[0]
    assert payload["error"] == "domain"
    assert set(payload) == {"subcommand", "error", "message"}

@pytest.mark.parametrize(
    "error",
    [NotInIdealError("x"), DescriptorMismatchError("x"), RelationFailedError("x")],
    ids=lambda error: type(error).__name__,
)
def test_every_library_error_exits_3_with_json(capsys, monkeypatch, error):
    def fail(_):
        raise error

    monkeypatch.setattr(colstab.cli, "rho", fail)
    doc = _doc(gen_T(POLY3, 3, 1, 2, POLY3.one).mat)
    code, out, _ = run_cli(capsys, "rho", "--inline", doc)
    assert code == 3
    assert json.loads(out) == {"subcommand": "rho", "error": "domain", "message": "x"}

def test_internal_error_exits_4_with_json(capsys, monkeypatch):
    def fail(_):
        raise RuntimeError("boom")

    monkeypatch.setattr(colstab.cli, "rho", fail)
    doc = _doc(gen_T(POLY3, 3, 1, 2, POLY3.one).mat)
    code, out, err = run_cli(capsys, "rho", "--inline", doc)
    assert code == 4
    assert json.loads(out) == {
        "subcommand": "rho",
        "error": "internal",
        "message": "RuntimeError: boom",
    }
    assert "Traceback" not in err


def test_decompose_at_the_depth_limit(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--mode", "laurent", "--expr", "a1^-1", "--var", "1",
        "--depth", str(MAX_DEPTH),
    )
    assert code == 0
    assert len(json.loads(out)["heads"]) == MAX_DEPTH


def test_verify_output_reproducible(capsys):
    args = ["verify", "--suite", "stab2", "--trials", "20", "--seed", "3"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2

def test_file_input(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    path.write_text(_doc(gen_T(POLY3, 3, 1, 2, POLY3.one).mat))
    code, out, _ = run_cli(capsys, "rho", "--input", str(path))
    payload = json.loads(out)
    assert code == 0
    assert payload["image"]["entries"] == [["1", "-1"], ["0", "1"]]

def test_missing_file_exits_3(capsys):
    code, out, _ = run_cli(capsys, "rho", "--input", "/nonexistent/matrix.json")
    assert code == 3


# -- fuzzing the exit-code contract ------------------------------------------------
#
# Malformed documents, expressions and flag values must end in a documented exit
# code (0 to 3, never 4) with JSON on standard output.  Exponents have at most
# two digits, word lengths at most one and trial counts stay small, and a value
# drawn as junk never parses as an integer: the number of terms grows with each
# of them, and a bound on it is still open (ROADMAP item 4), so these tests say
# nothing about time or memory on large inputs.

def _two_digit_numbers(text):
    return re.sub(r"(\d\d)\d+", r"\1", text)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_FACTORS = st.tuples(
    st.integers(1, 3) | st.integers(0, 6), st.integers(0, 99) | st.integers(-99, 99)
).map(lambda f: f"a{f[0]}^{f[1]}")
_MONOMIALS = st.tuples(st.integers(-99, 99), st.lists(_FACTORS, max_size=3)).map(
    lambda m: "*".join([str(m[0]), *m[1]])
)
_TOKENS = ["a1", "a2", "a3", "a4", "+", "-", "*", "/", "^", "(", ")", " ", "7", "12", "x"]
_EXPRESSIONS = st.one_of(
    st.sampled_from(["0", "1"]),
    st.lists(_MONOMIALS, min_size=1, max_size=4).map(" + ".join),
    st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join).map(_two_digit_numbers),
    st.text(max_size=30).map(_two_digit_numbers),
)


def _not_an_integer(text):
    try:
        int(text)  # accepts "9_9", " 12 " and non-ASCII digits
    except ValueError:
        return True
    return False


_JUNK = st.text(max_size=6).filter(_not_an_integer)


def _flag(name, values):
    """``--name=value`` (the ``=`` keeps a value such as "-h" from reading as
    an option), or the flag left out."""
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v}"]))


def _integers(low, high):
    return st.one_of(st.integers(low, high).map(str), _JUNK)


@st.composite
def _documents(draw):
    """Ring and entries that are mostly well formed: an identity matrix with a
    few entries replaced, in a ring whose fields may be anything."""
    n = draw(st.just(3) | st.integers(0, 4))
    entries = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    if n:
        positions = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        changes = st.dictionaries(positions, _EXPRESSIONS | _JSON_VALUES, max_size=3)
        for (i, j), value in draw(changes).items():
            entries[i][j] = value
    doc = {
        "ring": {
            "mode": draw(st.sampled_from(["polynomial", "laurent"]) | _JSON_VALUES),
            "nvars": draw(st.just(3) | st.integers(2, 4) | _JSON_VALUES),
            "coeff": draw(st.sampled_from(["int", "rat"]) | _JSON_VALUES),
        },
        "entries": draw(st.just(entries) | _JSON_VALUES),
    }
    for key in draw(st.lists(st.sampled_from(["ring", "entries"]), max_size=1)):
        del doc[key]
    return json.dumps(doc)


def _assert_documented(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code in (0, 1, 2, 3), (argv, out)
    json.loads(out)


# run_cli reads capsys out after each call, so one capsys serves every example
_FUZZ = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@settings(_FUZZ, max_examples=150)
@given(
    subcommand=st.sampled_from(["check-stab", "residues", "rho", "reduce", "preimage"]),
    document=st.one_of(
        st.text(max_size=40).map(_two_digit_numbers),
        _JSON_VALUES.map(json.dumps),
        _documents(),
    ),
)
def test_fuzzed_documents_exit_with_a_documented_code(capsys, subcommand, document):
    _assert_documented(capsys, [subcommand, f"--inline={document}"])


@settings(_FUZZ, max_examples=150)
@given(data=st.data())
def test_fuzzed_decompose_exits_with_a_documented_code(capsys, data):
    argv = ["decompose", f"--expr={data.draw(_EXPRESSIONS)}"]
    argv += data.draw(_flag("mode", st.sampled_from(["polynomial", "laurent"]) | _JUNK))
    argv += data.draw(_flag("coeff", st.sampled_from(["int", "rat"]) | _JUNK))
    for name in ("nvars", "var", "depth"):
        argv += data.draw(_flag(name, _integers(-99, 99)))
    _assert_documented(capsys, argv)


@settings(_FUZZ, max_examples=100)
@given(data=st.data())
def test_fuzzed_integer_flags_exit_with_a_documented_code(capsys, data):
    if data.draw(st.booleans()):
        argv = ["tame-sample"]
        argv += data.draw(_flag("mode", st.sampled_from(["polynomial", "laurent"])))
        argv += data.draw(_flag("length", _integers(-9, 9)))
        for name in ("seed", "coeff-bound", "nvars"):
            argv += data.draw(_flag(name, _integers(-99, 99)))
    else:
        suites = sorted(colstab.verify.SUITES)
        argv = ["verify", f"--suite={data.draw(st.sampled_from(suites) | _JUNK)}"]
        argv += data.draw(_flag("mode", st.sampled_from(["polynomial", "laurent"])))
        argv += data.draw(_flag("trials", _integers(-2, 2)))
        for name in ("seed", "nvars"):
            argv += data.draw(_flag(name, _integers(-99, 99)))
    _assert_documented(capsys, argv)

def test_two_calls_build_one_parser_and_print_the_same_bytes(capsys, monkeypatch):
    # The parser is built once per process, and a second call through it
    # prints what the first did.
    built = []
    init = colstab.cli._Parser.__init__

    def counted(self, *args, **kwargs):
        if kwargs.get("prog") == "colstab":
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(colstab.cli._Parser, "__init__", counted)
    colstab.cli.build_parser.cache_clear()
    argv = ("verify", "--suite", "kernel", "--trials", "2", "--seed", "5")
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert len(built) == 1
    assert first == second and first[0] == 0
    assert colstab.cli.build_parser() is built[0]


# Each integer option of each subcommand, with the flags the subcommand needs.
_INTEGER_OPTIONS = [
    (["decompose", "--expr", "a1"], "--nvars"),
    (["decompose", "--expr", "a1"], "--var"),
    (["decompose", "--expr", "a1"], "--depth"),
    (["tame-sample"], "--nvars"),
    (["tame-sample"], "--seed"),
    (["tame-sample"], "--length"),
    (["tame-sample"], "--coeff-bound"),
    (["verify"], "--trials"),
    (["verify"], "--seed"),
    (["verify"], "--nvars"),
]


@pytest.mark.parametrize("value", [10**9, -(10**9)])
@pytest.mark.parametrize(
    "argv, option", _INTEGER_OPTIONS, ids=[f"{a[0]}{o}" for a, o in _INTEGER_OPTIONS]
)
def test_an_extreme_integer_option_ends_within_seconds(argv, option, value):
    # One option at a time, in a fresh interpreter, so that a run that does
    # not end is stopped by the timeout rather than hanging the suite.
    src = str(Path(colstab.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "colstab.cli", *argv, option, str(value)],
        capture_output=True,
        text=True,
        timeout=15,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode in (0, 2, 3)
    assert "Traceback" not in proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["subcommand"] == argv[0]
    assert ("error" in doc) == (proc.returncode != 0)
