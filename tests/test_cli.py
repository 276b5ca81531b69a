import io
import json
import sys

import pytest

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
from colstab.cli import main
from colstab.ring import MAX_DEPTH, MAX_EXPONENT, MAX_NVARS

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

_HUGE_RING_IDENTITY = json.dumps(
    {
        "ring": {"mode": "polynomial", "nvars": 64000},
        "entries": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    }
)

_TWO_VARIABLE_IDENTITY = json.dumps(
    {
        "ring": {"mode": "polynomial", "nvars": 2},
        "entries": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    }
)

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
        ["check-stab", "--inline", _HUGE_RING_IDENTITY],
    ]
    + [
        [name, "--inline", _TWO_VARIABLE_IDENTITY]
        for name in ("check-stab", "residues", "rho", "reduce")
    ],
    ids=[
        "decompose-nvars-0", "decompose-var-5", "decompose-depth-0",
        "verify-nvars-0", "verify-nvars-2", "tame-sample-nvars-2",
        "tame-sample-coeff-bound-negative",
        "decompose-nvars-16000", "decompose-nvars-above-limit",
        "decompose-depth-huge", "decompose-laurent-depth-above-limit",
        "verify-nvars-64000", "tame-sample-nvars-64000", "check-stab-doc-nvars-64000",
        "check-stab-doc-nvars-2", "residues-doc-nvars-2", "rho-doc-nvars-2",
        "reduce-doc-nvars-2",
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
