"""The fail side of the verification suites.

Every seeded run of the suites passes every check, so these tests make one
library call in ``colstab.verify``'s namespace give a wrong answer and check
what ``colstab verify`` reports: the exact tallies, exit 1 with ``"ok":
false``, and one count per trial for every check.
"""

import ast
import json
import re
from pathlib import Path

import pytest

import colstab
import colstab.verify
from colstab.cli import main
from colstab.matrix import NotAUnitError
from colstab.ring import OutOfRangeError
from colstab.stab import PreimageReport, RelationFailedError
from colstab.tame import NotInStab2Error

# Six trials, so that ``triangular`` (six letter kinds, trials // 6 of each)
# also checks six letters.
TRIALS = 6
SEED = 11

# Checks made once per run, not once per trial.
ONE_OFF = {"rho-identity", "cohn-preimage", "mixed-transvection-obstructed"}


def _raise(error):
    def wrong(*args):
        raise error("patched to fail")

    return lambda real: wrong


def _doubled_defect(real):
    def wrong(splits):
        cand, defect = real(splits)
        return cand, defect + defect

    return wrong


# (suite, name patched in colstab.verify, wrapper of the real callable)
WRONG = {
    "decomposition-swapped-split": (
        "decomposition",
        "delta_split_linear",
        lambda real: lambda beta: real(beta)[::-1],
    ),
    "stab2-squared-parameter": ("stab2", "stab2", lambda real: lambda a: real(a * a)),
    "stab2-param-raises": ("stab2", "stab2_param", _raise(NotInStab2Error)),
    "relations-residues-raise": ("relations", "residues", _raise(RelationFailedError)),
    "relations-closed-form-raises": (
        "relations",
        "residues_closed_form",
        _raise(RelationFailedError),
    ),
    "homomorphism-swapped-composition": (
        "homomorphism",
        "compose_residues",
        lambda real: lambda q, r: real(r, q),
    ),
    "determinant-doubled-defect": ("determinant", "candidate_from_splits", _doubled_defect),
    "preimage-always-obstructed": (
        "preimage",
        "preimage",
        lambda real: lambda b: PreimageReport("OBSTRUCTED", stage="patched"),
    ),
    "preimage-candidate-not-certified": ("preimage", "check_stab", _raise(NotAUnitError)),
    "kernel-membership-negated": ("kernel", "in_H", lambda real: lambda a: not real(a)),
    "triangular-s-letters-fail": (
        "triangular",
        "prop2_check",
        lambda real: lambda ring, letter: letter.kind == "T" and real(ring, letter),
    ),
}


def _both(*rows):
    return {"polynomial": list(rows), "laurent": list(rows)}


# (check, passed, failed[, detail]) per mode, in report order.  A trial whose
# closed form raises after its relations held fails ``closed-form-agreement``
# only; counting it in both columns of ``residue-relations-exact`` too gave 6
# passed and 6 failed there.
EXPECTED = {
    "decomposition-swapped-split": _both(
        ("codec-round-trip", 6, 0),
        ("c-adic-reconstruction", 6, 0),
        ("exact-division-round-trip", 6, 0),
        ("specialize-homomorphism", 6, 0),
        ("split-reconstruction", 1, 5),
    ),
    "stab2-squared-parameter": {
        mode: [
            ("stab2-fixes-column-det-1", 6, 0),
            ("stab2-one-parameter-group", passed, 6 - passed),
            ("stab2-param-round-trip", 6, 0),
        ]
        for mode, passed in (("polynomial", 4), ("laurent", 5))
    },
    "stab2-param-raises": _both(
        ("stab2-fixes-column-det-1", 6, 0),
        ("stab2-one-parameter-group", 6, 0),
        ("stab2-param-round-trip", 0, 6),
    ),
    "relations-residues-raise": _both(
        ("residue-relations-exact", 0, 6), ("closed-form-agreement", 0, 6)
    ),
    "relations-closed-form-raises": _both(
        ("residue-relations-exact", 6, 0), ("closed-form-agreement", 0, 6)
    ),
    "homomorphism-swapped-composition": {
        mode: [
            ("rho-multiplicative", 6, 0),
            ("rho-identity", 1, 0),
            ("rho-inverse", 6, 0),
            ("residue-composition-matches-product", passed, 6 - passed),
        ]
        for mode, passed in (("polynomial", 2), ("laurent", 1))
    },
    "determinant-doubled-defect": {
        "polynomial": [
            ("candidate-determinant-defect", 0, 6, "6 samples had a nonzero defect")
        ],
        "laurent": [
            ("candidate-determinant-defect", 1, 5, "5 samples had a nonzero defect")
        ],
    },
    "preimage-always-obstructed": {
        "polynomial": [
            ("candidate-rho-round-trip", 6, 0),
            ("preimage-success-zero-correction", 0, 6),
            ("cohn-preimage", 0, 1),
            ("mixed-transvection-obstructed", 0, 1),
        ],
        "laurent": [
            ("candidate-rho-round-trip", 6, 0),
            ("preimage-success-zero-correction", 0, 6),
            ("mixed-transvection-obstructed", 0, 1),
        ],
    },
    # check_stab takes the candidate's determinant, so its error fails the
    # round trip, as a determinant that is not a unit does.
    "preimage-candidate-not-certified": {
        "polynomial": [
            ("candidate-rho-round-trip", 0, 6),
            ("preimage-success-zero-correction", 6, 0),
            ("cohn-preimage", 1, 0),
            ("mixed-transvection-obstructed", 1, 0),
        ],
        "laurent": [
            ("candidate-rho-round-trip", 0, 6),
            ("preimage-success-zero-correction", 6, 0),
            ("mixed-transvection-obstructed", 1, 0),
        ],
    },
    "kernel-membership-negated": _both(
        ("kernel-scheme-membership", 0, 6), ("kernel-maps-to-identity", 6, 0)
    ),
    "triangular-s-letters-fail": _both(("generator-images-triangular", 3, 3)),
}


@pytest.mark.parametrize("case", sorted(WRONG))
def test_a_wrong_answer_counts_once_per_trial(monkeypatch, capsys, case):
    suite, name, wrap = WRONG[case]
    monkeypatch.setattr(colstab.verify, name, wrap(getattr(colstab.verify, name)))
    code = main(["verify", "--suite", suite, "--trials", str(TRIALS), "--seed", str(SEED)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["ok"] is False
    tallies = {
        run["ring"]["mode"]: [
            (r["check"], r["passed"], r["failed"], *filter(None, [r["detail"]]))
            for r in run["results"]
        ]
        for run in payload["runs"]
    }
    assert tallies == EXPECTED[case]
    for run in payload["runs"]:
        for r in run["results"]:
            assert r["passed"] + r["failed"] == (1 if r["check"] in ONE_OFF else TRIALS)


def test_check_results_are_built_at_one_site():
    source = Path(colstab.verify.__file__).parent
    calls = [
        node
        for path in sorted(source.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "CheckResult"
    ]
    assert len(calls) == 1


def test_max_trials_lies_above_every_documented_count():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    # The README's examples, less its statement of the ceiling itself.
    ceiling = colstab.verify.MAX_TRIALS
    documented = {int(n) for n in re.findall(r"--trials (\d+)", readme)} - {ceiling}
    assert max(documented) == 200 < ceiling


@pytest.mark.parametrize("suite", ["stab2", "all"])
def test_too_many_trials_exit_3_before_any_draw(monkeypatch, capsys, suite):
    def forbidden(*args):
        raise AssertionError("a suite ran")

    for name in colstab.verify.SUITES:
        monkeypatch.setitem(colstab.verify.SUITES, name, forbidden)
    ceiling = colstab.verify.MAX_TRIALS
    for trials in (ceiling + 1, 10**9):
        code = main(["verify", "--suite", suite, "--trials", str(trials)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 3
        assert payload == {
            "subcommand": "verify",
            "error": "domain",
            "message": f"trials must be at most {ceiling}, got {trials}",
        }


def test_trials_from_one_to_the_ceiling_are_run(monkeypatch):
    seen = []
    monkeypatch.setitem(
        colstab.verify.SUITES, "stab2", lambda ring, trials, seed: seen.append(trials) or []
    )
    ring = colstab.RingDescriptor(colstab.Mode.POLYNOMIAL, 3)
    ceiling = colstab.verify.MAX_TRIALS
    for trials in (1, ceiling):
        assert colstab.verify.run_suite("stab2", ring, trials, 0) == []
    for trials in (0, ceiling + 1):
        with pytest.raises(OutOfRangeError):
            colstab.verify.run_suite("stab2", ring, trials, 0)
    assert seen == [1, ceiling]


def test_an_unknown_suite_is_a_domain_error_before_any_draw(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a suite ran")

    for name in colstab.verify.SUITES:
        monkeypatch.setitem(colstab.verify.SUITES, name, forbidden)
    ring = colstab.RingDescriptor(colstab.Mode.POLYNOMIAL, 3)
    # A list is unhashable: it is refused by its type before any lookup.
    for name, shown in [("bogus", "'bogus'"), (["kernel"], "['kernel']")]:
        message = (
            f"unknown suite {shown}; the suites are decomposition, stab2, relations, "
            "homomorphism, determinant, preimage, kernel, triangular, all"
        )
        with pytest.raises(OutOfRangeError, match=f"^{re.escape(message)}$") as err:
            colstab.verify.run_suite(name, ring, 1, 0)
        assert isinstance(err.value, colstab.ColstabError)


def test_every_suite_and_all_state_the_variables_they_draw_over():
    assert list(colstab.verify._NVARS) == [*colstab.verify.SUITES, "all"]
    assert colstab.verify._NVARS["all"] == (3, True)
