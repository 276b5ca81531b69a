"""Acceptance checks at full trial counts; all arithmetic is exact, so every
comparison below is exact equality.  Each test prints one pass/fail line."""

from pathlib import Path

from colstab import (
    CongruenceMatrix,
    Mode,
    RingDescriptor,
    cohn_matrix,
    in_scheme,
    preimage,
    transvection,
)
from colstab.verify import (
    suite_determinant,
    suite_homomorphism,
    suite_kernel,
    suite_preimage,
    suite_relations,
    suite_stab2,
    suite_triangular,
)

POLY2 = RingDescriptor(Mode.POLYNOMIAL, 2)
POLY3 = RingDescriptor(Mode.POLYNOMIAL, 3)
LAUR3 = RingDescriptor(Mode.LAURENT, 3)
BOTH = (POLY3, LAUR3)
SEED = 20240809

def _report(number: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number}: {status}{suffix}")
    assert ok, f"criterion {number} failed{suffix}"

def _run(suite, trials):
    results = []
    for ring in BOTH:
        results.extend(suite(ring, trials, SEED))
    return results

def _all_ok(results):
    return all(r.failed == 0 for r in results)

def test_criterion_1_cohn_matrix():
    m = cohn_matrix(POLY2)
    ok = m.det() == POLY2.one and in_scheme(m)
    _report(1, ok, "determinant 1 and scheme membership")

def test_criterion_2_two_variable_stabilizer():
    results = _run(suite_stab2, 100)
    detail = "; ".join(f"{r.name} {r.passed}/{r.passed + r.failed}" for r in results)
    _report(2, _all_ok(results), detail)

def test_criterion_3_residue_relations():
    results = _run(suite_relations, 200)
    detail = "; ".join(f"{r.name} {r.passed}/{r.passed + r.failed}" for r in results)
    _report(3, _all_ok(results), detail)

def test_criterion_4_homomorphism():
    results = _run(suite_homomorphism, 200)
    detail = "; ".join(f"{r.name} {r.passed}/{r.passed + r.failed}" for r in results)
    _report(4, _all_ok(results), detail)

def test_criterion_5_determinant_defect():
    results = _run(suite_determinant, 100)
    covered = all(int(r.detail.split()[0]) > 0 for r in results)
    detail = "; ".join(f"{r.name} {r.passed}/{r.passed + r.failed}" for r in results)
    _report(5, _all_ok(results) and covered, detail + "; nonzero defects covered")

def test_criterion_6_constructive_lifts():
    results = _run(suite_preimage, 100)
    names = {r.name for r in results}
    detail = "; ".join(f"{r.name} {r.passed}/{r.passed + r.failed}" for r in results)
    ok = _all_ok(results) and "cohn-preimage" in names
    _report(6, ok, detail)

def test_criterion_7_kernel_subgroup():
    results = _run(suite_kernel, 50)
    detail = "; ".join(f"{r.name} {r.passed}/{r.passed + r.failed}" for r in results)
    _report(7, _all_ok(results), detail)

def test_criterion_8_triangular_generator_images():
    results = _run(suite_triangular, 120)  # 20 parameters per index combination
    detail = "; ".join(f"{r.name} {r.passed}/{r.passed + r.failed}" for r in results)
    _report(8, _all_ok(results), detail)

def test_criterion_9_negative_control():
    ok = True
    for ring in BOTH:
        target = CongruenceMatrix(
            transvection(ring, 2, 2, 1, ring.c(1) * ring.c(2))
        )
        report = preimage(target)
        ok = ok and (
            report.status == "OBSTRUCTED"
            and report.stage == "transvection-preimage"
            and report.obstruction == ring.one
        )
    _report(9, ok, "mixed transvection obstructed with coordinate 1 in both modes")

def test_criterion_10_out_of_scope_note():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8").lower()
    ok = (
        "out of scope" in text
        and "obstruction" in text
        and "triangular" in text
    )
    _report(10, ok, "documentation states the non-generation question is out of scope")
