"""Tiny end-to-end self-test of the benchmark.

Runs every workload timed and traced at the tiny size, the exact-count
repeat check, the sympy determinant oracle on a right and a wrong answer,
and the refusal to run in a directory without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def last_json_line(text):
    return json.loads(text.strip().splitlines()[-1])


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_reports_every_end_to_end_metric(workload, tmp_path):
    proc = run_bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", "0", "--size", "tiny", "--out", str(tmp_path / "record.json"),
    )
    assert proc.returncode == 0, proc.stderr
    result = last_json_line(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0
    record = json.loads((tmp_path / "record.json").read_text())
    assert {"python", "git_sha", "nproc"} <= set(record["environment"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/repeat.py", "--workload", workload,
         "--seed", "3", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    report = last_json_line(proc.stdout)
    assert proc.returncode == 0 and report["identical"], report
    record = json.loads(
        (ROOT / ".perfbench" / "repeat" / f"{workload}-seed3-run1.json").read_text()
    )
    result = record["result"]
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert result["metrics"]["ring.mul.calls"]["value"] > 0
    assert all(span["parent"] is not None for span in record["spans"] if span["name"] == "item")


def test_sympy_oracle_rejects_a_wrong_determinant():
    pytest.importorskip("sympy")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from colstab import Mode, RingDescriptor, eval_word, sample_tame
    from oracle import det_agrees

    for mode in (Mode.POLYNOMIAL, Mode.LAURENT):
        ring = RingDescriptor(mode, 3)
        mat = eval_word(ring, sample_tame(ring, 5, 6)).mat
        det = mat.det()
        assert det_agrees(mat, det)
        assert not det_agrees(mat, det + ring.one)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(
        tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_clock_rescales_each_stretch_by_nearby_kernel_speed():
    sys.path.insert(0, str(HERE))
    from refclock import REFERENCE_S, RefClock

    clock = RefClock()
    clock.ticks = [REFERENCE_S] * 4 + [2 * REFERENCE_S] * 8
    normalised = clock.normalise([1.0] * 11)
    assert normalised[0] == pytest.approx(1.0)
    assert normalised[-1] == pytest.approx(0.5)
    assert all(0.5 <= x <= 1.0 for x in normalised)
    with pytest.raises(ValueError):
        clock.normalise([1.0] * 12)
