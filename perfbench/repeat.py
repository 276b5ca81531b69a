"""Exact-count check: two traced runs at one seed must give identical counts.

    python3 perfbench/repeat.py --workload NAME --seed N [--size tiny]

Both runs are separate processes.  ``run.py`` pins the string-hash seed
unless PYTHONHASHSEED is set, so run this with PYTHONHASHSEED unset.  Prints
one JSON object and exits 1 when any count differs, which is reported as
nondeterminism.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

EXACT = (
    "ring.mul.term_products",
    "ring.mul.out_terms_max",
    "stab.preimage.success",
    "stab.preimage.obstructed",
)


def counts(metrics: dict) -> dict:
    return {
        name: entry["value"]
        for name, entry in metrics.items()
        if name.endswith(".calls") or name in EXACT
    }


def traced_counts(workload, seed, size, out):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1",
         "--size", size, "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"traced run failed: {proc.stderr.strip()}")
    return counts(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    out = ROOT / ".perfbench" / "repeat"
    first, second = (
        traced_counts(args.workload, args.seed, args.size,
                      out / f"{args.workload}-seed{args.seed}-run{run}.json")
        for run in (1, 2)
    )
    differences = {
        name: [first.get(name), second.get(name)]
        for name in sorted(set(first) | set(second))
        if first.get(name) != second.get(name)
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "counts": len(first),
        "identical": not differences,
        "nondeterministic": differences,
    }
    print(json.dumps(report))
    return 0 if not differences else 1


if __name__ == "__main__":
    sys.exit(main())
