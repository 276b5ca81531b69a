"""Benchmark runner for colstab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, so nothing needs installing.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  A fuller record,
with the environment, is written under ``.perfbench/`` in the checkout.

``--trace 0`` times a closed loop over the seeded item pool for ``--seconds``,
with every time rescaled to a nominal host speed by the reference kernel of
``refclock.py``.  ``--trace 1`` runs a fixed, seeded item list twice,
untraced and then traced, so that the counts repeat exactly at one seed and
the difference in time is the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

from refclock import RefClock
from tracer import Tracer
from workloads import SIZES, WORKLOADS, Outcome, colstab, purge_colstab

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Set-up (import plus input generation) is repeated and its median reported.
SETUP_REPEATS = 3

# A run also stops after this many times --seconds of wall time, so a
# host that stays slow cannot stretch it further.
MAX_STRETCH = 1.25

# Highest tail percentile reported; see tail_latency.
TAIL_CAP = 90.0


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--out", help="path of the full JSON record")
    return p.parse_args()


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "colstab").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "nproc": nproc,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "machine": platform.machine(),
    }


def git_sha():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail_latency(sorted_values):
    """(percentile, value, samples beyond) of the tail latency.

    The percentile is the highest with at least ten samples beyond it, capped
    at TAIL_CAP: above the cap the order statistic depends on a handful of
    the heaviest inputs and moves more between seeds than the bounds allow.
    It never falls below the median, so short runs keep fewer than ten.
    """
    n = len(sorted_values)
    index = min(n - 11, math.ceil(n * TAIL_CAP / 100.0) - 1)
    index = max(index, n // 2)
    return 100.0 * (index + 1) / n, sorted_values[index], n - index - 1


def run_item(workload, cs, item):
    """Time one item, then check it outside the timed region."""
    start = time.perf_counter()
    try:
        result = workload.run(cs, item)
    except Exception as exc:  # a failed item is counted, not fatal
        return time.perf_counter() - start, Outcome(1, 1, f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    return elapsed, check(workload, cs, item, result)


def check(workload, cs, item, result):
    try:
        return workload.check(cs, item, result)
    except Exception as exc:
        return Outcome(1, 1, f"check raised {type(exc).__name__}: {exc}")


def setup(workload, seed, size):
    """Import colstab afresh and build the pool, several times.

    Returns the median normalised time and the raw times.
    """
    clock = RefClock()
    clock.tick()
    raw = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        purge_colstab()
        cs = colstab()
        pool = workload.build(cs, seed, size)
        raw.append(time.perf_counter() - start)
        clock.tick()
    return cs, pool, statistics.median(clock.normalise(raw)), raw


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.lifted = [0, 0]

    def add(self, outcome):
        self.attempted += outcome.units
        self.failed += outcome.failed
        if outcome.note and len(self.notes) < 20:
            self.notes.append(outcome.note)
        if outcome.lifted is not None:
            self.lifted[0 if outcome.lifted else 1] += 1


def timed_run(workload, cs, pool, seconds, size, seed):
    """Closed loop over the pool, in order and cycling, until items and the
    reference kernel runs between them have taken ``seconds`` of normalised
    time, so that a run covers about the same items on a fast and a slow
    host."""
    rng = random.Random(f"oracle:{workload.name}:{seed}")
    window = min(len(pool), 4 * size.oracle_items)
    oracle_at = set(rng.sample(range(window), min(size.oracle_items, window)))
    tally = Tally()
    clock = RefClock()
    clock.tick()
    raw = []
    kept = []
    measured = 0.0
    deadline = time.perf_counter() + MAX_STRETCH * seconds
    while (measured < seconds and time.perf_counter() < deadline) or not raw:
        index = len(raw)
        elapsed, outcome = run_item(workload, cs, pool[index % len(pool)])
        clock.tick()
        raw.append(elapsed)
        measured += (elapsed + clock.ticks[-1]) * clock.scale(index)
        tally.add(outcome)
        if index in oracle_at:
            kept.extend(outcome.matrices)
    latencies = clock.normalise(raw)
    busy = sum(latencies)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = tally.attempted
    oracle = sympy_oracle(kept, tally)
    ordered = sorted(latencies)
    pct, tail, beyond = tail_latency(ordered)
    metrics = {
        "wall_s": busy * len(pool) / len(latencies),
        "items_per_s": units / busy,
        "item_p50_ms": 1000.0 * statistics.median(ordered),
        "item_tail_ms": 1000.0 * tail,
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "busy_s": busy,
        "items": len(latencies),
        "pool_items": len(pool),
        "item_tail_percentile": pct,
        "item_tail_samples_beyond": beyond,
        "latencies_ms": [round(1000.0 * x, 3) for x in latencies],
        "raw_busy_s": sum(raw),
        "raw_latencies_ms": [round(1000.0 * x, 3) for x in raw],
        "reference_kernel_ms": [round(1000.0 * x, 3) for x in clock.ticks],
        "fail_frac": tally.failed / tally.attempted,
        "oracle": oracle,
    }
    if sum(tally.lifted):
        extra["lifted_frac"] = tally.lifted[0] / sum(tally.lifted)
    return metrics, extra, tally


def sympy_oracle(matrices, tally):
    """Recompute determinants of kept matrices with sympy.

    A disagreement marks one more failed unit on an item already counted.
    """
    if not matrices:
        return {"checked": 0}
    from oracle import det_agrees, sympy_available

    if not sympy_available():
        return {"checked": 0, "note": "sympy not importable; determinant oracle skipped"}
    agreed = 0
    for mat in matrices:
        det = mat.det()
        ok = det.is_unit() and det_agrees(mat, det)
        agreed += ok
        if not ok:
            tally.add(Outcome(0, 1, "sympy determinant disagrees"))
    return {"checked": len(matrices), "agreed": agreed}


def traced_run(workload, cs, pool, size):
    """Untraced then traced pass over a fixed item list; per-layer metrics."""
    items = workload.trace_items(cs, pool, size.trace_items[workload.name])
    untraced = 0.0
    for item in items:
        start = time.perf_counter()
        try:
            workload.run(cs, item)
        except Exception:  # counted when the traced pass fails the same way
            pass
        untraced += time.perf_counter() - start

    tracer = Tracer()
    results = []
    tracer.install()
    try:
        with tracer.span("traced_pass", workload=workload.name):
            for index, item in enumerate(items):
                with tracer.span("item", index=index, label=workload.label(item)):
                    try:
                        results.append(workload.run(cs, item))
                    except Exception as exc:
                        results.append(exc)
    finally:
        tracer.uninstall()
    traced = sum(s["end"] - s["start"] for s in tracer.spans if s["name"] == "item")

    tally = Tally()
    for item, result in zip(items, results):
        if isinstance(result, Exception):
            tally.add(Outcome(1, 1, f"{type(result).__name__}: {result}"))
        else:
            tally.add(check(workload, cs, item, result))
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    # Item time outside every wrapped call: benchmark glue and unwrapped code.
    metrics["trace.unattributed_s"] = sum(
        s["self_s"] for s in tracer.spans if s["name"] == "item"
    )
    extra = {
        "items": len(items),
        "untraced_s": untraced,
        "traced_s": traced,
        "wrapper_cost_s": dict(zip(("own", "caller"), tracer.call_cost_s)),
        "ops": {
            name: {"group": tracer.group[name], "calls": calls, "self_s": self_s}
            for name, (calls, self_s) in sorted(tracer.stats.items())
        },
        "spans": tracer.spans,
    }
    return metrics, extra, tally


def main() -> int:
    args = parse_args()
    if not (SRC / "colstab" / "__init__.py").is_file():
        print(f"perfbench: no colstab sources under {SRC}", file=sys.stderr)
        return 2
    if "PYTHONHASHSEED" not in os.environ:
        # Distinct matrices can share a Mat hash, and which ones do depends on
        # the string-hash seed; pinning it makes the work, and so every
        # count, a function of the inputs alone.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    size = SIZES[args.size]

    cs, pool, setup_s, setup_times = setup(workload, args.seed, size)
    if args.trace:
        values, extra, tally = traced_run(workload, cs, pool, size)
    else:
        values, extra, tally = timed_run(workload, cs, pool, args.seconds, size, args.seed)
        values["setup_s"] = setup_s
    extra["raw_setup_times_s"] = setup_times
    if getattr(workload, "census", None):
        extra["census"] = workload.census

    listed = spec["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in listed} != set(values):
        print("perfbench: BENCHMARK.json lists other metrics than the run reports: "
              f"{sorted({m['name'] for m in listed} ^ set(values))}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": environment(),
        "result": result,
        "notes": tally.notes,
        **extra,
    }
    out = Path(args.out) if args.out else (
        OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, default=str))

    summary = {k: v for k, v in extra.items()
               if k not in ("ops", "spans") and not k.endswith("_ms")}
    print(f"perfbench: {args.workload} seed {args.seed}: {json.dumps(summary)}", file=sys.stderr)
    for note in tally.notes:
        print(f"perfbench: failure: {note}", file=sys.stderr)
    print(f"perfbench: record written to {out}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
