"""sustkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload runs in this one
process, one operation at a time: one warm-up round, then whole rounds
until S seconds have passed; every operation's output is checked in every
round.  The last line of stdout is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before
it give each operation's median time.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("affine_forms", "general_weights")
SETUP_SAMPLES = 15

IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import sustkit; "
    "print(repr(time.perf_counter() - t0))"
)


def measure_setup() -> float:
    """Median over fresh interpreters of the time ``import sustkit`` takes.
    One unrecorded import first writes the bytecode caches."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        if i:
            samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_rounds(ops, seconds, counters, tracer):
    """One warm-up round, then whole rounds of every operation until
    ``seconds`` have passed since the warm-up began.  Every round's outputs
    are checked and counted; the warm-up's times and counts are dropped.
    Returns per-operation times, operations attempted and failed, and the
    messages of failed output checks."""
    times = {op.name: [] for op in ops}
    attempted = failed = 0
    errors: list[str] = []
    deadline = time.perf_counter() + seconds
    for warm_up in itertools.chain([True], itertools.repeat(False)):
        if tracer is not None and not warm_up:
            tracer.round += 1  # warm-up spans keep round -1, which no metric reads
        for op in ops:
            attempted += 1
            gc.collect()  # each operation starts without the last one's garbage
            span = tracer.span(f"bench.{op.name}") if tracer is not None else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with span:
                    result = op.run()
            except Exception:  # a program fault: count it and keep measuring
                elapsed = time.perf_counter() - t0
                failed += 1
                print(f"{op.name} raised: {traceback.format_exc(limit=3)}", file=sys.stderr)
            else:
                elapsed = time.perf_counter() - t0
                if op.failed(result):
                    failed += 1
                try:
                    op.check(result)
                except Exception as exc:  # CheckError, or an output too malformed to read
                    errors.append(f"{op.name}: {exc!r}")
            if not warm_up:
                times[op.name].append(elapsed)
        if warm_up:
            counters.discard_round()
        else:
            counters.end_round()
            if time.perf_counter() >= deadline:
                return times, attempted, failed, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sustkit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sustkit" / "__init__.py").is_file():
        print(f"error: no sustkit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    work = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        metrics = {}
        if not args.trace:
            metrics["setup_s"] = (measure_setup(), "s")
        counters = tracing.Counters()
        ops = workloads.WORKLOADS[args.workload](args.seed, work, counters)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer(counters)
            tracer.install()
        try:
            times, attempted, failed, errors = run_rounds(ops, args.seconds, counters, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = len(counters.rounds)
    # a round's time: the sum over its operations of each one's median
    batch = sum(statistics.median(values) for values in times.values())
    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds} after one warm-up  "
          f"trace {args.trace}")
    print(f"  {'batch':<16s} {batch:.6f} s  (sum of the medians below)")
    for name, values in times.items():
        print(f"  {name:<16s} {statistics.median(values):.6f} s  (median of {rounds})")
    if any(r["integrand_points"] for r in counters.rounds):
        evals = statistics.median(r["integrand_points"] + r["weight_points"] for r in counters.rounds)
        print(f"  {'rs_evals':<16s} {evals:.0f} count  (per round)")
    for message in errors[:5]:
        print(f"check failed: {message}", file=sys.stderr)

    if tracer is not None:
        trace_path = BENCH / "traces" / f"{args.workload}-seed{args.seed}.json.gz"
        tracer.write(trace_path)
        metrics = tracer.layer_metrics()
        print(f"  trace written to {trace_path.relative_to(ROOT)} "
              f"({len(tracer.spans)} spans)")
    else:
        metrics["batch_s"] = (batch, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
