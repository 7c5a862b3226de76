"""contamest benchmark: one workload, one seed, one result line.

Usage (from the root of a contamest checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark builds the workload's inputs from the seed, warms up with one
op, and runs the workload's cycle of ops in a closed loop with one client
for S seconds, whole cycles only.  Set-up (input generation plus the warm-up
op) is repeated at four more points spread over the run, outside the timed
loop, and ``setup_s`` is import time plus the median set-up pass.  Every
op's output is checked.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
every other cycle is traced, and the metrics are the per-layer ones derived
from the spans of the traced cycles; the spans are written to
``.perfbench/`` at the root.  README.md next to this file describes the
workloads and every metric.
"""

from __future__ import annotations

import os
import time

T0 = time.perf_counter()  # benchmark start, before any heavy import

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads; children inherit it

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PASSES = 5
WORKLOAD_NAMES = ("cli_wide", "singleton_wide", "mixture_k10", "klball_twosample")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def run_cycles(cycle, seconds, tracer=None, between=None):
    """Closed loop, one client: whole cycles until ``seconds`` have passed.

    With a tracer, every odd-numbered cycle is traced and at least two
    cycles of each kind run, so traced and untraced ops share the machine's
    conditions.  ``between(elapsed)`` runs after each cycle; its time counts
    neither toward ``seconds`` nor toward the returned elapsed time.  Returns
    ``(records, elapsed)``; a record is ``(op index, cycle, latency in
    seconds, output)``.
    """
    records = []
    start = time.perf_counter()
    paused = 0.0
    cycles = 0
    min_cycles = 1 if tracer is None else 4
    while cycles < min_cycles or time.perf_counter() - start - paused < seconds:
        traced = tracer is not None and cycles % 2 == 1
        if traced:
            tracer.install()
        try:
            for i, op in enumerate(cycle):
                if traced:
                    tracer.op = len(records)
                    span = tracer.open(op.key, "op")
                    try:
                        out = op.run(tracer)
                    finally:
                        tracer.close(span)
                    latency = span["end"] - span["start"]
                else:
                    t = time.perf_counter()
                    out = op.run(None)
                    latency = time.perf_counter() - t
                records.append((i, cycles, latency, out))
        finally:
            if traced:
                tracer.uninstall()
        cycles += 1
        if between is not None:
            t = time.perf_counter()
            between(t - start - paused)
            paused += time.perf_counter() - t
    return records, time.perf_counter() - start - paused


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples beyond it."""
    return max(50, math.floor(100 * (n - 10) / n)) if n > 10 else 50


def percentile(sorted_values, q: int) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values) / 100) - 1)]


def check_records(cycle, records) -> list[str]:
    """One message per failed op: its own check, or a differing repeat."""
    first = {}
    failures = []
    for i, _, _, out in records:
        op = cycle[i]
        reason = op.check(out)
        canon = op.canon(out)
        if reason is None and first.setdefault(op.key, canon) != canon:
            reason = "output differs from the first run of the same op"
        if reason is not None:
            failures.append(f"{op.key}: {reason}")
    return failures


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_wide" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "contamest" / "__init__.py").is_file():
        print(f"error: no contamest package under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import tracing  # these import numpy and contamest, so after the path
    import workloads

    import_s = time.perf_counter() - T0
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return measure(args, workdir, import_s, tracing, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir, import_s, tracing, workloads) -> int:
    build = workloads.WORKLOADS[args.workload]
    seed = args.seed % 2**64  # numpy takes only non-negative seeds
    passes = []

    def set_up():
        t = time.perf_counter()
        ops = build(seed, workdir)
        ops[0].run(None)  # warm-up: caches, lazy imports, page cache
        passes.append(time.perf_counter() - t)
        return ops

    def set_up_when_due(elapsed):
        # The host's speed drifts over seconds, so set-up passes made back to
        # back would all see the same phase; spread them over the run.
        if elapsed >= len(passes) * args.seconds / (SETUP_PASSES - 1):
            set_up()

    cycle = set_up()
    random.Random(seed).shuffle(cycle)
    tracer = tracing.Tracer() if args.trace else None
    records, elapsed = run_cycles(
        cycle, args.seconds, tracer, None if tracer else set_up_when_due)
    while not tracer and len(passes) < SETUP_PASSES:
        set_up()
    setup_s = import_s + statistics.median(passes)
    failures = check_records(cycle, records)
    problems = workloads.oracle_violations(seed)
    n_cycles = records[-1][1] + 1
    q_tail = tail_percentile(len(records))

    if tracer is None:
        latencies = sorted(r[2] * 1e3 for r in records)
        metrics = {
            "latency_p50_ms": (statistics.median(latencies), "ms"),
            "latency_tail_ms": (percentile(latencies, q_tail), "ms"),
            "throughput_ops_s": (len(records) / elapsed, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(args.workload), "MB"),
        }
    else:
        traced_cycles = range(1, n_cycles, 2)
        spans = tracer.spans
        per_cycle = [
            tracing.cycle_counts([s for s in spans if records[s["op"]][1] == c])
            for c in traced_cycles
        ]
        if any(counts != per_cycle[0] for counts in per_cycle):
            problems.append(f"work counts differ between traced cycles: {per_cycle}")
        traced_p50 = statistics.median(r[2] for r in records if r[1] % 2)
        untraced_p50 = statistics.median(r[2] for r in records if not r[1] % 2)
        metrics = tracing.layer_metrics(
            spans, sum(1 for r in records if r[1] % 2), len(traced_cycles))
        metrics["trace.overhead_pct"] = (100.0 * (traced_p50 / untraced_p50 - 1.0), "%")
        metrics["error_rate"] = (len(failures) / len(records), "ratio")
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    for line in failures[:10] + problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(
        f"# {args.workload} seed {args.seed}: {len(records)} ops in {n_cycles} cycles "
        f"of {len(cycle)} over {elapsed:.1f} s; tail = p{q_tail} "
        f"({len(records) - math.ceil(q_tail * len(records) / 100)} samples beyond); "
        f"python {platform.python_version()}, numpy {workloads.np.__version__}, "
        f"nproc {os.cpu_count()}, {platform.machine()}"
    )
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
