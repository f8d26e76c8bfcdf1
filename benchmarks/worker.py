"""One benchmark run of one workload, in a fresh interpreter.

Started by run.py with a fixed PYTHONHASHSEED.  Prints one JSON object on
its last line of standard output: the pass timings (untraced run) or the
per-layer metrics (traced run), with the operation counts and the
verdict of the checks.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def run_pass(wl, timings: dict, errors: dict) -> tuple[dict, int, float, float]:
    """Run every operation once.

    Returns the results, the failures, and the pass's wall time and the
    CPU time this process spent in it.  `timings` collects the CPU time of
    each operation.  CPU time leaves out the time the machine gave to
    other processes or other virtual machines (the kernel counts steal
    time apart), so it is steady where wall time is not.
    """
    results = {}
    failed = 0
    gc.collect()
    start = time.perf_counter()
    cpu_start = time.process_time()
    for name, op in wl.ops:
        t0 = time.process_time()
        try:
            results[name] = op()
        except Exception:  # an operation that raises counts as failed
            failed += 1
            errors[name] = traceback.format_exc(limit=1).strip().splitlines()[-1]
        timings.setdefault(name, []).append(time.process_time() - t0)
    return (results, failed, time.perf_counter() - start,
            time.process_time() - cpu_start)


def signatures(wl, results: dict) -> dict:
    return {name: wl.signature(name, res) for name, res in results.items()}


def repeat_passes(wl, seconds: float, timings: dict, errors: dict):
    """Run passes until `seconds` have gone by (at least one).

    Returns the last pass's results, the pass CPU and wall times, the
    failure count and whether every pass gave the same outputs.
    """
    pass_s: list[float] = []
    wall_s: list[float] = []
    failed = 0
    sigs = None
    consistent = True
    results = None
    start = time.perf_counter()
    while not pass_s or time.perf_counter() - start < seconds:
        results = None  # free the previous pass's outputs before timing
        results, n_failed, wall, cpu = run_pass(wl, timings, errors)
        pass_s.append(cpu)
        wall_s.append(wall)
        failed += n_failed
        now = signatures(wl, results)
        consistent = consistent and sigs in (None, now)
        sigs = now
    return results, pass_s, wall_s, failed, consistent


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True,
                    help="scratch directory for the workload's files")
    args = ap.parse_args()

    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, Gral
    wl = WORKLOADS[args.workload](Gral(), args.seed, Path(args.workdir))
    out = traced_run(wl, args) if args.trace else timed_run(wl, args)
    print(json.dumps(out))
    return 0


def timed_run(wl, args) -> dict:
    timings: dict = {}
    errors: dict = {}
    results, pass_s, wall_s, failed, consistent = repeat_passes(
        wl, args.seconds, timings, errors)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    problems = wl.verify(results)
    if not consistent:
        problems.append("passes disagree on their outputs")
    q1, med, q3 = quartiles(pass_s)
    return {
        "correct": not problems, "problems": problems[:20],
        "attempted": len(pass_s) * len(wl.ops), "failed": failed,
        "errors": errors, "passes": pass_s, "passes_wall": wall_s,
        "verdict_s": med, "verdict_q1_s": q1, "verdict_q3_s": q3,
        "verdict_wall_s": statistics.median(wall_s),
        "peak_rss_mb": peak_kb / 1024.0,
        "ops_s": {k: statistics.median(v) for k, v in timings.items()},
    }


def traced_run(wl, args) -> dict:
    from tracing import MODULES, LineCounter, Spans
    import gral
    timings: dict = {}
    errors: dict = {}
    # untraced baseline: the passes a timed run would make
    results, _plain_cpu, plain_s, failed, consistent = repeat_passes(
        wl, args.seconds, timings, errors)
    base_sigs = signatures(wl, results)
    log(f"untraced passes {plain_s}")
    problems = wl.verify(results)
    if not consistent:
        problems.append("passes disagree on their outputs")
    results = None

    spans = Spans()
    spans.install({m: sys.modules[f"gral.{m}"] for m in MODULES})
    stale = spans.stale_bindings()
    try:
        results, span_failed, span_s, _cpu = run_pass(wl, {}, errors)
    finally:
        spans.uninstall()
    span_sigs = signatures(wl, results)
    log(f"span-traced pass {span_s:.2f} s, {len(spans.span_name)} spans")
    results = None

    lines = LineCounter(Path(gral.__file__).parent)
    with lines:
        results, line_failed, lines_s, _cpu = run_pass(wl, {}, errors)
    line_sigs = signatures(wl, results)
    log(f"line-counted pass {lines_s:.2f} s")

    if stale:
        problems.append(f"unwrapped bindings remain: {stale}")
    if span_sigs != base_sigs or line_sigs != base_sigs:
        problems.append("a traced pass changed the outputs")
    OUT.mkdir(exist_ok=True)
    spans.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv")

    plain = statistics.median(plain_s)
    metrics = {}
    metrics.update(spans.metrics())
    metrics.update(lines.metrics())
    for s in wl.g.suites.SUITE_NAMES:
        secs = timings.get(f"suite:{s}")
        metrics[f"suites.{s}.elapsed_s"] = (statistics.median(secs) if secs
                                            else 0.0, "s")
    metrics["trace.overhead_s"] = (span_s - plain, "s")
    metrics["trace.lines_overhead_s"] = (lines_s - plain, "s")
    return {
        "correct": not problems, "problems": problems[:20],
        "attempted": (len(plain_s) + 2) * len(wl.ops),
        "failed": failed + span_failed + line_failed,
        "errors": errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spans": len(spans.span_name),
    }


if __name__ == "__main__":
    sys.exit(main())
