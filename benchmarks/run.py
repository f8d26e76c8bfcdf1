"""Time-to-verdict benchmark for gral.

    python3 benchmarks/run.py --workload products --seed 0 --seconds 20 --trace 0

Runs one workload in a fresh interpreter (worker.py) pinned to one CPU
with PYTHONHASHSEED=0, and prints one JSON object as its last line:
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones (setup_s, verdict_s, peak_rss_mb); with
`--trace 1` they are the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("products", "functors", "dependent", "files")
SETUP_PROBES = 7
RUN_LIMIT_S = 170.0

# what a user pays before the first verdict: interpreter start, importing
# the suites and the CLI, and building the groupoid realizer category.
# The probe reports the CPU time its process has used, from its start.
SETUP_PROBE = ("import time\n"
               "import gral.suites, gral.cli\n"
               "from gral.interval import gpd_interval\n"
               "gpd_interval()\n"
               "print('ready', repr(time.process_time()), flush=True)\n")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "GRAL_SEED"}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def setup_probe(env: dict) -> tuple[float, float]:
    """CPU and wall seconds of one cold start until it reports set-up done.

    The CPU time is the probe's own, from its start to its 'ready' line:
    it leaves out the time the machine gave to other processes, so it is
    what a user of an otherwise idle CPU waits.  The wall time, to the
    same line, is printed for comparison.
    """
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_PROBE], env=env,
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        ready, _, _ = select.select([proc.stdout], [], [], 60)
        line = proc.stdout.readline() if ready else ""
        t1 = time.perf_counter()
        if not line.startswith("ready "):
            proc.kill()
        proc.wait()
    if not line.startswith("ready ") or proc.returncode != 0:
        raise RuntimeError("the set-up probe failed")
    return float(line.split()[1]), t1 - t0


def setup_seconds(env: dict) -> list[tuple[float, float]]:
    """Set-up times of several cold starts, after one that warms .pyc files."""
    setup_probe(env)
    return [setup_probe(env) for _ in range(SETUP_PROBES)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "gral" / "__init__.py").is_file():
        print(f"gral sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    # the probes and the worker inherit this single-CPU affinity
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = child_env()
    setup = [] if args.trace else setup_seconds(env)
    budget = RUN_LIMIT_S - (time.perf_counter() - started)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=budget)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    for p in res["problems"]:
        print(f"problem: {p}")
    for op, err in res["errors"].items():
        print(f"failed: {op}: {err}")
    if args.trace:
        metrics = res["metrics"]
        print(f"spans recorded: {res['spans']}")
    else:
        passes = res["passes"]
        print(f"verdict_s (CPU) over {len(passes)} passes: median "
              f"{res['verdict_s']:.4f} q1 {res['verdict_q1_s']:.4f} "
              f"q3 {res['verdict_q3_s']:.4f}; passes "
              + " ".join(f"{p:.3f}" for p in passes))
        print(f"wall seconds of the same passes: median "
              f"{res['verdict_wall_s']:.4f}; passes "
              + " ".join(f"{p:.3f}" for p in res["passes_wall"]))
        for op, secs in res["ops_s"].items():
            print(f"  {op}: {secs:.4f} s")
        print(f"setup_s (CPU) over {len(setup)} cold starts: "
              + " ".join(f"{c:.4f}" for c, _w in setup))
        print("wall seconds of the same cold starts: "
              + " ".join(f"{w:.4f}" for _c, w in setup))
        metrics = {
            "setup_s": {"value": statistics.median(c for c, _w in setup),
                        "unit": "s"},
            "verdict_s": {"value": res["verdict_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
