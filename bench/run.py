"""The tropinv benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see bench/workloads.py):
report_cold, green_warm, fit_family, oracle_ladder.  `--workload all` runs
each of them untraced and traced in turn.

A single caller runs in a closed loop: it issues the next operation only
after the previous one returned, and checks every result exactly outside
the timed region.  Every set-up and measurement runs in a fresh interpreter
(bench/worker.py), so the engine's memo tables start empty; the worker
freezes what earlier ops left alive out of the garbage collector's view
before timing the next op.

--trace 0 runs ops until --seconds of op time have passed, at least the
workload's min_ops ops are done and the last stratified input block is
complete, and prints the end-to-end metrics:
setup_s (median of several fresh set-ups), ops_per_s (ops per second of
op time), op_p50_ms, op_p90_ms (the highest percentile, at most the 90th,
with at least ten samples beyond it at min_ops ops) and peak_rss_mb
(ru_maxrss once min_ops ops are done, so it measures a fixed amount of
work).  --trace 1 runs the workload's first trace_ops ops twice, plain and
with spans around the engine's layer functions (bench/spans.py), and
prints the per-layer metrics, totals over those ops, with
trace.overhead_ratio; --seconds does not apply to it.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is not 0 when the engine's
sources are missing or a worker fails.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("report_cold", "green_warm", "fit_family", "oracle_ladder")
BUDGET_S = 170  # a run must end within 180 s


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def worker(args, deadline, *extra):
    """Run one fresh worker interpreter to completion; returns its result.

    `args` carries the workload and the seed.
    """
    # one string-hash seed per benchmark seed: every worker of a run then
    # iterates sets and dicts in the same order, and a seed's run repeats
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", args.workload, "--seed", str(args.seed), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"worker {' '.join(extra)} ran past the {BUDGET_S} s budget")
    if proc.returncode != 0:
        fail(f"worker {' '.join(extra)} exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def cpu_model():
    """The CPU model name the kernel reports, for the environment record."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def tail_percent(min_ops):
    """The highest percentile, at most 90, with ten samples beyond it in min_ops ops."""
    return min(90, math.floor(100 * (min_ops - 10) / min_ops))


def measure(args, deadline):
    res = worker(args, deadline, "--mode", "measure", "--seconds", str(args.seconds))
    setups = [res["setup_s"]]
    for _ in range(res["setup_repeats"] - 1):
        setups.append(worker(args, deadline, "--mode", "setup")["setup_s"])
    lat = res["latencies_s"]
    ordered = sorted(lat)
    pct = tail_percent(res["min_ops"])
    rank = math.ceil(pct / 100 * len(lat))  # nearest rank; len(lat) - rank samples lie beyond
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} fresh set-ups"),
        "ops_per_s": (len(lat) / sum(lat), "1/s", f"{len(lat)} ops in {sum(lat):.2f} s of op time"),
        "op_p50_ms": (1000 * statistics.median(lat), "ms", f"n={len(lat)}"),
        "op_p90_ms": (1000 * ordered[rank - 1], "ms", f"p{pct} of n={len(lat)}, {len(lat) - rank} samples beyond"),
        "peak_rss_mb": (res["peak_rss_mb"], "MiB", f"ru_maxrss after {res['rss_after_ops']} ops"),
    }
    return res, metrics


def trace(args, deadline):
    plain = worker(args, deadline, "--mode", "replay")
    res = worker(args, deadline, "--mode", "trace")
    metrics = {name: (value, unit, "") for name, (value, unit) in res["layers"].items()}
    metrics["trace.overhead_ratio"] = (
        res["op_time_s"] / plain["op_time_s"],
        "ratio",
        f"{res['op_time_s']:.3f} s traced / {plain['op_time_s']:.3f} s plain over {res['attempted']} ops",
    )
    res["attempted"] += plain["attempted"]
    res["failed"] += plain["failed"]
    return res, metrics


def run_one(args):
    """Measure one workload and print its metrics; the last line is the result."""
    deadline = time.monotonic() + BUDGET_S
    res, metrics = (trace if args.trace else measure)(args, deadline)
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "memo_maxsize": res["memo_maxsize"],
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"failed_ops_ratio {res['failed']}/{res['attempted']} = {res['failed'] / res['attempted']:.4f}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:32s} {value:>14.6g} {unit:6s} {note}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }), flush=True)


def main():
    parser = argparse.ArgumentParser(description="tropinv benchmark: one workload, one seed, one run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="op time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "tropinv" / "__init__.py").is_file():
        fail(f"no engine sources under {ROOT / 'src'}")
    if args.workload != "all":
        run_one(args)
        return
    for name in WORKLOADS:
        for traced in (0, 1):
            run_one(argparse.Namespace(**{**vars(args), "workload": name, "trace": traced}))


if __name__ == "__main__":
    main()
