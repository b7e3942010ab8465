"""One benchmark process: set up a workload, run its operations, check them.

run.py starts a fresh interpreter for every set-up and every measurement,
so every memo table of the engine starts empty.  Modes:

    setup    set up only; reports setup_s
    measure  set up, then run ops until --seconds of op time have passed,
             at least the workload's min_ops ops are done and the last
             input block is complete
    replay   set up, then run the workload's trace_ops ops untraced
    trace    as replay, with spans around every traced engine function

The last line of stdout is one JSON object with the results.  Run from the
repository root:

    PYTHONPATH=src python3 bench/worker.py --workload NAME --seed N --mode MODE
"""

import argparse
import gc
import json
import os
import random
import resource
import time
import traceback
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = Path(".bench_work")


def set_up(name, seed):
    """(workload, setup seconds); importing the engine counts as set-up."""
    t0 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    wl.setup()
    return wl, time.perf_counter() - t0


def checked(check, *args):
    """check(*args), an exception counting as a failed check."""
    try:
        return bool(check(*args))
    except Exception:  # a wrong result fails its op; it must not end the run
        traceback.print_exc()
        return False


def direct(call):
    return call()


def run_op(wl, i, timed):
    """Prepare op i, run `timed(call)` and check the result.

    Before the clock starts, the objects that earlier ops left alive, the
    memo tables mostly, are frozen out of the cyclic collector's view
    (gc.freeze).  Otherwise a full collection, whose cost grows with
    everything the run has cached so far, lands on whichever op happens to
    trigger it, a different op for every seed; a `tropinv invariants`
    process, which handles one file, never has that heap.  Collections
    during an op still run and are timed, but scan only recent objects.

    Returns (seconds, ok, prepared input, output).  An op that raises
    counts as failed; the traceback goes to stderr.
    """
    inp = wl.prepare(i)
    gc.collect()
    gc.freeze()
    t = time.perf_counter()
    try:
        out = timed(lambda: wl.call(inp))
    except Exception:  # one failed op must not end the run
        traceback.print_exc()
        return time.perf_counter() - t, False, inp, None
    dt = time.perf_counter() - t
    return dt, checked(wl.check, inp, out), inp, out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(wl, seconds):
    """Closed loop: one op at a time, each started after the last returned.

    The run ends on a block boundary, so every run covers whole stratified
    input blocks and the input mix is the same for every seed.
    """
    sample = random.Random(f"{wl.name}:{wl.seed}:sample").randrange(wl.min_ops)
    latencies, failed, rss = [], [], None
    op_time = 0.0
    i = 0
    while op_time < seconds or i < wl.min_ops or i % wl.block:
        dt, ok, inp, out = run_op(wl, i, direct)
        latencies.append(dt)
        op_time += dt
        if not ok:
            failed.append(i)
        if i == sample:
            kept = (inp, out, ok)
        i += 1
        if i == wl.min_ops:
            rss = peak_rss_mb()
    inp, out, ok = kept
    if ok and not checked(wl.deep_check, inp, out):
        failed.append(sample)
    return {
        "latencies_s": latencies,
        "attempted": i,
        "failed": len(failed),
        "peak_rss_mb": rss,
        "rss_after_ops": wl.min_ops,
    }


def replay(wl, n_ops, tracer=None):
    """Exactly n_ops ops; with a tracer, each op is one root span.

    Returns the results and (input, output, ok) of op 0 for the deep check.
    """
    def timed(call):
        with tracer.span("bench.op"):
            return call()

    op_time, failed, first = 0.0, 0, None
    for i in range(n_ops):
        dt, ok, inp, out = run_op(wl, i, direct if tracer is None else timed)
        op_time += dt
        failed += not ok
        if i == 0:
            first = (inp, out, ok)
    return {"op_time_s": op_time, "attempted": n_ops, "failed": failed}, first


def layer_metrics(tracer, before, after):
    """The per-layer metrics of one traced run, as {name: [value, unit]}."""
    funcs, by_parent = tracer.summary()

    def calls(*labels):
        return sum(funcs.get(label, (0, 0.0))[0] for label in labels)

    def self_s(layer):
        return sum(funcs.get(label, (0, 0.0))[1] for label in spans.LAYERS[layer])

    def hit_ratio(prefix):
        hits = sum(after[t].hits - before[t].hits for t in after if t.startswith(prefix))
        misses = sum(after[t].misses - before[t].misses for t in after if t.startswith(prefix))
        return hits / (hits + misses) if hits + misses else 0.0

    vt = "circuit._vertex_table"
    rows = tracer.solve_rows
    m = {
        "linalg.solve_calls": (calls("linalg.solve_columns"), "count"),
        "linalg.solve_rows_max": (max(rows, default=0), "count"),
        "linalg.solve_work": (sum(n**3 for n in rows), "count"),
        "linalg.solve_self_s": (self_s("linalg.solve"), "s"),
        "linalg.nullspace_calls": (calls("linalg.nullspace"), "count"),
        "linalg.nullspace_self_s": (self_s("linalg.nullspace"), "s"),
        "graphs.refine_calls": (calls(*spans.LAYERS["graphs.refine"]), "count"),
        "graphs.refine_self_s": (self_s("graphs.refine"), "s"),
        "graphs.memo_entries": (sum(after[t].currsize for t in after if t.startswith("graphs.")), "count"),
        "circuit.vertex_table_misses": (after[vt].misses - before[vt].misses, "count"),
        "circuit.vertex_table_hit_ratio": (hit_ratio(vt), "ratio"),
        "circuit.vertex_table_self_s": (self_s("circuit.vertex_table"), "s"),
        "circuit.resistance_self_s": (self_s("circuit.resistance"), "s"),
        "circuit.quadratic_self_s": (self_s("circuit.quadratic"), "s"),
        "potentials.measure_self_s": (self_s("potentials.measure"), "s"),
        "potentials.potential_self_s": (self_s("potentials.potential"), "s"),
        "potentials.profile_calls": (calls("potentials.potential_profile"), "count"),
        "potentials.profile_self_s": (self_s("potentials.profile"), "s"),
        "potentials.capacity_self_s": (self_s("potentials.capacity"), "s"),
        "potentials.green_calls": (calls("potentials.green"), "count"),
        "potentials.green_self_s": (self_s("potentials.green"), "s"),
        "potentials.memo_hit_ratio": (hit_ratio("potentials."), "ratio"),
        "invariants.dual_path_calls": (calls("invariants._dual_values"), "count"),
        "invariants.dual_path_self_s": (self_s("invariants.dual_path"), "s"),
        "recovery.phi_samples": (by_parent.get(("invariants.phi", "recovery.fit_phi"), 0), "count"),
        "recovery.fit_self_s": (self_s("recovery.fit"), "s"),
        "oracle.quadrature_self_s": (self_s("oracle.quadrature"), "s"),
        "cli.parse_self_s": (self_s("cli.parse"), "s"),
        "cli.emit_self_s": (self_s("cli.emit"), "s"),
    }
    return {name: list(v) for name, v in m.items()}


def main():
    parser = argparse.ArgumentParser(description="one benchmark process")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "replay", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()
    os.chdir(BENCH_DIR.parent)

    wl, setup_s = set_up(args.workload, args.seed)
    tables = spans.memo_tables()
    result = {
        "setup_s": setup_s,
        "setup_repeats": wl.setup_repeats,
        "min_ops": wl.min_ops,
        "memo_maxsize": {t: fn.cache_info().maxsize for t, fn in tables.items()},
    }
    if args.mode == "measure":
        result.update(measure(wl, args.seconds))
    elif args.mode in ("replay", "trace"):
        tracer = spans.Tracer() if args.mode == "trace" else None
        before = spans.memo_snapshot(tables)
        if tracer is not None:
            tracer.install()
        try:
            res, (inp, out, ok) = replay(wl, wl.trace_ops, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            res["layers"] = layer_metrics(tracer, before, spans.memo_snapshot(tables))
            WORK_DIR.mkdir(exist_ok=True)
            tracer.write(WORK_DIR / f"spans-{args.workload}.json")
        if ok and not checked(wl.deep_check, inp, out):
            res["failed"] += 1
        result.update(res)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
