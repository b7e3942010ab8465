"""Regenerate bench/report_cold_digests.json, the pinned report_cold outputs.

For each pinned seed it runs the first OPS report_cold operations, four
input blocks, and records, keyed by the digest of the graph file, the
digest of the CLI's stdout.  A 30 s timed run on a 2-vCPU Intel Xeon VM
completes two blocks, so the pins cover every op of such a run on a
machine up to twice as fast; later ops, and other seeds, are checked
against the independent reference in bench/exact.py alone.  The CLI
output is byte-identical for identical inputs, so a later change to the
engine must reproduce every pinned digest; rerun this only when the
pinned seeds, the op count or the input generator change, never to make
a mismatch go away.  Run from the repository root:

    PYTHONPATH=src python3 bench/pin_digests.py

report_cold writes every graph to one fixed file, whose path is part of the
CLI output, so never run two report_cold processes in one checkout at once.
"""

import json
import os
import sys

import workloads

SEEDS = range(32)
OPS = 4 * workloads.ReportCold.block


def pin_seed(seed):
    wl = workloads.ReportCold(seed)
    wl.setup()
    out = {}
    for i in range(OPS):
        inp = wl.prepare(i)
        code, text = wl.call(inp)
        if code != 0:
            sys.exit(f"seed {seed} op {i}: exit code {code}")
        out[workloads.digest(inp[2])] = workloads.digest(text.encode())
    return out


def main():
    os.chdir(workloads.BENCH_DIR.parent)
    # set-up reads the pins file; start from an empty one
    if not workloads.PINS_PATH.exists():
        workloads.PINS_PATH.write_text(json.dumps({"seeds": [], "ops": OPS, "digests": {}}))
    digests = {}
    for seed in SEEDS:
        digests.update(pin_seed(seed))
        print(f"seed {seed} pinned", flush=True)
    pins = {"seeds": list(SEEDS), "ops": OPS, "digests": dict(sorted(digests.items()))}
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=0) + "\n")


if __name__ == "__main__":
    main()
