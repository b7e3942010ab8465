"""The benchmark's workloads run and pass their own checks on the engine.

For each workload that `BENCHMARK.json` names, seed 0 runs its first three
ops in-process through the workload's own `prepare`, `call` and `check`.
report_cold's check compares `invariants` stdout with its pinned digests
and the payload with the independent reference `bench/exact.py`, so a
change that alters that output, or drops something a check reads, fails
here and not first in a benchmark run.  One op of each workload also runs
the traced path of `bench/worker.py`, which finds engine functions by name
(`bench/spans.py`).  Nothing under `bench/` is written: the working
directory is a temporary one, and no bytecode is cached.
"""

import gc
import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.fixture
def workloads(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # report_cold writes its graph file under the working directory
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in ("workloads", "exact", "gen", "spans", "worker"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("workloads")


@pytest.mark.parametrize("name", NAMES)
def test_first_ops_pass_the_workload_check(workloads, name):
    wl = workloads.WORKLOADS[name](0)
    wl.setup()
    for i in range(3):
        inp = wl.prepare(i)
        assert wl.check(inp, wl.call(inp)), (name, i)


@pytest.mark.parametrize("name", NAMES)
def test_one_traced_op_gives_every_layer_metric(workloads, name):
    # the worker's trace mode for one op: a renamed span function fails in
    # `Tracer.install`, a memo table that `layer_metrics` reads by name and
    # that no longer has `cache_info` fails there
    spans, worker = importlib.import_module("spans"), importlib.import_module("worker")
    wl = workloads.WORKLOADS[name](0)
    wl.setup()
    tables = spans.memo_tables()
    before = spans.memo_snapshot(tables)
    tracer = spans.Tracer()
    try:
        tracer.install()
        result, _ = worker.replay(wl, 1, tracer)
    finally:
        tracer.uninstall()
        gc.unfreeze()  # each op freezes the heap before it starts
    layers = worker.layer_metrics(tracer, before, spans.memo_snapshot(tables))
    assert result["failed"] == 0
    assert sorted([*layers, "trace.overhead_ratio"]) == sorted(m["name"] for m in BENCHMARK["per_layer"])
