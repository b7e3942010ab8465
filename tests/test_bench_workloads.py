"""The benchmark's workloads run and pass their own checks on the engine.

For each workload that `BENCHMARK.json` names, seed 0 runs its first three
ops in-process through the workload's own `prepare`, `call` and `check`.
report_cold's check compares `invariants` stdout with its pinned digests
and the payload with the independent reference `bench/exact.py`, so a
change that alters that output, or drops something a check reads, fails
here and not first in a benchmark run.  Nothing under `bench/` is written:
the working directory is a temporary one, and no bytecode is cached.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture
def workloads(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # report_cold writes its graph file under the working directory
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in ("workloads", "exact", "gen"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("workloads")


@pytest.mark.parametrize("name", NAMES)
def test_first_ops_pass_the_workload_check(workloads, name):
    wl = workloads.WORKLOADS[name](0)
    wl.setup()
    for i in range(3):
        inp = wl.prepare(i)
        assert wl.check(inp, wl.call(inp)), (name, i)
