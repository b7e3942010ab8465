"""Self-test of the benchmark.

The exact counts of a traced run must repeat identically across two runs
of one seed, so that a later change can claim a count reduction without
timing noise.  The two runs use different string-hash seeds, so a count
that hangs on set iteration order fails here.  The independent reference
that checks report_cold must agree with the engine and reject a wrong
value.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest bench/test_bench.py
"""

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

import exact
import gen
import workloads
from tropinv import report

ROOT = Path(__file__).resolve().parent.parent
EXACT = (
    "linalg.solve_calls",
    "linalg.solve_work",
    "linalg.solve_rows_max",
    "graphs.refine_calls",
    "recovery.phi_samples",
    "circuit.vertex_table_misses",
)


def traced(workload, seed, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--mode", "trace"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, check=True, timeout=300,
    )
    return json.loads(proc.stdout.decode().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_exact_counts_repeat(workload):
    first = traced(workload, 7, hash_seed=1)
    second = traced(workload, 7, hash_seed=2)
    assert first["failed"] == second["failed"] == 0
    counts = {name: first["layers"][name] for name in EXACT}
    assert counts == {name: second["layers"][name] for name in EXACT}
    assert counts["linalg.solve_calls"][0] > 0


def test_refuses_without_engine_sources():
    """In a directory with only the benchmark's files, exit non-zero and print no result."""
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "bench", Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "fit_family", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=180,
        )
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout


def test_reference_matches_report_and_catches_a_wrong_value():
    """The report_cold reference agrees with the engine, and one changed digit fails it."""
    rng = random.Random(3)
    for v in (3, 6, 9):
        g = gen.random_graph(rng, v, 2 * v)
        payload = report(g).to_dict()
        assert exact.payload_matches(g, payload)
        for field in ("epsilon", "phi", "capacity"):
            assert not exact.payload_matches(g, {**payload, field: str(Fraction(payload[field]) + Fraction(1, 10**9))})
