"""Per-graph memo: entries live exactly as long as their graph.

Derived data is cached on the graph it was derived from, so the refined
graphs that interior-point calls build are freed when the call returns, and
a long-running process holds only the graphs its caller keeps.
"""

import gc
import random
from fractions import Fraction

from tropinv import EdgePoint, PolarizedMetricGraph, build, circuit, convergence_report, green, phi

from helpers import random_connected_graph


def _live_graphs():
    return sum(isinstance(obj, PolarizedMetricGraph) for obj in gc.get_objects())


def test_memory_bounded_by_live_graphs():
    rng = random.Random(8)
    g = build("VI", (1, 2, 3))

    def interior():
        e = rng.choice(g.edges)
        return EdgePoint(e.id, e.length * Fraction(rng.randint(1, 12), 13))

    pairs = [(interior(), interior()) for _ in range(20)]
    gc.collect()
    before = _live_graphs()
    for x, y in pairs:
        green(g, x, y)
    convergence_report(g, "phi", (8, 16))
    gc.collect()
    assert _live_graphs() <= before


def test_phi_solve_count_pinned():
    # V=5, E=7 with one bridge: one vertex table for the graph plus one for
    # the spot-check refinement of each of the six non-bridge edges' profiles;
    # a memo that loses a hit shows here as an extra solve
    g = random_connected_graph(random.Random(2015), genus_min=3, genus_max=5, max_vertices=5)
    before = circuit._vertex_table.cache_info().misses
    phi(g)
    assert circuit._vertex_table.cache_info().misses - before == 7
