"""Per-graph memo: entries live exactly as long as their graph.

Derived data is cached on the graph it was derived from, so the refined
graphs that interior-point calls build are freed when the call returns, and
a long-running process holds only the graphs its caller keeps.
"""

import gc
import random
from fractions import Fraction

from tropinv import EdgePoint, PolarizedMetricGraph, build, circuit, convergence_report, green, phi
from tropinv.potentials import canonical_measure, potential_profile

from helpers import count_solves, random_connected_graph


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


def _canonical_misses():
    return canonical_measure.cache_info().misses


def test_phi_solve_count_pinned(monkeypatch):
    # V=5, E=7 with one bridge: one solve, one canonical measure and one
    # bridge search per edge, all for the graph itself; the spot-check
    # refinements of the six non-bridge edges' profiles inherit the table,
    # r(e) and the admissible measure from it; each profile is anchored at
    # its endpoint potentials, so no cross-edge quadratic is built
    g = random_connected_graph(random.Random(2015), genus_min=3, genus_max=5, max_vertices=5)
    solves = count_solves(monkeypatch)
    bridge_searches = []
    search = circuit.is_bridge
    monkeypatch.setattr(circuit, "is_bridge", lambda graph, eid: bridge_searches.append(eid) or search(graph, eid))
    misses = _canonical_misses()
    cross_misses = circuit.cross_integral_quadratic.cache_info().misses
    profile_misses = potential_profile.cache_info().misses
    phi(g)
    assert solves == [len(g.vertices) - 1]
    assert _canonical_misses() - misses == 1
    assert len(bridge_searches) <= len(g.edges)
    assert circuit.cross_integral_quadratic.cache_info().misses == cross_misses
    assert potential_profile.cache_info().misses - profile_misses <= len(g.edges)


def test_oracle_ladder_solve_count_pinned(monkeypatch):
    # every quadrature midpoint refines the graph and extends its table
    g = build("VI", (1, 2, 3))
    solves = count_solves(monkeypatch)
    misses = _canonical_misses()
    convergence_report(g, "phi", (8, 16))
    assert len(solves) == 1
    assert _canonical_misses() - misses == 1
