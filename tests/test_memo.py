"""Per-graph memo: entries live exactly as long as their graph.

Derived data is cached on the graph it was derived from, interior points
are evaluated on the graph itself without refining it, and a refined graph
keeps no reference to the graph it came from, so a long-running process
holds only the graphs its caller keeps.
"""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from tropinv import (
    EdgePoint,
    PolarizedMetricGraph,
    build,
    circuit,
    convergence_report,
    graphs,
    green,
    insert_point,
    phi,
    report,
)
from tropinv.cli import main
from tropinv.genus2 import TAGS, arity
from tropinv.potentials import canonical_measure, potential_profile

from helpers import count_solves, random_connected_graph


def _live_graphs():
    return sum(isinstance(obj, PolarizedMetricGraph) for obj in gc.get_objects())


def _interior_pairs(g):
    rng = random.Random(8)

    def interior():
        e = rng.choice(g.edges)
        return EdgePoint(e.id, e.length * Fraction(rng.randint(1, 12), 13))

    return [(interior(), interior()) for _ in range(20)]


def test_memory_bounded_by_live_graphs():
    g = build("VI", (1, 2, 3))
    pairs = _interior_pairs(g)
    gc.collect()
    before = _live_graphs()
    for x, y in pairs:
        green(g, x, y)
    convergence_report(g, "phi", (8, 16))
    gc.collect()
    assert _live_graphs() <= before


def test_refined_graph_frees_its_parent():
    g = build("VI", (1, 2, 3))
    parent = weakref.ref(g)
    refined, _ = insert_point(g, EdgePoint(g.edges[0].id, Fraction(1, 2)))
    phi(refined)
    del g
    gc.collect()
    assert parent() is None


def _canonical_misses():
    return canonical_measure.cache_info().misses


def _pinned_graph():
    return random_connected_graph(random.Random(2015), genus_min=3, genus_max=5, max_vertices=5)


def test_phi_solve_count_pinned(monkeypatch):
    # V=5, E=7 with one bridge: one solve, one canonical measure and one
    # edge constant kappa(e) per edge, all for the graph itself; the m(e)/5
    # spot checks of the six non-bridge edges' profiles read point rows of
    # its table; each profile is anchored at its endpoint potentials, so no
    # cross-edge quadratic is built
    g = _pinned_graph()
    solves = count_solves(monkeypatch)
    density_misses = circuit.edge_density.cache_info().misses
    misses = _canonical_misses()
    cross_misses = circuit.cross_integral_quadratic.cache_info().misses
    profile_misses = potential_profile.cache_info().misses
    phi(g)
    assert solves == [len(g.vertices) - 1]
    assert _canonical_misses() - misses == 1
    assert circuit.edge_density.cache_info().misses - density_misses == len(g.edges)
    assert circuit.cross_integral_quadratic.cache_info().misses == cross_misses
    assert potential_profile.cache_info().misses - profile_misses <= len(g.edges)


def test_oracle_ladder_solve_count_pinned(monkeypatch):
    # every quadrature midpoint reads a point row of the graph's own table
    g = build("VI", (1, 2, 3))
    solves = count_solves(monkeypatch)
    misses = _canonical_misses()
    convergence_report(g, "phi", (8, 16))
    assert len(solves) == 1
    assert _canonical_misses() - misses == 1


@pytest.mark.parametrize("tag", TAGS)
def test_genus2_command_solves_once(monkeypatch, capsys, tag):
    # the closed-form check and the identity report share one catalog graph
    solves = count_solves(monkeypatch)
    assert main(["genus2", tag, *["2", "3", "5"][: arity(tag)]]) == 0
    capsys.readouterr()
    assert len(solves) <= 1


def test_interior_points_build_no_refined_graph(monkeypatch):
    # with_points and insert_point split through graphs._split_edge
    splits = []
    split = graphs._split_edge
    monkeypatch.setattr(graphs, "_split_edge", lambda *args: splits.append(args[1:]) or split(*args))
    g = _pinned_graph()
    phi(g)
    report(g)
    g = build("VI", (1, 2, 3))
    for x, y in _interior_pairs(g):
        green(g, x, y)
    convergence_report(g, "phi", (8, 16))
    assert splits == []
