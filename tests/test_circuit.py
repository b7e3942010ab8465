import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropinv import (
    EdgePoint,
    OffsetOutOfRange,
    PolarizedMetricGraph,
    at_vertex,
    excised_edge_resistance,
    foster_sum,
    genus,
    insert_point,
    on_edge,
    resistance,
    same_edge_resistance,
    with_points,
)
from tropinv.circuit import (
    _vertex_table,
    cross_integral_quadratic,
    edge_terminal_quadratic,
)

from helpers import (
    REFINED_KINDS,
    certified_profile,
    count_solves,
    excised_by_removal,
    float_resistance,
    is_bridge,
    random_connected_graph,
    random_point,
    reference_point_row,
    refined_cases,
)


def sunset(lengths=(1, 1, 1)):
    return PolarizedMetricGraph.build(
        [("p", 0), ("q", 0)],
        [("e1", ("p", "q"), lengths[0]), ("e2", ("p", "q"), lengths[1]), ("e3", ("p", "q"), lengths[2])],
    )


def circle(length=1):
    return PolarizedMetricGraph.build([("v", 0)], [("e", ("v", "v"), length)])


def segment(length=1):
    return PolarizedMetricGraph.build([("a", 1), ("b", 1)], [("e", ("a", "b"), length)])


def test_resistance_examples():
    assert resistance(segment(), at_vertex("a"), at_vertex("b")) == 1
    assert resistance(sunset(), at_vertex("p"), at_vertex("q")) == Fraction(1, 3)
    # circle of length L, arc distance a: a(L-a)/L
    assert resistance(circle(1), at_vertex("v"), on_edge("e", "1/2")) == Fraction(1, 4)
    g = circle(Fraction(7, 2))
    a = Fraction(3, 4)
    assert resistance(g, at_vertex("v"), on_edge("e", a)) == a * (Fraction(7, 2) - a) / Fraction(7, 2)


def test_resistance_point_identities():
    g = sunset()
    x = on_edge("e1", "1/3")
    assert resistance(g, x, x) == 0
    y = on_edge("e2", "2/5")
    assert resistance(g, x, y) == resistance(g, y, x)


def test_resistance_metric_properties_random():
    rng = random.Random(21)
    for _ in range(12):
        g = random_connected_graph(rng, genus_min=0, genus_max=4)
        pts = [random_point(g, rng) for _ in range(3)]
        rxy = resistance(g, pts[0], pts[1])
        ryz = resistance(g, pts[1], pts[2])
        rxz = resistance(g, pts[0], pts[2])
        assert rxy >= 0 and ryz >= 0 and rxz >= 0
        assert rxz <= rxy + ryz
        assert (rxy == 0) == (pts[0] == pts[1])


def test_resistance_against_float_oracle():
    rng = random.Random(4)
    for _ in range(10):
        g = random_connected_graph(rng, genus_min=0, genus_max=4)
        x = random_point(g, rng)
        y = random_point(g, rng)
        exact = float(resistance(g, x, y))
        approx = float_resistance(g, x, y)
        assert abs(exact - approx) < 1e-9


def test_resistance_invariant_under_refinement():
    rng = random.Random(9)
    for _ in range(8):
        g = random_connected_graph(rng, genus_min=1, genus_max=4)
        if not g.edges:
            continue
        u, w = g.vertex_ids()[0], g.vertex_ids()[-1]
        before = resistance(g, at_vertex(u), at_vertex(w))
        e = g.edges[rng.randrange(len(g.edges))]
        g2, _ = insert_point(g, EdgePoint(e.id, e.length * Fraction(1, 7)))
        assert resistance(g2, at_vertex(u), at_vertex(w)) == before


def test_excised_examples():
    g = sunset()
    for eid in ("e1", "e2", "e3"):
        assert excised_edge_resistance(g, eid).value == Fraction(1, 2)
    assert excised_edge_resistance(segment(), "e").is_infinite
    assert excised_edge_resistance(circle(), "e").value == 0


def test_excised_matches_definitional_removal():
    rng = random.Random(13)
    for _ in range(15):
        g = random_connected_graph(rng, genus_min=0, genus_max=4)
        for e in g.edges:
            direct = excised_by_removal(g, e.id)
            fast = excised_edge_resistance(g, e.id)
            if direct is None:
                assert fast.is_infinite
                assert is_bridge(g, e.id)
            else:
                assert not fast.is_infinite
                assert fast.value == direct
                assert not is_bridge(g, e.id)


def test_bridge_iff_infinite():
    rng = random.Random(17)
    for _ in range(15):
        g = random_connected_graph(rng, genus_min=0, genus_max=4)
        for e in g.edges:
            assert excised_edge_resistance(g, e.id).is_infinite == is_bridge(g, e.id)


def _coefficients(quad):
    return quad.a, quad.b, quad.c


def test_profile_examples():
    # bridge from its endpoint: the profile is plain arclength
    assert _coefficients(edge_terminal_quadratic(segment(), "e", "a")) == (0, 1, 0)
    # circle: s(1-s)
    assert _coefficients(edge_terminal_quadratic(circle(1), "e", "v")) == (-1, 1, 0)

    prof = edge_terminal_quadratic(sunset(), "e1", "p")
    assert prof.evaluate(0) == 0
    assert prof.evaluate(1) == Fraction(1, 3)
    assert _coefficients(prof) == (Fraction(-2, 3), 1, 0)


def test_profile_matches_fast_quadratic():
    rng = random.Random(29)
    for _ in range(10):
        g = random_connected_graph(rng, genus_min=0, genus_max=4)
        if not g.edges:
            continue
        vid = g.vertex_ids()[rng.randrange(len(g.vertices))]
        for e in g.edges:
            interpolated = certified_profile(g, at_vertex(vid), e.id, resistance)
            assert interpolated == _coefficients(edge_terminal_quadratic(g, e.id, vid))


def test_cross_integral_matches_profile_integral():
    rng = random.Random(31)
    for _ in range(8):
        g = random_connected_graph(rng, genus_min=1, genus_max=4)
        if len(g.edges) < 2:
            continue
        e, other = g.edges[0], g.edges[1]
        quad = cross_integral_quadratic(g, e.id, other.id)
        length = other.length
        for num in (1, 2, 3):
            s = e.length * Fraction(num, 4)
            g2, vid = insert_point(g, EdgePoint(e.id, s))
            a, b, c = certified_profile(g2, at_vertex(vid), other.id, resistance)
            assert quad.evaluate(s) == a * length**3 / 3 + b * length**2 / 2 + c * length


def test_same_edge_examples():
    assert same_edge_resistance(circle(1), "e", 0, Fraction(1, 2)) == Fraction(1, 4)
    assert same_edge_resistance(segment(1), "e", 0, Fraction(1, 2)) == Fraction(1, 2)
    # matches the two-vertex resistance when the offsets span the whole edge
    assert same_edge_resistance(sunset(), "e1", 0, 1) == Fraction(1, 3)


def test_same_edge_against_generic_resistance():
    rng = random.Random(37)
    for _ in range(8):
        g = random_connected_graph(rng, genus_min=0, genus_max=4)
        if not g.edges:
            continue
        e = g.edges[rng.randrange(len(g.edges))]
        s = e.length * Fraction(1, 5)
        t = e.length * Fraction(3, 7)
        expected = resistance(g, EdgePoint(e.id, s), EdgePoint(e.id, t))
        assert same_edge_resistance(g, e.id, s, t) == expected


@given(num_s=st.integers(0, 24), num_t=st.integers(0, 24))
@settings(max_examples=40, deadline=None)
def test_same_edge_properties(num_s, num_t):
    g = sunset()
    s = Fraction(num_s, 24)
    t = Fraction(num_t, 24)
    value = same_edge_resistance(g, "e1", s, t)
    assert value == same_edge_resistance(g, "e1", t, s)
    assert value >= 0
    assert (value == 0) == (s == t)


def test_same_edge_offset_bounds():
    with pytest.raises(OffsetOutOfRange):
        same_edge_resistance(segment(1), "e", 0, 2)
    with pytest.raises(OffsetOutOfRange):
        same_edge_resistance(segment(1), "e", -1, 0)


def test_foster_examples():
    assert foster_sum(sunset()) == 2
    tree = PolarizedMetricGraph.build(
        [("a", 1), ("b", 0), ("c", 1)],
        [("e1", ("a", "b"), 2), ("e2", ("b", "c"), 3)],
    )
    assert foster_sum(tree) == 0
    two_loops = PolarizedMetricGraph.build(
        [("v", 0)], [("e1", ("v", "v"), 1), ("e2", ("v", "v"), 5)]
    )
    assert foster_sum(two_loops) == 2


def test_foster_equals_b1_random():
    rng = random.Random(41)
    for _ in range(20):
        g = random_connected_graph(rng, genus_min=0, genus_max=5)
        b1, _ = genus(g)
        assert foster_sum(g) == b1


def test_circuit_outputs_invariant_under_refinement():
    rng = random.Random(43)
    for _ in range(6):
        g = random_connected_graph(rng, genus_min=1, genus_max=4)
        if len(g.edges) < 2:
            continue
        e_split = g.edges[0]
        e_other = g.edges[1]
        keep = excised_edge_resistance(g, e_other.id)
        g2, _ = insert_point(g, EdgePoint(e_split.id, e_split.length / 3))
        after = excised_edge_resistance(g2, e_other.id)
        assert keep.is_infinite == after.is_infinite
        if not keep.is_infinite:
            assert keep.value == after.value
        assert foster_sum(g2) == foster_sum(g)


def test_refined_table_matches_fresh_solve(monkeypatch):
    # the resistances from interior points to the vertices and to each
    # other against the vertex table of the graph refined at those points,
    # which solves its own Laplacian, and against the Fraction reference
    # row; over single splits, two points on one edge and chains of 1-4
    # splits, so pairs on one edge and on different edges
    solves = count_solves(monkeypatch)
    seen = set()
    for g, kind, refined, points, vids in refined_cases(random.Random(2013), 30):
        seen.add(kind)
        if len(g.vertices) == 1:
            seen.add("one vertex")
        assert with_points(g, points) == (refined, vids)
        _vertex_table(g)
        before = len(solves)
        index, table, d = _vertex_table(refined)
        assert solves[before:] == [len(refined.vertices) - 1]

        def fresh(u, v):
            return Fraction(table[index[u]][index[v]], d)

        for x, xv in zip(points, vids):
            ref_index, ref_row = reference_point_row(g, x)
            for v in g.vertex_ids():
                assert resistance(g, x, at_vertex(v)) == fresh(xv, v) == ref_row[ref_index[v]], (x, v)
            for y, yv in zip(points, vids):
                assert resistance(g, x, y) == fresh(xv, yv), (x, y)
                if x != y:
                    seen.add("pair on one edge" if x.edge == y.edge else "pair on two edges")
        assert len(solves) == before + 1, "a point-level resistance must not solve"
    assert seen >= REFINED_KINDS | {"pair on one edge", "pair on two edges"}
