import random
from fractions import Fraction

import pytest

from tropinv import (
    EdgePoint,
    GenusZero,
    PolarizedMetricGraph,
    admissible_measure,
    at_vertex,
    canonical_measure,
    capacity,
    green,
    green_measure_integral,
    insert_point,
    on_edge,
    potential,
    potential_profile,
    resistance,
)

from tropinv.circuit import (
    edge_terminal_integral,
    edge_terminal_quadratic,
    resistance_between_vertices,
)
from tropinv import potentials
from tropinv.errors import CrosscheckFailure, OffsetOutOfRange
from tropinv.graphs import Divisor
from tropinv.potentials import _edge_potentials, _potential_at_vertex, profile_integral

from helpers import (
    REFINED_KINDS,
    definitional_profile,
    is_bridge,
    random_connected_graph,
    random_point,
    refined_cases,
)


def sunset():
    return PolarizedMetricGraph.build(
        [("p", 0), ("q", 0)],
        [("e1", ("p", "q"), 1), ("e2", ("p", "q"), 1), ("e3", ("p", "q"), 1)],
    )


def segment(q=(1, 1), length=1):
    return PolarizedMetricGraph.build(
        [("a", q[0]), ("b", q[1])], [("e", ("a", "b"), length)]
    )


def loop(length=1, q=1):
    return PolarizedMetricGraph.build([("v", q)], [("e", ("v", "v"), length)])


def two_loops(m1=1, m2=1):
    return PolarizedMetricGraph.build(
        [("v", 0)], [("e1", ("v", "v"), m1), ("e2", ("v", "v"), m2)]
    )


def test_canonical_measure_examples():
    mu = canonical_measure(sunset())
    assert mu.atom("p") == Fraction(-1, 2) and mu.atom("q") == Fraction(-1, 2)
    assert all(mu.density(e) == Fraction(2, 3) for e in ("e1", "e2", "e3"))
    assert mu.total_mass == 1

    tree = segment(q=(0, 0))
    mu = canonical_measure(tree)  # q-independent; works on genus-0 trees too
    assert mu.atom("a") == Fraction(1, 2) and mu.atom("b") == Fraction(1, 2)
    assert mu.density("e") == 0
    assert mu.total_mass == 1

    mu = canonical_measure(loop(length=Fraction(5, 2)))
    assert mu.atom("v") == 0
    assert mu.density("e") == Fraction(2, 5)
    assert mu.total_mass == 1


def test_admissible_measure_examples():
    mu = admissible_measure(segment())
    assert mu.atom("a") == Fraction(1, 2) and mu.atom("b") == Fraction(1, 2)
    assert mu.density("e") == 0
    assert mu.total_mass == 1

    mu = admissible_measure(loop(length=Fraction(3, 2)))
    assert mu.atom("v") == Fraction(1, 2)
    assert mu.density("e") == Fraction(1, 3)  # 1/(2L)
    assert mu.total_mass == 1

    point = PolarizedMetricGraph.build([("v", 2)], [])
    mu = admissible_measure(point)
    assert mu.atom("v") == 1 and mu.total_mass == 1


def test_admissible_requires_positive_genus():
    tree = segment(q=(0, 0))
    with pytest.raises(GenusZero):
        admissible_measure(tree)
    with pytest.raises(GenusZero):
        potential(tree, at_vertex("a"))


def test_admissible_certificate_fires_on_a_corrupted_divisor(monkeypatch):
    # K_q off by one at one vertex moves the definitional atom there by 1/(2h)
    divisor = potentials.polarized_divisor

    def corrupted(g):
        k_q = dict(divisor(g).items())
        k_q["a"] += 1
        return Divisor(k_q)

    monkeypatch.setattr(potentials, "polarized_divisor", corrupted)
    with pytest.raises(CrosscheckFailure, match="definitional and simplified forms disagree"):
        admissible_measure(segment())


def test_measure_masses_random():
    rng = random.Random(51)
    for _ in range(25):
        g = random_connected_graph(rng, genus_min=1, genus_max=5)
        assert canonical_measure(g).total_mass == 1
        assert admissible_measure(g).total_mass == 1


def test_potential_examples():
    assert potential(segment(), at_vertex("a")) == Fraction(1, 2)
    assert potential(loop(), at_vertex("v")) == Fraction(1, 12)
    assert potential(loop(), on_edge("e", "1/2")) == Fraction(5, 24)


def test_potential_profile_loop():
    poly = potential_profile(loop(), "e")
    # f(s) = (s(1-s) + 1/6)/2
    assert (poly.c, poly.b, poly.a) == (Fraction(1, 12), Fraction(1, 2), Fraction(-1, 2))
    assert poly.evaluate(0) == Fraction(1, 12)
    assert poly.evaluate(Fraction(1, 2)) == Fraction(5, 24)


def test_potential_profile_tree_edge_is_linear():
    # q=1 leaves hanging off a path: on the middle edge the potential is linear
    g = PolarizedMetricGraph.build(
        [("a", 1), ("b", 0), ("c", 0), ("d", 1)],
        [("e1", ("a", "b"), 1), ("e2", ("b", "c"), 2), ("e3", ("c", "d"), 1)],
    )
    poly = potential_profile(g, "e2")
    assert poly.a == 0


def test_potential_profile_two_loops():
    m1, m2 = Fraction(3), Fraction(5)
    poly = potential_profile(two_loops(m1, m2), "e1")
    assert poly.evaluate(0) == (m1 + m2) / 12
    # interior bump: f(s) = (m1+m2)/12 + s(m1-s)/(2 m1)
    s = Fraction(1, 2)
    assert poly.evaluate(s) == (m1 + m2) / 12 + s * (m1 - s) / (2 * m1)


def test_potential_matches_refinement_route():
    rng = random.Random(53)
    for _ in range(40):
        g = random_connected_graph(rng, genus_min=1, genus_max=4)
        if not g.edges:
            continue
        x = random_point(g, rng)
        direct = potential(g, x)
        g2, vid = insert_point(g, x)
        assert potential(g2, at_vertex(vid)) == direct
        e = g.edges[rng.randrange(len(g.edges))]
        s = e.length * Fraction(2, 7)
        assert potential_profile(g, e.id).evaluate(s) == potential(g, EdgePoint(e.id, s))


def test_edge_potentials_at_many_points():
    # the values over one denominator equal `potential` point by point, also
    # for a/b not in lowest terms; a point at or beyond an end is refused
    rng = random.Random(57)
    for _ in range(10):
        g = random_connected_graph(rng, genus_min=1, genus_max=4)
        for e in g.edges:
            b = 2 * rng.randint(2, 6)
            nums, den, offset = _edge_potentials(g, e.id, range(1, b), b)
            assert [Fraction(n, den) + offset for n in nums] == [
                potential(g, EdgePoint(e.id, e.length * Fraction(a, b))) for a in range(1, b)
            ]
    g = loop()
    for bad in ((0,), (1, 4), (-1,)):
        with pytest.raises(OffsetOutOfRange):
            _edge_potentials(g, "e", bad, 4)


def test_profile_integral_matches_quadratic_integral():
    # the closed form m(f(p) + f(q))/2 - A m^3/6 against integrating the
    # profile's three coefficients over [0, m(e)]
    rng = random.Random(61)
    kinds = set()
    for _ in range(25):
        g = random_connected_graph(rng, genus_min=1, genus_max=5, max_vertices=6)
        for e in g.edges:
            kinds.add("loop" if e.is_loop else "bridge" if is_bridge(g, e.id) else "cycle")
            assert profile_integral(g, e.id) == potential_profile(g, e.id).integral(e.length), e.id
    assert kinds == {"loop", "bridge", "cycle"}

def test_capacity_examples():
    assert capacity(segment()) == Fraction(1, 4)
    assert capacity(loop()) == Fraction(1, 16)
    assert capacity(PolarizedMetricGraph.build([("v", 2)], [])) == 0
    m1, m2 = Fraction(2), Fraction(7, 3)
    assert capacity(two_loops(m1, m2)) == (m1 + m2) / 16


def test_green_examples():
    assert green(loop(), at_vertex("v"), at_vertex("v")) == Fraction(1, 48)
    assert green(segment(), at_vertex("a"), at_vertex("b")) == Fraction(-1, 4)


def test_green_contract_random():
    rng = random.Random(59)
    for _ in range(10):
        g = random_connected_graph(rng, genus_min=1, genus_max=4)
        x = random_point(g, rng)
        y = random_point(g, rng)
        gxy = green(g, x, y)
        assert gxy == green(g, y, x)
        # diagonal identity
        assert green(g, x, x) == potential(g, x) - capacity(g)
        # g(x,x) - g(x,y) = (f(x) - f(y) + r(x,y))/2 >= 0 by the resistance
        # triangle inequality integrated against the probability measure
        assert green(g, x, x) - gxy >= 0
        assert green_measure_integral(g, x) == 0


def test_green_same_edge_pair():
    g = sunset()
    x = EdgePoint("e1", Fraction(1, 5))
    y = EdgePoint("e1", Fraction(4, 5))
    assert green(g, x, y) == green(g, y, x)
    assert green_measure_integral(g, x) == 0


def test_measure_density_invariant_under_split():
    g = sunset()
    refined, _ = insert_point(g, EdgePoint("e2", Fraction(1, 3)))
    mu = admissible_measure(refined)
    # both halves of the split edge inherit the original density 1/3
    split = [d for eid, d in mu.densities() if eid.startswith("e2:")]
    assert split == [Fraction(1, 3), Fraction(1, 3)]
    assert mu.atom("e2@1/3") == 0


def test_green_via_resistance_representation():
    rng = random.Random(61)
    for _ in range(6):
        g = random_connected_graph(rng, genus_min=1, genus_max=3)
        x = random_point(g, rng)
        y = random_point(g, rng)
        expected = (potential(g, x) + potential(g, y) - resistance(g, x, y)) / 2 - capacity(g)
        assert green(g, x, y) == expected


def test_refined_graph_inherits_exactly():
    # the potential at interior points of a graph (its point rows and
    # shifted weights) against the definitional sum over atoms and anchored
    # quadratics on the graph refined at those points, which solves its own
    # table; and on that graph, every vertex potential (one weighted row
    # sum) and the closed-form edge integral against the same quadratics
    seen = set()
    for g, kind, refined, points, vids in refined_cases(random.Random(2014), 30):
        seen.add(kind)
        if len(g.vertices) == 1:
            seen.add("one vertex")
        mu = admissible_measure(refined)

        def definitional(v):
            return sum(
                (mass * resistance_between_vertices(refined, u, v) for u, mass in mu.atoms()), Fraction(0)
            ) + sum(
                (d * edge_terminal_quadratic(refined, eid, v).integral(refined.edge(eid).length)
                 for eid, d in mu.densities()),
                Fraction(0),
            )

        for x, xv in zip(points, vids):
            assert potential(g, x) == definitional(xv), x
        for v in refined.vertex_ids():
            assert _potential_at_vertex(refined, v) == definitional(v), v
            for e in refined.edges:
                assert edge_terminal_integral(refined, e.id, v) == edge_terminal_quadratic(
                    refined, e.id, v
                ).integral(e.length), (e.id, v)
    assert seen >= REFINED_KINDS


def test_profile_matches_definitional_sum():
    # the anchored profile (endpoint potentials and leading coefficient
    # d(e) - 1/(m(e) + r(e))) against the definitional sum of V + E weighted
    # resistance restrictions, on random base graphs and their refinements
    rng = random.Random(2016)
    graphs = [random_connected_graph(rng, genus_min=1, genus_max=5, max_vertices=6) for _ in range(30)]
    seen = {"one vertex" for g in graphs if len(g.vertices) == 1}
    for g, kind, refined, _, _ in refined_cases(random.Random(2014), 30):
        seen.add(kind)
        graphs += [g, refined]
    for g in dict.fromkeys(graphs):
        for e in g.edges:
            profile = potential_profile(g, e.id)
            assert (profile.c, profile.b, profile.a) == definitional_profile(g, e.id), e.id
    assert seen >= REFINED_KINDS
