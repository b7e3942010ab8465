"""A second, deliberately slow engine built only from certified pieces.

Everything here goes through its own certified interpolation (3 samples,
checked at both endpoints and at a witness point) of two-point resistances,
each read from a Laplacian solve of the graph refined at its two points;
none of the endpoint-anchored curvature quadratics the production path uses,
and none of the point rows it interpolates from the vertex table.
Exact agreement of epsilon and phi between the two engines certifies the
fast path.
"""

import random
from fractions import Fraction

from tropinv import (
    EdgePoint,
    VertexPoint,
    admissible_measure,
    epsilon,
    genus,
    phi,
    polarized_divisor,
    same_edge_resistance,
    total_length,
    with_points,
)
from tropinv.circuit import excised_edge_resistance, resistance_between_vertices

from helpers import random_connected_graph


def _fresh_resistance(g, x, y):
    """r(x, y) from the Laplacian solve of the graph refined at x and y."""
    refined, (xi, yi) = with_points(g, [x, y])
    return resistance_between_vertices(refined, xi, yi)


def _certified_profile(g, x, eid):
    """s -> r(x, point at s on e) through samples at m(e)/4, m(e)/2, 3m(e)/4.

    Certified against the endpoint values and a fourth sample at m(e)/5.
    """
    e = g.edge(eid)
    samples = [e.length * k / 4 for k in (1, 2, 3)]
    a, b, c = _quad_through([(s, _fresh_resistance(g, x, EdgePoint(eid, s))) for s in samples])
    for s, y in (
        (Fraction(0), VertexPoint(e.ends[0])),
        (e.length, VertexPoint(e.ends[1])),
        (e.length / 5, EdgePoint(eid, e.length / 5)),
    ):
        assert (a * s + b) * s + c == _fresh_resistance(g, x, y)
    return a, b, c


def _slow_potential(g, mu, x):
    """f(x) from generic resistances and certified cross-edge profiles."""
    total = Fraction(0)
    for vid, mass in mu.atoms():
        total += mass * _fresh_resistance(g, x, VertexPoint(vid))
    for eid, density in mu.densities():
        e = g.edge(eid)
        if isinstance(x, EdgePoint) and x.edge == eid:
            # closed-form in-edge integral of u(L-u+r)/(L+r) around the offset
            length, r = e.length, excised_edge_resistance(g, eid).value
            s = x.offset
            a_part = (s**2 + (length - s) ** 2) / 2
            b_part = (s**3 + (length - s) ** 3) / 3
            total += density * ((length + r) * a_part - b_part) / (length + r)
        else:
            a, b, c = _certified_profile(g, x, eid)
            total += density * (a * e.length**3 / 3 + b * e.length**2 / 2 + c * e.length)
    return total


def _quad_through(points):
    (s1, v1), (s2, v2), (s3, v3) = points
    a = b = c = Fraction(0)
    for (si, vi), sj, sk in ((points[0], s2, s3), (points[1], s1, s3), (points[2], s1, s2)):
        w = vi / ((si - sj) * (si - sk))
        a += w
        b -= w * (sj + sk)
        c += w * sj * sk
    return a, b, c


def _slow_invariants(g):
    _, h = genus(g)
    mu = admissible_measure(g)
    k_q = polarized_divisor(g)
    delta = total_length(g)

    f_at = {vid: _slow_potential(g, mu, VertexPoint(vid)) for vid in g.vertex_ids()}

    profiles = {}
    for e in g.edges:
        samples = []
        for k in (1, 2, 3):
            s = e.length * k / 4
            samples.append((s, _slow_potential(g, mu, EdgePoint(e.id, s))))
        a, b, c = _quad_through(samples)
        assert a * 0 + b * 0 + c == f_at[e.ends[0]]
        length = e.length
        assert a * length**2 + b * length + c == f_at[e.ends[1]]
        profiles[e.id] = (a, b, c)

    def profile_integral(eid):
        a, b, c = profiles[eid]
        length = g.edge(eid).length
        return a * length**3 / 3 + b * length**2 / 2 + c * length

    cap = Fraction(0)
    for vid, mass in mu.atoms():
        cap += mass * f_at[vid]
    for eid, density in mu.densities():
        cap += density * profile_integral(eid)
    cap /= 2

    def weighted_diagonal(atom_factor, kq_sign, dens_factor):
        total = Fraction(0)
        for v in g.vertices:
            w = atom_factor * mu.atom(v.id) + kq_sign * k_q[v.id]
            total += w * (f_at[v.id] - cap)
        for eid, density in mu.densities():
            length = g.edge(eid).length
            total += dens_factor * density * (profile_integral(eid) - cap * length)
        return total

    eps = weighted_diagonal(2 * h - 2, 1, 2 * h - 2)
    ph = -delta / 4 + weighted_diagonal(10 * h + 2, -1, 10 * h + 2) / 4
    return eps, ph


def test_slow_engine_agrees():
    rng = random.Random(123)
    done = 0
    while done < 6:
        g = random_connected_graph(rng, genus_min=1, genus_max=3, max_vertices=4)
        if len(g.edges) > 5:
            continue
        eps, ph = _slow_invariants(g)
        assert eps == epsilon(g)
        assert ph == phi(g)
        done += 1


def test_slow_potential_same_edge_consistency():
    # the in-edge closed form above matches pointwise resistances
    rng = random.Random(7)
    g = random_connected_graph(rng, genus_min=1, genus_max=3)
    e = g.edges[0]
    s = e.length / 3
    t = e.length * Fraction(4, 5)
    assert same_edge_resistance(g, e.id, s, t) == _fresh_resistance(
        g, EdgePoint(e.id, s), EdgePoint(e.id, t)
    )
