"""A second, deliberately slow engine built only from certified pieces.

Everything here goes through its own certified interpolation (3 samples,
checked at both endpoints and at a witness point) of two-point resistances,
each read from a Laplacian solve of the graph refined at its two points;
none of the endpoint-anchored curvature quadratics the production path uses,
none of the point rows it interpolates from the vertex table, and not its
edge constant kappa(e): r(e) comes from a solve of the graph with e
removed, and the admissible measure is built here from it.
Exact agreement of epsilon and phi between the two engines certifies the
fast path, and the tau route (`invariants.tau_epsilon_phi`) that `fit` trains
on.
"""

import random
from fractions import Fraction

from tropinv import (
    EdgePoint,
    VertexPoint,
    epsilon,
    genus,
    phi,
    polarized_divisor,
    same_edge_resistance,
    total_length,
    with_points,
)
from tropinv.circuit import resistance_between_vertices
from tropinv.invariants import tau_epsilon_phi

from helpers import certified_profile, excised_by_removal, quad_through, random_connected_graph


def _fresh_resistance(g, x, y):
    """r(x, y) from the Laplacian solve of the graph refined at x and y."""
    refined, (xi, yi) = with_points(g, [x, y])
    return resistance_between_vertices(refined, xi, yi)


def _slow_measure(g, h):
    """(atoms, densities, r) of the admissible measure, from r(e) by removal.

    Atoms q(v)/h and densities 1/(h (m(e) + r(e))), none on a bridge
    (r(e) is None there); the total mass must be one.
    """
    r = {e.id: excised_by_removal(g, e.id) for e in g.edges}
    atoms = {v.id: Fraction(v.q, h) for v in g.vertices if v.q}
    densities = {e.id: 1 / (h * (e.length + r[e.id])) for e in g.edges if r[e.id] is not None}
    assert sum(atoms.values()) + sum(d * g.edge(eid).length for eid, d in densities.items()) == 1
    return atoms, densities, r


def _slow_potential(g, measure, x):
    """f(x) from generic resistances and certified cross-edge profiles."""
    atoms, densities, excised = measure
    total = Fraction(0)
    for vid, mass in atoms.items():
        total += mass * _fresh_resistance(g, x, VertexPoint(vid))
    for eid, density in densities.items():
        e = g.edge(eid)
        if isinstance(x, EdgePoint) and x.edge == eid:
            # closed-form in-edge integral of u(L-u+r)/(L+r) around the offset
            length, r = e.length, excised[eid]
            s = x.offset
            a_part = (s**2 + (length - s) ** 2) / 2
            b_part = (s**3 + (length - s) ** 3) / 3
            total += density * ((length + r) * a_part - b_part) / (length + r)
        else:
            a, b, c = certified_profile(g, x, eid, _fresh_resistance)
            total += density * (a * e.length**3 / 3 + b * e.length**2 / 2 + c * e.length)
    return total


def _slow_invariants(g):
    _, h = genus(g)
    mu = _slow_measure(g, h)
    atoms, densities, _ = mu
    k_q = polarized_divisor(g)
    delta = total_length(g)

    f_at = {vid: _slow_potential(g, mu, VertexPoint(vid)) for vid in g.vertex_ids()}

    profiles = {}
    for e in g.edges:
        samples = []
        for k in (1, 2, 3):
            s = e.length * k / 4
            samples.append((s, _slow_potential(g, mu, EdgePoint(e.id, s))))
        a, b, c = quad_through(samples)
        assert a * 0 + b * 0 + c == f_at[e.ends[0]]
        length = e.length
        assert a * length**2 + b * length + c == f_at[e.ends[1]]
        profiles[e.id] = (a, b, c)

    def profile_integral(eid):
        a, b, c = profiles[eid]
        length = g.edge(eid).length
        return a * length**3 / 3 + b * length**2 / 2 + c * length

    cap = Fraction(0)
    for vid, mass in atoms.items():
        cap += mass * f_at[vid]
    for eid, density in densities.items():
        cap += density * profile_integral(eid)
    cap /= 2

    def weighted_diagonal(atom_factor, kq_sign, dens_factor):
        total = Fraction(0)
        for v in g.vertices:
            w = atom_factor * atoms.get(v.id, 0) + kq_sign * k_q[v.id]
            total += w * (f_at[v.id] - cap)
        for eid, density in densities.items():
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
        assert (eps, ph) == tau_epsilon_phi(g)
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
