"""The integer resistance table and potential weights against the Fraction reference.

The engine keeps the vertex table as integers over one denominator d and
the potential weights as integers over their own common denominator; a
point's resistances are weighted sums of table entries.  Every value read
from them must equal the Fraction route in `helpers`, which inverts the
grounded Laplacian in Fractions and sums rows term by term.
"""

import random
from fractions import Fraction
from math import gcd

from tropinv import EdgePoint, VertexPoint, potential, resistance
from tropinv.circuit import _vertex_table, resistance_between_vertices
from tropinv.potentials import _potential_at_vertex

from helpers import (
    is_bridge,
    random_connected_graph,
    reference_point_row,
    reference_potential,
    reference_potential_weights,
    reference_vertex_table,
)

_PRIMES = (101, 103, 107, 109, 113, 127)


def _offsets(rng, e, d):
    """Two offsets on e: t = a/b with b in 2..13, and with b a prime coprime to d."""
    b = rng.randint(2, 13)
    prime = next(p for p in _PRIMES if d % p)
    for den in (b, prime):
        yield e.length * Fraction(rng.randint(1, den - 1), den)


def _assert_row(g, x, ref_index, ref_row):
    for v in g.vertex_ids():
        assert resistance(g, x, VertexPoint(v)) == ref_row[ref_index[v]], (x, v)


def test_integer_rows_match_fraction_reference():
    rng = random.Random(1010)
    seen = set()
    for _ in range(40):
        g = random_connected_graph(rng, genus_min=1, genus_max=5, max_vertices=6)
        index, table, d = _vertex_table(g)
        ref_index, ref_table = reference_vertex_table(g)
        assert index == ref_index
        assert type(d) is int and d > 0
        assert all(type(r) is int for row in table for r in row)
        vids = g.vertex_ids()
        for u in vids:
            for v in vids:
                assert resistance_between_vertices(g, u, v) == ref_table[index[u]][index[v]], (u, v)
        weights, _ = reference_potential_weights(g)
        for v in vids:
            _assert_row(g, VertexPoint(v), *reference_point_row(g, VertexPoint(v)))
            assert _potential_at_vertex(g, v) == reference_potential(g, VertexPoint(v)), v
        for e in g.edges:
            for s in _offsets(rng, e, d):
                x = EdgePoint(e.id, s)
                _assert_row(g, x, *reference_point_row(g, x))
                assert potential(g, x) == reference_potential(g, x), x
                if gcd((s / e.length).denominator, d) == 1:
                    seen.add("offset coprime to d")
            if e.is_loop:
                seen.add("loop")
            elif is_bridge(g, e.id):
                seen.add("bridge")
        if len(vids) == 1:
            seen.add("one vertex")
        # a weight-0 vertex before the last one shifts every later weight
        # if the weights are not aligned with the table index
        if any(weights[v] == 0 for v in vids[:-1]):
            seen.add("weight 0")
    assert seen == {"one vertex", "loop", "bridge", "weight 0", "offset coprime to d"}
