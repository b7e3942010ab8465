"""Seeded input generators for the benchmark, standard library only.

Every generator draws from a `random.Random` it is handed, so one seed fixes
every input of a run.  The engine only ever sees the graphs and points built
here.
"""

from fractions import Fraction

from tropinv import EdgePoint, PolarizedMetricGraph, VertexPoint


def random_length(rng, max_num=12, max_den=12):
    """A positive rational p/q with p in 1..max_num and q in 1..max_den."""
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def random_graph(rng, n_vertices, n_edges):
    """A random connected polarized multigraph with exactly these sizes.

    A random spanning tree makes it connected; the remaining edges join
    uniformly drawn endpoints, so loops and parallel edges occur.  Each
    vertex gets q in {0, 1}.  The genus is at least one when
    n_edges >= n_vertices.
    """
    vids = [f"v{i:02d}" for i in range(n_vertices)]
    order = vids[:]
    rng.shuffle(order)
    ends = [(order[i], order[rng.randrange(i)]) for i in range(1, n_vertices)]
    while len(ends) < n_edges:
        ends.append((rng.choice(vids), rng.choice(vids)))
    rng.shuffle(ends)
    return PolarizedMetricGraph.build(
        [(vid, rng.randint(0, 1)) for vid in vids],
        [(f"e{k:02d}", pair, random_length(rng)) for k, pair in enumerate(ends)],
    )


def random_point(rng, g, interior):
    """An interior point at a random rational fraction of a random edge, or a vertex."""
    if interior:
        e = rng.choice(g.edges)
        den = rng.randint(2, 13)
        return EdgePoint(e.id, e.length * Fraction(rng.randint(1, den - 1), den))
    return VertexPoint(rng.choice(g.vertex_ids()))


def stratified(rng, values):
    """The values in a random order: each block of draws covers them once."""
    block = list(values)
    rng.shuffle(block)
    return block
