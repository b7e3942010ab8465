"""Shared test utilities: random graph generators and independent oracles.

The float oracles here deliberately avoid the library's exact machinery:
resistance comes from a numpy pseudoinverse of the weighted Laplacian, so any
systematic error in the exact path would show up as a disagreement.
"""

from fractions import Fraction

import numpy as np

from tropinv import EdgePoint, PolarizedMetricGraph, VertexPoint, genus, is_stable, linalg


def random_rational(rng, max_num=12, max_den=12):
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def random_connected_graph(rng, genus_min=1, genus_max=5, max_vertices=5, stable=False):
    """Random connected polarized multigraph with genus in the given range.

    Rejection sampling; deterministic for a given rng state.  With
    stable=True every q=0 vertex gets at least three half-edges.
    """
    while True:
        n = rng.randint(1, max_vertices)
        vids = [f"v{i}" for i in range(n)]
        edges = []
        for i in range(1, n):
            j = rng.randrange(i)
            edges.append((f"t{i}", (vids[i], vids[j]), random_rational(rng)))
        b1_target = rng.randint(0, 3)
        for k in range(b1_target):
            a = rng.choice(vids)
            b = rng.choice(vids)
            edges.append((f"x{k}", (a, b), random_rational(rng)))
        b1 = len(edges) - n + 1
        q_total_max = genus_max - b1
        if q_total_max < 0:
            continue
        qs = [0] * n
        for _ in range(rng.randint(0, q_total_max)):
            qs[rng.randrange(n)] += 1
        g = PolarizedMetricGraph.build(list(zip(vids, qs)), edges)
        if stable and not is_stable(g):
            # bump offending vertices to q = 1 and re-check the genus window
            qs = [
                q if q > 0 or g.valence(v) >= 3 else 1
                for v, q in zip(vids, qs)
            ]
            g = PolarizedMetricGraph.build(list(zip(vids, qs)), edges)
            if not is_stable(g):
                continue
        _, h = genus(g)
        if genus_min <= h <= genus_max:
            return g


def _reachable(g, start, without):
    """The vertices reachable from start in g with the edge `without` removed."""
    rest = [x.ends for x in g.edges if x.id != without]
    reachable = {start}
    changed = True
    while changed:
        changed = False
        for a, b in rest:
            if (a in reachable) != (b in reachable):
                reachable |= {a, b}
                changed = True
    return reachable


def is_bridge(g, eid):
    """Reference bridge test: a graph search in g without e; a loop is never a bridge."""
    e = g.edge(eid)
    return not e.is_loop and e.ends[1] not in _reachable(g, e.ends[0], eid)


def excised_by_removal(g, eid):
    """r(e) by definition: drop e and solve its ends' component; None on a bridge."""
    from tropinv.circuit import resistance_between_vertices

    e = g.edge(eid)
    if e.is_loop:
        return Fraction(0)
    reachable = _reachable(g, e.ends[0], eid)
    if e.ends[1] not in reachable:
        return None
    sub = PolarizedMetricGraph.build(
        [(v.id, v.q) for v in g.vertices if v.id in reachable],
        [(x.id, x.ends, x.length) for x in g.edges if x.id != eid and x.ends[0] in reachable],
    )
    return resistance_between_vertices(sub, e.ends[0], e.ends[1])


def quad_through(samples):
    """(a, b, c) of the exact quadratic a s^2 + b s + c through three (s, value) pairs."""
    (s1, _), (s2, _), (s3, _) = samples
    a = b = c = Fraction(0)
    for (si, vi), sj, sk in ((samples[0], s2, s3), (samples[1], s1, s3), (samples[2], s1, s2)):
        w = vi / ((si - sj) * (si - sk))
        a += w
        b -= w * (sj + sk)
        c += w * sj * sk
    return a, b, c


def certified_profile(g, x, eid, resistance_fn):
    """(a, b, c) of s -> resistance_fn(g, x, point at s on e), from the samples at m(e)/4, m(e)/2, 3m(e)/4.

    Certified against the endpoint values and a fourth sample at m(e)/5.
    """
    e = g.edge(eid)
    samples = [e.length * k / 4 for k in (1, 2, 3)]
    a, b, c = quad_through([(s, resistance_fn(g, x, EdgePoint(eid, s))) for s in samples])
    for s, y in (
        (Fraction(0), VertexPoint(e.ends[0])),
        (e.length, VertexPoint(e.ends[1])),
        (e.length / 5, EdgePoint(eid, e.length / 5)),
    ):
        assert (a * s + b) * s + c == resistance_fn(g, x, y)
    return a, b, c


def refined_cases(rng, count):
    """Seeded refinements of `count` random graphs, as (base, kind, refined, points, vids).

    `refined` is the base graph refined at the interior points `points` of
    the base graph, which became its vertices `vids`.  For each graph with
    an edge, in order: every edge split once at a random ninth (kind "loop",
    "bridge", "parallel" or "cycle", from the edge in the base graph); two
    points on one edge, the graph refined at the first point only first
    (kind "two points on one edge"); a chain of 1-4 splits, each link split
    from the one before (kind "chain of k").
    """
    from tropinv import EdgePoint, insert_point, with_points
    from tropinv.graphs import _split_edge

    def split_kind(g, e):
        if e.is_loop:
            return "loop"
        if is_bridge(g, e.id):
            return "bridge"
        if any(o.id != e.id and set(o.ends) == set(e.ends) for o in g.edges):
            return "parallel"
        return "cycle"

    for _ in range(count):
        g = random_connected_graph(rng, genus_min=1, genus_max=5, max_vertices=6)
        if not g.edges:
            continue
        for e in g.edges:
            x = EdgePoint(e.id, e.length * Fraction(rng.randint(1, 8), 9))
            refined, vid = insert_point(g, x)
            yield g, split_kind(g, e), refined, (x,), (vid,)
        e = rng.choice(g.edges)
        points = (EdgePoint(e.id, e.length / 4), EdgePoint(e.id, e.length * Fraction(2, 3)))
        refined, vid = insert_point(g, points[0])
        yield g, "two points on one edge", refined, points[:1], (vid,)
        refined, vids = with_points(g, points)
        yield g, "two points on one edge", refined, points, vids
        depth = rng.randint(1, 4)
        refined, points, vids = g, (), ()
        # edge id of the current link -> (edge of the base graph, offset of its start)
        base_of = {e.id: (e.id, Fraction(0)) for e in g.edges}
        for _ in range(depth):
            e = rng.choice(refined.edges)
            den = rng.randint(2, 13)
            offset = e.length * Fraction(rng.randint(1, den - 1), den)
            refined, vid, left, right = _split_edge(refined, e.id, offset)
            base_edge, start = base_of.pop(e.id)
            base_of[left], base_of[right] = (base_edge, start), (base_edge, start + offset)
            points += (EdgePoint(base_edge, start + offset),)
            vids += (vid,)
            yield g, f"chain of {depth}", refined, points, vids


REFINED_KINDS = {"loop", "bridge", "parallel", "one vertex", "two points on one edge"} | {
    f"chain of {d}" for d in (1, 2, 3, 4)
}


def definitional_profile(g, eid):
    """The potential on edge eid as the definitional sum of resistance restrictions.

    Each atom contributes its mass times `edge_terminal_quadratic`, each other
    edge its density times `cross_integral_quadratic`, and eid itself its
    density times `same_edge_integral_quadratic`; the coefficients are added
    up term by term.  Returns the coefficients (c, b, a) of c + b s + a s^2.
    """
    from tropinv import admissible_measure, circuit

    mu = admissible_measure(g)
    weighted = [(mass, circuit.edge_terminal_quadratic(g, eid, vid)) for vid, mass in mu.atoms()]
    for other, density in mu.densities():
        if other == eid:
            weighted.append((density, circuit.same_edge_integral_quadratic(g, eid)))
        else:
            weighted.append((density, circuit.cross_integral_quadratic(g, eid, other)))
    c0 = c1 = c2 = Fraction(0)
    for weight, quad in weighted:
        c0 += weight * quad.c
        c1 += weight * quad.b
        c2 += weight * quad.a
    return (c0, c1, c2)


def reference_solve_columns(a_rows, b_columns):
    """Reference exact solve: plain Gauss-Jordan over Fractions on [A | B], largest pivot first.

    Shares no step with the engine's integer elimination; raises
    `linalg.SingularMatrix` when A is singular.
    """
    n = len(a_rows)
    m = [[Fraction(x) for x in a_rows[i]] + [Fraction(col[i]) for col in b_columns] for i in range(n)]
    for c in range(n):
        pivot_row = max(range(c, n), key=lambda i: abs(m[i][c]))
        if m[pivot_row][c] == 0:
            raise linalg.SingularMatrix(f"no pivot in column {c}")
        m[c], m[pivot_row] = m[pivot_row], m[c]
        pv = m[c][c]
        m[c] = [x / pv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [[m[i][n + c] for i in range(n)] for c in range(len(b_columns))]


def reference_vertex_table(g):
    """Reference resistance table, as (index, rows of Fractions).

    The Fraction inverse H of the grounded weighted Laplacian
    (`reference_solve_columns`), then r(u, v) = H[u][u] + H[v][v] - 2 H[u][v]
    with the ground row and column read as zero.
    """
    vids = g.vertex_ids()
    index = {vid: i for i, vid in enumerate(vids)}
    n = len(vids)
    lap = [[Fraction(0)] * n for _ in range(n)]
    for e in g.edges:
        if e.is_loop:
            continue
        i, j = index[e.ends[0]], index[e.ends[1]]
        c = 1 / e.length
        lap[i][i] += c
        lap[j][j] += c
        lap[i][j] -= c
        lap[j][i] -= c
    reduced = [row[1:] for row in lap[1:]]
    identity = [[Fraction(int(i == j)) for i in range(n - 1)] for j in range(n - 1)]
    cols = reference_solve_columns(reduced, identity)
    h = [[Fraction(0)] * n] + [[Fraction(0)] + [cols[j][i] for j in range(n - 1)] for i in range(n - 1)]
    return index, [[h[i][i] + h[j][j] - 2 * h[i][j] for j in range(n)] for i in range(n)]


def reference_point_row(g, x):
    """Reference point row in Fractions: a vertex's table row, or, at offset s
    on e = (p, q) with t = s/m(e), (1 - t) r(p, .) + t r(q, .) + t (1 - t) (m(e) - r(p, q))."""
    index, table = reference_vertex_table(g)
    if isinstance(x, VertexPoint):
        return index, table[index[x.vertex]]
    e = g.edge(x.edge)
    row_p, row_q = (table[index[end]] for end in e.ends)
    t = x.offset / e.length
    bulge = t * (1 - t) * (e.length - row_p[index[e.ends[1]]])
    return index, [(1 - t) * a + t * b + bulge for a, b in zip(row_p, row_q)]


def _reference_kappa(g, eid):
    """kappa(e) = (m(e) - r(p, q))/m(e)^2, r(p, q) read from the reference table."""
    index, table = reference_vertex_table(g)
    e = g.edge(eid)
    return (e.length - table[index[e.ends[0]]][index[e.ends[1]]]) / e.length**2


def reference_potential_weights(g):
    """({vertex: w(v)}, C) with f(v) = sum of w(u) r(u, v) + C, from the reference table.

    The admissible measure in its simplified form, atoms q(v)/h and
    densities kappa(e)/h with kappa(e) = (m(e) - r(p, q))/m(e)^2; w(u) is
    the atom at u plus half the mass of each edge end at u, and C the sum
    of density * kappa(e) m(e)^3/6.  Every vertex has a weight, 0 included.
    """
    _, h = genus(g)
    weights = {v.id: Fraction(v.q, h) for v in g.vertices}
    offset = Fraction(0)
    for e in g.edges:
        kappa = _reference_kappa(g, e.id)
        half = kappa * e.length / (2 * h)
        for end in e.ends:
            weights[end] += half
        offset += kappa**2 * e.length**3 / (6 * h)
    return weights, offset


def reference_potential(g, x):
    """Reference f(x): the Fraction weighted row sum over x's reference row.

    At an interior point x at offset s on e = (p, q), L = m(e), density d,
    the weights and the constant are those of the graph refined at x: x
    takes d L/2, p gives up d (L - s)/2, q gives up d s/2, and C falls by
    d kappa(e) L s (L - s)/2.
    """
    weights, offset = reference_potential_weights(g)
    index, row = reference_point_row(g, x)
    value = sum((w * row[index[u]] for u, w in weights.items()), offset)
    if isinstance(x, VertexPoint):
        return value
    e = g.edge(x.edge)
    length, s = e.length, x.offset
    kappa = _reference_kappa(g, x.edge)
    density = kappa / genus(g)[1]
    r_p, r_q = (row[index[end]] for end in e.ends)
    shift = -kappa * length * s * (length - s) - (length - s) * r_p - s * r_q
    return value + density * shift / 2


def reference_diagonal_quadrature(g, order, nu):
    """The midpoint rule for the integral of g(x, x) against nu, one `green` call per sample.

    The oracle's route before it evaluated an edge's midpoints together:
    exact Green values at the atoms, and on each edge with density m(e)/M
    times the sum of `green(g, x, x)` over the M points of `_midpoints`,
    each a Fraction, with the capacity subtracted at every point.
    """
    from tropinv import potentials
    from tropinv.oracle import _midpoints

    def diagonal(point):
        return potentials.green(g, point, point)

    def over_edge(eid):
        length = g.edge(eid).length
        values = (diagonal(EdgePoint(eid, s)) for s in _midpoints(length, order))
        return length / order * sum(values, Fraction(0))

    return nu.integrate(lambda vid: diagonal(VertexPoint(vid)), over_edge)


def reference_nullspace(rows):
    """Reference kernel basis: plain Gauss-Jordan over Fractions, largest pivot first."""
    if not rows:
        return []
    ncols = len(rows[0])
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    pivot_cols = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pivot_row = max(range(r, nrows), key=lambda i: abs(m[i][c]))
        if m[pivot_row][c] == 0:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivot_cols.append(c)
        r += 1
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivot_cols):
            v[pc] = -m[i][fc]
        basis.append(v)
    return basis


def count_solves(monkeypatch):
    """Record the matrix size of every exact solve from now on; returns the list."""
    sizes = []
    solve = linalg.solve_columns

    def counted(a_rows, b_columns):
        sizes.append(len(a_rows))
        return solve(a_rows, b_columns)

    monkeypatch.setattr(linalg, "solve_columns", counted)
    return sizes


def random_point(g, rng):
    """Random vertex or interior point of the graph."""
    from tropinv import EdgePoint, VertexPoint

    if g.edges and rng.random() < 0.6:
        e = g.edges[rng.randrange(len(g.edges))]
        den = rng.randint(2, 13)
        num = rng.randint(1, den - 1)
        return EdgePoint(e.id, e.length * Fraction(num, den))
    vids = g.vertex_ids()
    return VertexPoint(vids[rng.randrange(len(vids))])


def float_resistance(g, x, y):
    """Independent resistance oracle via numpy pseudoinverse of the Laplacian."""
    from tropinv import with_points

    refined, (xi, yi) = with_points(g, [x, y])
    vids = refined.vertex_ids()
    index = {v: i for i, v in enumerate(vids)}
    n = len(vids)
    lap = np.zeros((n, n))
    for e in refined.edges:
        if e.is_loop:
            continue
        i, j = index[e.ends[0]], index[e.ends[1]]
        c = 1.0 / float(e.length)
        lap[i, i] += c
        lap[j, j] += c
        lap[i, j] -= c
        lap[j, i] -= c
    pinv = np.linalg.pinv(lap)
    d = np.zeros(n)
    d[index[xi]] += 1.0
    d[index[yi]] -= 1.0
    return float(d @ pinv @ d)
