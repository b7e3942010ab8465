"""Exact electrical-network computations.

The graph is an electric circuit whose edge resistances are the edge lengths.
Everything is exact: resistances between vertices come from one
fraction-free solve of the grounded weighted Laplacian per graph, and the
restriction of a resistance function to an edge is an exact quadratic in the
arclength parameter.

The vertex table is integers over one denominator, d, the solve's last
pivot (`_vertex_table`).  A Fraction is first made where one value leaves
it: `resistance_between_vertices` and `_across` for a resistance, and
`potentials` for a weighted row sum.

An interior point needs no solve of its own.  Inserting a point x at offset
s on an edge e = (p, q) of length L as a valence-2 vertex, and eliminating
it again (a Kron reduction), gives back the same network, so with t = s/L
the resistance from x to any point v outside e's interior is

    r(x, v) = (1 - t) r(p, v) + t r(q, v) + t (1 - t) (L - r(p, q)),

which for a loop (p = q) reads r(p, v) + s (L - s) / L.  So x is its
edge's two ends weighted (1 - t, t) plus a bulge (`_ends`), and the same
formula applied at a second point y gives r(x, y) as a weighted sum of at
most four table entries plus both bulges (`_across`), unless both points
lie inside one edge, where the closed form `same_edge_resistance` holds.
So a point-level value costs O(1) once the vertex table is known, and no
refined graph is built.

One edge constant carries everything else an edge needs:

    kappa(e) = (m(e) - r(p, q)) / m(e)^2 = 1 / (m(e) + r(e))

(`edge_density`), with r(p, q) read from the vertex table and r(e) the
resistance between e's ends with its interior removed.  It is the density
of the canonical measure on e, 1/m(e) on a loop and 0 on a bridge, so no
caller searches for bridges or handles an infinite r(e); only
`excised_edge_resistance`, r(e) = 1/kappa(e) - m(e), reports infinity.  The
restriction of a resistance function r(., v) to e is the quadratic anchored
at its endpoint values with leading coefficient -kappa(e)
(`edge_terminal_quadratic`); integrated over e it is the trapezoid value
m(e) (r(p, v) + r(q, v)) / 2 plus kappa(e) m(e)^3 / 6, which does not
depend on v.  `edge_terminal_integral`, `cross_integral_quadratic` and
`same_edge_integral_quadratic` state those integrals but have no caller in
the engine: only tests use them, and they stay here because the benchmark's
span table (`bench/spans.py`) names them.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import OffsetOutOfRange
from .graphs import (
    EdgePoint,
    VertexPoint,
    check_point,
    memoized,
    require_connected,
)
from .rational import format_rational

_ZERO = Fraction(0)


@dataclass(frozen=True)
class ResistanceValue:
    """A non-negative rational resistance, or infinity.

    Infinity occurs exactly when the two terminals lie in different
    components of the network under consideration (excised bridges).
    """

    value: object  # Fraction or None

    @classmethod
    def finite(cls, value):
        return cls(Fraction(value))

    @classmethod
    def infinite(cls):
        return cls(None)

    @property
    def is_infinite(self):
        return self.value is None

    def __str__(self):
        return "inf" if self.value is None else format_rational(self.value)


@dataclass(frozen=True)
class QuadraticProfile:
    """s in [0, m(e)] maps to a*s^2 + b*s + c, all coefficients exact."""

    edge: str
    a: Fraction
    b: Fraction
    c: Fraction

    def evaluate(self, s):
        s = Fraction(s)
        return (self.a * s + self.b) * s + self.c

    def integral(self, upper):
        """Integral over [0, upper]."""
        u = Fraction(upper)
        return self.a * u**3 / 3 + self.b * u**2 / 2 + self.c * u


# ---------------------------------------------------------------------------
# vertex resistance table
# ---------------------------------------------------------------------------

@memoized
def _vertex_table(g):
    """(index, table, d): all pairwise effective resistances between vertices.

    Grounds the first vertex and inverts the reduced weighted Laplacian by
    fraction-free elimination, which gives the inverse as integers Y over
    one d > 0 (`linalg.invert`).  Then r(u, v) = table[u][v] / d with the
    integer table[u][v] = Y[u][u] + Y[v][v] - 2 Y[u][v], the ground row and
    column of Y read as zero.  A one-vertex graph has the table ((0,),)
    over d = 1.
    """
    require_connected(g)
    vids = g.vertex_ids()
    index = {vid: i for i, vid in enumerate(vids)}
    n = len(vids)
    if n == 1:
        return index, ((0,),), 1
    lap = [[Fraction(0)] * n for _ in range(n)]
    for e in g.edges:
        if e.is_loop:
            continue  # a loop never carries current between distinct vertices
        i, j = index[e.ends[0]], index[e.ends[1]]
        c = 1 / e.length
        lap[i][i] += c
        lap[j][j] += c
        lap[i][j] -= c
        lap[j][i] -= c
    reduced = [row[1:] for row in lap[1:]]
    d, y_small = linalg.invert(reduced)
    y = [[0] * n] + [[0] + row for row in y_small]
    table = tuple(tuple(y[i][i] + y[j][j] - 2 * y[i][j] for j in range(n)) for i in range(n))
    return index, table, d


def _ends(g, x):
    """(ends, b, bulge): a checked point x as its edge's ends with integer
    weights over b, plus a bulge.

    A vertex v is ((v, 1),) over 1 with bulge 0.  The point at offset s on
    e = (p, q), with s/m(e) = a/b in lowest terms, is ((p, b - a), (q, a))
    over b with the bulge kappa(e) s (m(e) - s) of the row formula.
    """
    if isinstance(x, VertexPoint):
        return ((x.vertex, 1),), 1, _ZERO
    e = g.edge(x.edge)
    t = x.offset / e.length
    a, b = t.numerator, t.denominator
    bulge = edge_density(g, x.edge) * x.offset * (e.length - x.offset)
    return ((e.ends[0], b - a), (e.ends[1], a)), b, bulge


def _across(g, x_ends, y_ends):
    """r(x, y) from the ends (`_ends`) of two points that do not both lie inside one edge.

    The row formula applied at both points: the weighted sum of at most
    four table entries over b_x b_y d, plus both bulges.  An end of an edge
    counts as outside it, where this is u - u^2 kappa(e).
    """
    index, table, d = _vertex_table(g)
    (xs, b_x, bulge_x), (ys, b_y, bulge_y) = x_ends, y_ends
    num = sum(w_u * w_v * table[index[u]][index[v]] for u, w_u in xs for v, w_v in ys)
    return Fraction(num, b_x * b_y * d) + bulge_x + bulge_y


def resistance_between_vertices(g, u, v):
    index, table, d = _vertex_table(g)
    g.vertex(u)
    g.vertex(v)
    return Fraction(table[index[u]][index[v]], d)


def resistance(g, x, y):
    """Effective resistance between two points of the metric space.

    Two points inside one edge use `same_edge_resistance`; any other pair
    is `_across` of their ends.  Symmetric, and zero exactly when x = y.
    """
    require_connected(g)
    x = check_point(g, x)
    y = check_point(g, y)
    if x == y:
        return _ZERO
    if isinstance(x, EdgePoint) and isinstance(y, EdgePoint) and x.edge == y.edge:
        return same_edge_resistance(g, x.edge, x.offset, y.offset)
    return _across(g, _ends(g, x), _ends(g, y))


# ---------------------------------------------------------------------------
# the edge constant kappa(e) and the excised-edge resistance r(e)
# ---------------------------------------------------------------------------

@memoized
def edge_density(g, eid):
    """kappa(e) = (m(e) - r(p, q)) / m(e)^2, with r(p, q) read from the vertex table.

    This is the canonical measure's density 1/(m(e) + r(e)) on every kind of
    edge at once: a loop has r(p, q) = 0, so kappa = 1/m(e); a bridge carries
    all current between its ends, so r(p, q) = m(e) and kappa = 0; any other
    edge is in parallel with the excised network, so
    m(e) - r(p, q) = m(e)^2 / (m(e) + r(e)).
    """
    e = g.edge(eid)
    r_pq = resistance_between_vertices(g, e.ends[0], e.ends[1])
    return (e.length - r_pq) / e.length**2


def excised_edge_resistance(g, eid):
    """Resistance between e's endpoints in the graph with e's interior removed.

    r(e) = 1/kappa(e) - m(e), which gives 0 on a loop; kappa(e) = 0 exactly
    on a bridge, whose excised network leaves the ends disconnected, so r(e)
    is infinite.
    """
    kappa = edge_density(g, eid)
    if kappa == 0:
        return ResistanceValue.infinite()
    return ResistanceValue.finite(1 / kappa - g.edge(eid).length)


def foster_sum(g):
    """Sum of m(e) kappa(e) = m(e)/(m(e)+r(e)) over edges; bridges contribute 0.

    Equals the first Betti number b1 on every connected graph, which is the
    identity certifying that the canonical measure has total mass one.
    """
    require_connected(g)
    return sum((e.length * edge_density(g, e.id) for e in g.edges), _ZERO)


# ---------------------------------------------------------------------------
# restrictions of resistance functions to edges
# ---------------------------------------------------------------------------

def same_edge_resistance(g, eid, s, t):
    """Resistance between two points of the same edge, in closed form.

    With u = |s-t|, L = m(e) and r = r(e): the direct arc u is in parallel
    with the complementary route L - u + r, giving u (L-u+r)/(L+r), which is
    u - u^2 kappa(e); on a bridge kappa(e) = 0 and the value is u.
    """
    e = g.edge(eid)
    s = Fraction(s)
    t = Fraction(t)
    for value in (s, t):
        if not (0 <= value <= e.length):
            raise OffsetOutOfRange(
                f"offset {format_rational(value)} outside [0, {format_rational(e.length)}] on edge {eid!r}"
            )
    u = abs(s - t)
    return u - u * u * edge_density(g, eid)


# ---------------------------------------------------------------------------
# closed-form quadratics (anchored, leading coefficient -kappa(e)).  The
# three integrals below have no engine caller: they are the reference route
# that tests sum into potential profiles, kept here because `bench/spans.py`
# names them
# ---------------------------------------------------------------------------

@memoized
def edge_terminal_quadratic(g, eid, vid):
    """s -> resistance(point at offset s on e, vertex v), closed form.

    Anchored at the endpoint resistances with the leading coefficient
    -kappa(e), which every resistance restriction to e shares.
    """
    e = g.edge(eid)
    a = -edge_density(g, eid)
    c = resistance_between_vertices(g, e.ends[0], vid)
    at_end = resistance_between_vertices(g, e.ends[1], vid)
    b = (at_end - c - a * e.length**2) / e.length
    return QuadraticProfile(eid, a, b, c)


@memoized
def edge_terminal_integral(g, eid, vid):
    """Integral over e = (p, q) of resistance(., vertex v).

    The anchored quadratic integrates to a L^3/3 + b L^2/2 + c L with
    b = (r(q, v) - c - a L^2)/L and a = -kappa(e), which is the trapezoid
    value L (r(p, v) + r(q, v))/2 plus kappa(e) L^3/6, an offset that does
    not depend on v.  For a loop this is L r(p, v) + L^2/6.
    """
    e = g.edge(eid)
    p = resistance_between_vertices(g, e.ends[0], vid)
    q = resistance_between_vertices(g, e.ends[1], vid)
    return e.length * (p + q) / 2 + edge_density(g, eid) * e.length**3 / 6


@memoized
def cross_integral_quadratic(g, eid, other_eid):
    """s on e -> integral over e' of resistance(point at s on e, .).

    Quadratic in s: anchored at the endpoint integrals, with leading
    coefficient -kappa(e) m(e') from integrating the pointwise one over e'.
    """
    e = g.edge(eid)
    other = g.edge(other_eid)
    a = -edge_density(g, eid) * other.length
    c = edge_terminal_integral(g, other_eid, e.ends[0])
    at_end = edge_terminal_integral(g, other_eid, e.ends[1])
    b = (at_end - c - a * e.length**2) / e.length
    return QuadraticProfile(eid, a, b, c)


@memoized
def same_edge_integral_quadratic(g, eid):
    """s on e -> integral over e of resistance(point at s, .) along e itself.

    Integrating u - u^2 kappa over u in [0, s] and [0, L - s] gives
    (1 - L kappa) s^2 - L (1 - L kappa) s + L^2/2 - L^3 kappa/3; on a bridge
    that is s^2 - L s + L^2/2.
    """
    length = g.edge(eid).length
    kappa = edge_density(g, eid)
    lead = 1 - length * kappa
    return QuadraticProfile(eid, lead, -length * lead, length**2 / 2 - length**3 * kappa / 3)
