"""Exact electrical-network computations.

The graph is an electric circuit whose edge resistances are the edge lengths.
Everything is exact: resistances between vertices come from one
fraction-free solve of the grounded weighted Laplacian per graph, and the
restriction of a resistance function to an edge is an exact quadratic in the
arclength parameter.

An interior point needs no solve of its own.  Inserting a point x at offset
s on an edge e = (p, q) of length L as a valence-2 vertex, and eliminating
it again (a Kron reduction), gives back the same network, so with t = s/L
the resistances from x to the vertices form the row

    r(x, v) = (1 - t) r(p, v) + t r(q, v) + t (1 - t) (L - r(p, q)),

which for a loop (p = q) reads r(p, v) + s (L - s) / L (`_point_row`).  The
same formula on the edge of a second interior point y, applied to x's row,
gives r(x, y); two points of one edge use the closed form
`same_edge_resistance`.  So a point-level value costs O(V) once the vertex
table is known, and no refined graph is built.

Two routes produce those quadratics.  `resistance_profile` interpolates three
interior samples and certifies the result against the endpoints and a fourth
sample.  The internal fast route anchors the quadratic at its endpoint values
and uses the curvature -2/(m(e) + r(e)), where r(e) is the resistance between
the edge's endpoints with its interior removed; both routes agree exactly and
the test suite asserts so.  Integrated over its edge, the anchored quadratic
of a vertex v is the trapezoid value m(e) (r(p, v) + r(q, v)) / 2 plus an
offset m(e)^3 / (6 (m(e) + r(e))) that does not depend on v
(`edge_terminal_integral`).
"""

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import OffsetOutOfRange, ProfileSampleMismatch
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
    """All pairwise effective resistances between vertices.

    Grounds the first vertex and inverts the reduced weighted Laplacian by
    fraction-free elimination; r(u, v) = H[u][u] + H[v][v] - 2 H[u][v] with
    the ground row and column read as zero.
    """
    require_connected(g)
    vids = g.vertex_ids()
    index = {vid: i for i, vid in enumerate(vids)}
    n = len(vids)
    if n == 1:
        return index, ((Fraction(0),),)
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
    h_small = linalg.invert(reduced)
    h = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        for j in range(1, n):
            h[i][j] = h_small[i - 1][j - 1]
    table = tuple(
        tuple(h[i][i] + h[j][j] - 2 * h[i][j] for j in range(n)) for i in range(n)
    )
    return index, table


def _interpolated(e, s, row_p, row_q, r_pq):
    """(1 - t) row_p + t row_q + t (1 - t) (m(e) - r(p, q)), entry by entry, t = s/m(e).

    The resistances from the point at offset s on e = (p, q) to the points
    whose resistances from p and q are row_p and row_q; none of them may lie
    inside e.
    """
    t = s / e.length
    bulge = t * (1 - t) * (e.length - r_pq)
    return tuple((1 - t) * a + t * b + bulge for a, b in zip(row_p, row_q))


def _point_row(g, x):
    """(index, row): the resistances from a checked point x to every vertex.

    A vertex reads its row of the table; an interior point interpolates the
    rows of its edge's ends (see the module docstring).  Not memoized: a
    quadrature ladder evaluates thousands of distinct points.
    """
    index, table = _vertex_table(g)
    if isinstance(x, VertexPoint):
        return index, table[index[x.vertex]]
    e = g.edge(x.edge)
    row_p, row_q = (table[index[end]] for end in e.ends)
    return index, _interpolated(e, x.offset, row_p, row_q, row_p[index[e.ends[1]]])


def _offset_on(g, point, eid):
    """The offset of a checked point along an edge, or None when it is not on it."""
    if isinstance(point, EdgePoint):
        return point.offset if point.edge == eid else None
    e = g.edge(eid)
    if point.vertex == e.ends[0]:
        return _ZERO
    if point.vertex == e.ends[1]:
        return e.length
    return None


def resistance_between_vertices(g, u, v):
    index, table = _vertex_table(g)
    g.vertex(u)
    g.vertex(v)
    return table[index[u]][index[v]]


def resistance(g, x, y):
    """Effective resistance between two points of the metric space.

    Two points of one edge (an end counts as lying on the edge) use
    `same_edge_resistance`.  Any other pair reads y's entry of x's row
    (`_point_row`); for an interior y that entry is the same row formula
    on y's edge, applied to x's row.  Symmetric, and zero exactly when
    x = y.
    """
    require_connected(g)
    x = check_point(g, x)
    y = check_point(g, y)
    if x == y:
        return _ZERO
    for point in (x, y):
        if isinstance(point, EdgePoint):
            s, t = _offset_on(g, x, point.edge), _offset_on(g, y, point.edge)
            if s is not None and t is not None:
                return same_edge_resistance(g, point.edge, s, t)
    index, row = _point_row(g, x)
    if isinstance(y, VertexPoint):
        return row[index[y.vertex]]
    e = g.edge(y.edge)
    p, q = (index[end] for end in e.ends)
    return _interpolated(e, y.offset, (row[p],), (row[q],), _vertex_table(g)[1][p][q])[0]


# ---------------------------------------------------------------------------
# excised-edge resistance r(e)
# ---------------------------------------------------------------------------

def is_bridge(g, eid):
    """Connectivity search in the graph without e; loops are never bridges."""
    e = g.edge(eid)
    if e.is_loop:
        return False
    adjacency = {v.id: set() for v in g.vertices}
    for other in g.edges:
        if other.id == eid:
            continue
        adjacency[other.ends[0]].add(other.ends[1])
        adjacency[other.ends[1]].add(other.ends[0])
    target = e.ends[1]
    stack = [e.ends[0]]
    seen = {e.ends[0]}
    while stack:
        u = stack.pop()
        if u == target:
            return False
        for w in adjacency[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return True


@memoized
def excised_edge_resistance(g, eid):
    """Resistance between e's endpoints in the graph with e's interior removed.

    Loops give 0 (the endpoints coincide); bridges give infinity.  Otherwise
    the whole graph is e in parallel with the excised network, so
    r(e) = m(e) * r(p,q) / (m(e) - r(p,q)) with r(p,q) the full-graph value.
    """
    e = g.edge(eid)
    if e.is_loop:
        return ResistanceValue.finite(0)
    if is_bridge(g, eid):
        return ResistanceValue.infinite()
    r_full = resistance_between_vertices(g, e.ends[0], e.ends[1])
    # not a bridge, so the parallel decomposition gives r_full < m(e) strictly
    return ResistanceValue.finite(e.length * r_full / (e.length - r_full))


def foster_sum(g):
    """Sum of m(e)/(m(e)+r(e)) over edges; bridge terms contribute 0.

    Equals the first Betti number b1 on every connected graph, which is the
    identity certifying that the canonical measure has total mass one.
    """
    require_connected(g)
    total = Fraction(0)
    for e in g.edges:
        r = excised_edge_resistance(g, e.id)
        if not r.is_infinite:
            total += e.length / (e.length + r.value)
    return total


# ---------------------------------------------------------------------------
# restrictions of resistance functions to edges
# ---------------------------------------------------------------------------

def same_edge_resistance(g, eid, s, t):
    """Resistance between two points of the same edge, in closed form.

    With u = |s-t|, L = m(e) and r = r(e): the direct arc u is in parallel
    with the complementary route L - u + r, giving u*(L-u+r)/(L+r); when e is
    a bridge the complementary route is gone and the value is u.
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
    r = excised_edge_resistance(g, eid)
    if r.is_infinite:
        return u
    return u * (e.length - u + r.value) / (e.length + r.value)


def _quadratic_through(eid, samples):
    """Exact quadratic through three (s, value) pairs (Lagrange expansion)."""
    (s1, v1), (s2, v2), (s3, v3) = samples
    a = Fraction(0)
    b = Fraction(0)
    c = Fraction(0)
    for (si, vi), sj, sk in (
        ((s1, v1), s2, s3),
        ((s2, v2), s1, s3),
        ((s3, v3), s1, s2),
    ):
        den = (si - sj) * (si - sk)
        w = vi / den
        a += w
        b -= w * (sj + sk)
        c += w * sj * sk
    return QuadraticProfile(eid, a, b, c)


def resistance_profile(g, x, eid):
    """The map s -> resistance(x, point at offset s on e), as an exact quadratic.

    Built by interpolation through the samples at m(e)/4, m(e)/2, 3m(e)/4.
    Certified: the endpoint evaluations must equal the vertex resistances and
    a fourth interior sample must lie exactly on the quadratic; any mismatch
    raises ProfileSampleMismatch and means a bug, not bad data.
    """
    e = g.edge(eid)
    x = check_point(g, x)
    if isinstance(x, EdgePoint) and x.edge == eid:
        raise ValueError(f"point lies interior to edge {eid!r}; split the edge at the point first")
    length = e.length
    samples = []
    for k in (1, 2, 3):
        s = length * k / 4
        samples.append((s, resistance(g, x, EdgePoint(eid, s))))
    profile = _quadratic_through(eid, samples)
    for s, expected in (
        (_ZERO, resistance(g, x, VertexPoint(e.ends[0]))),
        (length, resistance(g, x, VertexPoint(e.ends[1]))),
        (length / 5, resistance(g, x, EdgePoint(eid, length / 5))),
    ):
        if profile.evaluate(s) != expected:
            raise ProfileSampleMismatch(
                f"resistance profile on edge {eid!r} is off at s={format_rational(s)}: "
                f"{format_rational(profile.evaluate(s))} != {format_rational(expected)}"
            )
    return profile


# ---------------------------------------------------------------------------
# closed-form quadratics (anchored, curvature -2/(m+r)); the two integral
# quadratics are the reference route that tests sum into potential profiles
# ---------------------------------------------------------------------------

@memoized
def _curvature_a(g, eid):
    """Leading coefficient of any resistance restriction to e: -1/(m+r), 0 on bridges."""
    e = g.edge(eid)
    r = excised_edge_resistance(g, eid)
    if r.is_infinite:
        return _ZERO
    return Fraction(-1) / (e.length + r.value)


@memoized
def _integral_offset(g, eid):
    """off(e) = m(e)^3 / (6 (m(e) + r(e))), 0 on bridges; see `edge_terminal_integral`."""
    return -_curvature_a(g, eid) * g.edge(eid).length ** 3 / 6


@memoized
def edge_terminal_quadratic(g, eid, vid):
    """s -> resistance(point at offset s on e, vertex v), closed form.

    Anchored at the endpoint resistances with the universal curvature; agrees
    exactly with `resistance_profile` (asserted by the tests).
    """
    e = g.edge(eid)
    a = _curvature_a(g, eid)
    c = resistance_between_vertices(g, e.ends[0], vid)
    at_end = resistance_between_vertices(g, e.ends[1], vid)
    b = (at_end - c - a * e.length**2) / e.length
    return QuadraticProfile(eid, a, b, c)


@memoized
def edge_terminal_integral(g, eid, vid):
    """Integral over e = (p, q) of resistance(., vertex v).

    The anchored quadratic integrates to a L^3/3 + b L^2/2 + c L with
    b = (r(q, v) - c - a L^2)/L, which is L (r(p, v) + r(q, v))/2 - a L^3/6:
    the trapezoid value plus `_integral_offset`, which does not depend on v.
    For a loop this is L r(p, v) + L^2/6.
    """
    e = g.edge(eid)
    p = resistance_between_vertices(g, e.ends[0], vid)
    q = resistance_between_vertices(g, e.ends[1], vid)
    return e.length * (p + q) / 2 + _integral_offset(g, eid)


@memoized
def cross_integral_quadratic(g, eid, other_eid):
    """s on e -> integral over e' of resistance(point at s on e, .).

    Quadratic in s: anchored at the endpoint integrals, with curvature
    -2*m(e')/(m(e)+r(e)) obtained by integrating the universal pointwise
    curvature over e'.
    """
    e = g.edge(eid)
    other = g.edge(other_eid)
    a = _curvature_a(g, eid) * other.length
    c = edge_terminal_integral(g, other_eid, e.ends[0])
    at_end = edge_terminal_integral(g, other_eid, e.ends[1])
    b = (at_end - c - a * e.length**2) / e.length
    return QuadraticProfile(eid, a, b, c)


@memoized
def same_edge_integral_quadratic(g, eid):
    """s on e -> integral over e of resistance(point at s, .) along e itself.

    Expanding the closed form gives [r s^2 - L r s + L^2 (L/6 + r/2)] / (L+r);
    the bridge limit is s^2 - L s + L^2/2.
    """
    e = g.edge(eid)
    length = e.length
    r = excised_edge_resistance(g, eid)
    if r.is_infinite:
        return QuadraticProfile(eid, Fraction(1), -length, length**2 / 2)
    denom = length + r.value
    return QuadraticProfile(
        eid,
        r.value / denom,
        -length * r.value / denom,
        length**2 * (length / 6 + r.value / 2) / denom,
    )

