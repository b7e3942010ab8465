"""Measures, potentials and the Arakelov-Green function of a polarized graph.

The canonical measure puts -K_can/2 on the vertices plus the uniform density
kappa(e) = 1/(m(e)+r(e)) on each edge (`circuit.edge_density`, 0 on a
bridge); it is a probability measure.  The admissible measure of a genus-h
graph is (1/2h)(delta_{K_q} + 2 mu_can), also of mass one.  The potential f(x) integrates the resistance kernel against the
admissible measure; the Green function is then

    g(x, y) = (f(x) + f(y) - r(x, y)) / 2 - c,

with c the capacity constant fixed by the normalization that g integrates to
zero against the measure.  All of it is exact rational arithmetic; the edge
restrictions of f are closed-form quadratics, so every integral is exact.
Every integral against a measure is `Measure.integrate` of a function's
vertex values and edge integrals (`integrate_potential` for f).

At a vertex, f is one weighted row of the resistance table plus a constant,
f(v) = sum over u of w(u) r(u, v) + C (`_potential_weights`).  At an interior
point x the same sum runs over x's row, the row formula of `circuit` (x as
its edge's two ends plus a bulge), with the weights and the constant
shifted as if x were a vertex, so no refined graph is needed.
`_edge_potentials` evaluates that sum at any number of points m(e) a/b of
one edge at once: the two end rows enter only through their weighted
sums, so each point costs a few integer products and every value is an
integer over one denominator per edge.
`potential` at an interior point is that function at one point, and the
oracle's midpoint sums call it with all the midpoints of an edge.  The
weights are integers over one common denominator and the table integers
over its own (`circuit._vertex_table`), so a vertex potential is one
integer dot product and the potential is the first Fraction made from it.
On an edge, f is the quadratic anchored at its two endpoint potentials with
leading coefficient d(e) - kappa(e) (`potential_profile`), so a profile
costs O(1) once the vertex potentials are known.
"""

from fractions import Fraction
from math import lcm
from operator import mul

from . import circuit
from .errors import CrosscheckFailure, OffsetOutOfRange, ProfileSampleMismatch
from .graphs import (
    EdgePoint,
    VertexPoint,
    canonical_divisor,
    check_point,
    insert_point,
    memoized,
    polarized_divisor,
    require_connected,
    require_positive_genus,
)
from .rational import format_rational

_ZERO = Fraction(0)


class Measure:
    """Atomic masses on vertices plus uniform densities per edge.

    Immutable by convention; `densities` are masses per unit length, and
    zero coefficients are dropped.  `integrate` is the one place that sums
    over the atoms and densities; the total mass is its first use, computed
    exactly at construction.
    """

    def __init__(self, g, atoms, densities, tag):
        self._atoms = {vid: Fraction(c) for vid, c in atoms.items() if c != 0}
        self._densities = {eid: Fraction(c) for eid, c in densities.items() if c != 0}
        self.tag = tag
        self.total_mass = self.integrate(lambda vid: 1, lambda eid: g.edge(eid).length)

    def integrate(self, at_vertex, over_edge):
        """Sum of atom(v) * at_vertex(v) over v plus density(e) * over_edge(e) over e.

        `over_edge(e)` is the integral over e of the function whose value at
        a vertex v is `at_vertex(v)`, so this is its integral against the
        measure.  Every value is exact, so summation order changes nothing.
        """
        return sum((c * at_vertex(vid) for vid, c in self._atoms.items()), _ZERO) + sum(
            (d * over_edge(eid) for eid, d in self._densities.items()), _ZERO
        )

    def atom(self, vid):
        return self._atoms.get(vid, _ZERO)

    def density(self, eid):
        return self._densities.get(eid, _ZERO)

    def atoms(self):
        return sorted(self._atoms.items())

    def densities(self):
        return sorted(self._densities.items())

    def summary(self):
        return {
            "tag": self.tag,
            "atoms": {v: format_rational(c) for v, c in self.atoms()},
            "densities": {e: format_rational(d) for e, d in self.densities()},
            "mass": format_rational(self.total_mass),
        }


@memoized
def canonical_measure(g):
    """Atoms -K_can/2 plus densities kappa(e); total mass exactly one."""
    require_connected(g)
    k_can = canonical_divisor(g)
    atoms = {v.id: -k_can[v.id] / 2 for v in g.vertices}
    densities = {e.id: circuit.edge_density(g, e.id) for e in g.edges}
    measure = Measure(g, atoms, densities, "canonical")
    if measure.total_mass != 1:
        raise CrosscheckFailure(
            f"canonical measure has mass {format_rational(measure.total_mass)} != 1"
        )
    return measure


@memoized
def admissible_measure(g):
    """(1/2h)(delta_{K_q} + 2 mu_can), checked against its simplified form.

    The densities are mu_can's over h in both forms, so the simplification
    is checked on the atoms: the definitional atoms must be q(x)/h, vertex
    by vertex; a mismatch is an implementation bug.
    """
    h = require_positive_genus(g)
    mu_can = canonical_measure(g)
    k_q = polarized_divisor(g)
    atoms = {v.id: (k_q[v.id] + 2 * mu_can.atom(v.id)) / (2 * h) for v in g.vertices}
    densities = {e.id: mu_can.density(e.id) / h for e in g.edges}
    measure = Measure(g, atoms, densities, "admissible")
    if measure.atoms() != sorted((v.id, Fraction(v.q, h)) for v in g.vertices if v.q):
        raise CrosscheckFailure("admissible measure: definitional and simplified forms disagree")
    if measure.total_mass != 1:
        raise CrosscheckFailure(
            f"admissible measure has mass {format_rational(measure.total_mass)} != 1"
        )
    return measure


# ---------------------------------------------------------------------------
# the potential f(x) = integral of r(x, .) against the admissible measure
# ---------------------------------------------------------------------------

@memoized
def _potential_weights(g):
    """(w, w_den, C) with f(v) = sum over u of w[u] r(u, v) / w_den, plus C, at every vertex v.

    Integrating r(., v) over an edge e = (p, q) gives m(e)(r(p, v) + r(q, v))/2
    plus kappa(e) m(e)^3/6, so w(u) is the atom at u plus half the mass of
    each edge end at u (a loop puts its whole mass on its vertex), and C is
    the sum of density * kappa(e) m(e)^3/6.  `circuit.edge_terminal_integral`
    states that integral, but nothing here calls it: it and the two integral
    quadratics have no engine caller and stay in `circuit` only because
    `bench/spans.py` names them.
    The weights are integers over their common denominator w_den, aligned
    with the index of the vertex table, so a vertex potential is one integer
    dot product with a table row.
    """
    mu = admissible_measure(g)
    index = circuit._vertex_table(g)[0]
    weights = [_ZERO] * len(index)
    for vid, atom in mu.atoms():
        weights[index[vid]] += atom
    offset = _ZERO
    for eid, density in mu.densities():
        e = g.edge(eid)
        half = density * e.length / 2
        for end in e.ends:
            weights[index[end]] += half
        offset += density * circuit.edge_density(g, eid) * e.length**3 / 6
    w_den = lcm(*(w.denominator for w in weights))
    return [w.numerator * (w_den // w.denominator) for w in weights], w_den, offset


@memoized
def _potential_at_vertex(g, vid):
    w, w_den, offset = _potential_weights(g)
    index, table, d = circuit._vertex_table(g)
    return Fraction(sum(map(mul, w, table[index[vid]])), w_den * d) + offset


def _edge_potentials(g, eid, nums, b):
    """(numerators, den, C): f at the points s = L a/b of e = (p, q), L = m(e),
    one for each a in `nums`, is numerator/den + C.

    Each point x is evaluated on its own, by the weighted row sum of
    `_potential_weights` over x's row (the row formula of `circuit`), with
    the weights and the constant of the graph refined at x: x takes d L/2
    (its own resistance is 0), p gives up d (L - s)/2 and q gives up d s/2,
    d the density of e, and C falls by d kappa(e) L s (L - s)/2, the amount
    by which the offsets of the two halves fall short of e's.  So f(x) - C
    is sum_u w(u) r(x, u) plus d/2 times the shift

        -kappa(e) L s (L - s) - (L - s) r(x, p) - s r(x, q).

    In integers: the table is T over D, the weights w over w_den,
    W_p = w.T[p], W_q = w.T[q], kappa(e) L^2 = kn/kd and d L/2 = zn/zd.
    The three terms c1 = kd b (b - a), c2 = kd b a and lift = D kn a (b - a)
    give the weighted row sum (c1 W_p + c2 W_q + lift sum(w)) over
    w_den b^2 D kd, and r(x, p) and r(x, q) over b^2 D kd from the same
    three terms; the shift is then an integer over b^3 D kd.  sum(w) is
    summed, not taken to be w_den by the mass of the measure.  The edge
    constants are computed once, so a point costs a few integer products.
    The a need not be in lowest terms; each must lie in (0, b).
    """
    e = g.edge(eid)
    w, w_den, offset = _potential_weights(g)
    index, table, d = circuit._vertex_table(g)
    p, q = (index[end] for end in e.ends)
    row_p, row_q = table[p], table[q]
    w_p, w_q, w_sum = sum(map(mul, w, row_p)), sum(map(mul, w, row_q)), sum(w)
    kappa = circuit.edge_density(g, eid) * e.length**2
    kn, kd = kappa.numerator, kappa.denominator
    half = admissible_measure(g).density(eid) * e.length / 2
    zn, zd = half.numerator, half.denominator
    dot_scale, shift_scale = b * zd, w_den * zn
    out = []
    for a in nums:
        if not 0 < a < b:
            raise OffsetOutOfRange(f"point {a}/{b} of edge {eid!r} is not strictly inside it")
        c1, c2, lift = kd * b * (b - a), kd * b * a, d * kn * a * (b - a)
        dot = c1 * w_p + c2 * w_q + lift * w_sum
        r_p = c1 * row_p[p] + c2 * row_q[p] + lift
        r_q = c1 * row_p[q] + c2 * row_q[q] + lift
        shift = -kn * a * (b - a) * b * d - (b - a) * r_p - a * r_q
        out.append(dot_scale * dot + shift_scale * shift)
    return out, w_den * zd * b**3 * kd * d, offset


def potential(g, x):
    """f(x): exact integral of the resistance kernel at x against the measure.

    A vertex reads its weighted table row (`_potential_at_vertex`); an
    interior point at offset s on e is `_edge_potentials` at the one point
    t = s/m(e), in lowest terms.
    """
    require_positive_genus(g)
    x = check_point(g, x)
    if isinstance(x, VertexPoint):
        return _potential_at_vertex(g, x.vertex)
    t = x.offset / g.edge(x.edge).length
    (num,), den, offset = _edge_potentials(g, x.edge, (t.numerator,), t.denominator)
    return Fraction(num, den) + offset


@memoized
def potential_profile(g, eid):
    """The restriction of f to an edge e = (p, q) as an exact quadratic.

    f on e is the measure-weighted sum of resistance restrictions to e; with
    the mass-one identity their leading coefficients sum to
    A = d(e) - kappa(e), the density of e minus `circuit.edge_density`
    (0 on a bridge).  The endpoint potentials fix the rest:

        f(s) = f(p) + b s + A s^2,  b = (f(q) - f(p) - A m(e)^2) / m(e).

    The value at m(e)/5 must equal `potential` there, which sums the
    shifted weights over the point's row and does not use the mass-one
    identity that A rests on: an error in A shows there as 4 m(e)^2/25
    times itself.
    """
    require_positive_genus(g)
    e = g.edge(eid)
    length = e.length
    a = admissible_measure(g).density(eid) - circuit.edge_density(g, eid)
    f_p, f_q = (_potential_at_vertex(g, end) for end in e.ends)
    poly = circuit.QuadraticProfile(eid, a, (f_q - f_p - a * length**2) / length, f_p)
    s = length / 5
    expected = potential(g, EdgePoint(eid, s))
    if poly.evaluate(s) != expected:
        raise ProfileSampleMismatch(
            f"potential profile on edge {eid!r} is off at s={format_rational(s)}: "
            f"{format_rational(poly.evaluate(s))} != {format_rational(expected)}"
        )
    return poly


@memoized
def profile_integral(g, eid):
    """The integral of f over the edge e = (p, q), in closed form.

    With f(s) = f(p) + b s + A s^2 on [0, m(e)] (`potential_profile`),
    the integral is m(e)(f(p) + f(q))/2 - A m(e)^3/6.
    """
    e = g.edge(eid)
    length = e.length
    a = potential_profile(g, eid).a
    f_p, f_q = (_potential_at_vertex(g, end) for end in e.ends)
    return length * (f_p + f_q) / 2 - a * length**3 / 6


def integrate_potential(g, nu):
    """The integral of f against a measure nu: vertex potentials at its atoms,
    `profile_integral` over the edges it has density on."""
    return nu.integrate(lambda vid: _potential_at_vertex(g, vid), lambda eid: profile_integral(g, eid))


@memoized
def capacity(g):
    """c = (1/2) * double integral of the resistance kernel against the measure."""
    require_positive_genus(g)
    return integrate_potential(g, admissible_measure(g)) / 2


def green(g, x, y):
    """The Arakelov-Green function g(x, y) = (f(x)+f(y)-r(x,y))/2 - c.

    Symmetric by construction; its integral against the measure vanishes and
    the diagonal value is f(x) - c.
    """
    require_positive_genus(g)
    x = check_point(g, x)
    y = check_point(g, y)
    if x == y:
        return potential(g, x) - capacity(g)
    return (potential(g, x) + potential(g, y) - circuit.resistance(g, x, y)) / 2 - capacity(g)


def green_measure_integral(g, x):
    """Closed-form integral of g(x, .) against the admissible measure.

    Must be exactly zero.  The measure has mass one, so the integral is
    (f(x) + integral of f - integral of r(x, .))/2 - c.  It is computed on the
    graph refined at x, which solves its own resistance table, through the
    edge quadratics rather than the defining algebra, so it shares neither
    the row formula nor the shifted weights of `potential` and `green`.
    """
    require_positive_genus(g)
    c = capacity(g)
    refined, xv = insert_point(g, check_point(g, x))
    mu = admissible_measure(refined)
    r_x = mu.integrate(
        lambda vid: circuit.resistance_between_vertices(refined, xv, vid),
        lambda eid: circuit.edge_terminal_quadratic(refined, eid, xv).integral(refined.edge(eid).length),
    )
    return (_potential_at_vertex(refined, xv) + integrate_potential(refined, mu) - r_x) / 2 - c
