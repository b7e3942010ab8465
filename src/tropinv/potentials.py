"""Measures, potentials and the Arakelov-Green function of a polarized graph.

The canonical measure puts -K_can/2 on the vertices plus the uniform density
kappa(e) = 1/(m(e)+r(e)) on each edge (`circuit.edge_density`, 0 on a
bridge); it is a probability measure.  The admissible measure of a genus-h
graph is (1/2h)(delta_{K_q} + 2 mu_can), also of mass one.  The potential
f(x) integrates the resistance kernel against the admissible measure; the
Green function is then

    g(x, y) = (f(x) + f(y) - r(x, y)) / 2 - c,

with c the capacity constant fixed by the normalization that g integrates to
zero against the measure.  All of it is exact rational arithmetic; the edge
restrictions of f are closed-form quadratics, so every integral is exact.
Every integral against a measure is `Measure.integrate` of a function's
vertex values and edge integrals (`integrate_potential` for f).

At a vertex, f is one weighted row of the resistance table plus a constant,
f(v) = sum over u of w(u) r(u, v) + C (`_potential_weights`).  The weights
are integers over one common denominator and the table integers over its
own (`circuit._vertex_table`), so the weighted sums at all vertices are one
integer vector T.w (`_weighted_sums`), and a vertex potential is the first
Fraction made from its entry.  At an interior point x the same sum runs
over x's row, the row formula of `circuit` (x as its edge's two ends plus a
bulge), with the weights and the constant shifted as if x were a vertex, so
no refined graph is needed.  `_edge_potentials` evaluates that sum at any
number of points m(e) a/b of one edge at once: the two end rows enter only
through their entries of T.w, the shift of the weights is one edge
constant times a (b - a), so each point costs a few integer products and
every value is an integer over one denominator per edge.  `potential` at
an interior point is that function at one point, and the oracle's midpoint
sums call it with all the midpoints of an edge.

On an edge, f is the quadratic anchored at its two endpoint potentials with
leading coefficient d(e) - kappa(e) (`potential_profile`), so a profile
costs O(1) once the vertex potentials are known, and its integral is the
quadratic's (`profile_integral`).
"""

from fractions import Fraction
from math import gcd
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
    the sum of density * kappa(e) m(e)^3/6 = (kappa(e) m(e))^2 m(e) / (6h);
    `circuit.edge_terminal_integral` is that integral, which
    `green_measure_integral` reads edge by edge.  The weights are made of
    integers: with kappa(e) = K/D and l of `circuit._edge_constants` and
    m(e) = n/l, an edge's mass kappa(e) m(e) is M = K n over den = D l, so
    over 2 h den the atom q(u)/h is 2 den q(u) and half an edge's mass M.
    The weights are then divided by their common factor with that
    denominator.  They are aligned with the index of the vertex table, so a
    vertex potential is one integer dot product with a table row.
    """
    h = require_positive_genus(g)
    admissible_measure(g)  # checks the masses, whose densities are the same K/D
    consts, big_d, l = circuit._edge_constants(g)
    den = big_d * l
    index = circuit._vertex_table(g)[0]
    weights = [0] * len(index)
    for v in g.vertices:
        weights[index[v.id]] = 2 * den * v.q
    bulk = 0
    for e in g.edges:
        n = e.length.numerator * (l // e.length.denominator)
        mass = consts[e.id] * n
        for end in e.ends:
            weights[index[end]] += mass
        bulk += mass * mass * n
    w_den = 2 * h * den
    common = gcd(w_den, *weights)
    return [w // common for w in weights], w_den // common, Fraction(bulk, 6 * h * den * den * l)


@memoized
def _weighted_sums(g):
    """TW: sum over u of w[u] T[u][v] at every vertex v, for the weights of
    `_potential_weights` and the integer table T (`circuit._vertex_table`),
    aligned with the table's index.  f(v) = TW[v]/(w_den d) + C."""
    w = _potential_weights(g)[0]
    return [sum(map(mul, w, row)) for row in circuit._vertex_table(g)[1]]


@memoized
def _potential_at_vertex(g, vid):
    _, w_den, offset = _potential_weights(g)
    index, _, d = circuit._vertex_table(g)
    return Fraction(_weighted_sums(g)[index[vid]], w_den * d) + offset


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

    The row formula at the ends gives r(x, p) = t r(p, q) + kappa(e) s (L - s)
    and r(x, q) = (1 - t) r(p, q) + kappa(e) s (L - s), t = s/L, so the
    shift is -2 s (L - s) (kappa(e) L^2 + r(p, q)) / L: one edge constant
    times s (L - s).  r(p, q) is read from the table, not taken to be
    L - kappa(e) L^2, so a kappa(e) that disagrees with the table shows in
    the profiles' m(e)/5 spot check.

    In integers: the table is T over D, the weights w over w_den,
    W_p = w.T[p], W_q = w.T[q], kappa(e) L^2 = kn/kd and d L/2 = zn/zd.
    Every value is an integer over w_den zd b^3 D kd.  The weighted row sum
    gives b zd (kd b ((b - a) W_p + a W_q) + D kn a (b - a) sum(w)) of it,
    and d/2 times the shift gives bend a (b - a), with the edge constant
    bend = -2 b w_den zn (kn D + kd T[p][q]).  sum(w) is summed, not taken
    to be w_den by the mass of the measure.  The edge constants are
    computed once, so a point costs a few integer products.  The a need
    not be in lowest terms; each must lie in (0, b).
    """
    e = g.edge(eid)
    w, w_den, offset = _potential_weights(g)
    index, table, d = circuit._vertex_table(g)
    p, q = (index[end] for end in e.ends)
    w_p, w_q = (_weighted_sums(g)[i] for i in (p, q))
    kappa = circuit.edge_density(g, eid) * e.length**2
    kn, kd = kappa.numerator, kappa.denominator
    half = admissible_measure(g).density(eid) * e.length / 2
    zn, zd = half.numerator, half.denominator
    ends, lift = b * zd * kd * b, b * zd * d * kn * sum(w)
    bend = -2 * b * w_den * zn * (kn * d + kd * table[p][q])
    out = []
    for a in nums:
        if not 0 < a < b:
            raise OffsetOutOfRange(f"point {a}/{b} of edge {eid!r} is not strictly inside it")
        out.append(ends * ((b - a) * w_p + a * w_q) + (lift + bend) * a * (b - a))
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
    a = admissible_measure(g).density(eid) - circuit.edge_density(g, eid)
    f_p, f_q = (_potential_at_vertex(g, end) for end in e.ends)
    poly = circuit.QuadraticProfile.anchored(eid, e.length, a, f_p, f_q)
    s = e.length / 5
    expected = potential(g, EdgePoint(eid, s))
    if poly.evaluate(s) != expected:
        raise ProfileSampleMismatch(
            f"potential profile on edge {eid!r} is off at s={format_rational(s)}: "
            f"{format_rational(poly.evaluate(s))} != {format_rational(expected)}"
        )
    return poly


@memoized
def profile_integral(g, eid):
    """The integral of f over the edge e: `potential_profile` integrated over [0, m(e)].

    Memoized: the capacity and both diagonal integrals read it.
    """
    return potential_profile(g, eid).integral(g.edge(eid).length)


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
        lambda eid: circuit.edge_terminal_integral(refined, eid, xv),
    )
    return (_potential_at_vertex(refined, xv) + integrate_potential(refined, mu) - r_x) / 2 - c
