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
point x the same sum runs over x's row (`circuit._point_row`), with the
weights and the constant shifted as if x were a vertex (`potential`), so
neither needs a refined graph.  The weights are integers over one common
denominator and the rows integers over theirs (`circuit._vertex_table`), so
either sum is one integer dot product and the potential is the first
Fraction made from it.  On an edge, f is the quadratic anchored at
its two endpoint potentials with leading coefficient d(e) - kappa(e)
(`potential_profile`), so a profile costs O(1) once the vertex potentials
are known.
"""

from fractions import Fraction
from math import lcm
from operator import mul

from . import circuit
from .errors import CrosscheckFailure, ProfileSampleMismatch
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

    The simplification (atoms q(x)/h, densities mu_can's over h) must agree
    atom-by-atom and density-by-density with the definition; a mismatch is an
    implementation bug.
    """
    h = require_positive_genus(g)
    mu_can = canonical_measure(g)
    k_q = polarized_divisor(g)
    atoms = {v.id: (k_q[v.id] + 2 * mu_can.atom(v.id)) / (2 * h) for v in g.vertices}
    densities = {e.id: mu_can.density(e.id) / h for e in g.edges}
    measure = Measure(g, atoms, densities, "admissible")
    simplified = Measure(
        g,
        {v.id: Fraction(v.q, h) for v in g.vertices},
        densities,
        "admissible-simplified",
    )
    if measure.atoms() != simplified.atoms() or measure.densities() != simplified.densities():
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
    with the index of the vertex table, so a potential is one integer dot
    product with a table or point row.
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


def potential(g, x):
    """f(x): exact integral of the resistance kernel at x against the measure.

    At an interior point x at offset s on e = (p, q), L = m(e), density d,
    f(x) is the weighted sum of `_potential_weights` over x's row
    (`circuit._point_row`), with the weights and the constant of the graph
    refined at x: x takes d L/2 (its own resistance is 0), p gives up
    d (L - s)/2 and q gives up d s/2, and C falls by d kappa(e) L s (L - s)/2,
    the amount by which the offsets of the two halves fall short of e's.
    """
    require_positive_genus(g)
    x = check_point(g, x)
    if isinstance(x, VertexPoint):
        return _potential_at_vertex(g, x.vertex)
    w, w_den, offset = _potential_weights(g)
    index, nums, den = circuit._point_row(g, x)
    value = Fraction(sum(map(mul, w, nums)), w_den * den) + offset
    density = admissible_measure(g).density(x.edge)
    if density == 0:
        return value
    e = g.edge(x.edge)
    length, s = e.length, x.offset
    r_p, r_q = (Fraction(nums[index[end]], den) for end in e.ends)
    shift = -circuit.edge_density(g, x.edge) * length * s * (length - s) - (length - s) * r_p - s * r_q
    return value + density * shift / 2


@memoized
def potential_profile(g, eid):
    """The restriction of f to an edge e = (p, q) as an exact quadratic.

    f on e is the measure-weighted sum of resistance restrictions to e; with
    the mass-one identity their leading coefficients sum to
    A = d(e) - kappa(e), the density of e minus `circuit.edge_density`
    (0 on a bridge).  The endpoint potentials fix the rest:

        f(s) = f(p) + b s + A s^2,  b = (f(q) - f(p) - A m(e)^2) / m(e).

    The value at m(e)/5 must equal `potential` there, which reads the point
    row and the shifted weights, not A: an error in A shows there as
    4 m(e)^2/25 times itself.
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
    fx = potential(g, x)
    fy = fx if x == y else potential(g, y)
    return (fx + fy - circuit.resistance(g, x, y)) / 2 - capacity(g)


def green_measure_integral(g, x):
    """Closed-form integral of g(x, .) against the admissible measure.

    Must be exactly zero.  The measure has mass one, so the integral is
    (f(x) + integral of f - integral of r(x, .))/2 - c.  It is computed on the
    graph refined at x, which solves its own resistance table, through the
    edge quadratics rather than the defining algebra, so it shares neither
    the point rows nor the shifted weights of `potential` and `green`.
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
