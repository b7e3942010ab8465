"""The seven genus-two stable polarized graph types, with closed-form phi.

Tags and edge order (lengths are x1, x2, ... in the stored edge order):

    trivial  one vertex with q = 2, no edges
    I        two q=0 vertices joined by three parallel edges
    II       two q=1 vertices joined by a single edge
    III      one q=1 vertex with a loop
    IV       a q=1 vertex bridged to a q=0 vertex carrying a loop (x1 bridge)
    V        one q=0 vertex with two loops
    VI       two q=0 vertices, bridge x1, one loop on each side (x2, x3)

Each non-trivial type carries a documented node-type classification; it was
pinned down by requiring the count identities to hold and is validated, not
assumed.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import invariants, polys
from .errors import ArityMismatch
from .graphs import PolarizedMetricGraph
from .hyperelliptic import NodeTypeCounts, check_identities
from .rational import as_fraction, format_rational

TAGS = ("trivial", "I", "II", "III", "IV", "V", "VI")

_ARITY = {"trivial": 0, "I": 3, "II": 1, "III": 1, "IV": 2, "V": 2, "VI": 3}


def arity(tag):
    if tag not in _ARITY:
        raise ArityMismatch(f"unknown catalog tag {tag!r}; expected one of {', '.join(TAGS)}")
    return _ARITY[tag]


def _check_lengths(tag, lengths):
    lengths = tuple(as_fraction(x) for x in lengths)
    expected = arity(tag)
    if len(lengths) != expected:
        raise ArityMismatch(f"type {tag} takes {expected} length(s), got {len(lengths)}")
    if any(x <= 0 for x in lengths):
        raise ArityMismatch(f"type {tag} needs strictly positive lengths")
    return lengths


def build(tag, lengths=()):
    """The catalog graph with the given edge lengths (edge order e1, e2, e3)."""
    lengths = _check_lengths(tag, lengths)
    if tag == "trivial":
        return PolarizedMetricGraph.build([("v", 2)], [])
    if tag == "I":
        return PolarizedMetricGraph.build(
            [("p", 0), ("q", 0)],
            [("e1", ("p", "q"), lengths[0]), ("e2", ("p", "q"), lengths[1]), ("e3", ("p", "q"), lengths[2])],
        )
    if tag == "II":
        return PolarizedMetricGraph.build(
            [("a", 1), ("b", 1)], [("e1", ("a", "b"), lengths[0])]
        )
    if tag == "III":
        return PolarizedMetricGraph.build([("v", 1)], [("e1", ("v", "v"), lengths[0])])
    if tag == "IV":
        return PolarizedMetricGraph.build(
            [("a", 1), ("b", 0)],
            [("e1", ("a", "b"), lengths[0]), ("e2", ("b", "b"), lengths[1])],
        )
    if tag == "V":
        return PolarizedMetricGraph.build(
            [("v", 0)],
            [("e1", ("v", "v"), lengths[0]), ("e2", ("v", "v"), lengths[1])],
        )
    # VI
    return PolarizedMetricGraph.build(
        [("a", 0), ("b", 0)],
        [
            ("e1", ("a", "b"), lengths[0]),
            ("e2", ("a", "a"), lengths[1]),
            ("e3", ("b", "b"), lengths[2]),
        ],
    )


def closed_form_phi(tag, lengths=()):
    """Exact evaluation of the catalog's closed form for phi."""
    lengths = _check_lengths(tag, lengths)
    if tag == "trivial":
        return Fraction(0)
    if tag == "I":
        x1, x2, x3 = lengths
        return (x1 + x2 + x3) / 12 - Fraction(5, 12) * x1 * x2 * x3 / (x1 * x2 + x2 * x3 + x3 * x1)
    if tag == "II":
        return lengths[0]
    if tag == "III":
        return lengths[0] / 12
    if tag == "IV":
        return lengths[0] + lengths[1] / 12
    if tag == "V":
        return (lengths[0] + lengths[1]) / 12
    return lengths[0] + (lengths[1] + lengths[2]) / 12


def closed_form_pair(tag):
    """The closed form as an integer polynomial pair (numerator, denominator).

    Exponent tuples follow the edge order; the pair is in lowest terms.
    """
    arity(tag)
    if tag == "trivial":
        return {}, {(): 1}
    if tag == "I":
        sigma = {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
        e2 = {(1, 1, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}
        p = polys.poly_add(polys.poly_mul(e2, sigma), {(1, 1, 1): -5})
        q = polys.poly_scale(e2, 12)
        return p, q
    if tag == "II":
        return {(1,): 1}, {(0,): 1}
    if tag == "III":
        return {(1,): 1}, {(0,): 12}
    if tag == "IV":
        return {(1, 0): 12, (0, 1): 1}, {(0, 0): 12}
    if tag == "V":
        return {(1, 0): 1, (0, 1): 1}, {(0, 0): 12}
    return {(1, 0, 0): 12, (0, 1, 0): 1, (0, 0, 1): 1}, {(0, 0, 0): 12}


def node_counts(tag, lengths=()):
    """Documented node classification per type, scaled by the edge lengths.

    Bridges subdivide into separating nodes of type 1, loops and the parallel
    edges of type I into non-separating nodes fixed by the involution.  The
    type I assignment was determined by solving the count identities and is
    validated by `catalog_identity_report`.
    """
    lengths = _check_lengths(tag, lengths)
    if tag == "trivial":
        return NodeTypeCounts.build(2)
    if tag == "I":
        return NodeTypeCounts.build(2, xi0_fixed=sum(lengths))
    if tag == "II":
        return NodeTypeCounts.build(2, delta_i=[lengths[0]])
    if tag == "III":
        return NodeTypeCounts.build(2, xi0_fixed=lengths[0])
    if tag == "IV":
        return NodeTypeCounts.build(2, xi0_fixed=lengths[1], delta_i=[lengths[0]])
    if tag == "V":
        return NodeTypeCounts.build(2, xi0_fixed=lengths[0] + lengths[1])
    return NodeTypeCounts.build(2, xi0_fixed=lengths[1] + lengths[2], delta_i=[lengths[0]])


@dataclass(frozen=True)
class EqualityReport:
    tag: str
    lengths: tuple
    engine_phi: Fraction
    closed_form: Fraction

    @property
    def equal(self):
        return self.engine_phi == self.closed_form

    def to_dict(self):
        return {
            "tag": self.tag,
            "lengths": [format_rational(x) for x in self.lengths],
            "engine_phi": format_rational(self.engine_phi),
            "closed_form_phi": format_rational(self.closed_form),
            "equal": self.equal,
            "discrepancy": format_rational(self.engine_phi - self.closed_form),
        }


def check_closed_form(tag, lengths=()):
    """Engine phi versus the closed form, as an exact equality report."""
    lengths = _check_lengths(tag, lengths)
    engine = invariants.phi(build(tag, lengths))
    return EqualityReport(tag, lengths, engine, closed_form_phi(tag, lengths))


def catalog_identity_report(tag, lengths=()):
    """Count identities for a catalog graph with its documented classification."""
    lengths = _check_lengths(tag, lengths)
    return check_identities(build(tag, lengths), node_counts(tag, lengths))


def rescaled_sunset_phi(lengths):
    """Type I phi computed through the rescaled parameterization.

    The alternative form is (pi/6) [sum(L) - 5 L1 L2 L3 / (L1 L2 + L2 L3 + L3 L1)]
    in variables L_i = x_i / (2 pi).  The bracket is homogeneous of weight one,
    so the pi factors cancel exactly and the value is the bracket evaluated at
    the x_i themselves, divided by 12.
    """
    x1, x2, x3 = _check_lengths("I", lengths)
    bracket = (x1 + x2 + x3) - 5 * x1 * x2 * x3 / (x1 * x2 + x2 * x3 + x3 * x1)
    return bracket / 12


def check_sunset_rescaling(lengths):
    """Rescaled route versus the catalog closed form for type I, exactly."""
    lengths = _check_lengths("I", lengths)
    return EqualityReport("I", lengths, rescaled_sunset_phi(lengths), closed_form_phi("I", lengths))
