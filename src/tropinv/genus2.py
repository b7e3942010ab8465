"""The seven genus-two stable polarized graph types, with closed-form phi.

Tags and edge order (lengths are x1, x2, ... in the stored edge order):

    trivial  one vertex with q = 2, no edges
    I        two q=0 vertices joined by three parallel edges
    II       two q=1 vertices joined by a single edge
    III      one q=1 vertex with a loop
    IV       a q=1 vertex bridged to a q=0 vertex carrying a loop (x1 bridge)
    V        one q=0 vertex with two loops
    VI       two q=0 vertices, bridge x1, one loop on each side (x2, x3)

The catalog below states each type once: its vertices, its edges in length
order, and its bridges.  `build`, `arity` and `node_counts` all read it.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import invariants, polys
from .errors import ArityMismatch
from .graphs import PolarizedMetricGraph
from .hyperelliptic import NodeTypeCounts, check_identities
from .rational import as_fraction, format_rational

# tag -> (vertices (id, q), edges (id, ends) in length order, bridge ids)
CATALOG = {
    "trivial": ((("v", 2),), (), ()),
    "I": ((("p", 0), ("q", 0)), (("e1", ("p", "q")), ("e2", ("p", "q")), ("e3", ("p", "q"))), ()),
    "II": ((("a", 1), ("b", 1)), (("e1", ("a", "b")),), ("e1",)),
    "III": ((("v", 1),), (("e1", ("v", "v")),), ()),
    "IV": ((("a", 1), ("b", 0)), (("e1", ("a", "b")), ("e2", ("b", "b"))), ("e1",)),
    "V": ((("v", 0),), (("e1", ("v", "v")), ("e2", ("v", "v"))), ()),
    "VI": ((("a", 0), ("b", 0)), (("e1", ("a", "b")), ("e2", ("a", "a")), ("e3", ("b", "b"))), ("e1",)),
}

TAGS = tuple(CATALOG)


def arity(tag):
    if tag not in CATALOG:
        raise ArityMismatch(f"unknown catalog tag {tag!r}; expected one of {', '.join(TAGS)}")
    return len(CATALOG[tag][1])


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
    vertices, edges, _ = CATALOG[tag]
    return PolarizedMetricGraph.build(vertices, [(eid, ends, x) for (eid, ends), x in zip(edges, lengths)])


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
    """The documented node classification, scaled by the edge lengths.

    Bridges subdivide into separating nodes of type 1 (`delta_i[0]`), loops
    and the parallel edges of type I into non-separating nodes fixed by the
    involution (`xi0_fixed`).  The type I assignment was determined by
    solving the count identities and is validated by
    `catalog_identity_report`.
    """
    lengths = _check_lengths(tag, lengths)
    _, edges, bridges = CATALOG[tag]
    bridged = sum(x for (eid, _), x in zip(edges, lengths) if eid in bridges)
    return NodeTypeCounts.build(2, xi0_fixed=sum(lengths) - bridged, delta_i=[bridged])


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
    """Rescaled route versus the catalog closed form for type I, exactly.

    The report's `engine_phi` field (and so the CLI's
    `rescaled_form.engine_phi`) holds the rescaled form's value, not the
    engine's: the key is shared with `check_closed_form` and kept for the
    payload's sake.
    """
    lengths = _check_lengths("I", lengths)
    return EqualityReport("I", lengths, rescaled_sunset_phi(lengths), closed_form_phi("I", lengths))
