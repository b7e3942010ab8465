"""Node-type counts of hyperelliptic degenerations and their identities.

A genus-h classification counts nodes by how the local normalization splits
under the involution: xi0_fixed counts fixed non-separating nodes, xi[j]
counts swapped pairs whose normalization splits into genera j and h-1-j, and
delta_i counts separating nodes splitting into genera i and h-i.  The counts
satisfy delta0 = xi0_fixed + 2*sum(xi), and total length delta =
delta0 + sum(delta_i).  Counts are rational-valued so that non-integer edge
lengths can be handled through weight-one homogeneity (a length-m edge is a
chain of m unit nodes of one type).

The weighted count

    d = h*xi0_fixed + sum_j 2(j+1)(h-j) xi[j] + sum_i 4i(h-i) delta_i

ties the metric invariants together:

    (2h-2) phi = 3d - (2h+1)(delta + epsilon)
    (2h+1) psi = 3d - (2h+1) delta

and (2h+1) psi has the explicit expansion

    (h-1) delta0 + sum_{j>=1} 6j(h-1-j) xi[j]
                 + sum_i (12i(h-i) - (2h+1)) delta_i,

which coincides with the expansion of 3d - (2h+1) delta.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import invariants
from .errors import GenusMismatch, InconsistentCounts, LengthMismatch, ParseError
from .graphs import genus, total_length
from .rational import as_fraction, format_rational


@dataclass(frozen=True)
class NodeTypeCounts:
    h: int
    xi0_fixed: Fraction
    xi: tuple  # indexed j = 0 .. (h-1)//2, trailing zeros stripped
    delta_i: tuple  # indexed i = 1 .. h//2, trailing zeros stripped
    delta0: Fraction

    @classmethod
    def build(cls, h, xi0_fixed=0, xi=(), delta_i=(), delta0=None):
        """Normalize and strip trailing zeros from the lists.

        A missing entry reads as 0, so nothing is allocated in proportion
        to h; `to_json` pads the lists to their genus-determined lengths.
        """
        if not isinstance(h, int) or h < 2:
            raise InconsistentCounts(f"genus must be an integer >= 2, got {h!r}")
        xi_len = (h - 1) // 2 + 1
        di_len = h // 2
        xi = [as_fraction(x) for x in xi]
        delta_i = [as_fraction(x) for x in delta_i]
        if len(xi) > xi_len or len(delta_i) > di_len:
            raise InconsistentCounts(
                f"genus {h} allows {xi_len} xi entries and {di_len} delta_i entries"
            )
        while xi and xi[-1] == 0:
            xi.pop()
        while delta_i and delta_i[-1] == 0:
            delta_i.pop()
        xi0 = as_fraction(xi0_fixed)
        expected_delta0 = xi0 + 2 * sum(xi, Fraction(0))
        if delta0 is None:
            delta0 = expected_delta0
        else:
            delta0 = as_fraction(delta0)
        return cls(h, xi0, tuple(xi), tuple(delta_i), delta0)

    def __post_init__(self):
        # every instance is checked once, when it is made; it is frozen after
        if any(x < 0 for x in (self.xi0_fixed, self.delta0, *self.xi, *self.delta_i)):
            raise InconsistentCounts("node counts must be non-negative")
        expected = self.xi0_fixed + 2 * sum(self.xi, Fraction(0))
        if self.delta0 != expected:
            raise InconsistentCounts(
                f"delta0 = {format_rational(self.delta0)} but xi0_fixed + 2*sum(xi) = {format_rational(expected)}"
            )

    @property
    def total_delta(self):
        return self.delta0 + sum(self.delta_i, Fraction(0))

    def to_json(self):
        return {
            "h": self.h,
            "xi0_fixed": format_rational(self.xi0_fixed),
            "xi": [format_rational(x) for x in self._padded(self.xi, (self.h - 1) // 2 + 1)],
            "delta_i": [format_rational(x) for x in self._padded(self.delta_i, self.h // 2)],
            "delta0": format_rational(self.delta0),
        }

    @staticmethod
    def _padded(values, length):
        return values + (Fraction(0),) * (length - len(values))

    @classmethod
    def from_json(cls, obj, genus):
        """Counts for a graph of the given genus; another 'h' is a GenusMismatch.

        The genus is compared before the counts are built, so a huge 'h'
        fails before anything else is read.
        """
        if not isinstance(obj, dict) or "h" not in obj:
            raise ParseError("counts JSON must be an object with an 'h' field")
        h = obj["h"]
        if isinstance(h, bool) or not isinstance(h, int):
            raise ParseError(f"'h' must be an integer, got {h!r}")
        for key in ("xi", "delta_i"):
            if not isinstance(obj.get(key, []), list):
                raise ParseError(f"{key!r} must be a list, got {obj[key]!r}")
        if h != genus:
            raise GenusMismatch(f"graph has genus {genus}, counts have h = {h}")
        return cls.build(
            h,
            xi0_fixed=obj.get("xi0_fixed", 0),
            xi=obj.get("xi", ()),
            delta_i=obj.get("delta_i", ()),
            delta0=obj.get("delta0"),
        )


def d_invariant(counts):
    """d = h*xi0' + sum_j 2(j+1)(h-j) xi_j + sum_i 4i(h-i) delta_i."""
    h = counts.h
    value = h * counts.xi0_fixed
    for j, x in enumerate(counts.xi):
        value += 2 * (j + 1) * (h - j) * x
    for i, x in enumerate(counts.delta_i, start=1):
        value += 4 * i * (h - i) * x
    return value


def psi_from_counts(counts):
    """psi via the explicit hyperelliptic expansion, divided by 2h+1."""
    h = counts.h
    value = (h - 1) * counts.delta0
    for j, x in enumerate(counts.xi):
        if j >= 1:
            value += 6 * j * (h - 1 - j) * x
    for i, x in enumerate(counts.delta_i, start=1):
        value += (12 * i * (h - i) - (2 * h + 1)) * x
    return value / (2 * h + 1)


def node_count_rhs(counts):
    """The expansion of 3d - (2h+1)*delta in the counts.

    Equals (h-1) delta0 + sum_j (6(j+1)(h-j) - 6h) xi_j
    + sum_i (12i(h-i) - (2h+1)) delta_i, exactly.
    """
    h = counts.h
    value = (h - 1) * counts.delta0
    for j, x in enumerate(counts.xi):
        value += (6 * (j + 1) * (h - j) - 6 * h) * x
    for i, x in enumerate(counts.delta_i, start=1):
        value += (12 * i * (h - i) - (2 * h + 1)) * x
    return value


@dataclass(frozen=True)
class IdentityCheckReport:
    h: int
    delta: Fraction
    d: Fraction
    phi: Fraction
    epsilon: Fraction
    psi: Fraction
    phi_identity_lhs: Fraction   # (2h-2) phi
    phi_identity_rhs: Fraction   # 3d - (2h+1)(delta + epsilon)
    psi_identity_lhs: Fraction   # (2h+1) psi
    psi_identity_rhs: Fraction   # 3d - (2h+1) delta

    @property
    def phi_identity_holds(self):
        return self.phi_identity_lhs == self.phi_identity_rhs

    @property
    def psi_identity_holds(self):
        return self.psi_identity_lhs == self.psi_identity_rhs

    @property
    def all_hold(self):
        return self.phi_identity_holds and self.psi_identity_holds

    def to_dict(self):
        return {
            "h": self.h,
            "delta": format_rational(self.delta),
            "d": format_rational(self.d),
            "phi": format_rational(self.phi),
            "epsilon": format_rational(self.epsilon),
            "psi": format_rational(self.psi),
            "phi_identity": _identity_block(self.phi_identity_lhs, self.phi_identity_rhs),
            "psi_identity": _identity_block(self.psi_identity_lhs, self.psi_identity_rhs),
        }


def _identity_block(lhs, rhs):
    """Both sides of one identity, whether they agree, and their difference."""
    return {
        "lhs": format_rational(lhs),
        "rhs": format_rational(rhs),
        "holds": lhs == rhs,
        "discrepancy": format_rational(lhs - rhs),
    }


def check_identities(g, counts):
    """Evaluate both sides of both count identities on a graph, exactly.

    The graph's genus must equal counts.h and its total length the counts'
    total delta; the report carries the exact values of both sides.
    """
    _, h = genus(g)
    if h != counts.h:
        raise GenusMismatch(f"graph has genus {h}, counts have h = {counts.h}")
    delta = total_length(g)
    if delta != counts.total_delta:
        raise LengthMismatch(
            f"graph total length {format_rational(delta)} != counts total {format_rational(counts.total_delta)}"
        )
    d = d_invariant(counts)
    ph = invariants.phi(g)
    eps = invariants.epsilon(g)
    ps = invariants.psi(g)
    return IdentityCheckReport(
        h=h,
        delta=delta,
        d=d,
        phi=ph,
        epsilon=eps,
        psi=ps,
        phi_identity_lhs=(2 * h - 2) * ph,
        phi_identity_rhs=3 * d - (2 * h + 1) * (delta + eps),
        psi_identity_lhs=(2 * h + 1) * ps,
        psi_identity_rhs=3 * d - (2 * h + 1) * delta,
    )
