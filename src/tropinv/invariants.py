"""The weight-one invariants of a polarized metric graph.

For a graph of genus h with admissible measure mu, Green function g and
polarized divisor K_q:

    epsilon = integral of g(x,x) against (2h-2) mu + delta_{K_q}
    phi     = -delta/4 + (1/4) integral of g(x,x) against (10h+2) mu - delta_{K_q}
    psi     = epsilon + ((2h-2)/(2h+1)) phi

where delta is the total length.  Each of epsilon and phi is computed twice:
once by closed-form integration of the diagonal f(x) - c, and once through the
algebraic reductions epsilon = sum K_q(v) f(v) and
phi = -delta/4 + 3 h c - (1/4) sum K_q(v) f(v).  The reductions are derived
accelerations, never the sole source of truth: both paths must agree exactly.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import circuit, potentials
from .errors import CrosscheckFailure
from .graphs import genus, memoized, polarized_divisor, total_length, validate
from .rational import decimal_string, format_rational

_ZERO = Fraction(0)


def _diagonal_integral(g, atom_weights, density_weights):
    """Exact integral of (f(x) - c) against atoms + uniform edge densities."""
    c = potentials.capacity(g)
    total = _ZERO
    for vid, w in atom_weights.items():
        if w != 0:
            total += w * (potentials._potential_at_vertex(g, vid) - c)
    for eid, w in density_weights.items():
        if w == 0:
            continue
        total += w * (potentials.profile_integral(g, eid) - c * g.edge(eid).length)
    return total


def diagonal_weights(g, quantity):
    """(atom weights, density weights) that g(x,x) is integrated against.

    epsilon: (2h-2) mu + delta_{K_q};  phi: (10h+2) mu - delta_{K_q}.
    """
    _, h = genus(g)
    mu = potentials.admissible_measure(g)
    k_q = polarized_divisor(g)
    scale, sign = (2 * h - 2, 1) if quantity == "epsilon" else (10 * h + 2, -1)
    atoms = {v.id: scale * mu.atom(v.id) + sign * k_q[v.id] for v in g.vertices}
    densities = {e.id: scale * mu.density(e.id) for e in g.edges}
    return atoms, densities


def _dual_values(g):
    """(epsilon, phi) with both computation paths checked against each other."""
    _, h = genus(g)
    k_q = polarized_divisor(g)
    c = potentials.capacity(g)
    delta = total_length(g)

    eps_primary = _diagonal_integral(g, *diagonal_weights(g, "epsilon"))
    phi_primary = -delta / 4 + _diagonal_integral(g, *diagonal_weights(g, "phi")) / 4

    kq_f = sum(
        (k_q[v.id] * potentials._potential_at_vertex(g, v.id) for v in g.vertices),
        _ZERO,
    )
    eps_secondary = kq_f
    phi_secondary = -delta / 4 + 3 * h * c - kq_f / 4

    if eps_primary != eps_secondary:
        raise CrosscheckFailure(
            f"epsilon paths disagree: {format_rational(eps_primary)} != {format_rational(eps_secondary)}"
        )
    if phi_primary != phi_secondary:
        raise CrosscheckFailure(
            f"phi paths disagree: {format_rational(phi_primary)} != {format_rational(phi_secondary)}"
        )
    return eps_primary, phi_primary


@memoized
def _epsilon_phi(g):
    return _dual_values(g)


def epsilon(g):
    """The epsilon invariant; exact, dual-path checked."""
    return _epsilon_phi(g)[0]


def phi(g):
    """The phi invariant; exact, dual-path checked."""
    return _epsilon_phi(g)[1]


def psi(g):
    """psi = epsilon + ((2h-2)/(2h+1)) * phi."""
    _, h = genus(g)
    eps, ph = _epsilon_phi(g)
    return eps + Fraction(2 * h - 2, 2 * h + 1) * ph


@dataclass(frozen=True)
class InvariantReport:
    b1: int
    h: int
    delta: Fraction
    epsilon: Fraction
    phi: Fraction
    psi: Fraction
    capacity: Fraction
    edge_resistance: dict
    canonical_measure: dict
    admissible_measure: dict
    stable: bool
    crosschecks: dict

    def to_dict(self, decimal_digits=12):
        out = {
            "b1": self.b1,
            "h": self.h,
            "stable": self.stable,
            "edge_resistance": dict(self.edge_resistance),
            "canonical_measure": dict(self.canonical_measure),
            "admissible_measure": dict(self.admissible_measure),
            "crosschecks": dict(self.crosschecks),
        }
        for name in ("delta", "epsilon", "phi", "psi", "capacity"):
            value = getattr(self, name)
            out[name] = format_rational(value)
            if decimal_digits:
                out[name + "_decimal"] = decimal_string(value, decimal_digits)
        return out


def report(g):
    """Full invariant report; every crosscheck must hold or the failing one raises."""
    validation = validate(g)
    b1, h = genus(g)
    mu_can = potentials.canonical_measure(g)
    mu = potentials.admissible_measure(g)
    eps, ph = _epsilon_phi(g)
    ps = eps + Fraction(2 * h - 2, 2 * h + 1) * ph
    foster = circuit.foster_sum(g)
    if foster != b1:
        raise CrosscheckFailure(
            f"foster identity fails: {format_rational(foster)} != b1 = {b1}"
        )
    crosschecks = {
        "epsilon_paths_agree": True,
        "phi_paths_agree": True,
        "psi_combination": ps == eps + Fraction(2 * h - 2, 2 * h + 1) * ph,
        "canonical_mass_one": mu_can.total_mass == 1,
        "admissible_mass_one": mu.total_mass == 1,
        "admissible_forms_agree": True,
        "foster_identity": foster == b1,
    }
    if not all(crosschecks.values()):
        failing = sorted(k for k, v in crosschecks.items() if not v)
        raise CrosscheckFailure(f"crosscheck failed: {failing[0]}")
    edge_resistance = {
        e.id: str(circuit.excised_edge_resistance(g, e.id)) for e in g.edges
    }
    return InvariantReport(
        b1=b1,
        h=h,
        delta=total_length(g),
        epsilon=eps,
        phi=ph,
        psi=ps,
        capacity=potentials.capacity(g),
        edge_resistance=edge_resistance,
        canonical_measure=mu_can.summary(),
        admissible_measure=mu.summary(),
        stable=validation.stable,
        crosschecks=crosschecks,
    )
