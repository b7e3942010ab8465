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

A third route (`tau_epsilon_phi`) reads only the vertex resistance table and
the edge constant kappa(e): the tau constant of Baker and Rumely and the
polarized pair sum theta give both invariants (Cinkir).  `recovery.fit_phi`
trains on it and checks its fit against `phi` on held-out lengths; the
report does not call it.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import circuit, potentials
from .errors import CrosscheckFailure
from .graphs import genus, is_stable, memoized, polarized_divisor, require_positive_genus, total_length
from .rational import decimal_string, format_rational

_ZERO = Fraction(0)


def _diagonal_integral(g, nu):
    """Exact integral of the diagonal g(x, x) = f(x) - c against a measure nu."""
    return potentials.integrate_potential(g, nu) - potentials.capacity(g) * nu.total_mass


@memoized
def diagonal_weights(g, quantity):
    """The measure that g(x,x) is integrated against, as a `potentials.Measure`.

    epsilon: (2h-2) mu + delta_{K_q};  phi: (10h+2) mu - delta_{K_q}.
    Memoized per graph and quantity: the oracle ladder reads it once per
    order.
    """
    _, h = genus(g)
    mu = potentials.admissible_measure(g)
    k_q = polarized_divisor(g)
    scale, sign = (2 * h - 2, 1) if quantity == "epsilon" else (10 * h + 2, -1)
    atoms = {v.id: scale * mu.atom(v.id) + sign * k_q[v.id] for v in g.vertices}
    densities = {e.id: scale * mu.density(e.id) for e in g.edges}
    return potentials.Measure(g, atoms, densities, quantity)


def _dual_values(g):
    """(epsilon, phi) with both computation paths checked against each other."""
    _, h = genus(g)
    k_q = polarized_divisor(g)
    c = potentials.capacity(g)
    delta = total_length(g)

    eps_primary = _diagonal_integral(g, diagonal_weights(g, "epsilon"))
    phi_primary = -delta / 4 + _diagonal_integral(g, diagonal_weights(g, "phi")) / 4

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


def tau_epsilon_phi(g):
    """(epsilon, phi) from the tau constant, with no measure or potential.

    tau = (1/4) integral of (d/dx r(x, y))^2 dx does not depend on y; take y
    the first vertex.  On e = (p, q) of length L, r(., y) is the quadratic
    anchored at r(p, y) and r(q, y) with leading coefficient -kappa(e), so e
    adds (kappa(e)^2 L^3/3 + (r(q, y) - r(p, y))^2 / L) / 4.  With theta the
    sum over ordered vertex pairs of K_q(p) K_q(q) r(p, q):

        phi     = ((5h-2)/h) tau + theta/(4h) - delta/4
        epsilon = ((4h-4)/h) tau + theta/(2h)

    Not memoized: `fit_phi` calls it once on each graph it builds.
    """
    h = require_positive_genus(g)
    index, table, d = circuit._vertex_table(g)
    tau = _ZERO
    for e in g.edges:
        r_p, r_q = (table[index[v]][0] for v in e.ends)
        kappa = circuit.edge_density(g, e.id)
        tau += kappa**2 * e.length**3 / 3 + Fraction(r_q - r_p, d) ** 2 / e.length
    tau /= 4
    k_q = polarized_divisor(g)
    k = [int(k_q[vid]) for vid in index]
    theta = Fraction(sum(a * sum(b * t for b, t in zip(k, row)) for a, row in zip(k, table)), d)
    eps = (4 * h - 4) * tau / h + theta / (2 * h)
    ph = (5 * h - 2) * tau / h + theta / (4 * h) - total_length(g) / 4
    return eps, ph


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


# The checks a report names.  Each raises CrosscheckFailure where it runs
# (the two paths in `_dual_values`, the masses and the two admissible forms
# in `potentials`, the Foster identity in `report`), and psi is the
# combination by definition, so a report that exists records each as held.
_CROSSCHECKS = (
    "epsilon_paths_agree",
    "phi_paths_agree",
    "psi_combination",
    "canonical_mass_one",
    "admissible_mass_one",
    "admissible_forms_agree",
    "foster_identity",
)


def report(g):
    """Full invariant report; every crosscheck must hold or the failing one raises."""
    b1, h = genus(g)
    eps, ph = _epsilon_phi(g)
    foster = circuit.foster_sum(g)
    if foster != b1:
        raise CrosscheckFailure(
            f"foster identity fails: {format_rational(foster)} != b1 = {b1}"
        )
    edge_resistance = {
        e.id: str(circuit.excised_edge_resistance(g, e.id)) for e in g.edges
    }
    return InvariantReport(
        b1=b1,
        h=h,
        delta=total_length(g),
        epsilon=eps,
        phi=ph,
        psi=psi(g),
        capacity=potentials.capacity(g),
        edge_resistance=edge_resistance,
        canonical_measure=potentials.canonical_measure(g).summary(),
        admissible_measure=potentials.admissible_measure(g).summary(),
        stable=is_stable(g),
        crosschecks=dict.fromkeys(_CROSSCHECKS, True),
    )
