"""Independent approximate computations that certify the exact engine.

The quadrature routes approximate the invariant integrals with midpoint sums
of pointwise Green values, never reusing the engine's closed-form polynomial
integration; the midpoint error is the only error, so it shrinks like 1/M^2
and the exact engine value must sit inside the shrinking ladder.  The
diagonal sums evaluate the potential at all midpoints of an edge in one
`potentials._edge_potentials` call, each midpoint on its own, and add the
integer numerators over their one denominator; nothing is summed over the
midpoints in closed form.  The Laplacian probe measures second differences
of y -> g(x, y) along an edge and compares them with the measure density;
the subdivision check asserts exact model independence under random
refinements, each made in one `graphs.with_points` call.
"""

from dataclasses import dataclass
from fractions import Fraction
import random

from . import circuit, invariants, potentials
from .errors import FloatOverflow
from .graphs import EdgePoint, VertexPoint, check_point, require_positive_genus, total_length, with_points
from .rational import format_rational


def _float(value):
    """The float nearest an exact value; every Fraction this module reports as a float goes through here."""
    try:
        return float(value)
    except OverflowError:
        raise FloatOverflow("an exact value is too large for a float; the oracle reports floats") from None


def _midpoints(length, order):
    return [length * (2 * k - 1) / (2 * order) for k in range(1, order + 1)]


def _midpoint_sum(g, eid, points, value):
    """The midpoint rule on edge e: m(e)/n times the sum of `value` over its n samples."""
    return g.edge(eid).length / len(points) * sum((value(s) for s in points), Fraction(0))


def _diagonal_quadrature(g, order, nu):
    """Midpoint-rule integral of g(x,x) against a measure nu.

    Atom terms are exact `potentials.green` values at the vertices.  On an
    edge the M = `order` midpoints are the points L a/(2M), a = 1, 3, ...,
    2M - 1, and g(x, x) = f(x) - c at each is the potential from
    `potentials._edge_potentials`, so the sum over them is the sum of the
    numerators over their common denominator plus M (C - c).  Returns an
    exact Fraction (the quadrature sum itself carries the only
    approximation).
    """
    c = potentials.capacity(g)
    odd = range(1, 2 * order, 2)

    def over_edge(eid):
        nums, den, offset = potentials._edge_potentials(g, eid, odd, 2 * order)
        return g.edge(eid).length / order * (Fraction(sum(nums), den) + order * (offset - c))

    return nu.integrate(lambda vid: potentials.green(g, VertexPoint(vid), VertexPoint(vid)), over_edge)


def quadrature_phi(g, order):
    """Midpoint-rule approximation of phi at M samples per edge."""
    require_positive_genus(g)
    if order < 2:
        raise ValueError("quadrature order must be at least 2")
    nu = invariants.diagonal_weights(g, "phi")
    return _float(-total_length(g) / 4 + _diagonal_quadrature(g, order, nu) / 4)


def quadrature_epsilon(g, order):
    """Midpoint-rule approximation of epsilon at M samples per edge."""
    require_positive_genus(g)
    if order < 2:
        raise ValueError("quadrature order must be at least 2")
    return _float(_diagonal_quadrature(g, order, invariants.diagonal_weights(g, "epsilon")))


@dataclass(frozen=True)
class OracleReport:
    quantity: str
    exact: float
    exact_rational: str
    orders: tuple
    approximations: tuple
    abs_errors: tuple
    ratios: tuple  # error(M) / error(2M) for consecutive orders, None when tiny
    tolerance: float
    errors_non_increasing: bool
    final_error: float
    within_tolerance: bool

    def to_dict(self):
        return {
            "quantity": self.quantity,
            "exact": self.exact_rational,
            "exact_decimal": self.exact,
            "orders": list(self.orders),
            "approximations": list(self.approximations),
            "abs_errors": list(self.abs_errors),
            "ratios": list(self.ratios),
            "tolerance": self.tolerance,
            "errors_non_increasing": self.errors_non_increasing,
            "final_error": self.final_error,
            "within_tolerance": self.within_tolerance,
        }

    def csv_rows(self):
        rows = [("quantity", "order", "approximation", "exact", "abs_error", "ratio_vs_prev")]
        for i, order in enumerate(self.orders):
            ratio = self.ratios[i - 1] if i > 0 else None
            rows.append(
                (
                    self.quantity,
                    order,
                    repr(self.approximations[i]),
                    self.exact_rational,
                    repr(self.abs_errors[i]),
                    "" if ratio is None else repr(ratio),
                )
            )
        return rows


# below this, floating error ratios are noise, not signal
_RATIO_FLOOR = 1e-12


def convergence_report(g, quantity="phi", orders=(8, 16, 32, 64), tolerance=1e-3):
    """Run the quadrature ladder for phi or epsilon and summarize convergence."""
    require_positive_genus(g)
    if quantity == "phi":
        exact = invariants.phi(g)
        approx_fn = quadrature_phi
    elif quantity == "epsilon":
        exact = invariants.epsilon(g)
        approx_fn = quadrature_epsilon
    else:
        raise ValueError(f"unknown oracle quantity {quantity!r}")
    orders = tuple(orders)
    if not orders:
        raise ValueError("the quadrature ladder needs at least one order")
    approximations = [approx_fn(g, m) for m in orders]
    exact_float = _float(exact)
    errors = [abs(a - exact_float) for a in approximations]
    ratios = []
    for prev, nxt in zip(errors, errors[1:]):
        if prev > _RATIO_FLOOR and nxt > _RATIO_FLOOR:
            ratios.append(prev / nxt)
        else:
            ratios.append(None)
    non_increasing = all(a >= b for a, b in zip(errors, errors[1:]))
    final_error = errors[-1]
    return OracleReport(
        quantity=quantity,
        exact=exact_float,
        exact_rational=format_rational(exact),
        orders=orders,
        approximations=tuple(approximations),
        abs_errors=tuple(errors),
        ratios=tuple(ratios),
        tolerance=tolerance,
        errors_non_increasing=non_increasing,
        final_error=final_error,
        within_tolerance=final_error < tolerance,
    )


# ---------------------------------------------------------------------------
# pointwise-resistance quadrature for the Green function itself
# ---------------------------------------------------------------------------

def _potential_quadrature(g, x, mu, samples):
    """Midpoint sum of r(x, .) against mu, from x's ends (`circuit._ends`) computed once.

    `samples` maps each edge with density to its midpoints (`_midpoints`).
    A sample inside x's own edge is u - u^2 kappa(e), u its distance from x
    along e (`circuit.same_edge_resistance`); any other sample, and every
    atom, is `circuit._across` from x's ends.
    """
    x_ends = circuit._ends(g, x)

    def across(point):
        return circuit._across(g, x_ends, circuit._ends(g, point))

    def over_edge(eid):
        if isinstance(x, EdgePoint) and x.edge == eid:
            kappa = circuit.edge_density(g, eid)
            distances = [abs(s - x.offset) for s in samples[eid]]
            return _midpoint_sum(g, eid, distances, lambda u: u - u * u * kappa)
        return _midpoint_sum(g, eid, samples[eid], lambda s: across(EdgePoint(eid, s)))

    return mu.integrate(lambda vid: across(VertexPoint(vid)), over_edge)


def quadrature_green_diagonal(g, x, order):
    """Approximate g(x, x) from pointwise resistances only.

    The potential and capacity are both replaced by midpoint sums of exact
    two-point resistances, so neither the engine's polynomial profiles nor its
    exact capacity enter; error is O(1/M^2).  The midpoints of each edge are
    computed once and shared by every sum.
    """
    require_positive_genus(g)
    x = check_point(g, x)
    mu = potentials.admissible_measure(g)
    samples = {e.id: _midpoints(e.length, order) for e in g.edges}

    def f(point):
        return _potential_quadrature(g, point, mu, samples)

    cap = mu.integrate(
        lambda vid: f(VertexPoint(vid)),
        lambda eid: _midpoint_sum(g, eid, samples[eid], lambda s: f(EdgePoint(eid, s))),
    )
    return _float(f(x) - cap / 2)


# ---------------------------------------------------------------------------
# Laplacian probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeReport:
    edge: str
    step: str
    constants: tuple  # measured -second-difference/step^2 per interior center
    expected: str     # minus the admissible density on the edge
    max_deviation: float
    consistent: bool

    def to_dict(self):
        return {
            "edge": self.edge,
            "step": self.step,
            "constants": list(self.constants),
            "expected": self.expected,
            "max_deviation": self.max_deviation,
            "consistent": self.consistent,
        }


def laplacian_probe(g, x, eid, step):
    """Second differences of y -> g(x, y) along an edge interior.

    With the Laplacian acting as minus the second derivative on edge
    interiors, the measured constant -(g(s+h) - 2 g(s) + g(s-h))/h^2 must
    equal minus the admissible density on the edge, away from x.  Values are
    computed exactly, so the deviation is zero whenever the engine is right.
    """
    require_positive_genus(g)
    x = check_point(g, x)
    e = g.edge(eid)
    if isinstance(x, EdgePoint) and x.edge == eid:
        raise ValueError(f"probe point must not lie on edge {eid!r}")
    h = Fraction(step)
    parts = e.length / h
    if parts.denominator != 1 or parts < 4:
        raise ValueError("step must divide the edge length into at least 4 parts")
    n = int(parts)
    values = []
    for k in range(n + 1):
        s = h * k
        if s == 0:
            point = VertexPoint(e.ends[0])
        elif s == e.length:
            point = VertexPoint(e.ends[1])
        else:
            point = EdgePoint(eid, s)
        values.append(potentials.green(g, x, point))
    constants = []
    for k in range(1, n):
        second = (values[k + 1] - 2 * values[k] + values[k - 1]) / (h * h)
        constants.append(-second)
    expected = -potentials.admissible_measure(g).density(eid)
    max_dev = max(abs(c - expected) for c in constants)
    return ProbeReport(
        edge=eid,
        step=format_rational(h),
        constants=tuple(_float(c) for c in constants),
        expected=format_rational(expected),
        max_deviation=_float(max_dev),
        consistent=max_dev == 0,
    )


# ---------------------------------------------------------------------------
# subdivision invariance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubdivisionReport:
    trials: int
    seed: int
    passed: bool
    failures: tuple

    def to_dict(self):
        return {
            "trials": self.trials,
            "seed": self.seed,
            "passed": self.passed,
            "failures": list(self.failures),
        }


def _random_interior_point(g, rng):
    e = g.edges[rng.randrange(len(g.edges))]
    den = rng.randint(2, 16)
    num = rng.randint(1, den - 1)
    return EdgePoint(e.id, e.length * Fraction(num, den))


def subdivision_invariance_check(g, trials=3, seed=0, min_points=1, max_points=5):
    """Insert random interior points and assert exact invariance.

    Each trial draws two sample points and `min_points`..`max_points` extra
    random rational offsets on g, refines g at all of them at once through
    `with_points`, and compares delta, phi, epsilon, psi, the capacity, and
    Green values at the sample points (read at their vertices in the refined
    graph), all with exact equality.  The refined graph solves its own
    resistance table, so the comparison shares no table with g.
    """
    require_positive_genus(g)
    rng = random.Random(seed)

    def values(graph, points):
        out = {
            "delta": total_length(graph),
            "phi": invariants.phi(graph),
            "epsilon": invariants.epsilon(graph),
            "psi": invariants.psi(graph),
            "capacity": potentials.capacity(graph),
        }
        pairs = [(a, b) for a in points for b in points]
        out.update((f"green value #{i}", potentials.green(graph, a, b)) for i, (a, b) in enumerate(pairs))
        return out

    failures = []
    for trial in range(trials):
        samples = [VertexPoint(vid) for vid in g.vertex_ids()[:2]]
        extra = []
        if g.edges:
            samples += [_random_interior_point(g, rng) for _ in range(2)]
            extra = [_random_interior_point(g, rng) for _ in range(rng.randint(min_points, max_points))]
        refined, vids = with_points(g, samples + extra)
        observed = values(refined, [VertexPoint(vid) for vid in vids[: len(samples)]])
        for name, expected in values(g, samples).items():
            if observed[name] != expected:
                failures.append(
                    f"trial {trial}: {name} changed from {format_rational(expected)} "
                    f"to {format_rational(observed[name])}"
                )
    return SubdivisionReport(trials=trials, seed=seed, passed=not failures, failures=tuple(failures))
