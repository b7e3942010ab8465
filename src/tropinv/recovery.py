"""Recovery of phi as a multivariate rational function from exact samples.

For a graph family with r ordered edges and first Betti number b1, phi is a
ratio P/Q of homogeneous integer polynomials of degrees 2*b1+1 and 2*b1.  The
fit samples phi exactly at random integer length vectors and solves the
homogeneous system P(x) - phi(x) Q(x) = 0 by exact elimination.  The training
values come from the tau route (`invariants.tau_epsilon_phi`), which reads
only the vertex table and kappa(e); the engine's `invariants.phi` is called
only on the held-out vectors, where the fitted P and Q are evaluated in
integers.  The held-out check therefore compares two routes that share only
the table and kappa(e).

The kernel at the full degrees contains every multiple (L*P0, L*Q0) of the
reduced solution, so the solver walks denominator degrees upward and stops at
the first degree with a kernel; that kernel must be one-dimensional (else
RankDeficient reports the candidate basis).  The reduced pair is then padded
to the contract degrees by the power of sigma = x1 + ... + xr needed, which
is positive on the whole positive orthant; both forms are recorded.
"""

from dataclasses import dataclass
from functools import cache
from math import prod
import random

from . import invariants, linalg, polys
from .errors import ArityMismatch, DenominatorZero, RankDeficient, ValidationFailure
from .graphs import genus, with_lengths
from .rational import as_fraction, format_rational

_SAMPLE_RANGE = (1, 97)
# held-out sample vectors at which a fit must reproduce the engine's phi
_HOLDOUT = 10


@dataclass(frozen=True)
class MultivariateRationalFunction:
    """P/Q with integer coefficient maps keyed by exponent tuples.

    P is homogeneous of degree 2*b1+1 and Q of degree 2*b1; the joint integer
    content is one and the lexicographically first denominator coefficient is
    positive.
    """

    nvars: int
    numerator: tuple  # ((exponents, coeff), ...) sorted
    denominator: tuple

    @classmethod
    def from_polys(cls, nvars, p, q):
        return cls(nvars, tuple(sorted(p.items())), tuple(sorted(q.items())))

    def numerator_poly(self):
        return dict(self.numerator)

    def denominator_poly(self):
        return dict(self.denominator)

    @property
    def degrees(self):
        return (
            polys.poly_degree(self.numerator_poly()),
            polys.poly_degree(self.denominator_poly()),
        )

    def evaluate(self, lengths):
        xs = [x if type(x) is int else as_fraction(x) for x in lengths]
        if len(xs) != self.nvars:
            raise ValidationFailure(f"expected {self.nvars} lengths, got {len(xs)}")
        den = polys.poly_eval(self.denominator_poly(), xs)
        if den == 0:
            raise DenominatorZero(
                f"denominator vanishes at ({', '.join(format_rational(x) for x in xs)})"
            )
        return polys.poly_eval(self.numerator_poly(), xs) / den


@dataclass(frozen=True)
class FitResult:
    function: MultivariateRationalFunction
    reduced_numerator: tuple
    reduced_denominator: tuple
    common_factor_power: int
    edge_order: tuple
    b1: int
    seed: int
    samples: tuple
    held_out: tuple

    @property
    def validated(self):
        """Always True: `fit_phi` raises `ValidationFailure` instead of returning a failed fit.

        Not in the payload; kept as an attribute because the fit_family
        benchmark's check reads it.
        """
        return True

    def to_dict(self):
        def poly_map(items):
            return {",".join(str(e) for e in expo): str(c) for expo, c in items}

        return {
            "edge_order": list(self.edge_order),
            "b1": self.b1,
            "degrees": list(self.function.degrees),
            "numerator": poly_map(self.function.numerator),
            "denominator": poly_map(self.function.denominator),
            "reduced_numerator": poly_map(self.reduced_numerator),
            "reduced_denominator": poly_map(self.reduced_denominator),
            "common_factor_power": self.common_factor_power,
            "seed": self.seed,
            "samples": [list(s) for s in self.samples],
            "held_out": [list(s) for s in self.held_out],
        }


def _distinct_samples(rng, count, nvars):
    lo, hi = _SAMPLE_RANGE
    seen = set()
    out = []
    while len(out) < count:
        vec = tuple(rng.randint(lo, hi) for _ in range(nvars))
        if vec in seen:
            continue  # degenerate draw: duplicates reduce the rank
        seen.add(vec)
        out.append(vec)
    return out


def _normalized_pair(p_frac, q_frac):
    """Joint integer clearing, content one, first denominator coefficient positive."""
    combined = {("P",) + e: c for e, c in p_frac.items()}
    combined.update({("Q",) + e: c for e, c in q_frac.items()})
    ints = polys.integer_content_normalize(combined)
    p = {e[1:]: c for e, c in ints.items() if e[0] == "P"}
    q = {e[1:]: c for e, c in ints.items() if e[0] == "Q"}
    lead = q[min(q)]
    if lead < 0:
        p = polys.poly_scale(p, -1)
        q = polys.poly_scale(q, -1)
    return p, q


def fit_phi(g, seed=0):
    """Fit phi of the graph's topology as an exact rational function.

    Edge lengths of `g` are template values only; variables follow the sorted
    edge id order.  Samples are random integer vectors in [1, 97], at least
    twice the full coefficient count, valued by the tau route, plus
    `_HOLDOUT` held-out vectors at which the fitted function must reproduce
    the engine's phi exactly.
    """
    edge_order = tuple(sorted(e.id for e in g.edges))
    r = len(edge_order)
    if r == 0:
        raise ArityMismatch("the family has no edges; nothing to fit")
    b1, _ = genus(g)
    deg_p_full = 2 * b1 + 1
    deg_q_full = 2 * b1
    dim_full = len(polys.monomials(deg_p_full, r)) + len(polys.monomials(deg_q_full, r))
    rng = random.Random(seed)
    vectors = _distinct_samples(rng, 2 * dim_full + _HOLDOUT, r)
    train = vectors[: 2 * dim_full]
    held = vectors[2 * dim_full :]

    def graph_at(vec):
        return with_lengths(g, dict(zip(edge_order, vec)))

    train_values = [invariants.tau_epsilon_phi(graph_at(vec))[1] for vec in train]

    @cache
    def values_at(degree):
        """Each training sample's values of the degree's monomials, as ints."""
        monos = polys.monomials(degree, r)
        return [[prod(x**e for x, e in zip(vec, m)) for m in monos] for vec in train]

    fitted = None
    for deg_q in range(deg_q_full + 1):
        monos_p = polys.monomials(deg_q + 1, r)
        monos_q = polys.monomials(deg_q, r)
        rows = [
            p_values + [-value * v for v in q_values]
            for p_values, q_values, value in zip(values_at(deg_q + 1), values_at(deg_q), train_values)
        ]
        kernel = linalg.nullspace(rows)
        if not kernel:
            continue
        if len(kernel) > 1:
            raise RankDeficient(
                f"kernel at denominator degree {deg_q} has dimension {len(kernel)}",
                basis=kernel,
            )
        vec = kernel[0]
        p0 = {m: vec[i] for i, m in enumerate(monos_p) if vec[i] != 0}
        q0 = {m: vec[len(monos_p) + i] for i, m in enumerate(monos_q) if vec[len(monos_p) + i] != 0}
        if not q0:
            raise RankDeficient(
                f"kernel vector at denominator degree {deg_q} has zero denominator",
                basis=kernel,
            )
        fitted = (deg_q, *_normalized_pair(p0, q0))
        break
    if fitted is None:
        raise RankDeficient("no kernel at any denominator degree up to the bound", basis=[])

    deg_q_found, p0, q0 = fitted
    pad = deg_q_full - deg_q_found
    if pad:
        sigma = {tuple(int(i == k) for i in range(r)): 1 for k in range(r)}
        multiplier = polys.poly_pow(sigma, pad)
        p = polys.poly_mul(p0, multiplier)
        q = polys.poly_mul(q0, multiplier)
    else:
        p, q = p0, q0
    p, q = _normalized_pair(p, q)
    function = MultivariateRationalFunction.from_polys(r, p, q)
    if not polys.is_homogeneous(p, deg_p_full) or not polys.is_homogeneous(q, deg_q_full):
        raise ValidationFailure("fitted polynomials are not homogeneous of the contract degrees")

    for vec in held:
        if function.evaluate(vec) != invariants.phi(graph_at(vec)):
            raise ValidationFailure(
                f"held-out sample {vec} disagrees with the engine value"
            )
    return FitResult(
        function=function,
        reduced_numerator=tuple(sorted(p0.items())),
        reduced_denominator=tuple(sorted(q0.items())),
        common_factor_power=pad,
        edge_order=edge_order,
        b1=b1,
        seed=seed,
        samples=tuple(train),
        held_out=tuple(held),
    )


def evaluate(function, lengths):
    """Exact evaluation of a fitted rational function."""
    return function.evaluate(lengths)
