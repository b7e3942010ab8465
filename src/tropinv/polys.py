"""Sparse multivariate polynomials as {exponent tuple: coefficient} dicts.

Coefficients are ints or Fractions; zero coefficients are never stored.
Just enough arithmetic for homogeneous interpolation and cross-multiplied
equality checks; nothing here tries to be a computer algebra system.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm


def monomials(degree, nvars):
    """All exponent tuples of the given total degree, in sorted order."""
    if nvars == 0:
        return [()] if degree == 0 else []
    out = set()
    for combo in combinations_with_replacement(range(nvars), degree):
        expo = [0] * nvars
        for v in combo:
            expo[v] += 1
        out.add(tuple(expo))
    return sorted(out)


def poly_clean(p):
    return {e: c for e, c in p.items() if c != 0}


def poly_scale(p, s):
    return poly_clean({e: c * s for e, c in p.items()})


def poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return poly_clean(out)


def poly_pow(p, k):
    if k == 0:
        nvars = len(next(iter(p))) if p else 0
        return {(0,) * nvars: 1}
    out = p
    for _ in range(k - 1):
        out = poly_mul(out, p)
    return out


def poly_eval(p, xs):
    """p at the point xs of int and Fraction coordinates, as one Fraction.

    Nothing is converted, so at an integer point an integer p is summed in
    integers and one Fraction is made at the end.
    """
    total = 0
    for expo, coeff in p.items():
        term = coeff
        for x, e in zip(xs, expo):
            if e:
                term *= x**e
        total += term
    return Fraction(total)


def poly_degree(p):
    return max((sum(e) for e in p), default=None)


def is_homogeneous(p, degree):
    return all(sum(e) == degree for e in p)


def poly_equal(p, q):
    return poly_clean(p) == poly_clean(q)


def integer_content_normalize(p):
    """Clear denominators and divide by the integer content; content-1 result."""
    p = poly_clean(p)
    if not p:
        return {}
    fracs = {e: Fraction(c) for e, c in p.items()}
    mult = lcm(*(f.denominator for f in fracs.values()))
    ints = {e: int(f * mult) for e, f in fracs.items()}
    g = 0
    for c in ints.values():
        g = gcd(g, abs(c))
    return {e: c // g for e, c in ints.items()}
