import random
from fractions import Fraction

import pytest

from tropinv import (
    ArityMismatch,
    build,
    check_closed_form,
    check_sunset_rescaling,
    closed_form_pair,
    closed_form_phi,
    genus,
    is_stable,
    phi,
)
from tropinv.genus2 import CATALOG, TAGS, arity, catalog_identity_report
from tropinv.polys import poly_degree, poly_eval

from helpers import is_bridge, random_rational


def test_topologies():
    expected = {
        "trivial": (1, 0),
        "I": (2, 3),
        "II": (2, 1),
        "III": (1, 1),
        "IV": (2, 2),
        "V": (1, 2),
        "VI": (2, 3),
    }
    for tag in TAGS:
        g = build(tag, [1] * arity(tag))
        assert (len(g.vertices), len(g.edges)) == expected[tag]
        assert arity(tag) == len(g.edges)
        # the catalog's bridge column is what a graph search finds
        assert set(CATALOG[tag][2]) == {e.id for e in g.edges if is_bridge(g, e.id)}
        assert genus(g)[1] == 2
        assert is_stable(g)


def test_arity_mismatch():
    with pytest.raises(ArityMismatch):
        build("I", (1, 1))
    with pytest.raises(ArityMismatch):
        build("II", ())
    with pytest.raises(ArityMismatch):
        build("nope", ())
    with pytest.raises(ArityMismatch):
        build("II", (-1,))


def test_closed_form_values():
    assert closed_form_phi("I", (1, 1, 1)) == Fraction(1, 9)
    assert closed_form_phi("II", (Fraction(7, 3),)) == Fraction(7, 3)
    assert closed_form_phi("III", (4,)) == Fraction(1, 3)
    assert closed_form_phi("IV", (2, 3)) == Fraction(9, 4)
    m = Fraction(5, 7)
    assert closed_form_phi("V", (m, m)) == m / 6
    assert closed_form_phi("VI", (2, 1, 1)) == 2 + Fraction(2, 12)
    assert closed_form_phi("trivial") == 0


def test_engine_matches_closed_form():
    assert check_closed_form("I", (2, 3, 5)).equal
    assert check_closed_form("II", (Fraction(7, 3),)).equal
    assert check_closed_form("III", (4,)).equal
    rng = random.Random(5)
    for tag in ("I", "II", "III", "IV", "V", "VI"):
        for _ in range(4):
            lengths = [random_rational(rng) for _ in range(arity(tag))]
            rep = check_closed_form(tag, lengths)
            assert rep.equal, rep.to_dict()


def test_sunset_rescaling():
    assert check_sunset_rescaling((1, 1, 1)).equal
    assert check_sunset_rescaling((1, 1, 1)).engine_phi == Fraction(1, 9)
    assert check_sunset_rescaling((2, 2, 2)).engine_phi == Fraction(2, 9)
    assert check_sunset_rescaling((1, 2, 3)).equal


def test_catalog_identities_hold():
    rng = random.Random(6)
    for tag in ("I", "II", "III", "IV", "V", "VI"):
        lengths = [random_rational(rng) for _ in range(arity(tag))]
        assert catalog_identity_report(tag, lengths).all_hold


def test_closed_form_pairs():
    # after clearing, row I has degrees 3/2 and the others 1/0
    p, q = closed_form_pair("I")
    assert poly_degree(p) == 3 and poly_degree(q) == 2
    for tag in ("II", "III", "IV", "V", "VI"):
        p, q = closed_form_pair(tag)
        assert poly_degree(p) == 1 and poly_degree(q) == 0
    # pair evaluations agree with the engine, not with closed_form_phi,
    # which reads the same catalog row
    rng = random.Random(8)
    for tag in ("I", "II", "III", "IV", "V", "VI"):
        lengths = [random_rational(rng) for _ in range(arity(tag))]
        p, q = closed_form_pair(tag)
        assert poly_eval(p, lengths) / poly_eval(q, lengths) == phi(build(tag, lengths))
    # the pair is a copy: changing it leaves the catalog as it was
    p, q = closed_form_pair("VI")
    p[(1, 0, 0)] = 0
    q.clear()
    assert closed_form_pair("VI") == ({(1, 0, 0): 12, (0, 1, 0): 1, (0, 0, 1): 1}, {(0, 0, 0): 12})
    assert closed_form_phi("VI", (2, 1, 1)) == 2 + Fraction(2, 12)
