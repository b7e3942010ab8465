import random
from fractions import Fraction

import pytest

from tropinv import (
    CrosscheckFailure,
    GenusZero,
    PolarizedMetricGraph,
    ProfileSampleMismatch,
    epsilon,
    genus,
    insert_point,
    phi,
    psi,
    report,
    scaled,
)
from tropinv.graphs import EdgePoint

from helpers import random_connected_graph, random_rational


def build(tag, lengths=()):
    from tropinv import build as catalog_build

    return catalog_build(tag, lengths)


def test_epsilon_examples():
    rng = random.Random(2)
    for _ in range(5):
        m = random_rational(rng)
        assert epsilon(build("II", (m,))) == m
        assert epsilon(build("III", (m,))) == m / 6
    m1, m2 = Fraction(4, 3), Fraction(7, 2)
    assert epsilon(build("V", (m1, m2))) == (m1 + m2) / 6


def test_phi_examples():
    assert phi(build("I", (1, 1, 1))) == Fraction(1, 9)
    m = Fraction(9, 4)
    assert phi(build("II", (m,))) == m
    assert phi(build("III", (m,))) == m / 12
    assert phi(build("trivial")) == 0


def test_psi_examples():
    assert psi(build("II", (1,))) == Fraction(7, 5)
    assert psi(build("III", (1,))) == Fraction(1, 5)
    assert psi(build("trivial")) == 0


def test_phi_vanishes_in_genus_one():
    circle = PolarizedMetricGraph.build([("v", 0)], [("e", ("v", "v"), Fraction(5, 3))])
    assert genus(circle) == (1, 1)
    assert phi(circle) == 0
    assert epsilon(circle) == 0
    assert psi(circle) == 0


def test_genus_zero_rejected():
    tree = PolarizedMetricGraph.build([("a", 0), ("b", 0)], [("e", ("a", "b"), 1)])
    with pytest.raises(GenusZero):
        phi(tree)


def test_weight_one_homogeneity():
    rng = random.Random(67)
    for _ in range(8):
        g = random_connected_graph(rng, genus_min=1, genus_max=4)
        if not g.edges:
            continue
        lam = random_rational(rng)
        gs = scaled(g, lam)
        assert phi(gs) == lam * phi(g)
        assert epsilon(gs) == lam * epsilon(g)
        assert psi(gs) == lam * psi(g)


def test_subdivision_invariance():
    rng = random.Random(71)
    for _ in range(6):
        g = random_connected_graph(rng, genus_min=1, genus_max=4)
        if not g.edges:
            continue
        values = (phi(g), epsilon(g), psi(g))
        refined = g
        for _ in range(3):
            e = refined.edges[rng.randrange(len(refined.edges))]
            den = rng.randint(2, 9)
            refined, _ = insert_point(refined, EdgePoint(e.id, e.length * Fraction(1, den)))
        assert (phi(refined), epsilon(refined), psi(refined)) == values


def test_non_negativity_stable_graphs():
    rng = random.Random(73)
    for _ in range(30):
        g = random_connected_graph(rng, genus_min=2, genus_max=4, stable=True)
        assert phi(g) >= 0


def test_report_fields():
    g = build("I", (1, 1, 1))
    rep = report(g)
    assert rep.h == 2 and rep.b1 == 2
    assert rep.delta == 3
    assert rep.phi == Fraction(1, 9)
    assert rep.psi == rep.epsilon + Fraction(2 * rep.h - 2, 2 * rep.h + 1) * rep.phi
    assert all(rep.crosschecks.values())
    assert rep.edge_resistance == {"e1": "1/2", "e2": "1/2", "e3": "1/2"}
    payload = rep.to_dict()
    assert payload["phi"] == "1/9"
    assert payload["phi_decimal"] == "0.111111111111"
    assert payload["crosschecks"]["foster_identity"] is True


def test_report_type_vi_and_iv():
    m1, m2, m3 = Fraction(2), Fraction(1, 3), Fraction(5)
    rep = report(build("VI", (m1, m2, m3)))
    assert rep.phi == m1 + (m2 + m3) / 12
    rep = report(build("IV", (m1, m2)))
    assert rep.phi == m1 + m2 / 12
    assert rep.edge_resistance["e1"] == "inf"


def test_dual_path_guard_fires(monkeypatch):
    # corrupt the capacity: the definitional and reduced paths must now differ
    from tropinv import invariants as inv

    g = build("III", (Fraction(9, 7),))
    real = inv.potentials.capacity
    monkeypatch.setattr(inv.potentials, "capacity", lambda graph: real(graph) + 1)
    with pytest.raises(CrosscheckFailure):
        inv._dual_values(g)


def test_profile_certificate_fires(monkeypatch):
    # corrupt kappa(e) on one edge after the measures are built (kappa is
    # also the canonical density, whose mass check would fire first): the
    # value at m(e)/5, which the point row computes without the profile's
    # leading coefficient, must disagree
    from tropinv import potentials as pot

    g = build("VI", (1, 1, 1))
    pot._potential_weights(g)
    real = pot.circuit.edge_density

    def corrupted(graph, eid):
        return real(graph, eid) + (1 if graph is g and eid == "e2" else 0)

    monkeypatch.setattr(pot.circuit, "edge_density", corrupted)
    with pytest.raises(ProfileSampleMismatch):
        pot.potential_profile(g, "e2")


def test_report_on_dense_multigraph():
    # a denser graph keeps the exact machinery honest (and fast enough)
    rng = random.Random(97)
    vids = [f"v{i}" for i in range(8)]
    edges = [(f"t{i}", (vids[i], vids[rng.randrange(i)]), random_rational(rng)) for i in range(1, 8)]
    edges += [
        (f"x{k}", (rng.choice(vids), rng.choice(vids)), random_rational(rng))
        for k in range(7)
    ]
    g = PolarizedMetricGraph.build([(v, rng.randint(0, 1)) for v in vids], edges)
    rep = report(g)
    assert all(rep.crosschecks.values())
    assert rep.psi == rep.epsilon + Fraction(2 * rep.h - 2, 2 * rep.h + 1) * rep.phi
    # refining any edge leaves everything unchanged
    e = g.edges[5]
    g2, _ = insert_point(g, EdgePoint(e.id, e.length / 7))
    assert (phi(g2), epsilon(g2)) == (rep.phi, rep.epsilon)
