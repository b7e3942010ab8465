import random
from fractions import Fraction

import pytest

from tropinv import (
    admissible_measure,
    build,
    convergence_report,
    epsilon,
    green,
    laplacian_probe,
    phi,
    quadrature_epsilon,
    quadrature_green_diagonal,
    quadrature_phi,
    resistance,
    subdivision_invariance_check,
)
from tropinv import invariants, potentials
from tropinv.oracle import _diagonal_quadrature, _midpoints, _potential_quadrature
from tropinv.graphs import EdgePoint, PolarizedMetricGraph, VertexPoint, on_edge

from helpers import is_bridge, random_connected_graph, reference_diagonal_quadrature


def test_quadrature_phi_converges_on_sunset():
    g = build("I", (1, 1, 1))
    exact = float(phi(g))
    errors = [abs(quadrature_phi(g, m) - exact) for m in (8, 16, 32, 64)]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    for a, b in zip(errors, errors[1:]):
        assert 3 <= a / b <= 5
    assert errors[-1] < 1e-3


def test_quadrature_phi_exact_when_no_density():
    # type II has atoms only: every order reproduces phi exactly
    g = build("II", (Fraction(7, 3),))
    exact = float(phi(g))
    for m in (2, 5, 8):
        assert quadrature_phi(g, m) == exact


def test_quadrature_epsilon():
    g = build("III", (1,))
    exact = float(epsilon(g))
    assert abs(quadrature_epsilon(g, 128) - exact) < 1e-5
    assert abs(quadrature_epsilon(g, 256) - exact) < 3e-6


def test_quadrature_rejects_low_order():
    with pytest.raises(ValueError):
        quadrature_phi(build("III", (1,)), 1)


def test_convergence_report_rejects_no_orders():
    with pytest.raises(ValueError):
        convergence_report(build("III", (1,)), "phi", ())


def test_diagonal_quadrature_matches_pointwise_green():
    # the midpoints of an edge evaluated together, over one denominator,
    # against one `green` call per midpoint with c subtracted at each
    rng = random.Random(71)
    one_vertex = PolarizedMetricGraph.build(
        [("v", 0)], [("a", ("v", "v"), Fraction(2)), ("b", ("v", "v"), Fraction(1, 3))]
    )
    cases = [one_vertex] + [random_connected_graph(rng, genus_min=1, genus_max=5, max_vertices=6) for _ in range(44)]
    seen = set()
    for g in cases:
        mu = admissible_measure(g)
        for e in g.edges:
            if e.is_loop:
                seen.add("loop")
            elif is_bridge(g, e.id):
                seen.add("bridge")
            if any(o.id != e.id and set(o.ends) == set(e.ends) for o in g.edges):
                seen.add("parallel")
            if mu.density(e.id) == 0:
                seen.add("zero density")
        if any(v.q > 0 for v in g.vertices):
            seen.add("q > 0")
        if len(g.vertices) == 1 and g.edges:
            seen.add("one vertex with loops")
        for quantity in ("phi", "epsilon"):
            nu = invariants.diagonal_weights(g, quantity)
            for order in (2, 3, 8):
                assert _diagonal_quadrature(g, order, nu) == reference_diagonal_quadrature(g, order, nu)
    assert seen == {"loop", "bridge", "parallel", "zero density", "q > 0", "one vertex with loops"}


def test_convergence_report():
    g = build("III", (1,))
    rep = convergence_report(g, "phi", orders=(8, 16, 32, 64), tolerance=1e-3)
    assert rep.errors_non_increasing
    assert rep.within_tolerance
    assert all(r is None or 3 <= r <= 5 for r in rep.ratios)
    assert rep.exact_rational == "1/12"
    rows = rep.csv_rows()
    assert rows[0][0] == "quantity"
    assert len(rows) == 5


def test_quadrature_green_diagonal():
    g = build("III", (1,))
    exact = float(Fraction(1, 48))
    approx = quadrature_green_diagonal(g, VertexPoint("v"), 128)
    assert abs(approx - exact) < 1e-4
    better = quadrature_green_diagonal(g, VertexPoint("v"), 512)
    assert abs(better - exact) < 1e-6


def test_quadrature_green_diagonal_off_edge_samples():
    # x lies on some edges with density and off others, so both the
    # closed-form samples along x's edges and the samples read from x's
    # point row are taken; the row sum equals the per-sample resistances
    for g, x in (
        (build("VI", (1, 2, 3)), VertexPoint("a")),
        (build("I", (1, 2, 3)), EdgePoint("e1", Fraction(1, 3))),
    ):
        mu = admissible_measure(g)
        samples = {eid: _midpoints(g.edge(eid).length, 8) for eid, _ in mu.densities()}
        direct = sum(mass * resistance(g, x, VertexPoint(vid)) for vid, mass in mu.atoms())
        for eid, density in mu.densities():
            length = g.edge(eid).length
            direct += density * length / 8 * sum(resistance(g, x, EdgePoint(eid, s)) for s in samples[eid])
        assert _potential_quadrature(g, x, mu, samples) == direct
        exact = float(green(g, x, x))
        errors = [abs(quadrature_green_diagonal(g, x, m) - exact) for m in (8, 16)]
        assert 3 <= errors[0] / errors[1] <= 5
        assert errors[1] < 1e-3


def test_laplacian_probe_loop():
    g = build("III", (1,))
    rep = laplacian_probe(g, VertexPoint("v"), "e1", Fraction(1, 8))
    # admissible density on the loop is 1/2; probe sees minus that
    assert rep.expected == "-1/2"
    assert rep.consistent
    assert all(abs(c + 0.5) < 1e-12 for c in rep.constants)


def test_laplacian_probe_bridge():
    g = build("II", (1,))
    rep = laplacian_probe(g, VertexPoint("a"), "e1", Fraction(1, 4))
    assert rep.expected == "0"
    assert rep.consistent


def test_laplacian_probe_sunset():
    g = build("I", (1, 1, 1))
    rep = laplacian_probe(g, VertexPoint("p"), "e2", Fraction(1, 256))
    assert rep.expected == "-1/3"
    assert rep.consistent
    assert rep.max_deviation < 1e-6


def test_laplacian_probe_preconditions():
    g = build("III", (1,))
    with pytest.raises(ValueError):
        laplacian_probe(g, on_edge("e1", "1/2"), "e1", Fraction(1, 8))
    with pytest.raises(ValueError):
        laplacian_probe(g, VertexPoint("v"), "e1", Fraction(1, 2))  # only 2 parts


def test_subdivision_invariance_examples():
    assert subdivision_invariance_check(build("I", (1, 1, 1)), trials=2, seed=1).passed
    assert subdivision_invariance_check(build("III", (1,)), trials=2, seed=2).passed
    # adversarial split offsets at 1/97 of each edge
    g = build("VI", (2, 1, 1))
    refined = g
    from tropinv import insert_point

    for e in list(g.edges):
        refined, _ = insert_point(refined, EdgePoint(e.id, e.length / 97))
    assert phi(refined) == phi(g)
    assert epsilon(refined) == epsilon(g)


def test_subdivision_invariance_random():
    rng = random.Random(91)
    for _ in range(4):
        g = random_connected_graph(rng, genus_min=1, genus_max=3)
        if not g.edges:
            continue
        rep = subdivision_invariance_check(g, trials=2, seed=rng.randrange(10**6))
        assert rep.passed, rep.failures


@pytest.mark.parametrize(
    "module, name, failure",
    [(potentials, "green", "trial 0: green value #"), (invariants, "phi", "trial 0: phi changed from")],
    ids=["green", "phi"],
)
def test_subdivision_check_catches_a_shift_on_refined_graphs(monkeypatch, module, name, failure):
    # a value shifted by 1/10^6 on every graph with more vertices than g
    g = build("VI", (2, 1, 1))
    real = getattr(module, name)

    def shifted(graph, *args):
        value = real(graph, *args)
        return value + Fraction(1, 10**6) if len(graph.vertices) > len(g.vertices) else value

    monkeypatch.setattr(module, name, shifted)
    rep = subdivision_invariance_check(g, trials=1, seed=3)
    assert not rep.passed
    assert any(f.startswith(failure) for f in rep.failures), rep.failures
