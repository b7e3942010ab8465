"""The tau route to epsilon and phi (`invariants.tau_epsilon_phi`).

It reads only the vertex table and kappa(e), so its exact agreement with the
engine's two paths (`_dual_values`, which integrate against measures and
potentials) checks both, and `_dual_values` runs it as a certificate.  The
slow engine of `test_slow_path.py`, which shares no table, checks it on that
file's graphs.
"""

import json
import random
from fractions import Fraction

import pytest

from tropinv import CrosscheckFailure, GenusZero, PolarizedMetricGraph, build, fit_phi, total_length
from tropinv import circuit, invariants, potentials
from tropinv.cli import main
from tropinv.genus2 import CATALOG, arity
from tropinv.graphs import dumps

from helpers import is_bridge, random_connected_graph


def _tau(g, y):
    """tau from the vertex y: (1/4) sum over edges of kappa^2 L^3/3 + (r(q, y) - r(p, y))^2 / L."""
    total = Fraction(0)
    for e in g.edges:
        r_p, r_q = (circuit.resistance_between_vertices(g, v, y) for v in e.ends)
        total += circuit.edge_density(g, e.id) ** 2 * e.length**3 / 3 + (r_q - r_p) ** 2 / e.length
    return total / 4


def _route_tau(g):
    """The route's tau, read back from its two values: phi - epsilon/2 = 3 tau - delta/4."""
    eps, ph = invariants.tau_epsilon_phi(g)
    return (ph - eps / 2 + total_length(g) / 4) / 3


def _cases():
    rng = random.Random(17)
    graphs = [random_connected_graph(rng, genus_min=1, genus_max=4, max_vertices=6) for _ in range(60)]
    graphs += [build(tag, (Fraction(2), Fraction(3, 7), Fraction(5, 2))[: arity(tag)]) for tag in CATALOG if arity(tag)]
    graphs.append(
        PolarizedMetricGraph.build([("v", 0)], [("a", ("v", "v"), Fraction(3, 2)), ("b", ("v", "v"), 5)])
    )
    graphs.append(
        PolarizedMetricGraph.build(
            [("a", 1), ("b", 0), ("c", 2)],
            [("ab", ("a", "b"), Fraction(4, 3)), ("bc", ("b", "c"), 2)],
        )
    )
    return graphs


CASES = _cases()


def test_cases_cover_every_kind_of_edge_and_vertex():
    assert len(CASES) >= 60
    assert any(e.is_loop for g in CASES for e in g.edges)
    assert any(is_bridge(g, e.id) for g in CASES for e in g.edges)
    assert any(not e.is_loop and not is_bridge(g, e.id) for g in CASES for e in g.edges)
    assert any(
        not e.is_loop and any(o.id != e.id and set(o.ends) == set(e.ends) for o in g.edges)
        for g in CASES
        for e in g.edges
    )
    assert any(v.q > 0 for g in CASES for v in g.vertices)
    assert any(len(g.vertices) == 1 for g in CASES)
    # a tree whose genus comes only from q
    assert any(len(g.edges) == len(g.vertices) - 1 for g in CASES)


def test_route_equals_the_engine():
    for g in CASES:
        assert invariants.tau_epsilon_phi(g) == invariants._dual_values(g)


def test_tau_does_not_depend_on_the_vertex():
    for g in CASES:
        ids = g.vertex_ids()
        assert _tau(g, ids[0]) == _tau(g, ids[-1]) == _route_tau(g)


def test_loop_and_bridge_tau():
    # a circle of length L has tau L/12, a segment L/4
    assert _route_tau(build("III", (Fraction(5, 3),))) == Fraction(5, 36)
    assert _route_tau(build("II", (Fraction(5, 3),))) == Fraction(5, 12)


def test_genus_zero_rejected():
    tree = PolarizedMetricGraph.build([("a", 0), ("b", 0)], [("e", ("a", "b"), 1)])
    with pytest.raises(GenusZero):
        invariants.tau_epsilon_phi(tree)
    with pytest.raises(GenusZero):
        fit_phi(tree)


def test_certificate_fires_when_both_paths_move_together(monkeypatch, tmp_path, capsys):
    # one more unit in T.w at a vertex with K_q != 0 moves f there, and the
    # capacity with it, so both paths of `_dual_values` move alike and still
    # agree; only the tau route, which never reads T.w, sees the change
    real = potentials._weighted_sums

    def shifted(g):
        tw = list(real(g))
        tw[next(i for i, k in enumerate(invariants._polarization(g)) if k)] += 1
        return tw

    monkeypatch.setattr(potentials, "_weighted_sums", shifted)
    g = build("VI", (1, 2, 3))
    with pytest.raises(CrosscheckFailure, match="the tau route disagree"):
        invariants._dual_values(g)
    path = tmp_path / "vi.json"
    path.write_text(dumps(g))
    assert main(["invariants", str(path)]) == CrosscheckFailure.exit_code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert json.loads(captured.err)["payload"]["error"] == "CrosscheckFailure"
