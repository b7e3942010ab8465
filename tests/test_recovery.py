import json
import random
from fractions import Fraction

import pytest

from tropinv import (
    DenominatorZero,
    RankDeficient,
    build,
    closed_form_pair,
    evaluate,
    fit_phi,
    phi,
)
from tropinv import invariants, linalg
from tropinv.cli import main
from tropinv.genus2 import arity
from tropinv.graphs import dumps
from tropinv.polys import (
    is_homogeneous,
    monomials,
    poly_equal,
    poly_mul,
)

from helpers import random_rational


def test_monomials():
    assert monomials(0, 2) == [(0, 0)]
    assert monomials(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert len(monomials(5, 3)) == 21
    assert len(monomials(4, 3)) == 15


def test_fit_type_ii():
    fit = fit_phi(build("II", (1,)), seed=1)
    assert dict(fit.function.numerator) == {(1,): 1}
    assert dict(fit.function.denominator) == {(0,): 1}
    assert fit.function.degrees == (1, 0)
    assert fit.common_factor_power == 0


def test_fit_type_iii():
    fit = fit_phi(build("III", (1,)), seed=1)
    # b1 = 1: contract degrees (3, 2); the reduced pair is (x, 12)
    assert fit.function.degrees == (3, 2)
    assert dict(fit.reduced_numerator) == {(1,): 1}
    assert dict(fit.reduced_denominator) == {(0,): 12}
    assert evaluate(fit.function, (Fraction(5, 2),)) == Fraction(5, 24)


def _cross_multiplied_equal(fit, tag):
    p_tab, q_tab = closed_form_pair(tag)
    p_fit = fit.function.numerator_poly()
    q_fit = fit.function.denominator_poly()
    return poly_equal(poly_mul(p_fit, q_tab), poly_mul(p_tab, q_fit))


def test_fit_catalog_cross_multiplication():
    for tag, seed in (("I", 2), ("IV", 3), ("V", 4), ("VI", 5)):
        fit = fit_phi(build(tag, [1] * arity(tag)), seed=seed)
        assert _cross_multiplied_equal(fit, tag), tag
        b1 = fit.b1
        assert fit.function.degrees == (2 * b1 + 1, 2 * b1)
        assert is_homogeneous(fit.function.numerator_poly(), 2 * b1 + 1)
        assert is_homogeneous(fit.function.denominator_poly(), 2 * b1)


def test_fit_sunset_reduced_denominator():
    fit = fit_phi(build("I", (1, 1, 1)), seed=9)
    # reduced denominator is 12 * (x1 x2 + x2 x3 + x3 x1)
    assert dict(fit.reduced_denominator) == {(1, 1, 0): 12, (0, 1, 1): 12, (1, 0, 1): 12}
    assert evaluate(fit.function, (1, 1, 1)) == Fraction(1, 9)
    assert evaluate(fit.function, (2, 3, 5)) == phi(build("I", (2, 3, 5)))


def test_fit_homogeneity():
    fit = fit_phi(build("V", (1, 1)), seed=11)
    rng = random.Random(11)
    for _ in range(5):
        x = (random_rational(rng), random_rational(rng))
        lam = random_rational(rng)
        assert evaluate(fit.function, (lam * x[0], lam * x[1])) == lam * evaluate(fit.function, x)
    assert evaluate(fit.function, (1, 2)) == Fraction(1, 4)


def test_fit_deterministic():
    a = fit_phi(build("IV", (1, 1)), seed=21)
    b = fit_phi(build("IV", (1, 1)), seed=21)
    assert a == b
    c = fit_phi(build("IV", (1, 1)), seed=22)
    assert c.samples != a.samples  # different draws, same function
    assert poly_equal(c.function.numerator_poly(), a.function.numerator_poly())


def test_denominator_zero():
    fit = fit_phi(build("V", (1, 1)), seed=13)
    with pytest.raises(DenominatorZero):
        evaluate(fit.function, (1, -1))  # padding factor (x1+x2)^k vanishes


def test_fit_validation_transcript():
    fit = fit_phi(build("II", (1,)), seed=31)
    d = fit.to_dict()
    # fit_phi raises on a failed held-out sample, so no "validated" flag is reported
    assert "validated" not in d
    assert d["seed"] == 31
    assert len(d["held_out"]) == 10
    assert len(d["samples"]) >= 2 * 2
    assert d["degrees"] == [1, 0]


def _constant_phi(monkeypatch):
    """phi := 1 on every graph; no P/Q of degrees (k+1, k) is constant, so no degree has a kernel."""
    monkeypatch.setattr(invariants, "phi", lambda g: Fraction(1))


def test_fit_without_a_kernel_raises_rank_deficient(monkeypatch):
    _constant_phi(monkeypatch)
    kernels = []
    nullspace = linalg.nullspace

    def recorded(rows):
        kernels.append(nullspace(rows))
        return kernels[-1]

    monkeypatch.setattr(linalg, "nullspace", recorded)
    with pytest.raises(RankDeficient, match="no kernel at any denominator degree") as info:
        fit_phi(build("VI", (1, 2, 3)), seed=0)
    assert info.value.basis == []
    # b1 = 2: every denominator degree 0..4 was tried, and none had a kernel
    assert kernels == [[]] * 5


def test_cli_fit_without_a_kernel_exits_crosscheck(monkeypatch, tmp_path, capsys):
    _constant_phi(monkeypatch)
    family = tmp_path / "vi.json"
    family.write_text(dumps(build("VI", (1, 2, 3))))
    code = main(["fit", str(family)])
    captured = capsys.readouterr()
    assert code == RankDeficient.exit_code == 4
    assert captured.out == ""
    assert "Traceback" not in captured.err
    body = json.loads(captured.err)["payload"]
    assert body["error"] == "RankDeficient"
    assert body["message"].startswith("no kernel at any denominator degree")
