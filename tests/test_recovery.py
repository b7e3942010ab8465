import hashlib
import json
import random
from fractions import Fraction

import pytest

from tropinv import (
    DenominatorZero,
    RankDeficient,
    ValidationFailure,
    build,
    closed_form_pair,
    closed_form_phi,
    evaluate,
    fit_phi,
    phi,
    total_length,
)
from tropinv import invariants, linalg
from tropinv.cli import main
from tropinv.genus2 import CATALOG, arity
from tropinv.graphs import dumps
from tropinv.polys import (
    is_homogeneous,
    monomials,
    poly_equal,
    poly_eval,
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
    # the padding factor (x1+x2)^k vanishes, at int, Fraction and mixed points
    for point in ((1, -1), (Fraction(1, 2), Fraction(-1, 2)), ("5/7", -Fraction(5, 7))):
        with pytest.raises(DenominatorZero):
            evaluate(fit.function, point)
    assert evaluate(fit.function, (Fraction(1, 2), 1)) == Fraction(1, 8)


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
    """Training phi := 1 on every graph; no P/Q of degrees (k+1, k) is constant, so no degree has a kernel."""
    monkeypatch.setattr(invariants, "tau_epsilon_phi", lambda g: (Fraction(1), Fraction(1)))


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


@pytest.mark.parametrize("tag", ["I", "VI"])
def test_engine_phi_only_on_held_out_vectors(monkeypatch, tag):
    calls = []
    engine_phi = invariants.phi

    def counted(g):
        calls.append(g)
        return engine_phi(g)

    monkeypatch.setattr(invariants, "phi", counted)
    fit = fit_phi(build(tag, (2, 3, 5)), seed=3)
    assert len(calls) == len(fit.held_out) == 10
    assert [tuple(g.edge(eid).length for eid in fit.edge_order) for g in calls] == list(fit.held_out)


# sha256 of `tropinv fit family.json --seed S` stdout, the family being the
# catalog graph of the tag at template lengths (2, 3, 5) cut to its arity
_FIT_DIGESTS = {
    ("I", 0): "7c30ef64d9cde199b6db684f412bec469515342e7ef29ba473070ec42d8ccbfd",
    ("I", 5): "2ef5785004591fc077addea205227d0b73ad0cef3936d6b29e1f2bcbd41f5619",
    ("II", 0): "3f5c53b4133abe1dc80d39b2de304ab904e36e93e3672bc6614b5dd3402fa60f",
    ("II", 5): "94c8cfbb9eecf77e1d7878fdc4a3696c25ec4e276d156df4d5a1f96b060dc839",
    ("III", 0): "a6de1a66e5a13701b4b953bd18fabcf670fb6a601b08decfb6767660cf7f45b8",
    ("III", 5): "ee974165a7b6a582b4a355346d95d62c69e019bfc01ec929c487c1ae0bd575a6",
    ("IV", 0): "85c4ec74e60903fb8c40c390d90428e7f66669178930e90c5a6dc6e5f69f71a9",
    ("IV", 5): "410b1550450af1b392a859cbbd55986db88cc4b54774e59ebee89edd551929dc",
    ("V", 0): "f6ae13e98314199942ef2c613165eeaacd0257c7094bf91725b20cc592d8bbcb",
    ("V", 5): "01203a6909a7927b05c5a3b85878640eac0a65c91628e3379b7eef15c71e07cc",
    ("VI", 0): "90cdfdb1f45ce40b91092e8f88a8ffddd8ea05376afdb0d40d8e998898d930de",
    ("VI", 5): "0ba8ce03203949c1a4184755f8fe920fdd0dfe8e44f4e3bbeb1420a7d41ae925",
}


@pytest.mark.parametrize("tag, seed", [(tag, seed) for tag in CATALOG if arity(tag) for seed in (0, 5)])
def test_fit_stdout_digest_pinned(monkeypatch, tmp_path, capsys, tag, seed):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "family.json").write_text(dumps(build(tag, (2, 3, 5)[: arity(tag)])))
    assert main(["fit", "family.json", "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _FIT_DIGESTS[tag, seed]


def _shifted_route(monkeypatch, shift):
    route = invariants.tau_epsilon_phi

    def shifted(g):
        eps, ph = route(g)
        return eps, ph + shift(g)

    monkeypatch.setattr(invariants, "tau_epsilon_phi", shifted)


def test_wrong_training_route_fails_the_held_out_check(monkeypatch, tmp_path, capsys):
    # phi + delta is P/Q of the contract degrees, so it fits, and only the
    # engine's values at the held-out vectors can tell it from phi
    _shifted_route(monkeypatch, total_length)
    g = build("VI", (1, 2, 3))
    with pytest.raises(ValidationFailure, match="disagrees with the engine value"):
        fit_phi(g, seed=0)
    family = tmp_path / "vi.json"
    family.write_text(dumps(g))
    assert main(["fit", str(family)]) == ValidationFailure.exit_code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["payload"]["error"] == "ValidationFailure"


def test_training_route_off_by_one_exits_4(monkeypatch, tmp_path, capsys):
    # phi + 1 is not homogeneous of degree one, so no P/Q of the contract
    # degrees fits it: the fit stops at the kernel, before the held-out check
    _shifted_route(monkeypatch, lambda g: 1)
    family = tmp_path / "i.json"
    family.write_text(dumps(build("I", (1, 2, 3))))
    assert main(["fit", str(family)]) == RankDeficient.exit_code == 4
    assert json.loads(capsys.readouterr().err)["payload"]["error"] == "RankDeficient"


def _fraction_eval(p, xs):
    """The all-Fraction evaluation: every coefficient and coordinate made a Fraction first."""
    total = Fraction(0)
    for expo, coeff in p.items():
        term = Fraction(coeff)
        for x, e in zip(xs, expo):
            term *= Fraction(x) ** e
        total += term
    return total


def test_poly_eval_equals_the_fraction_sum():
    rng = random.Random(4)
    for _ in range(60):
        nvars = rng.randint(1, 4)
        p = {m: rng.randint(-9, 9) or 1 for m in monomials(rng.randint(0, 5), nvars) if rng.random() < 0.6}
        if rng.random() < 0.3:
            p = {m: Fraction(c, rng.randint(1, 7)) for m, c in p.items()}
        ints = [rng.randint(-20, 97) for _ in range(nvars)]
        fracs = [Fraction(rng.randint(-20, 97), rng.randint(1, 9)) for _ in range(nvars)]
        mixed = [x if rng.random() < 0.5 else y for x, y in zip(ints, fracs)]
        for xs in (ints, fracs, mixed):
            value = poly_eval(p, xs)
            assert type(value) is Fraction
            assert value == _fraction_eval(p, xs)


def test_closed_form_phi_unchanged_on_fraction_lengths():
    rng = random.Random(8)
    for tag in CATALOG:
        p, q = closed_form_pair(tag)
        for _ in range(5):
            lengths = [Fraction(rng.randint(1, 40), rng.randint(1, 9)) for _ in range(arity(tag))]
            assert closed_form_phi(tag, lengths) == _fraction_eval(p, lengths) / _fraction_eval(q, lengths)
