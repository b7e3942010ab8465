import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropinv import (
    GenusMismatch,
    InconsistentCounts,
    LengthMismatch,
    NodeTypeCounts,
    build,
    check_identities,
    d_invariant,
    node_count_rhs,
    node_counts,
    psi_from_counts,
)

from helpers import random_rational


def test_counts_validation():
    c = NodeTypeCounts.build(2, xi0_fixed=1, xi=[1])
    assert c.delta0 == 3
    with pytest.raises(InconsistentCounts):
        NodeTypeCounts.build(2, xi0_fixed=1, delta0=5)
    with pytest.raises(InconsistentCounts):
        NodeTypeCounts.build(1)
    with pytest.raises(InconsistentCounts):
        NodeTypeCounts.build(2, xi0_fixed=-1)
    with pytest.raises(InconsistentCounts):
        NodeTypeCounts.build(2, xi=[1, 2])  # genus 2 allows one xi entry


def test_direct_construction_is_validated():
    # made without `build`, an instance is still checked, with build's message
    with pytest.raises(InconsistentCounts, match=r"^delta0 = 5 but xi0_fixed \+ 2\*sum\(xi\) = 3$"):
        NodeTypeCounts(2, Fraction(1), (Fraction(1),), (), Fraction(5))
    with pytest.raises(InconsistentCounts, match="non-negative"):
        NodeTypeCounts(2, Fraction(-1), (), (), Fraction(-1))
    assert NodeTypeCounts(2, Fraction(1), (Fraction(1),), (), Fraction(3)) == NodeTypeCounts.build(2, 1, [1])


def test_d_invariant_examples():
    m = Fraction(7, 2)
    assert d_invariant(NodeTypeCounts.build(2, delta_i=[m])) == 4 * m
    assert d_invariant(NodeTypeCounts.build(2, xi0_fixed=m)) == 2 * m
    assert d_invariant(NodeTypeCounts.build(2)) == 0


def test_psi_from_counts_examples():
    assert psi_from_counts(NodeTypeCounts.build(2, delta_i=[1])) == Fraction(7, 5)
    assert psi_from_counts(NodeTypeCounts.build(2, xi0_fixed=1)) == Fraction(1, 5)
    assert psi_from_counts(NodeTypeCounts.build(2)) == 0


def test_node_count_rhs_examples():
    counts = NodeTypeCounts.build(2, delta_i=[1])
    assert node_count_rhs(counts) == 7
    assert 3 * d_invariant(counts) - 5 * counts.total_delta == 7

    counts = NodeTypeCounts.build(3, xi=[0, 1])
    assert counts.delta0 == 2
    assert d_invariant(counts) == 8
    assert node_count_rhs(counts) == 10
    assert 3 * 8 - 7 * 2 == 10


def _random_counts(rng, h):
    xi_len = (h - 1) // 2 + 1
    di_len = h // 2
    return NodeTypeCounts.build(
        h,
        xi0_fixed=Fraction(rng.randint(0, 8), rng.randint(1, 4)),
        xi=[Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(xi_len)],
        delta_i=[Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(di_len)],
    )


def test_expansions_agree_random():
    # the explicit psi expansion equals the expansion of 3d - (2h+1) delta
    rng = random.Random(79)
    for _ in range(120):
        h = rng.randint(2, 8)
        counts = _random_counts(rng, h)
        lhs = (2 * h + 1) * psi_from_counts(counts)
        rhs = node_count_rhs(counts)
        assert lhs == rhs
        assert rhs == 3 * d_invariant(counts) - (2 * h + 1) * counts.total_delta


@given(st.integers(2, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_expansions_agree_hypothesis(h, data):
    xi_len = (h - 1) // 2 + 1
    di_len = h // 2
    small = st.fractions(min_value=0, max_value=9, max_denominator=6)
    counts = NodeTypeCounts.build(
        h,
        xi0_fixed=data.draw(small),
        xi=[data.draw(small) for _ in range(xi_len)],
        delta_i=[data.draw(small) for _ in range(di_len)],
    )
    assert (2 * h + 1) * psi_from_counts(counts) == node_count_rhs(counts)


def test_check_identities_catalog():
    rep = check_identities(build("II", (3,)), NodeTypeCounts.build(2, delta_i=[3]))
    assert rep.all_hold
    assert rep.d == 12 and rep.phi == 3 and rep.epsilon == 3

    rep = check_identities(build("V", (1, 1)), NodeTypeCounts.build(2, xi0_fixed=2))
    assert rep.all_hold
    assert rep.phi_identity_lhs == Fraction(1, 3)


def test_check_identities_negative_control():
    # type II nodes misclassified as fixed non-separating: exact nonzero discrepancy
    rep = check_identities(build("II", (2,)), NodeTypeCounts.build(2, xi0_fixed=2))
    assert not rep.all_hold
    d = rep.to_dict()
    assert d["phi_identity"]["discrepancy"] != "0"
    assert d["psi_identity"]["discrepancy"] != "0"


def test_check_identities_mismatches():
    with pytest.raises(GenusMismatch):
        check_identities(build("II", (1,)), NodeTypeCounts.build(3, delta_i=[1]))
    with pytest.raises(LengthMismatch):
        check_identities(build("II", (1,)), NodeTypeCounts.build(2, delta_i=[2]))


def test_catalog_counts_random_lengths():
    from tropinv.genus2 import arity

    rng = random.Random(83)
    for tag in ("I", "II", "III", "IV", "V", "VI"):
        for _ in range(3):
            lengths = [random_rational(rng) for _ in range(arity(tag))]
            rep = check_identities(build(tag, lengths), node_counts(tag, lengths))
            assert rep.all_hold, (tag, lengths, rep.to_dict())


def test_counts_json_roundtrip():
    c = NodeTypeCounts.build(3, xi0_fixed="3/2", xi=[1, "1/4"], delta_i=["2/3"])
    again = NodeTypeCounts.from_json(c.to_json(), 3)
    assert again == c
    assert c.to_json() == {
        "h": 3,
        "xi0_fixed": "3/2",
        "xi": ["1", "1/4"],
        "delta_i": ["2/3"],
        "delta0": "4",
    }


def test_huge_genus_counts_allocate_nothing():
    # the count lists are stored without padding, so a huge h builds at once
    counts = NodeTypeCounts.build(10**12, xi0_fixed=1)
    assert (counts.xi, counts.delta_i) == ((), ())
    assert d_invariant(counts) == 10**12
