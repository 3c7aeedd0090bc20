"""Foundations: coefficient fields, parsing, formatting, orders, homogeneity."""

from fractions import Fraction

import pytest

from functorlab.errors import ConfigurationError, HomogeneityError
from functorlab.oracles import monomials_of_degree
from functorlab.poly import (
    Poly,
    Vec,
    extend_ring,
    format_poly,
    pad_vec,
    parse_poly,
    parse_vec,
    quotient_ring,
    truncate_vec,
)
from functorlab.rings import PolyRing, TermOrder


def test_char_p_arithmetic_wraps_and_inverts():
    R = PolyRing(("x",), char=7)
    assert R.coeff(9) == 2
    assert R.coeff(-1) == 6
    assert R.mul(3, 5) == 1
    assert R.inv(3) == 5
    assert R.coeff(Fraction(1, 3)) == 5


def test_char_zero_is_exact_fractions():
    R = PolyRing(("x",), char=0)
    assert R.coeff("2/6") == Fraction(1, 3)
    assert R.inv(Fraction(3, 4)) == Fraction(4, 3)


def test_characteristic_must_be_prime_or_zero():
    with pytest.raises(ConfigurationError):
        PolyRing(("x",), char=6)


def test_parse_respects_precedence_and_rationals():
    R = PolyRing(("x", "y"), char=0)
    p = parse_poly(R, "(x + y)^2 - 1/2*x*y")
    q = parse_poly(R, "x^2 + 3/2*x*y + y^2")
    assert p == q


def test_parse_rejects_garbage():
    R = PolyRing(("x",), char=0)
    with pytest.raises(ConfigurationError):
        parse_poly(R, "x + ")
    with pytest.raises(ConfigurationError):
        parse_poly(R, "x $ y")
    with pytest.raises(ConfigurationError):
        parse_poly(R, "z")


def test_format_is_canonical_and_reparses():
    R = PolyRing(("x", "y", "z"), char=0)
    p = parse_poly(R, "y*z - 3*x^2 + z*y")  # collects to 2*y*z - 3*x^2
    s = format_poly(p)
    assert s == "-3*x^2 + 2*y*z"
    assert parse_poly(R, s) == p


def test_weighted_degree_and_homogeneity():
    R = PolyRing(("x", "y"), char=0, weights=(1, 2))
    p = parse_poly(R, "x^2 + y")
    assert p.is_homogeneous() and p.degree() == 2
    with pytest.raises(HomogeneityError):
        parse_poly(R, "x + y").degree()


def test_grevlex_orders_by_degree_then_reverse():
    R = PolyRing(("x", "y", "z"), char=0)
    bound = TermOrder().bind(R, (0,))
    xz = parse_poly(R, "x*z").lead(bound)[0]
    yy = parse_poly(R, "y^2").lead(bound)[0]
    # grevlex: y^2 > x*z because z is the cheapest variable
    assert bound.mono_key(yy) > bound.mono_key(xz)


def test_lex_priority_permutes_variables():
    R = PolyRing(("x", "y"), char=0)
    bound = TermOrder(kind="lex", priority=(1, 0)).bind(R, (0,))
    x = parse_poly(R, "x").lead(bound)[0]
    y = parse_poly(R, "y").lead(bound)[0]
    assert bound.mono_key(y) > bound.mono_key(x)


def test_elim_block_beats_total_degree():
    R = PolyRing(("t", "x"), char=0)
    bound = TermOrder(kind="elim", elim=(0,)).bind(R, (0,))
    t = parse_poly(R, "t").lead(bound)[0]
    x5 = parse_poly(R, "x^5").lead(bound)[0]
    assert bound.mono_key(t) > bound.mono_key(x5)


def test_pot_ranks_components_by_descending_twist():
    R = PolyRing(("x",), char=0)
    bound = TermOrder(module_kind="pot").bind(R, (0, 3))
    low = Vec.unit(R, 0)
    high = Vec.unit(R, 1)
    assert bound.term_key(high.lead(bound)[0]) > bound.term_key(low.lead(bound)[0])


def test_vec_degree_uses_twists():
    R = PolyRing(("x", "y"), char=0)
    v = parse_vec(R, ["x", "0"]) + parse_vec(R, ["0", "1"])
    assert v.degree((0, 1)) == 1
    with pytest.raises(HomogeneityError):
        v.degree((0, 0))


def test_quotient_ring_requires_homogeneous_relations():
    R = PolyRing(("x", "y"), char=0)
    with pytest.raises(HomogeneityError):
        quotient_ring(R, ["x^2 + y"])
    Q = quotient_ring(R, ["x*y"])
    assert "x*y" in Q.signature()


def test_monomials_of_degree_weighted():
    R = PolyRing(("x", "y"), char=0, weights=(1, 2))
    monos = monomials_of_degree(R, 4)
    assert set(monos) == {(4, 0), (2, 1), (0, 2)}


def test_poly_str_round_trip_char_p():
    R = PolyRing(("x", "y"), char=32003)
    p = parse_poly(R, "-x + 2*y")
    assert parse_poly(R, str(p)) == p


def test_extend_ring_pads_base_relations():
    Q = quotient_ring(PolyRing(("x", "y"), char=0), ["x*y"])
    big = extend_ring(Q, ["t"], [2])
    assert big.names == ("x", "y", "t")
    assert big.weights == (1, 1, 2)
    (rel,) = big.relations
    assert rel.terms == {(1, 1, 0): 1}


def test_pad_then_truncate_is_identity():
    R = PolyRing(("x", "y"), char=7)
    big = extend_ring(R, ["t1", "t2"], [1, 1])
    v = parse_vec(R, ["x^2 - 3*y", "0", "x*y"])
    padded = pad_vec(v, big)
    assert padded.to_strings(3) == ["x^2 + 4*y", "0", "x*y"]
    assert truncate_vec(padded, R) == v


def test_truncate_refuses_a_dropped_variable():
    R = PolyRing(("x", "y"), char=0)
    big = extend_ring(R, ["t"], [1])
    with pytest.raises(ConfigurationError):
        truncate_vec(parse_vec(big, ["x", "y*t"]), R)
