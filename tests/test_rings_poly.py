"""Foundations: coefficient fields, parsing, formatting, orders, homogeneity.

The packed term keys of BoundOrder are compared with the tuple keys they
replaced (kept here as the reference) on seeded random terms of every order
kind, up to the largest degree a key orders exactly; past it the Groebner
layer refuses.
"""

import random
import time
from fractions import Fraction
from operator import mul, neg

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
from functorlab.groebner import buchberger, reduce_vec, term_basis
from functorlab.rings import MAX_DEGREE, PolyRing, TermOrder, _is_prime


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


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_miller_rabin_agrees_with_trial_division_below_20000():
    assert [n for n in range(20000) if _is_prime(n) != _trial_division(n)] == []


@pytest.mark.parametrize("char", [561, 41041, 3215031751])
def test_strong_pseudoprimes_are_refused(char):
    # Carmichael numbers, and the least strong pseudoprime to bases 2, 3, 5, 7
    assert not _is_prime(char)
    with pytest.raises(ConfigurationError, match="must be 0 or prime"):
        PolyRing(("x",), char=char)


def test_large_characteristics_are_decided_at_once():
    assert PolyRing(("x",), char=2 ** 61 - 1).char == 2 ** 61 - 1
    started = time.monotonic()
    with pytest.raises(ConfigurationError, match="must be 0 or prime"):
        PolyRing(("x",), char=1000000007 * 1000000009)
    assert time.monotonic() - started < 1.0
    with pytest.raises(ConfigurationError, match=r"below 2\^64"):
        PolyRing(("x",), char=2 ** 64 + 13)


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


def test_bind_keeps_one_bound_order_per_key():
    R = PolyRing(("x", "y", "z"))
    bound = TermOrder().bind(R, (0, 1))
    assert TermOrder().bind(R, [0, 1]) is bound
    assert TermOrder().bind(R, (0, 1), (0, 0)) is bound
    others = [
        TermOrder().bind(R, (1, 0)),
        TermOrder().bind(R, (0, 1), (1, 0)),
        TermOrder(kind="elim", elim=(0,)).bind(R, (0, 1)),
        TermOrder(kind="elim", elim=(1,)).bind(R, (0, 1)),
        TermOrder(module_kind="top").bind(R, (0, 1)),
    ]
    assert len({id(b) for b in [bound] + others}) == 6
    assert TermOrder(kind="elim", elim=(0,)).bind(R, (0, 1)) is others[2]
    assert [b.twists for b in others[:2]] == [(1, 0), (0, 1)]
    assert others[1].blocks == (1, 0)


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


# -- oracle: packed keys against the tuple keys ------------------------------------


def _reference_grevlex_key(ring, mono, idxs=None):
    w = ring.weights
    if idxs is None:
        return (sum(map(mul, mono, w)), tuple(map(neg, reversed(mono))))
    deg = sum(mono[i] * w[i] for i in idxs)
    return (deg, tuple(-mono[i] for i in reversed(idxs)))


def reference_mono_key(bound, mono):
    o, ring = bound.order, bound.ring
    if o.kind == "grevlex":
        return _reference_grevlex_key(ring, mono)
    if o.kind == "lex":
        pr = o.priority or range(len(mono))
        return tuple(mono[i] for i in pr)
    rest = tuple(i for i in range(ring.nvars) if i not in set(o.elim))
    return (_reference_grevlex_key(ring, mono, o.elim), _reference_grevlex_key(ring, mono, rest))


def reference_term_key(bound, term):
    """The nested tuple key BoundOrder.term_key replaced."""
    c, mono = term
    twists = bound.twists
    comps = sorted(range(len(twists)), key=lambda k: (-twists[k], k))
    rank = -comps.index(c)
    if bound.order.module_kind == "pot":
        return (bound.blocks[c], rank, reference_mono_key(bound, mono))
    return (bound.blocks[c], reference_mono_key(bound, mono), rank)


def _sign(a, b):
    return (a > b) - (a < b)


KEY_CASES = {
    # name: (weights, term order, twists, blocks)
    "grevlex_weights_1_2_3": ((1, 2, 3), TermOrder(), (0,), None),
    "lex_shuffled_priority": ((1, 1, 1, 1), TermOrder(kind="lex", priority=(2, 0, 3, 1)), (0,), None),
    "elim_weights": ((1, 2, 1, 3), TermOrder(kind="elim", elim=(3, 1), module_kind="top"), (0,), None),
    "pot_blocks_negative_twists": (
        (1, 1, 2), TermOrder(module_kind="pot"), (2, -1, 0, -3, -1), (1, 1, 0, 0, 0)),
    "top_blocks_negative_twists": (
        (1, 1, 2), TermOrder(module_kind="top"), (-2, 1, 0, 1, -4), (1, 1, 0, 0, 0)),
    "elim_pot_blocks": ((2, 1, 1), TermOrder(kind="elim", elim=(0,)), (0, -2, 1), (0, 1, 1)),
}


def _random_mono(rng, ring):
    """Small exponents, wide ones, or one at the degree limit, never past it."""
    n = ring.nvars
    kind = rng.random()
    if kind < 0.5:
        return tuple(rng.randint(0, 4) for _ in range(n))
    if kind < 0.9:
        cap = MAX_DEGREE // sum(ring.weights)
        return tuple(rng.choice((0, rng.randint(0, cap))) for _ in range(n))
    i = rng.randrange(n)
    return tuple(MAX_DEGREE // ring.weights[i] if j == i else 0 for j in range(n))


@pytest.mark.parametrize("case", sorted(KEY_CASES))
def test_packed_keys_order_terms_as_the_tuple_keys(case):
    weights, order, twists, blocks = KEY_CASES[case]
    R = PolyRing(tuple("abcd"[: len(weights)]), char=0, weights=weights)
    bound = order.bind(R, twists, blocks)
    rng = random.Random("keys/%s" % case)
    for _ in range(4000):
        s = (rng.randrange(len(twists)), _random_mono(rng, R))
        if rng.random() < 0.5:
            t = (rng.randrange(len(twists)), _random_mono(rng, R))
        else:
            # a near tie: one exponent moved by one
            i = rng.randrange(R.nvars)
            m = list(s[1])
            m[i] = max(0, m[i] + rng.choice((-1, 1)))
            t = (s[0], tuple(m))
        assert _sign(bound.term_key(s), bound.term_key(t)) == _sign(
            reference_term_key(bound, s), reference_term_key(bound, t)
        )
        assert _sign(bound.mono_key(s[1]), bound.mono_key(t[1])) == _sign(
            reference_mono_key(bound, s[1]), reference_mono_key(bound, t[1])
        )


def test_a_term_past_the_degree_limit_is_refused():
    R = PolyRing(("x", "y"), char=32003, weights=(1, 2))
    bound = TermOrder().bind(R, (0,))
    at_limit = Vec(R, {(0, (MAX_DEGREE, 0)): 1})
    assert term_basis(list(at_limit.terms), bound, R) == [at_limit]
    for mono in ((2 ** 32, 0), (0, 2 ** 31)):  # x^(2^32), and y^(2^31) of degree 2^32
        big = Vec(R, {(0, mono): 1})
        with pytest.raises(ConfigurationError):
            term_basis(list(big.terms), bound, R)
        with pytest.raises(ConfigurationError):
            buchberger([big + Vec(R, {(0, (0, 1)): 1})], ring=R, rank=1, twists=(0,), bound=bound)
        with pytest.raises(ConfigurationError):
            reduce_vec(big, [], bound)


def test_a_term_grown_past_the_degree_limit_is_refused():
    # lex, x > y > z: x reduces to y^2, then to z^(2^32), from reducers of
    # degree at most 2^31; the refusal comes from inside the reduction
    R = PolyRing(("x", "y", "z"), char=0)
    bound = TermOrder(kind="lex").bind(R, (0,))
    basis = [
        Vec(R, {(0, (1, 0, 0)): R.one, (0, (0, 2, 0)): -R.one}),
        Vec(R, {(0, (0, 1, 0)): R.one, (0, (0, 0, 2 ** 31)): -R.one}),
    ]
    with pytest.raises(ConfigurationError):
        reduce_vec(Vec(R, {(0, (1, 0, 0)): R.one}), basis, bound)


def test_power_by_squaring_matches_repeated_products():
    R = PolyRing(("x", "y"), char=32003)
    p = parse_poly(R, "x - 2*y")
    acc = Poly.constant(R, 1)
    for n in range(8):
        assert p ** n == acc
        acc = acc * p
    assert (parse_poly(R, "x") ** (2 ** 40)).terms == {(2 ** 40, 0): 1}
