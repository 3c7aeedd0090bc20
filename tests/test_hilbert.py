"""Hilbert numerators, graded dimensions, lengths, Krull dimension.

Oracle values: dimensions counted directly as staircase monomials, numerators
expanded by hand from N(I+(m)) = N(I) - t^deg(m) N(I:m).

The pivot recursion is compared with reference_numerator, the last-generator
recursion it replaced, and with brute staircase counts, on seeded monomial
ideals in one to four variables, with weights, over a monomial quotient base,
and on the unit and the empty ideal. So is the staircase base case, on
seeded ideals with at most two active variables in rings of two to four
variables, and the staircase pruning of minimal_monomials is compared, list
for list, with the generic divisibility pass.
"""

import math
import random

import pytest

from functorlab import hilbert
from functorlab.hilbert import (
    ideal_numerator,
    krull_dim,
    length_value,
    module_numerator,
    series_window,
)
from functorlab.oracles import monomials_of_degree
from functorlab.poly import Vec, quotient_ring
from functorlab.rings import PolyRing
from functorlab.submodule import ideal


def test_numerator_of_square_of_maximal_ideal():
    R = PolyRing(("x", "y"), char=0)
    monos = [(2, 0), (1, 1), (0, 2)]
    assert ideal_numerator(R, monos) == {0: 1, 2: -3, 3: 2}


def test_numerator_handles_redundant_and_unit_generators():
    R = PolyRing(("x", "y"), char=0)
    assert ideal_numerator(R, [(1, 0), (2, 0)]) == {0: 1, 1: -1}
    assert ideal_numerator(R, [(0, 0), (1, 0)]) == {}
    assert ideal_numerator(R, []) == {0: 1}


def test_series_window_polynomial_ring():
    R = PolyRing(("x", "y"), char=0)
    assert series_window(R, {0: 1}, 0, 4) == [1, 2, 3, 4, 5]


def test_series_window_weighted():
    R = PolyRing(("x", "y"), char=0, weights=(1, 2))
    assert series_window(R, {0: 1}, 0, 4) == [1, 1, 2, 2, 3]


def test_series_window_with_negative_twist():
    R = PolyRing(("x", "y"), char=0)
    # R(1) (+) R: generator in degree -1 plus one in degree 0
    numer = module_numerator(R, [[], []], (-1, 0))
    assert series_window(R, numer, -1, 2) == [1, 3, 5, 7]


def test_length_of_artinian_quotients():
    R = PolyRing(("x", "y"), char=0)
    assert length_value(R, ideal_numerator(R, [(2, 0), (1, 1), (0, 2)])) == 3
    # (x, y^2)*(x^2, y) = (x^3, x*y, y^3), colength 5
    assert length_value(R, ideal_numerator(R, [(3, 0), (1, 1), (0, 3)])) == 5
    assert length_value(R, {0: 1, 1: -1}) == math.inf
    assert length_value(R, {}) == 0


def test_krull_dim_from_pole_order():
    R = PolyRing(("x", "y"), char=0)
    assert krull_dim(R, {0: 1}) == 2
    assert krull_dim(R, {0: 1, 1: -1}) == 1
    assert krull_dim(R, ideal_numerator(R, [(2, 0), (1, 1), (0, 2)])) == 0
    assert krull_dim(R, {}) == float("-inf")


def test_lead_data_includes_quotient_base_relations():
    from functorlab.poly import quotient_ring
    from functorlab.submodule import zero_submodule

    P = PolyRing(("x", "y"), char=0)
    R = quotient_ring(P, ["x^2"])
    sub = zero_submodule(R, 1, (0,))
    numer = module_numerator(R, sub.lead_monomials(), (0,))
    assert series_window(R, numer, 0, 3) == [1, 2, 2, 2]
    assert krull_dim(R, numer) == 1
    assert length_value(R, numer) == math.inf


def test_module_numerator_twists_shift_components():
    R = PolyRing(("x",), char=0)
    numer = module_numerator(R, [[], [(1,)]], (2, 0))
    # R(-2) (+) R/(x): contributions t^2/(1-t) + 1
    assert series_window(R, numer, 0, 3) == [1, 0, 1, 1]


def test_ideal_colength_matches_staircase_count():
    R = PolyRing(("x", "y", "z"), char=0)
    I = ideal(R, ["x^2", "y^2", "z^2"])
    numer = module_numerator(R, I.canonical().lead_monomials(), (0,))
    # complete intersection of three quadrics: length 8
    assert length_value(R, numer) == 8
    assert krull_dim(R, numer) == 0


@pytest.mark.parametrize("names, weights", [
    (("x", "y"), None),
    (("x", "y", "z"), None),
    (("x", "y", "z"), (1, 2, 1)),
    (("x", "y", "z", "w"), None),
])
@pytest.mark.parametrize("seed", range(6))
def test_numerator_matches_a_brute_staircase_count(names, weights, seed, monkeypatch):
    # random monomial sets, with repeats and multiples and often leaving out
    # a variable (so not primary to the maximal ideal); the series in degrees
    # 0..12 must count the monomials that no generator divides
    monkeypatch.setattr(hilbert, "_NUMERATOR_MEMO", {})
    R = PolyRing(names, char=0, weights=weights)
    rng = random.Random(seed * 31 + len(names))
    used = rng.sample(range(R.nvars), rng.randint(1, R.nvars))
    monos = []
    for _ in range(rng.randint(1, 7)):
        monos.append(tuple(rng.randint(0, 3) if i in used else 0 for i in range(R.nvars)))
    monos = [m for m in monos if any(m)] or [tuple(int(i == used[0]) for i in range(R.nvars))]
    monos.append(tuple(a + b for a, b in zip(monos[0], monos[-1])))
    brute = [
        sum(1 for m in monomials_of_degree(R, d) if not any(R.mono_divides(g, m) for g in monos))
        for d in range(13)
    ]
    assert series_window(R, ideal_numerator(R, monos), 0, 12) == brute


def _reference_minimal(ring, monos):
    """The minimal members of monos under divisibility, sorted by (degree,
    exponents): the generic pass, for any number of active variables."""
    kept = []
    for m in sorted(set(monos), key=lambda m: (ring.mono_degree(m), m)):
        if not any(ring.mono_divides(p, m) for p in kept):
            kept.append(m)
    return kept


def reference_numerator(ring, monos):
    """Numerator of R/(monos) by the last-generator recursion (Bayer-Stillman,
    JSC 14, 1992): with the minimal generators sorted by (degree, exponents),
    N(I + (m)) = N(I) - t^deg(m) N(I : m) for the last one, m. Unmemoized,
    with its own pruning and series arithmetic."""
    kept = _reference_minimal(ring, monos)
    if not kept:
        return {0: 1}
    if not any(kept[0]):
        return {}
    *rest, last = kept
    out = dict(reference_numerator(ring, rest))
    colon = [ring.mono_div(m, ring.mono_gcd(m, last)) for m in rest]
    for d, c in reference_numerator(ring, colon).items():
        d += ring.mono_degree(last)
        out[d] = out.get(d, 0) - c
    return {d: c for d, c in out.items() if c}


def _staircase_counts(ring, monos, top):
    return [
        sum(1 for m in monomials_of_degree(ring, d) if not any(ring.mono_divides(g, m) for g in monos))
        for d in range(top + 1)
    ]


def _seeded_monomials(rng, ring):
    """A few monomials with exponents up to 4, plus a multiple of one and a
    repeat, so the list is not minimal."""
    monos = [
        tuple(rng.randint(0, 4) for _ in range(ring.nvars)) for _ in range(rng.randint(1, 6))
    ]
    monos = [m for m in monos if any(m)] or [(1,) * ring.nvars]
    monos.append(tuple(a + rng.randint(0, 1) for a in monos[-1]))
    monos.append(monos[0])
    return monos


@pytest.mark.parametrize("names, weights", [
    (("x",), None),
    (("x", "y"), None),
    (("x", "y"), (1, 2)),
    (("x", "y", "z"), None),
    (("x", "y", "z", "w"), None),
])
@pytest.mark.parametrize("seed", range(8))
def test_pivot_numerator_matches_the_last_generator_recursion(names, weights, seed, monkeypatch):
    monkeypatch.setattr(hilbert, "_NUMERATOR_MEMO", {})
    R = PolyRing(names, char=0, weights=weights)
    rng = random.Random("pivot/%d/%d" % (len(names), seed))
    for _ in range(4):
        monos = _seeded_monomials(rng, R)
        numer = ideal_numerator(R, monos)
        assert numer == reference_numerator(R, monos), monos
        assert series_window(R, numer, 0, 14) == _staircase_counts(R, monos, 14), monos


def test_pivot_numerator_on_the_unit_and_the_empty_ideal(monkeypatch):
    monkeypatch.setattr(hilbert, "_NUMERATOR_MEMO", {})
    for names in (("x",), ("x", "y", "z")):
        R = PolyRing(names, char=0)
        unit = R.unit_mono()
        for monos in ([], [unit], [unit, R.var_mono(0, 2)], [R.var_mono(0, 3), unit]):
            assert ideal_numerator(R, monos) == reference_numerator(R, monos)
        assert ideal_numerator(R, []) == {0: 1}
        assert ideal_numerator(R, [R.var_mono(0, 1), unit]) == {}


def test_pivot_stays_below_the_pure_power(monkeypatch):
    # x is in both generators of (x*y, x^2) and the upper median of its
    # exponents is 2, but x^2 lies in the ideal: the pivot must be x^1
    monkeypatch.setattr(hilbert, "_NUMERATOR_MEMO", {})
    R = PolyRing(("x", "y"), char=0)
    monos = [(1, 1), (2, 0)]
    assert ideal_numerator(R, monos) == {0: 1, 2: -2, 3: 1} == reference_numerator(R, monos)


@pytest.mark.parametrize("texts", [
    ["x^2", "y*z"],
    ["x*y^3", "z^3", "x*y", "x^2*y"],
    ["y", "x^2*z", "z^2"],
    ["x^3", "z^4", "x*y*z"],
    [],
])
def test_pivot_numerator_over_a_monomial_quotient_base(texts, monkeypatch):
    # R = k[x,y,z]/(y^2, xz): the lead monomials of I hold the base
    # relations, and the series counts the monomials outside I + (y^2, xz),
    # read here by membership (normal form) rather than divisibility
    monkeypatch.setattr(hilbert, "_NUMERATOR_MEMO", {})
    R = quotient_ring(PolyRing(("x", "y", "z")), ["y^2", "x*z"])
    I = ideal(R, texts)
    monos = I.lead_monomials()[0]
    numer = ideal_numerator(R, monos)
    assert numer == reference_numerator(R, monos)
    outside = [
        sum(1 for m in monomials_of_degree(R, d) if not I.contains(Vec(R, {(0, m): R.one})))
        for d in range(9)
    ]
    assert series_window(R, numer, 0, 8) == outside



def _active_monomials(rng, ring, active):
    """Two to eight monomials in the variables active (exponents up to 5),
    plus a multiple of one and a repeat, so the list is not minimal."""
    def mono():
        return tuple(rng.randint(0, 5) if i in active else 0 for i in range(ring.nvars))

    monos = [m for m in (mono() for _ in range(rng.randint(2, 8))) if any(m)]
    monos = monos or [ring.var_mono(active[0], 2)]
    monos.append(tuple(a + (i == active[-1]) for i, a in enumerate(monos[-1])))
    monos.append(monos[0])
    return monos


@pytest.mark.parametrize("names, weights", [
    (("x", "y"), None),
    (("x", "y"), (1, 2)),
    (("x", "y"), (2, 3)),
    (("x", "y", "z"), None),
    (("x", "y", "z"), (2, 3, 1)),
    (("x", "y", "z", "w"), None),
    (("x", "y", "z", "w"), (1, 1, 2, 3)),
])
@pytest.mark.parametrize("seed", range(6))
def test_staircase_numerator_with_two_active_variables(names, weights, seed, monkeypatch):
    # Hilbert-Burch: with the minimal generators ordered by their first
    # active exponent, N = 1 - sum t^deg(g_k) + sum t^deg(lcm(g_k, g_k+1)),
    # taken in closed form and never memoized
    monkeypatch.setattr(hilbert, "_NUMERATOR_MEMO", {})
    R = PolyRing(names, char=0, weights=weights)
    rng = random.Random("staircase/%s/%s/%d" % (names, weights, seed))
    for _ in range(4):
        active = sorted(rng.sample(range(R.nvars), rng.choice((1, 2, 2))))
        monos = _active_monomials(rng, R, active)
        numer = ideal_numerator(R, monos)
        assert numer == reference_numerator(R, monos), monos
        assert series_window(R, numer, 0, 12) == _staircase_counts(R, monos, 12), monos
    assert hilbert._NUMERATOR_MEMO == {}


@pytest.mark.parametrize("seed", range(6))
def test_staircase_numerator_inside_a_pivot_over_a_monomial_quotient_base(seed, monkeypatch):
    # over k[x,y,z]/(y^2, xz) the lead monomials of a term ideal in two
    # variables hold the base relations, so three variables are active: the
    # pivot recursion runs until its sub-problems have two left
    monkeypatch.setattr(hilbert, "_NUMERATOR_MEMO", {})
    R = quotient_ring(PolyRing(("x", "y", "z")), ["y^2", "x*z"])
    rng = random.Random("staircase-quotient/%d" % seed)
    names = rng.sample(R.names, 2)
    texts = [
        "*".join("%s^%d" % (v, rng.randint(1, 4)) for v in rng.sample(names, rng.randint(1, 2)))
        for _ in range(rng.randint(1, 4))
    ]
    I = ideal(R, texts)
    monos = I.lead_monomials()[0]
    numer = ideal_numerator(R, monos)
    assert numer == reference_numerator(R, monos), texts
    outside = [
        sum(1 for m in monomials_of_degree(R, d) if not I.contains(Vec(R, {(0, m): R.one})))
        for d in range(9)
    ]
    assert series_window(R, numer, 0, 8) == outside, texts


@pytest.mark.parametrize("names, weights", [
    (("x",), None),
    (("x", "y"), None),
    (("x", "y"), (2, 3)),
    (("x", "y", "z"), (1, 2, 1)),
    (("x", "y", "z", "w"), None),
])
@pytest.mark.parametrize("seed", range(8))
def test_minimal_monomials_match_the_generic_pass(names, weights, seed):
    # the staircase pass (at most two active variables) and the generic one
    # (three or more) give the generic pass's members in its order
    R = PolyRing(names, char=0, weights=weights)
    rng = random.Random("minimal/%s/%d" % (names, seed))
    for count in range(1, R.nvars + 1):
        active = sorted(rng.sample(range(R.nvars), count))
        monos = _active_monomials(rng, R, active)
        assert hilbert.minimal_monomials(R, monos) == _reference_minimal(R, monos), monos
    unit = R.unit_mono()
    assert hilbert.minimal_monomials(R, []) == []
    assert hilbert.minimal_monomials(R, [unit, unit]) == [unit]
    assert hilbert.minimal_monomials(R, [R.var_mono(0, 2), unit]) == [unit]
