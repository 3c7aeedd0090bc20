"""Brute-force oracles against hand counts and the fast routes."""

import pytest

from functorlab.errors import ContractViolation
from functorlab.fpmodule import FPModule
from functorlab.invariants import grade
from functorlab.oracles import (
    brute_kernel,
    grade_by_regular_sequence,
    is_regular_element_brute,
    matrix_rank,
    module_is_zero_brute,
    monomials_of_degree,
    nullspace,
    rref,
    staircase_count,
    strand_basis,
)
from functorlab.poly import Vec, parse_poly, quotient_ring
from functorlab.rings import PolyRing
from functorlab.submodule import ideal


R = PolyRing(("x", "y"))


def _p(text):
    return parse_poly(R, text)


def test_monomial_enumeration_counts():
    assert len(monomials_of_degree(R, 0)) == 1
    assert len(monomials_of_degree(R, 3)) == 4
    assert monomials_of_degree(R, -1) == []
    weighted = PolyRing(("u", "v"), weights=(1, 2))
    # degree 4: u^4, u^2 v, v^2
    assert len(monomials_of_degree(weighted, 4)) == 3


def test_strand_basis_respects_twists():
    basis = strand_basis(R, (0, 1), 1)
    comps = sorted(c for c, _ in basis)
    # component 0 contributes x, y; component 1 contributes the unit
    assert comps == [0, 0, 1]


def test_rref_and_nullspace_small():
    ring = R
    rows = [[ring.coeff(1), ring.coeff(2)], [ring.coeff(2), ring.coeff(4)]]
    pivots = rref(rows, ring)
    assert pivots == [0]
    ns = nullspace([[ring.coeff(1), ring.coeff(2)]], 2, ring)
    assert len(ns) == 1
    a, b = ns[0]
    assert ring.add(a, ring.mul(ring.coeff(2), b)) == ring.coeff(0)
    assert matrix_rank([[ring.coeff(0), ring.coeff(0)]], ring) == 0


def test_brute_kernel_finds_koszul_syzygy():
    cols = [Vec.from_poly(_p("x")), Vec.from_poly(_p("y"))]
    vecs = brute_kernel(R, (1, 1), cols, (0,), range(0, 4))
    assert vecs, "expected the Koszul syzygy in low degrees"
    v = vecs[0]
    # v = (a, b) with a*x + b*y = 0 forces a = c*y, b = -c*x
    parts = v.components(2)
    combo = parts[0] * _p("x") + parts[1] * _p("y")
    assert not combo


def test_staircase_counts_match_hand_values():
    # (x,y)^n leaves n(n+1)/2 monomials
    for n in (1, 2, 3, 4):
        gens = [m for m in monomials_of_degree(R, n)]
        assert staircase_count(R, gens) == n * (n + 1) // 2
    # (x, y^2)*(x^2, y) = (x^3, x*y, x^2*y^2, y^3) leaves 1, x, x^2, y, y^2
    prod = [(3, 0), (1, 1), (2, 2), (0, 3)]
    assert staircase_count(R, prod) == 5
    with pytest.raises(ContractViolation):
        staircase_count(R, [(2, 0)])  # (x^2) has infinite staircase


def test_zero_module_detection():
    zero = FPModule.cyclic(R, ("1",))
    assert module_is_zero_brute(zero) is True
    assert module_is_zero_brute(FPModule.cyclic(R, ("x",))) is False


def test_regular_element_detection():
    m = FPModule.cyclic(R, ("x^2",))
    assert is_regular_element_brute(m, _p("y"), 6) is True
    assert is_regular_element_brute(m, _p("x"), 6) is False
    free = FPModule.free(R, (0,))
    assert is_regular_element_brute(free, _p("x + y"), 6) is True


def test_grade_oracle_matches_ext_route():
    cases = [
        ([_p("y")], FPModule.cyclic(R, ("x^2",)), 1),
        ([_p("x"), _p("y")], FPModule.cyclic(R, ("x^2", "x*y", "y^2")), 0),
        ([_p("x"), _p("y")], FPModule.free(R, (0,)), 2),
    ]
    for polys, module, expected in cases:
        assert grade_by_regular_sequence(polys, module) == expected
        assert grade(ideal(R, polys), module) == expected
    assert grade_by_regular_sequence([_p("x")], FPModule.cyclic(R, ("1",))) == float("inf")


def test_brute_kernel_over_a_quotient_base_works_modulo_the_relations():
    # over k[x,y,z]/(y^2, xz), y*e_2 maps (x, y) to y^2 = 0: a syzygy that
    # holds only modulo the base relations
    B = quotient_ring(PolyRing(("x", "y", "z")), ["y^2", "x*z"])
    cols = [Vec.from_poly(parse_poly(B, "x")), Vec.from_poly(parse_poly(B, "y"))]
    vecs = brute_kernel(B, (1, 1), cols, (0,), (2,))
    basis = strand_basis(B, (1, 1), 2)
    index = {key: i for i, key in enumerate(basis)}

    def coords(v):
        row = [B.coeff(0)] * len(basis)
        for key, cf in v.terms.items():
            row[index[key]] = cf
        return row

    rows = [coords(v) for v in vecs]
    y_e2 = Vec(B, {(1, (0, 1, 0)): B.one})
    assert matrix_rank(rows + [coords(y_e2)], B) == matrix_rank(rows, B)
    # (z, 0), (0, y) and the Koszul (y, -x): nothing else in degree 2
    assert matrix_rank(rows, B) == 3
