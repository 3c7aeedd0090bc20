"""Subquotient modules, maps, resolutions, Hom/Ext/Tor.

Numeric oracles are worked out by hand on k[x,y] and frozen here:
lengths of colon quotients, Koszul Betti numbers, socle dimensions.
"""

import math

import pytest

from functorlab.errors import CapExceeded, ContractViolation
from functorlab.fpmodule import (
    FPModule,
    GradedComplex,
    ModuleMap,
    block_module,
    cokernel,
    free_resolution,
    hom_ext_tor,
    homology,
    kernel,
    quotient_by,
)
from functorlab.poly import Poly, Vec, parse_poly, parse_vec
from functorlab.rings import PolyRing
from functorlab.submodule import Submodule


R = PolyRing(("x", "y"))


def cyclic(*rels):
    return FPModule.cyclic(R, rels)


def p(s, ring=R):
    return parse_poly(ring, s)


def test_free_module_hilbert_and_twist():
    free = FPModule.free(R, (0,))
    assert free.hilbert_function(range(4)) == [1, 2, 3, 4]
    shifted = FPModule.free(R, (1,))
    assert shifted.hilbert_function(range(4)) == [0, 1, 2, 3]
    assert free.length() == math.inf
    assert free.dim() == 2


def test_cyclic_lengths():
    assert cyclic("x^2", "x*y", "y^2").length() == 3
    assert cyclic("x^3", "x*y", "y^3").length() == 5
    assert cyclic("x").dim() == 1
    assert FPModule.zero(R).is_zero()
    assert FPModule.zero(R).dim() == float("-inf")


def test_relations_outside_generators_rejected():
    gens = [parse_vec(R, ["x"])]
    rels = [parse_vec(R, ["y^2"])]
    with pytest.raises(ContractViolation):
        FPModule(R, 1, (0,), gens, rels)
    # the subquotient constructor adjoins instead
    m = FPModule.subquotient(R, 1, (0,), gens, rels)
    assert len(m.gens) == 2
    assert m.annihilates(parse_vec(R, ["y^2"]))
    assert not m.is_zero()


def test_socle_quotient_presentation():
    # (x,y)/(x,y)^2 is k(-1)^2
    gens = [parse_vec(R, ["x"]), parse_vec(R, ["y"])]
    rels = [parse_vec(R, [s]) for s in ("x^2", "x*y", "y^2")]
    m = FPModule(R, 1, (0,), gens, rels)
    assert m.length() == 2
    assert m.hilbert_function([0, 1, 2]) == [0, 2, 0]
    pres = m.presentation()
    assert len(pres.gens) == 2
    assert pres.gen_twists == (1, 1)
    # each generator is killed by both variables: four independent columns
    assert len(pres.columns) == 4


def test_element_coefficients_round_trip():
    gens = [parse_vec(R, ["x"]), parse_vec(R, ["y"])]
    rels = [parse_vec(R, [s]) for s in ("x^2", "x*y", "y^2")]
    m = FPModule(R, 1, (0,), gens, rels)
    pres = m.presentation()
    v = parse_vec(R, ["x + y"])
    coeffs = pres.coeffs_of(v)
    assert coeffs is not None
    back = Vec.zero(R)
    for c, g in zip(coeffs, pres.gens):
        back = back + g.mul_poly(c)
    assert not (back - v)
    assert pres.coeffs_of(parse_vec(R, ["1"])) is None


def image(f):
    """im f as a subquotient of f's target."""
    tgt = f.target
    vecs = [v for v in f.image_vecs() if v]
    return FPModule(
        tgt.ring, tgt.rank, tgt.twists, vecs + list(tgt.rels), tgt.rels, check=False
    )


def test_kernel_image_cokernel_of_variable_map():
    src = FPModule.free(R, (1, 1))
    tgt = FPModule.free(R, (0,))
    f = ModuleMap(src, tgt, [[p("x")], [p("y")]])
    ker = kernel(f)
    assert len(ker.gens) == 1
    assert ker.gens[0].degree(src.twists) == 2
    assert ker.hilbert_function([2, 3, 4]) == [1, 2, 3]
    assert cokernel(f).length() == 1
    img = image(f)
    assert img.hilbert_function([0, 1, 2]) == [0, 2, 3]
    assert img.length() == math.inf


def is_well_defined(f):
    """Presentation relations of the source land in the target relations."""
    pres = f.source.presentation()
    # presentation gens are a subset of source gens; map columns through it
    lookup = {id(g): k for k, g in enumerate(f.source.gens)}
    index = [lookup[id(g)] for g in pres.gens]
    for col in pres.matrix():
        coeffs = [Poly.zero(f.source.ring) for _ in f.source.gens]
        for pos, c in enumerate(col):
            coeffs[index[pos]] = c
        if not f.target.annihilates(f.target.element(f.apply_coeffs(coeffs))):
            return False
    return True


def test_map_degree_discipline():
    src = cyclic("x")
    tgt = cyclic("x^2")
    with pytest.raises(ContractViolation):
        ModuleMap(src, tgt, [[p("x")]], shift=0)
    f = ModuleMap(src, tgt, [[p("x")]], shift=1)
    assert is_well_defined(f)
    # identity on generators is not well defined against the shorter relation
    g = ModuleMap(tgt, FPModule.free(R, (0,)), [[p("1")]])
    assert not is_well_defined(g)


def test_well_defined_composition():
    a = cyclic("x")
    b = cyclic("x^2")
    f = ModuleMap(a, b, [[p("x")]], shift=1)
    g = ModuleMap(b, a, [[p("1")]])
    gf = g.compose(f)
    assert gf.shift == 1
    # g o f is multiplication by x on R/(x), hence the zero map
    assert gf.is_zero_map()


def test_free_resolution_betti_numbers():
    m = cyclic("x^2", "x*y", "y^2")
    res = free_resolution(m, 5)
    assert res.ranks() == [1, 3, 2]
    assert res.exhausted
    assert res.twist_table() == [(0,), (2, 2, 2), (3, 3)]
    # minimal: no unit entries anywhere
    for k in range(len(res.maps)):
        for col in res.maps[k].columns:
            for entry in col:
                assert not (entry and entry.is_constant())


def test_koszul_complex_of_the_point():
    k_mod = cyclic("x", "y")
    res = free_resolution(k_mod, 4)
    assert res.ranks() == [1, 2, 1]
    assert res.twist_table() == [(0,), (1, 1), (2,)]


def test_euler_characteristic_window():
    m = cyclic("x^2", "x*y", "y^2")
    res = free_resolution(m, 5)
    window = list(range(7))
    acc = [0] * len(window)
    for k, free in enumerate(res.modules):
        sign = 1 if k % 2 == 0 else -1
        for pos, val in enumerate(free.hilbert_function(window)):
            acc[pos] += sign * val
    assert acc == m.hilbert_function(window)


def test_tor_against_resolution_ranks():
    m = cyclic("x^2", "x*y", "y^2")
    k_mod = cyclic("x", "y")
    assert hom_ext_tor(m, k_mod, 0, "Tor").length() == 1
    assert hom_ext_tor(m, k_mod, 1, "Tor").length() == 3
    assert hom_ext_tor(m, k_mod, 2, "Tor").length() == 2
    assert hom_ext_tor(m, k_mod, 3, "Tor").is_zero()


def test_ext_of_residue_field():
    k_mod = cyclic("x", "y")
    assert hom_ext_tor(k_mod, k_mod, 0, "Hom").length() == 1
    assert hom_ext_tor(k_mod, k_mod, 1, "Ext").length() == 2
    assert hom_ext_tor(k_mod, k_mod, 2, "Ext").length() == 1
    assert hom_ext_tor(k_mod, k_mod, 3, "Ext").is_zero()


def test_hom_is_colon_quotient():
    # Hom(R/(x), R/(x,y)^2) = ((x,y)^2 : x)/(x,y)^2 = (x,y)/(x,y)^2
    m = cyclic("x")
    n = cyclic("x^2", "x*y", "y^2")
    h = hom_ext_tor(m, n, 0, "Hom")
    assert h.length() == 2


def test_tor_balance_hilbert_equality():
    m = cyclic("x^2", "x*y")
    n = cyclic("y")
    left = hom_ext_tor(m, n, 1, "Tor")
    right = hom_ext_tor(n, m, 1, "Tor")
    assert left.length() == 1
    assert left.hilbert_equal(right)
    # vanishing for a transverse pair
    assert hom_ext_tor(cyclic("x"), cyclic("y"), 1, "Tor").is_zero()


def test_resolution_cap_guard():
    # Tor_2 reads stage 3; a resolution cut at stage 1 that has not ended
    # is too short
    m = cyclic("x^2", "x*y", "y^2")
    k_mod = cyclic("x", "y")
    with pytest.raises(CapExceeded):
        hom_ext_tor(m, k_mod, 2, "Tor", resolution=free_resolution(m, 1))


def test_homology_requires_zero_composite():
    free1 = FPModule.free(R, (0,))
    f = ModuleMap(free1, free1, [[p("x")]], shift=1)
    g = ModuleMap(free1, free1, [[p("x")]], shift=1)
    with pytest.raises(ContractViolation):
        homology(f, g)


def test_homology_of_truncated_koszul():
    # R(-2) --(-y, x)--> R(-1)^2 --(x, y)--> R
    f0 = FPModule.free(R, (0,))
    f1 = FPModule.free(R, (1, 1))
    f2 = FPModule.free(R, (2,))
    d1 = ModuleMap(f1, f0, [[p("x")], [p("y")]])
    d2 = ModuleMap(f2, f1, [[p("0") - p("y"), p("x")]])
    GradedComplex([f0, f1, f2], [d1, d2])  # composite checked on construction
    middle = homology(d2, d1)
    assert middle.is_zero()
    top = kernel(d2)
    assert top.is_zero()
    assert cokernel(d1).length() == 1


def test_quotient_by_membership_guard():
    m = cyclic("x^2")
    q = quotient_by(m, [parse_vec(R, ["x"]), parse_vec(R, ["y"])])
    assert q.length() == 1
    assert q.hilbert_function([0, 1]) == [1, 0]
    with pytest.raises(ContractViolation):
        quotient_by(FPModule(R, 1, (0,), [parse_vec(R, ["x"])], []), [parse_vec(R, ["y"])])


def test_with_relations_keeps_both_spans():
    free = FPModule.free(R, (0,))
    sub = Submodule(R, 1, (0,), [parse_vec(R, ["x^2 + y^2"]), parse_vec(R, ["x*y"])])
    q = free.with_relations(sub)
    assert q.rels_sub() is sub and q.gens_sub() is free.gens_sub()
    assert q.length() == quotient_by(free, list(sub.gens)).length() == 4
    with pytest.raises(ContractViolation):
        q.with_relations(sub)
    with pytest.raises(ContractViolation):
        free.with_relations(Submodule(R, 1, (1,), [parse_vec(R, ["x"])]))


def test_block_module_shape():
    n = cyclic("x^2", "x*y", "y^2")
    b = block_module(n, [0, 1])
    assert b.rank == 2
    assert b.twists == (0, 1)
    assert b.length() == 6
    assert b.hilbert_function([0, 1, 2, 3]) == [1, 3, 2, 0]
