"""Subquotient modules, matrix maps, resolutions, Hom/Ext/Tor.

Numeric oracles are worked out by hand on k[x,y] and frozen here:
lengths of colon quotients, Koszul Betti numbers, socle dimensions.

The oracle test at the end compares hom_ext_tor with the route it
replaced (maps kept on generator coefficients, kernels and homology taken
of those maps) on seeded random modules over several rings.
"""

import itertools
import math
import random

import pytest

from functorlab import cache, fpmodule
from functorlab import submodule as submodule_mod
from functorlab.corpus import ORACLE_BASES, POLYNOMIAL_KINDS, base
from functorlab.errors import ContractViolation
from functorlab.fpmodule import (
    FPModule,
    GradedComplex,
    block_kernel,
    block_module,
    free_resolution,
    hom_ext_tor,
    push_through,
    transpose_columns,
)
from functorlab.groebner import LiftSolver, buchberger
from functorlab.multigraded import rees_algebra
from functorlab.oracles import monomials_of_degree
from functorlab.poly import Poly, Vec, parse_poly, parse_vec
from functorlab.rings import PolyRing
from functorlab.submodule import IdealFamily, Submodule, ideal


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
    assert m.rels_sub().contains(parse_vec(R, ["y^2"]))
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


def compose_columns(outer, inner, ring):
    """outer o inner for column matrices (inner feeds into outer)."""
    out = []
    for col in inner:
        acc = [Poly.zero(ring) for _ in outer[0]] if outer else []
        for c, ocol in zip(col, outer):
            if c:
                acc = [a + e * c for a, e in zip(acc, ocol)]
        out.append(acc)
    return out


def test_kernel_image_cokernel_of_variable_map():
    # u -> x*u_0 + y*u_1 from X^2 to X for X = R: one target block whose
    # column holds one entry per source block
    free = FPModule.free(R, (0,))
    src = block_module(free, [1, 1])
    tgt = block_module(free, [0])
    cols = [[p("x"), p("y")]]
    ker = FPModule(R, 2, src.twists, block_kernel(cols, src, tgt, 1, tgt.rels), [])
    assert len(ker.gens) == 1
    assert ker.gens[0].degree(src.twists) == 2
    assert ker.hilbert_function([2, 3, 4]) == [1, 2, 3]
    images = [push_through(g, cols, 1) for g in src.gens]
    assert FPModule(R, 1, tgt.twists, tgt.gens, images).length() == 1
    img = FPModule(R, 1, (0,), images, [])
    assert img.hilbert_function([0, 1, 2]) == [0, 2, 3]
    assert img.length() == math.inf


def is_well_defined(f, source, target):
    """The matrix f (one column of target-generator coefficients per source
    generator) sends every presentation relation of source into target's
    relations."""
    pres = source.presentation()
    # presentation gens are a subset of source gens; map columns through it
    lookup = {id(g): k for k, g in enumerate(source.gens)}
    index = [lookup[id(g)] for g in pres.gens]
    for col in pres.matrix():
        coeffs = [Poly.zero(source.ring) for _ in source.gens]
        for pos, c in enumerate(col):
            coeffs[index[pos]] = c
        (image,) = compose_columns(f, [coeffs], source.ring)
        if not target.rels_sub().contains(target.element(image)):
            return False
    return True


def test_matrix_map_well_definedness():
    src = cyclic("x")
    tgt = cyclic("x^2")
    assert is_well_defined([[p("x")]], src, tgt)
    # identity on generators is not well defined against the shorter relation
    assert not is_well_defined([[p("1")]], tgt, FPModule.free(R, (0,)))


def test_well_defined_composition():
    a = cyclic("x")
    b = cyclic("x^2")
    f = [[p("x")]]
    g = [[p("1")]]
    assert is_well_defined(f, a, b) and is_well_defined(g, b, a)
    gf = compose_columns(g, f, R)
    assert is_well_defined(gf, a, a)
    # g o f is multiplication by x on R/(x), hence the zero map
    assert a.rels_sub().contains(a.element(gf[0]))
    # Hom(-, X) reverses composition: pushing along g, then f, is pushing
    # along g o f
    for x in (FPModule.free(R, (0,)), b):
        for u in block_module(x, [0]).gens:
            twice = push_through(push_through(u, g, x.rank), f, x.rank)
            assert twice == push_through(u, gf, x.rank)


def test_free_resolution_betti_numbers():
    m = cyclic("x^2", "x*y", "y^2")
    res = free_resolution(m, 5)
    assert res.ranks() == [1, 3, 2]
    assert res.exhausted
    assert res.twist_table() == [(0,), (2, 2, 2), (3, 3)]
    # minimal: no unit entries anywhere
    for k in range(len(res.maps)):
        for col in res.maps[k]:
            for entry in col:
                assert not (entry and all(not any(m) for m in entry.terms))


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


def test_homology_requires_zero_composite(monkeypatch):
    # R(-2) --x--> R(-1) --x--> R is not a complex: the image of the first
    # map does not lie in the kernel of the second; planted as the module's
    # resolution, it is refused when the homology is built
    x = p("x")
    planted = GradedComplex(
        [FPModule.free(R, (t,)) for t in (0, 1, 2)], [((x,),), ((x,),)]
    )
    monkeypatch.setattr(fpmodule, "free_resolution", lambda module, length_cap: planted)
    for which in ("Ext", "Tor"):
        with pytest.raises(ContractViolation):
            hom_ext_tor(cyclic("x"), FPModule.free(R, (0,)), 1, which)


def test_homology_of_truncated_koszul():
    # k's own resolution is the Koszul complex R(-2) --> R(-1)^2 --> R
    f0 = FPModule.free(R, (0,))
    k_mod = cyclic("x", "y")
    # H_i(F (x) R): coker d1 = k, the middle is exact, ker d2 = 0
    tor = [hom_ext_tor(k_mod, f0, i, "Tor") for i in range(3)]
    assert tor[0].length() == 1
    assert tor[1].is_zero()
    assert tor[2].is_zero()
    # H^i(Hom(F, R)): Ext^i(k, R) is k(2) at i = 2 and zero below
    ext = [hom_ext_tor(k_mod, f0, i, "Ext") for i in range(3)]
    assert ext[0].is_zero() and ext[1].is_zero()
    assert ext[2].length() == 1
    assert ext[2].hilbert_function([-2, -1]) == [1, 0]
    res = k_mod.resolution(0)
    assert res.ranks() == [1, 2, 1]
    assert res.twist_table() == [(0,), (1, 1), (2,)]


def test_quotient_by_membership_guard():
    # R/(x^2) modulo x and y, built by adding them to the relations
    m = cyclic("x^2")
    q = FPModule(R, 1, (0,), m.gens, list(m.rels) + [parse_vec(R, ["x"]), parse_vec(R, ["y"])])
    assert q.length() == 1
    assert q.hilbert_function([0, 1]) == [1, 0]


def test_of_keeps_both_spans():
    free = FPModule.free(R, (0,))
    sub = Submodule(R, 1, (0,), [parse_vec(R, ["x^2 + y^2"]), parse_vec(R, ["x*y"])])
    q = FPModule.of(free.gens_sub(), sub)
    assert q.rels_sub() is sub and q.gens_sub() is free.gens_sub()
    assert (q.ring, q.rank, q.twists, q.gens, q.rels) == (R, 1, (0,), free.gens, sub.gens)
    assert q.length() == FPModule(R, 1, (0,), free.gens, list(sub.gens)).length() == 4
    with pytest.raises(ContractViolation):
        FPModule.of(free.gens_sub(), Submodule(R, 1, (1,), [parse_vec(R, ["x"])]))


def test_block_module_shape():
    n = cyclic("x^2", "x*y", "y^2")
    b = block_module(n, [0, 1])
    assert b.rank == 2
    assert b.twists == (0, 1)
    assert b.length() == 6
    assert b.hilbert_function([0, 1, 2, 3]) == [1, 3, 2, 0]


# -- block modules carry the bases their copy already has ------------------------

BLOCK_RINGS = {kind: base(kind) for kind in POLYNOMIAL_KINDS}
BLOCK_RINGS["quotient"] = base("k[x,y,z]/(xy - z^2)")


def _seeded_vector(rng, ring, twists, degree):
    terms = {}
    for c, t in enumerate(twists):
        monos = monomials_of_degree(ring, degree - t)
        for m in rng.sample(monos, min(len(monos), rng.randint(0, 2))):
            terms[(c, m)] = ring.coeff(rng.randint(1, 9))
    return Vec(ring, terms)


@pytest.mark.parametrize("name", sorted(BLOCK_RINGS))
def test_block_module_carries_the_bases_its_copy_has(name, monkeypatch):
    # block twists (0, 2, -1) reorder the components across blocks, so the
    # carried union must be sorted again to be the reduced basis
    monkeypatch.setattr(cache, "_ACTIVE", cache.Cache())
    ring = BLOCK_RINGS[name]
    rng = random.Random(20261019)
    twists = (0, 1)
    for _ in range(4):
        gens = [_seeded_vector(rng, ring, twists, rng.randint(1, 2)) for _ in range(3)]
        rels = [_seeded_vector(rng, ring, twists, rng.randint(2, 4)) for _ in range(3)]
        x = FPModule.subquotient(ring, 2, twists, [g for g in gens if g], rels)
        bare = block_module(x, [0, 2, -1])
        assert bare.gens_sub()._gb is None and bare.rels_sub()._gb is None
        x.gens_sub().groebner()
        x.rels_sub().groebner()
        blocks = block_module(x, [0, 2, -1])
        for carried in (blocks.gens_sub(), blocks.rels_sub()):
            assert carried._gb is not None
            fresh = Submodule(ring, carried.rank, carried.twists, carried.gens, check=False)
            assert carried._gb == fresh.groebner()


def _rees_ring():
    family = IdealFamily([ideal(R, ["x^2 + y^2", "x*y"]), ideal(R, ["x", "y^2"])])
    return rees_algebra(family).aq


@pytest.mark.parametrize("name", sorted(BLOCK_RINGS) + ["R[y]/Q"])
def test_unit_vector_span_basis_runs_no_buchberger(name, monkeypatch):
    # the unit vectors are the reduced basis of the whole free module over
    # any base, so reading it runs no Buchberger loop and equals the loop's
    # output
    monkeypatch.setattr(cache, "_ACTIVE", cache.Cache())
    ring = _rees_ring() if name == "R[y]/Q" else BLOCK_RINGS[name]
    for twists in ((0,), (0, 2, -1)):
        gens = FPModule.free(ring, twists).gens_sub()
        with monkeypatch.context() as patched:
            patched.setattr(submodule_mod, "buchberger", None)
            basis = gens.groebner()
        fresh = buchberger(list(gens.gens), ring=ring, rank=gens.rank, twists=gens.twists,
                           bound=gens.bound)
        assert basis == fresh
        assert [list(v.terms) for v in basis] == [list(v.terms) for v in fresh]


# -- oracle: the generator-coefficient route hom_ext_tor replaced -----------------


def reference_block_map(psi_columns, x, tgt_blocks):
    """Columns of X^a -> X^b on generator coefficients: psi_columns[j][i]
    sends source block j to target block i."""
    zero = Poly.zero(x.ring)
    gcount = len(x.gens)
    cols = []
    for j in range(len(psi_columns)):
        for g in range(gcount):
            col = [zero] * (tgt_blocks * gcount)
            for i in range(tgt_blocks):
                entry = psi_columns[j][i]
                if entry:
                    col[i * gcount + g] = entry
            cols.append(col)
    return cols


def reference_kernel(src, tgt, cols):
    """ker of src -> tgt as a subquotient of src."""
    images = [tgt.element(col) for col in cols]
    solver = LiftSolver(tgt.ring, tgt.rank, tgt.twists, images, list(tgt.rels))
    gens = [src.element(k.components(len(src.gens))) for k in solver.kernel_vectors()]
    return FPModule(src.ring, src.rank, src.twists, [v for v in gens if v], src.rels)


def reference_homology(a, b, c, f, g):
    """ker(g)/im(f) for column maps f: a -> b and g: b -> c with g o f = 0."""
    imgs = [] if f is None else [v for v in (b.element(col) for col in f) if v]
    if g is None:
        return FPModule(b.ring, b.rank, b.twists, b.gens, list(b.rels) + imgs, check=False)
    if f is None:
        return reference_kernel(b, c, g)
    for col in compose_columns(g, f, b.ring):
        if not c.rels_sub().contains(c.element(col)):
            raise ContractViolation("maps do not compose to zero")
    ker_mod = reference_kernel(b, c, g)
    return FPModule(b.ring, b.rank, b.twists, ker_mod.gens, list(b.rels) + imgs, check=True)


def reference_hom_ext_tor(module, x, i, which):
    """hom_ext_tor with every differential a map on generator coefficients."""
    res = free_resolution(module, i + 1)
    ranks = res.ranks()
    twist = res.twist_table()
    if i >= len(twist) or not twist[i]:
        return FPModule.zero(module.ring)
    sign = -1 if which == "ext" else 1
    stages = {
        k: block_module(x, [sign * t for t in twist[k]])
        for k in (i - 1, i, i + 1)
        if 0 <= k < len(twist)
    }

    def differential(k):
        """(source, target, columns) of d_k (x) X, or of Hom(d_k, X)."""
        if k not in stages or k - 1 not in stages:
            return None
        cols = res.maps[k - 1]
        if which == "ext":
            dual = transpose_columns(cols, ranks[k - 1])
            return k - 1, k, reference_block_map(dual, x, ranks[k])
        return k, k - 1, reference_block_map(cols, x, ranks[k - 1])

    into, out = differential(i), differential(i + 1)
    if which == "tor":
        into, out = out, into
    if into is None and out is None:
        return stages[i]
    a = stages[into[0]] if into else None
    c = stages[out[1]] if out else None
    return reference_homology(
        a, stages[i], c, into[2] if into else None, out[2] if out else None
    )


def random_vec(rng, ring, twists, degree):
    """A homogeneous vector of the given degree with one or two terms."""
    out = Vec.zero(ring)
    for _ in range(rng.randint(1, 2)):
        c = rng.randrange(len(twists))
        monos = monomials_of_degree(ring, degree - twists[c])
        if monos:
            coeff = ring.coeff(rng.choice((1, -1, 2)))
            out = out + Vec.from_poly(Poly(ring, {rng.choice(monos): coeff}), c)
    return out


def random_subquotient(rng, ring, rank):
    """U/W on rank components, relations one or two degrees above the generators."""
    twists = tuple(rng.randint(0, 1) for _ in range(rank))
    gens = [random_vec(rng, ring, twists, rng.randint(1, 2)) for _ in range(rank + 1)]
    rels = [random_vec(rng, ring, twists, rng.randint(2, 3)) for _ in range(2)]
    return FPModule.subquotient(ring, rank, twists, gens, rels)


def route_corpus(ring, rng):
    """A free, a cyclic and two subquotient modules (rank 1 and 2)."""
    cyclic_rels = [random_vec(rng, ring, (0,), rng.randint(1, 2)) for _ in range(2)]
    return [
        FPModule.free(ring, (0,)),
        FPModule(ring, 1, (0,), [Vec.unit(ring, 0)], cyclic_rels),
        random_subquotient(rng, ring, 1),
        random_subquotient(rng, ring, 2),
    ]


@pytest.mark.parametrize("case", sorted(ORACLE_BASES))
def test_hom_ext_tor_matches_coefficient_route(case):
    ring = base(ORACLE_BASES[case])
    for seed in range(2):
        corpus = route_corpus(ring, random.Random("hom_ext_tor/%s/%d" % (case, seed)))
        assert any(m.rank == 2 and m.rels and len(m.gens) > 1 for m in corpus)
        for m, x, which, i in itertools.product(corpus, corpus, ("ext", "tor"), range(3)):
            got = hom_ext_tor(m, x, i, which)
            want = reference_hom_ext_tor(m, x, i, which)
            assert (got.rank, got.twists) == (want.rank, want.twists)
            assert got.gens == want.gens, (seed, m, x, which, i)
            assert got.rels == want.rels, (seed, m, x, which, i)


@pytest.mark.parametrize("case", ["gf", "q", "weights_1_2", "quotient_xy_z2"])
def test_grown_resolution_equals_a_fresh_one(monkeypatch, case):
    # a module keeps one resolution: asked for 1, 3, 2 and then 5 stages it
    # grows the same complex from its kept syzygy columns and ends up equal
    # to free_resolution(m, 5), with no syzygy module computed twice. The
    # residue field grows past stage 1 on every ring, and over
    # k[x,y,z]/(xy - z^2) its resolution never ends.
    ring = base(ORACLE_BASES[case])
    syzygies = []
    real = Submodule.syzygies

    def counting(self):
        syzygies.append(self)
        return real(self)

    monkeypatch.setattr(Submodule, "syzygies", counting)
    residue = FPModule.cyclic(ring, ring.names)
    modules = [residue]
    for seed in range(2):
        modules += route_corpus(ring, random.Random("growth/%s/%d" % (case, seed)))[1:]
    for m in modules:
        m.presentation()
        del syzygies[:]
        fresh = free_resolution(m, 5)
        built = len(syzygies)
        del syzygies[:]
        reached = 0
        for length in (1, 3, 2, 5):
            res = m.resolution(length)
            reached = max(reached, length)
            assert res is m.resolution(0)
            assert res.maps == fresh.maps[:reached], m
        assert res.twist_table() == fresh.twist_table(), m
        assert res.exhausted == fresh.exhausted, m
        assert len(syzygies) == built, m
    assert len(residue.resolution(0).maps) == (5 if ring.relations else ring.nvars)
    assert residue.resolution(0).exhausted == (not ring.relations)
