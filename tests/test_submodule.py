"""Submodule lattice operations, with hand-checked closed forms frozen in.

The oracle tests at the end compare the one-kernel intersect, colon and
colon_module, and their exponent arithmetic on term input, with the
constructions they replaced (one kernel per vector or polynomial, folded by
intersections, every generator tagged), and minimal_generators with the
drop-one-at-a-time loop and the keep loop it replaced (one basis per kept
generator; equal vectors in equal order), on seeded random homogeneous
input, and power products built from their neighbour with the full-product
route.
"""

import itertools
import math
import random

import pytest

import functorlab
import functorlab.submodule as submodule_mod
from functorlab import cache
from functorlab.errors import ContractViolation, HomogeneityError
from functorlab.fpmodule import FPModule
from functorlab.groebner import LiftSolver
from functorlab.oracles import monomials_of_degree
from functorlab.poly import Poly, Vec, parse_poly, parse_vec, quotient_ring
from functorlab.rings import PolyRing
from functorlab.submodule import (
    IdealFamily,
    Submodule,
    ideal,
    is_unit_ideal,
    submodule,
    unit_ideal,
    zero_submodule,
)


def R2(char=32003):
    return PolyRing(("x", "y"), char=char)


def test_membership_and_normal_form():
    R = R2()
    I = ideal(R, ["x^2", "x*y"])
    assert I.contains(Vec.from_poly(parse_poly(R, "x^3 + x^2*y")))
    assert not I.contains(Vec.from_poly(parse_poly(R, "y^2")))
    nf = I.normal_form(Vec.from_poly(parse_poly(R, "x^2 + y^2")))
    assert nf.to_strings(1) == ["y^2"]


def test_intersection_of_coordinate_ideals():
    R = R2()
    meet = ideal(R, ["x"]).intersect(ideal(R, ["y"]))
    assert meet.equals(ideal(R, ["x*y"]))


def test_colon_square_by_variable():
    R = R2()
    I = ideal(R, ["x^2", "x*y", "y^2"])
    quot = I.colon(ideal(R, ["x"]))
    assert quot.equals(ideal(R, ["x", "y"]))


def test_colon_of_zero_by_x_over_quotient_base():
    P = R2()
    R = quotient_ring(P, ["x^2"])
    ann = zero_submodule(R, 1, (0,)).colon([Vec.from_poly(parse_poly(R, "x"))])
    assert ann.equals(ideal(R, ["x"]))


def test_equality_is_canonical_basis_equality():
    R = R2()
    assert ideal(R, ["x + y", "y"]).equals(ideal(R, ["x", "y"]))
    assert not ideal(R, ["x"]).equals(ideal(R, ["x", "y"]))


def test_syzygies_of_two_monomials():
    R = R2()
    I = ideal(R, ["x^2", "x*y"])
    syz = I.syzygies()
    assert syz.rank == 2 and syz.twists == (2, 2)
    assert len(syz.gens) == 1
    a, b = syz.gens[0].components(2)
    assert I.gens[0].mul_poly(a) + I.gens[1].mul_poly(b) == Vec.zero(R)


def test_minimal_generators_drops_redundant():
    R = R2()
    I = ideal(R, ["x", "x^2", "y", "x + y"])
    assert len(I.minimal_generators().gens) == 2


def test_product_and_powers_through_family():
    R = R2()
    fam = IdealFamily([ideal(R, ["x"]), ideal(R, ["y"])])
    assert fam.power_product((2, 1)).equals(ideal(R, ["x^2*y"]))
    assert fam.power_product((0, 0)).equals(unit_ideal(R))
    assert fam.is_proper == (True, True)
    m2 = IdealFamily([ideal(R, ["x", "y"])])
    sq = m2.power_product((2,))
    assert sq.equals(ideal(R, ["x^2", "x*y", "y^2"]))


def test_family_apply_multiplies_target():
    R = R2()
    fam = IdealFamily([ideal(R, ["x", "y"])])
    N = submodule(R, 2, (0, 0), [["x", "0"], ["0", "1"]])
    IN = fam.apply((1,), N)
    assert IN.contains(parse_vec(R, ["x^2", "0"]))
    assert IN.contains(parse_vec(R, ["0", "y"]))
    assert not IN.contains(parse_vec(R, ["x", "0"]))


def _all_products(sub, ideal_):
    """ideal_ * sub generated by every product of a generator of each."""
    gens = [g.mul_poly(p.component(0)) for p in ideal_.gens for g in sub.gens]
    return Submodule(sub.ring, sub.rank, sub.twists, gens, check=False)


def gen_strings(sub):
    return [g.to_strings(sub.rank) for g in sub.gens]


@pytest.mark.parametrize("char", [0, 32003])
def test_term_products_keep_only_the_minimal_ones(char):
    R = R2(char)
    I = ideal(R, ["2*x^2", "x*y", "y^3"])
    J = ideal(R, ["x", "-3*y^2"])
    prod = I.multiply_ideal(J)
    # x^2*y^2 and the second x*y^3 are multiples of x^2*y and x*y^3
    assert gen_strings(prod) == [["x^2*y"], ["x^3"], ["x*y^3"], ["y^5"]]
    assert prod.equals(_all_products(I, J))
    assert prod.equals(_all_products(J, I))


def test_term_products_on_a_twisted_rank_two_target():
    R = R2(0)
    N = submodule(R, 2, (0, 1), [["x", "0"], ["0", "y"], ["y^2", "0"], ["0", "1/2*x^2"]])
    J = ideal(R, ["x", "y"])
    prod = N.multiply_ideal(J)
    assert gen_strings(prod) == [
        ["x*y", "0"], ["x^2", "0"], ["y^3", "0"], ["0", "y^2"], ["0", "x*y"], ["0", "x^3"],
    ]
    assert prod.equals(_all_products(N, J))


def test_binomial_factor_keeps_every_product():
    R = R2()
    I = ideal(R, ["x + y", "x*y"])
    J = ideal(R, ["x", "x^2"])
    for left, right in ((I, J), (J, I)):
        prod = left.multiply_ideal(right)
        assert gen_strings(prod) == gen_strings(_all_products(left, right))
        assert len(prod.gens) == 4


def test_power_product_generators_are_pinned():
    R = R2()
    fam = IdealFamily([ideal(R, ["x", "y^2"]), ideal(R, ["x^2", "y"])])
    assert gen_strings(fam.power_product((2, 0))) == [["x^2"], ["x*y^2"], ["y^4"]]
    # x^3*y^2 and x^2*y^4 are multiples of x^2*y
    assert gen_strings(fam.power_product((2, 1))) == [["x^2*y"], ["x*y^3"], ["x^4"], ["y^5"]]


def test_unit_ideal_detection():
    R = R2()
    gens = [Vec.from_poly(parse_poly(R, s)) for s in ("x", "x + 1")]
    affine = Submodule(R, 1, (0,), gens, check=False)
    assert is_unit_ideal(affine)
    assert is_unit_ideal(ideal(R, ["3"]))
    assert not is_unit_ideal(ideal(R, ["x", "y"]))


def test_homogeneity_enforced_for_twisted_ambient():
    R = R2()
    with pytest.raises(HomogeneityError):
        submodule(R, 2, (0, 1), [["x", "x"]])
    sub = submodule(R, 2, (0, 1), [["x^2", "x"]])
    assert sub.gens[0].degree((0, 1)) == 2


def test_ambient_mismatch_is_loud():
    R = R2()
    with pytest.raises(ContractViolation):
        ideal(R, ["x"]).plus(submodule(R, 2, (0, 0), [["x", "0"]]))


def test_membership_over_quotient_uses_base_relations():
    P = R2()
    R = quotient_ring(P, ["x*y"])
    I = ideal(R, ["x"])
    assert I.contains(Vec.from_poly(parse_poly(R, "x*y")))
    J = ideal(R, ["x + y"])
    # (x+y)^2 = x^2 + y^2 in R, and x*(x+y) = x^2, y*(x+y) = y^2
    assert J.contains(Vec.from_poly(parse_poly(R, "x^2 + y^2")))


# -- oracle: the per-vector constructions ---------------------------------------


def reference_intersect(a, b):
    """a cap b from the kernel of R^(s+t) -> F tagging both generator lists."""
    mine = list(a.gens)
    solver = LiftSolver(a.ring, a.rank, a.twists, mine + list(b.gens))
    out = []
    for k in solver.kernel_vectors():
        acc = Vec.zero(a.ring)
        for i, g in enumerate(mine):
            acc = acc + g.mul_poly(k.component(i))
        if acc:
            out.append(acc)
    return Submodule(a.ring, a.rank, a.twists, out, check=False)


def reference_colon(sub, vectors):
    """(sub : V) as the intersection of the ideals (sub : v), one kernel each."""
    result = None
    for v in vectors:
        solver = LiftSolver(sub.ring, sub.rank, sub.twists, [v] + list(sub.gens))
        polys = [k.component(0) for k in solver.kernel_vectors()]
        one = Submodule(sub.ring, 1, (0,), [Vec.from_poly(p) for p in polys if p], check=False)
        result = one if result is None else reference_intersect(result, one).canonical()
    return unit_ideal(sub.ring) if result is None else result.canonical()


def reference_colon_module(sub, polys):
    """(sub :_F J) as the intersection of (sub :_F q), one kernel each."""
    acc = None
    for q in polys:
        targets = [Vec.unit(sub.ring, c).mul_poly(q) for c in range(sub.rank)]
        solver = LiftSolver(sub.ring, sub.rank, sub.twists, targets, list(sub.gens))
        part = Submodule(sub.ring, sub.rank, sub.twists, solver.kernel_vectors(), check=False)
        acc = part if acc is None else reference_intersect(acc, part)
    return acc


def random_poly(rng, ring, degree, terms=3):
    monos = monomials_of_degree(ring, degree)
    picked = {m: ring.coeff(rng.randint(-3, 3)) for m in rng.sample(monos, min(terms, len(monos)))}
    poly = Poly(ring, {m: c for m, c in picked.items() if c})
    return poly if poly else Poly(ring, {monos[0]: ring.one})


def random_vectors(rng, ring, twists, count, degrees, terms=2):
    """count nonzero homogeneous vectors with degrees drawn from degrees."""
    out = []
    while len(out) < count:
        d = rng.choice(degrees)
        items = {}
        for c, tw in enumerate(twists):
            if d < tw or rng.random() < 0.3:
                continue
            for m, cf in random_poly(rng, ring, d - tw, terms).terms.items():
                items[(c, m)] = cf
        if items:
            out.append(Vec(ring, items))
    return out


def _xyz(char=32003, weights=None, relations=()):
    R = PolyRing(("x", "y", "z"), char=char, weights=weights)
    return quotient_ring(R, list(relations)) if relations else R


KERNEL_CASES = {
    # name: (ring, twists, degrees of generators, degrees of the colon polys)
    "gf_rank1": (lambda: _xyz(), (0,), (2, 3), (1, 2)),
    "q_rank1": (lambda: _xyz(char=0), (0,), (2, 3), (1, 2)),
    "q_rank2": (lambda: _xyz(char=0), (0, 1), (2, 3), (1, 1)),
    "weights_1_2_1": (lambda: _xyz(weights=(1, 2, 1)), (0,), (2, 3, 4), (1, 2)),
    "weights_1_2_1_rank2": (lambda: _xyz(weights=(1, 2, 1)), (1, 0), (2, 3), (2, 1)),
    "quotient_rank1": (lambda: _xyz(relations=["x*y - z^2"]), (0,), (2, 3), (1, 2)),
    "quotient_rank2": (lambda: _xyz(relations=["x^2"]), (0, 1), (2, 3), (2, 1)),
    "gf_rank3": (lambda: _xyz(), (0, 1, 1), (2,), (1, 2)),
}


def _kernel_inputs(case, seed):
    make_ring, twists, degrees, poly_degrees = KERNEL_CASES[case]
    R = make_ring()
    rng = random.Random("kernel/%s/%d" % (case, seed))
    rank = len(twists)
    polys = [random_poly(rng, R, d) for d in poly_degrees]
    # J*w inside sub for a random w, so (sub :_F J) is larger than sub
    (w,) = random_vectors(rng, R, twists, 1, degrees[:1])
    gens = random_vectors(rng, R, twists, rank, degrees) + [w.mul_poly(q) for q in polys]
    sub = Submodule(R, rank, twists, gens)
    other = Submodule(R, rank, twists, random_vectors(rng, R, twists, rank + 1, degrees))
    # (sub : w) contains J, a random vector's colon is smaller
    vectors = [w] + random_vectors(rng, R, twists, 1, degrees)
    return sub, other, vectors, polys


def _terms(sub):
    return [g.terms for g in sub.canonical().gens]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_one_kernel_operations_match_reference(case, seed):
    sub, other, vectors, polys = _kernel_inputs(case, seed)
    assert _terms(sub.intersect(other)) == _terms(reference_intersect(sub, other))
    assert _terms(sub.colon(vectors)) == _terms(reference_colon(sub, vectors))
    assert _terms(sub.colon_module(polys)) == _terms(reference_colon_module(sub, polys))


def test_weighted_colon_module_with_unequal_degrees():
    # weights (1, 2, 1): y has degree 2, so the two blocks sit at different
    # shifts and a wrong sign on the shift breaks homogeneity or the answer
    R = _xyz(weights=(1, 2, 1))
    sub = submodule(R, 1, (0,), [["x^3"], ["y^2"], ["x*y*z"]])
    polys = [parse_poly(R, "x"), parse_poly(R, "y")]
    got = sub.colon_module(polys)
    assert _terms(got) == _terms(reference_colon_module(sub, polys))
    # (I : x) = (x^2, y^2, y*z) and (I : y) = (x^3, y, x*z)
    assert got.equals(ideal(R, ["x^3", "x^2*y", "x^2*z", "y^2", "y*z"]))


# -- oracle: minimal generators, one candidate at a time ---------------------------


def reference_minimal_generators(sub, modulo=()):
    """Drop each generator, in (degree, text) order, that the rest plus modulo span."""
    gens = sorted(sub.gens, key=lambda g: (g.degree(sub.twists), str(g.to_strings(sub.rank))))
    i = 0
    while i < len(gens):
        rest = gens[:i] + gens[i + 1 :]
        other = Submodule(sub.ring, sub.rank, sub.twists, rest + list(modulo), check=False)
        if other.contains(gens[i]):
            gens = rest
        else:
            i += 1
    return gens


MINGEN_CASES = {
    # name: (ring, twists, degrees of the independent generators)
    "gf_rank1": (lambda: _xyz(), (0,), (2, 3)),
    "q_rank1": (lambda: _xyz(char=0), (0,), (2, 3)),
    "weights_1_2_1": (lambda: _xyz(weights=(1, 2, 1)), (0,), (2, 3)),
    "quotient_rank1": (lambda: _xyz(relations=["x*y - z^2"]), (0,), (2, 3)),
    "gf_rank2_twisted": (lambda: _xyz(), (1, 2), (2, 3)),
}


def _mingen_inputs(case, seed, with_modulo):
    """Random generators with planted redundancy, shuffled, and a modulo list.

    The planted generators are duplicates, scalar multiples, sums of two
    generators of one degree, variable multiples of generators and (with
    modulo) a modulo vector of a generator's degree and its difference with
    that generator.
    """
    make_ring, twists, degrees = MINGEN_CASES[case]
    R = make_ring()
    rng = random.Random("mingen/%s/%d/%d" % (case, seed, with_modulo))
    base = random_vectors(rng, R, twists, 4, degrees)
    planted = [base[0], base[1].scale(R.coeff(-3))]
    for a in base:
        for b in base:
            if a is not b and a.degree(twists) == b.degree(twists):
                planted.append(a + b.scale(R.coeff(2)))
                break
    for g in base[:2]:
        planted.append(g.mul_term(R.one, R.var_mono(rng.randrange(R.nvars), 1)))
    modulo = []
    if with_modulo:
        modulo = random_vectors(rng, R, twists, 1, degrees[-1:])
        (m,) = random_vectors(rng, R, twists, 1, [base[0].degree(twists)])
        modulo.append(m)
        planted.extend([base[0] - m, m])
    gens = base + planted
    rng.shuffle(gens)
    return Submodule(R, len(twists), twists, gens), modulo


def _span_terms(sub, vectors):
    return _terms(Submodule(sub.ring, sub.rank, sub.twists, list(vectors), check=False))


@pytest.fixture
def no_cache(monkeypatch):
    monkeypatch.setattr(cache, "_ACTIVE", cache.Cache())


@pytest.mark.parametrize("with_modulo", [False, True])
@pytest.mark.parametrize("case", sorted(MINGEN_CASES))
def test_minimal_generators_match_reference(case, with_modulo, no_cache):
    sub, modulo = _mingen_inputs(case, 1, with_modulo)
    kept = list(sub.minimal_generators(modulo=modulo).gens)
    ref = reference_minimal_generators(sub, modulo)
    assert _span_terms(sub, kept + modulo) == _span_terms(sub, ref + modulo)
    assert _span_terms(sub, kept + modulo) == _span_terms(sub, list(sub.gens) + modulo)
    assert sorted(g.degree(sub.twists) for g in kept) == sorted(g.degree(sub.twists) for g in ref)
    assert len(kept) < len(sub.gens)
    for i, g in enumerate(kept):
        others = Submodule(sub.ring, sub.rank, sub.twists, kept[:i] + kept[i + 1 :] + modulo)
        assert not others.contains(g)


@pytest.mark.parametrize("with_modulo", [False, True])
@pytest.mark.parametrize("case", sorted(MINGEN_CASES))
def test_minimal_generators_build_one_basis_per_kept_generator(
    case, with_modulo, no_cache, monkeypatch
):
    sub, modulo = _mingen_inputs(case, 2, with_modulo)
    calls = []
    real = submodule_mod.buchberger

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(submodule_mod, "buchberger", counting)
    kept = sub.minimal_generators(modulo=modulo).gens if with_modulo else sub.minimal_generators().gens
    # one Buchberger run prunes them all, outside buchberger: no reduced basis
    # of the kept generators is ever built
    assert kept and not calls


def reference_keep_loop(sub, modulo=()):
    """Walk gens in (degree, text) order and keep a generator when the kept
    ones plus modulo do not span it, rebuilding their span after each keep."""
    modulo = list(modulo)
    kept = []
    span = Submodule(sub.ring, sub.rank, sub.twists, modulo, check=False)
    for g in sorted(sub.gens, key=lambda g: (g.degree(sub.twists), str(g.to_strings(sub.rank)))):
        if not span.contains(g):
            kept.append(g)
            span = Submodule(sub.ring, sub.rank, sub.twists, kept + modulo, check=False)
    return kept


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("with_modulo", [False, True])
@pytest.mark.parametrize("case", sorted(MINGEN_CASES))
def test_minimal_generators_equal_the_keep_loop(case, with_modulo, seed, no_cache):
    sub, modulo = _mingen_inputs(case, seed, with_modulo)
    kept = list(sub.minimal_generators(modulo=modulo).gens)
    assert [g.terms for g in kept] == [g.terms for g in reference_keep_loop(sub, modulo)]


TERM_MINGEN_CASES = {
    # name: (ring, twists)
    "gf_rank1": (lambda: _xyz(), (0,)),
    "q_rank2": (lambda: _xyz(char=0), (0, 1)),
    "weights_1_2_1": (lambda: _xyz(weights=(1, 2, 1)), (0, 0)),
    "monomial_quotient": (lambda: _xyz(relations=["y^2", "x*z"]), (1, 0)),
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(TERM_MINGEN_CASES))
def test_term_minimal_generators_equal_the_keep_loop(case, seed, no_cache, monkeypatch):
    # seeded single terms with repeats (the same term, and a scalar multiple
    # of one) and term multiples, against modulo terms and, over the
    # monomial quotient, the base-relation terms: the kept candidates are
    # the keep loop's, and no Buchberger run prunes them
    make_ring, twists = TERM_MINGEN_CASES[case]
    R = make_ring()
    rng = random.Random("term-mingen/%s/%d" % (case, seed))

    def term(degree):
        c = rng.randrange(len(twists))
        mono = rng.choice(monomials_of_degree(R, max(degree - twists[c], 0)))
        return Vec(R, {(c, mono): R.coeff(rng.randint(1, 5))})

    gens = [term(rng.randint(1, 3)) for _ in range(7)]
    gens += [gens[0], gens[1].scale(R.coeff(-2))]
    gens += [g.mul_term(R.one, R.var_mono(rng.randrange(R.nvars), 1)) for g in gens[2:4]]
    rng.shuffle(gens)
    sub = Submodule(R, len(twists), twists, gens)
    loops = []
    real = submodule_mod._run
    monkeypatch.setattr(submodule_mod, "_run", lambda *a, **k: loops.append(1) or real(*a, **k))
    for modulo in ([], [term(2), term(1)]):
        kept = list(sub.minimal_generators(modulo=modulo).gens)
        assert [g.terms for g in kept] == [g.terms for g in reference_keep_loop(sub, modulo)]
    assert not loops


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("case", ["gf_rank1", "q_rank2", "weights_1_2_1"])
def test_term_syzygies_are_what_the_keep_loop_keeps_of_every_pair(case, seed, no_cache,
                                                                  monkeypatch):
    # seeded single terms with repeats (the same term, and a scalar multiple
    # of one), plus x*y, x*z, y*z, whose three pairs share the lcm x*y*z:
    # the syzygies come pruned to the pairwise lcm syzygies the keep loop
    # keeps, in its order, with no Buchberger run, and minimal_generators
    # hands them back whole, or drops the ones a modulo vector spans
    make_ring, twists = TERM_MINGEN_CASES[case]
    R = make_ring()
    rng = random.Random("term-syzygies/%s/%d" % (case, seed))

    def term(degree):
        c = rng.randrange(len(twists))
        mono = rng.choice(monomials_of_degree(R, max(degree - twists[c], 0)))
        return Vec(R, {(c, mono): R.coeff(rng.randint(1, 5))})

    gens = [term(rng.randint(1, 3)) for _ in range(6)]
    gens += [gens[0], gens[1].scale(R.coeff(-2))]
    gens += [parse_vec(R, [t] + ["0"] * (len(twists) - 1)) for t in ("x*y", "x*z", "y*z")]
    rng.shuffle(gens)
    sub = Submodule(R, len(twists), twists, gens)
    every_pair = Submodule(R, len(gens), sub.gen_degrees(),
                           submodule_mod._lcm_syzygies(R, sub.gens), check=False)
    loops = []
    real = submodule_mod._run
    monkeypatch.setattr(submodule_mod, "_run", lambda *a, **k: loops.append(1) or real(*a, **k))
    syz = sub.syzygies()
    assert syz.minimal_generators() is syz
    assert not loops
    assert [g.terms for g in syz.gens] == [g.terms for g in reference_keep_loop(every_pair)]
    assert syz.minimal_generators(modulo=syz.gens[:1]).gens == syz.gens[1:]


def test_minimal_generators_finish_lower_pairs_before_an_input():
    # the S-pair of x^2 - y^2 and x*y gives y^3, of degree 3, so y^3 lies in
    # the span of the quadrics; taken before that pair, it would be kept
    R = R2(char=0)
    sub = submodule(R, 1, (0,), [["x^2 - y^2"], ["x*y"], ["y^3"], ["x^3"]])
    kept = sub.minimal_generators().gens
    assert [g.to_strings(1) for g in kept] == [["x*y"], ["x^2 - y^2"]]
    assert [g.terms for g in kept] == [g.terms for g in reference_keep_loop(sub)]


def test_minimal_generators_refuse_inhomogeneous_input():
    R = R2()
    loose = Submodule(R, 1, (0,), [parse_vec(R, ["x^2 + y"])], check=False)
    with pytest.raises(ContractViolation):
        loose.minimal_generators()
    graded = submodule(R, 1, (0,), [["x^2"]])
    with pytest.raises(ContractViolation):
        graded.minimal_generators(modulo=[parse_vec(R, ["x + y^2"])])


def test_package_attribute_is_the_submodule_module():
    # the constructor function submodule is not re-exported over the module
    assert functorlab.submodule is submodule_mod
    assert submodule_mod.submodule is submodule
    assert "submodule" not in functorlab.__all__


def test_presentation_drops_a_generator_spanned_with_the_relations():
    # U = (x, y, z^2 + x*y), W = (x^2, z^2): z^2 + x*y = y*x + z^2 needs both
    # another generator and a relation, so U/W is minimally generated by x, y
    R = _xyz()
    gens = [parse_vec(R, [s]) for s in ("z^2 + x*y", "y", "x")]
    rels = [parse_vec(R, [s]) for s in ("x^2", "z^2")]
    m = FPModule(R, 1, (0,), gens, rels)
    assert not Submodule(R, 1, (0,), gens[1:]).contains(gens[0])
    assert not Submodule(R, 1, (0,), rels).contains(gens[0])
    pres = m.presentation()
    assert sorted(g.to_strings(1)[0] for g in pres.gens) == ["x", "y"]
    assert pres.gen_twists == (1, 1)
    coker = FPModule.from_cokernel(R, pres.gen_twists, pres.columns)
    assert coker.hilbert_equal(m)


# -- Groebner cache entries ----------------------------------------------------

CODEC_CASES = {
    # name: (ring, twists, dense component strings of the generators)
    "gf": (lambda: _xyz(), (0,), [["x^2 + 5*y*z"], ["y^3 - 7*x*z^2"], ["x*y"]]),
    "q_fractions": (
        lambda: _xyz(char=0), (0,), [["x + 3/2*y"], ["y^2 - 1/3*x*z"], ["z^2"]]
    ),
    "weights_1_2_1": (
        lambda: _xyz(weights=(1, 2, 1)), (0,), [["y + x^2"], ["x*y*z - z^4"], ["x*z"]]
    ),
    "rank2_twisted": (
        lambda: _xyz(char=0),
        (1, 0),
        [["x", "y^2"], ["0", "z"], ["y^2", "x^2*z - 2/5*y^3"]],
    ),
    "quotient_xy": (
        lambda: _xyz(relations=["x*y"]), (0,), [["x^2 + y^2"], ["y*z"], ["z^3"]]
    ),
}


def _codec_module(case, reverse=False):
    make_ring, twists, gens = CODEC_CASES[case]
    return submodule(make_ring(), len(twists), twists, gens[::-1] if reverse else gens)


@pytest.mark.parametrize("case", sorted(CODEC_CASES))
def test_basis_read_from_disk_equals_the_fresh_basis(case, tmp_path, monkeypatch):
    monkeypatch.setattr(cache, "_ACTIVE", cache.Cache())
    fresh = _codec_module(case).groebner()
    assert fresh
    writer = cache.Cache(directory=str(tmp_path))
    monkeypatch.setattr(cache, "_ACTIVE", writer)
    assert _codec_module(case).groebner() == fresh
    assert writer.stats() == {"hits": 0, "misses": 1, "puts": 1, "corrupt": 0}
    reader = cache.Cache(directory=str(tmp_path))
    monkeypatch.setattr(cache, "_ACTIVE", reader)
    read = _codec_module(case).groebner()
    assert reader.stats() == {"hits": 1, "misses": 0, "puts": 0, "corrupt": 0}
    assert read == fresh
    # same basis order, same term order, coefficients of the field's type
    assert [list(v.terms) for v in read] == [list(v.terms) for v in fresh]
    field = type(fresh[0].ring.one)
    assert all(type(cf) is field for v in read for cf in v.terms.values())


def test_groebner_key_does_not_depend_on_generator_order(tmp_path, monkeypatch):
    keys = []

    class Recording(cache.Cache):
        def key(self, *parts):
            keys.append(super().key(*parts))
            return keys[-1]

    store = Recording(str(tmp_path))
    monkeypatch.setattr(cache, "_ACTIVE", store)
    first = _codec_module("q_fractions").groebner()
    second = _codec_module("q_fractions", reverse=True).groebner()
    assert keys[0] == keys[1] and second == first
    assert store.stats()["hits"] == 1
    _codec_module("gf").groebner()
    assert keys[2] != keys[0]


def test_groebner_key_is_pinned(tmp_path, monkeypatch):
    """The key of a basis: disk entries written by earlier versions still hit."""
    parts = []

    class Recording(cache.Cache):
        def key(self, *args):
            parts.append(args)
            return super().key(*args)

    monkeypatch.setattr(cache, "_ACTIVE", Recording(str(tmp_path)))
    assert ideal(PolyRing(("x", "y")), ["x^2 + y^2", "x*y"]).groebner()
    ((kind, ring_sig, order_sig, twists, rank, _rows),) = parts
    assert (kind, ring_sig, order_sig, twists, rank) == (
        "gb/2", "GF(32003)[x,y;w=1,1]/()", "grevlex|p=None|e=()|pot", [0], 1,
    )
    assert cache.Cache().key(*parts[0]) == (
        "e30eab04711e212634fd54d3c4395f88f6fcf12cd58e81d583764c282a6cba9d"
    )


def test_disabled_cache_builds_no_key(monkeypatch):
    calls = []
    monkeypatch.setattr(cache.Cache, "key", lambda self, *parts: calls.append(parts))
    monkeypatch.setattr(cache, "_ACTIVE", cache.Cache())
    for case in sorted(CODEC_CASES):
        sub = _codec_module(case)
        assert sub.groebner()
        sub.syzygies().minimal_generators().groebner()
    assert calls == []


@pytest.mark.parametrize("char, rows", [
    (32003, "not a list"),
    (32003, [[["x^2"]]]),                 # the old text format
    (32003, [[[0, 2, 0]]]),               # a row of the wrong length
    (32003, [[[1, 2, 0, 0, 1]]]),         # component outside range(rank)
    (32003, [[[-1, 2, 0, 0, 1]]]),
    (32003, [[[0, -1, 0, 0, 1]]]),        # negative exponent
    (32003, [[[0, 1.0, 0, 0, 1]]]),       # non-int exponent
    (32003, [[[0, True, 0, 0, 1]]]),
    (32003, [[[0, 1, 0, 0, 0]]]),         # zero coefficient
    (32003, [[[0, 1, 0, 0, 32003]]]),     # outside the field
    (32003, [[[0, 1, 0, 0, "1"]]]),
    (32003, [[]]),                        # an empty vector
    (32003, [[[0, 1, 0, 0, 1], [0, 1, 0, 0, 2]]]),  # a repeated term
    (0, [[[0, 1, 0, 0, 1]]]),             # a rational coefficient is a string
    (0, [[[0, 1, 0, 0, "0"]]]),
    (0, [[[0, 1, 0, 0, "1/0"]]]),
    (0, [[[0, 1, 0, 0, "2/4"]]]),         # not canonical
    (0, [[[0, 1, 0, 0, "one"]]]),
    (32003, [[[0, 2, 0, 0, 1]], [[0, 1, 0, 0, 1]]]),  # leads not sorted by term key
    (32003, [[[0, 1, 0, 0, 1]], [[0, 1, 0, 0, 1]]]),  # a repeated lead
    (32003, [[[0, 1, 0, 0, 1]], [[0, 2, 0, 0, 1]]]),  # x divides x^2
])
def test_malformed_cache_rows_are_rejected(char, rows):
    with pytest.raises(ValueError):
        submodule_mod._basis_from_rows(_xyz(char=char), (0,), rows)


def test_a_cached_basis_with_a_redundant_lead_is_recomputed(tmp_path, monkeypatch):
    # a sealed, well-formed entry for the ideal (x) of k[x,y] that holds
    # (x, x^2): trusted, its leads would give R/(x) the numerator
    # 1 - t - t^2 + t^3 and length 2
    ring = R2()
    gens = ["x", "x^2 + x*y"]  # not spanned by terms, so the basis is cached
    writer = cache.Cache(directory=str(tmp_path))
    monkeypatch.setattr(cache, "_ACTIVE", writer)
    assert ideal(ring, gens).groebner() == [Vec(ring, {(0, (1, 0)): 1})]
    (path,) = tmp_path.glob("*/*.json")
    writer.put(path.stem, [[[0, 1, 0, 1]], [[0, 2, 0, 1]]])
    reader = cache.Cache(directory=str(tmp_path))
    monkeypatch.setattr(cache, "_ACTIVE", reader)
    module = FPModule.cyclic(ring, gens)
    assert module.length() == math.inf
    assert module.hilbert_function(range(4)) == [1, 1, 1, 1]
    assert reader.stats() == {"hits": 0, "misses": 1, "puts": 1, "corrupt": 1}


# -- term modules: bases computed where they are made, never cached -----------
#
# A module spanned by terms takes its reduced basis straight from its minimal
# terms, and a term product comes with that basis preset. These tests check
# the bases against the definition of a reduced basis of a term module, not
# against the code that builds them.

TERM_CASES = {
    # name: (ring, twists)
    "gf": (lambda: _xyz(), (0,)),
    "q_rank2": (lambda: _xyz(char=0), (0, 1)),
    "weights_1_2": (lambda: PolyRing(("x", "y"), weights=(1, 2)), (0,)),
    "quotient_xy": (lambda: _xyz(relations=["x*y"]), (0,)),
}


def _random_terms(rng, ring, rank, count, max_degree=4):
    out = []
    for _ in range(count):
        m = rng.choice(monomials_of_degree(ring, rng.randint(1, max_degree)))
        out.append(Vec(ring, {(rng.randrange(rank), m): ring.coeff(rng.randint(1, 40))}))
    return out


def _relation_terms(ring, rank):
    """The terms of the base-relation vectors I0 * R^rank."""
    return {(c, m) for rel in ring.relations for m in rel.terms for c in range(rank)}


def _assert_reduced_term_basis(sub, basis, spanning_terms):
    """basis is the reduced basis of the module spanned by spanning_terms:
    monic single terms, a divisibility antichain, each one a multiple of a
    spanning term, every spanning term a multiple of one, sorted by term_key."""
    ring, bound = sub.ring, sub.bound
    assert all(len(b.terms) == 1 for b in basis)
    leads = [next(iter(b.terms)) for b in basis]
    assert all(b.terms[t] == ring.one for b, t in zip(basis, leads))
    for i, (ci, mi) in enumerate(leads):
        for j, (cj, mj) in enumerate(leads):
            assert i == j or ci != cj or not ring.mono_divides(mi, mj)
        assert any(c == ci and ring.mono_divides(m, mi) for c, m in spanning_terms)
    for c, m in spanning_terms:
        assert any(lc == c and ring.mono_divides(lm, m) for lc, lm in leads)
    keys = [bound.term_key(t) for t in leads]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


@pytest.mark.parametrize("case", sorted(TERM_CASES))
@pytest.mark.parametrize("seed", range(4))
def test_term_module_basis_meets_its_definition(case, seed, tmp_path, monkeypatch):
    store = cache.Cache(directory=str(tmp_path))
    monkeypatch.setattr(cache, "_ACTIVE", store)
    make_ring, twists = TERM_CASES[case]
    ring = make_ring()
    rng = random.Random(1000 * seed + len(case))
    gens = _random_terms(rng, ring, len(twists), rng.randint(1, 9))
    sub = Submodule(ring, len(twists), twists, gens, check=False)
    spanning = {t for g in gens for t in g.terms} | _relation_terms(ring, len(twists))
    _assert_reduced_term_basis(sub, sub.groebner(), spanning)
    assert store.stats() == {"hits": 0, "misses": 0, "puts": 0, "corrupt": 0}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case", sorted(TERM_CASES))
@pytest.mark.parametrize("seed", range(4))
def test_term_product_basis_is_the_fresh_basis(case, seed):
    make_ring, twists = TERM_CASES[case]
    ring = make_ring()
    rank = len(twists)
    rng = random.Random(2000 * seed + len(case))
    target = Submodule(ring, rank, twists, _random_terms(rng, ring, rank, 4, 3), check=False)
    multiplier = Submodule(ring, 1, (0,), _random_terms(rng, ring, 1, 3, 2), check=False)
    prod = target.multiply_ideal(multiplier)
    assert (prod._gb is None) == bool(ring.relations)
    basis = prod.groebner()
    fresh = Submodule(ring, rank, twists, list(prod.gens), check=False)
    assert basis == fresh.groebner()
    # spanned by every product of a generator of each side
    products = {
        (c, tuple(a + b for a, b in zip(m, e)))
        for g in target.gens for (c, m) in g.terms
        for p in multiplier.gens for (_z, e) in p.terms
    }
    _assert_reduced_term_basis(prod, basis, products | _relation_terms(ring, rank))


def test_term_power_products_come_with_their_basis():
    R = R2()
    fam = IdealFamily([ideal(R, ["x", "y^2"]), ideal(R, ["x^2", "y"])])
    for exps in ((1, 0), (2, 1), (3, 3)):
        product = fam.power_product(exps)
        assert product._gb is not None
        fresh = Submodule(R, 1, (0,), list(product.gens), check=False)
        assert product.groebner() == fresh.groebner()


# -- oracle: power products from their neighbour ----------------------------------

POWER_PRODUCT_FAMILIES = {
    # name: (variables, generator lists, largest exponent)
    "term_r2": (("x", "y"), (["x", "y^2"], ["x^2", "y"]), 3),
    "term_r3": (("x", "y", "z"), (["x", "y"], ["y^2", "z"], ["x*z", "y^3"]), 2),
    "non_term_r2": (("x", "y"), (["x^2 + y^2", "x*y"], ["x + y", "y^2"]), 2),
    "non_term_r3": (("x", "y", "z"), (["x + y", "z^2"], ["x*y - z^2"], ["y", "x*z + z^2"]), 2),
}


def full_power_product(fam, exps):
    """prod_j I_j^(exps[j]) by the full-product route: each full power, and
    then their product, from every product of generators, with one reduced
    basis at the end."""
    prod = unit_ideal(fam.ring)
    for ideal_, n in zip(fam.ideals, exps):
        power = unit_ideal(fam.ring)
        for _ in range(n):
            power = _all_products(power, ideal_)
        prod = _all_products(prod, power)
    return prod.groebner()


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("name", sorted(POWER_PRODUCT_FAMILIES))
def test_neighbour_built_power_products_match_full_products(name, char):
    # every exponent vector of the box, zero entries included, asked for in
    # a shuffled order (so a product's neighbour may or may not be cached)
    # and once from a fresh family (every neighbour built on the way down)
    names, gens, top = POWER_PRODUCT_FAMILIES[name]
    R = PolyRing(names, char=char)
    ideals = [ideal(R, g) for g in gens]
    fam = IdealFamily(ideals)
    box = list(itertools.product(range(top + 1), repeat=len(ideals)))
    random.Random(name).shuffle(box)
    for exps in box:
        want = full_power_product(fam, exps)
        got = fam.power_product(exps)
        assert list(got.gens) == want, exps
        assert got.groebner() == want, exps
        assert list(IdealFamily(ideals).power_product(exps).gens) == want, exps


# -- oracle: term kernels -----------------------------------------------------------
#
# On input spanned by terms, colon, colon_module and intersect are exponent
# arithmetic on minimal monomials; the LiftSolver references above check them.

TERM_KERNEL_CASES = {
    # name: (ring, twists)
    "gf": (lambda: _xyz(), (0,)),
    "q": (lambda: _xyz(char=0), (0,)),
    "weights_1_2_1": (lambda: _xyz(weights=(1, 2, 1)), (0,)),
    "q_twisted_rank2": (lambda: _xyz(char=0), (1, 0)),
    "monomial_quotient": (lambda: _xyz(relations=["y^2", "x*z"]), (0,)),
    "monomial_quotient_rank2": (lambda: _xyz(relations=["y^2", "x*z"]), (0, 2)),
}


def _divisor_term(rng, g):
    """A random divisor of the term vector g, with a coefficient that is not one."""
    ((c, m),) = g.terms
    u = tuple(rng.randint(0, e) for e in m)
    return Vec(g.ring, {(c, u): g.ring.coeff(rng.randint(2, 9))})


def _term_kernel_inputs(case, seed):
    make_ring, twists = TERM_KERNEL_CASES[case]
    ring = make_ring()
    rank = len(twists)
    rng = random.Random("terms/%s/%d" % (case, seed))
    gens = _random_terms(rng, ring, rank, rng.randint(2, 6))
    sub = Submodule(ring, rank, twists, gens, check=False)
    other = Submodule(ring, rank, twists, _random_terms(rng, ring, rank, rng.randint(1, 4)), check=False)
    # for a divisor x^u of a generator x^m, (sub : x^u) holds x^(m - u), so
    # the first vector's colon and the first polynomial's are not zero
    vectors = [_divisor_term(rng, rng.choice(gens))] + _random_terms(rng, ring, rank, 1)
    polys = [
        Poly(ring, {m: cf for (_c, m), cf in t.terms.items()})
        for t in (_divisor_term(rng, rng.choice(gens)), _random_terms(rng, ring, 1, 1, 2)[0])
    ]
    return sub, other, vectors, polys


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("case", sorted(TERM_KERNEL_CASES))
def test_term_kernels_match_reference(case, seed):
    sub, other, vectors, polys = _term_kernel_inputs(case, seed)
    assert _terms(sub.intersect(other)) == _terms(reference_intersect(sub, other))
    assert _terms(sub.colon(vectors)) == _terms(reference_colon(sub, vectors))
    assert _terms(sub.colon(other)) == _terms(reference_colon(sub, list(other.gens)))
    assert _terms(sub.colon_module(polys)) == _terms(reference_colon_module(sub, polys))


def test_term_kernels_on_a_component_where_self_is_zero():
    R = _xyz()
    sub = submodule(R, 2, (0, 1), [["x*y", "0"], ["y^2", "0"]])
    other = submodule(R, 2, (0, 1), [["x", "0"], ["0", "z"]])
    v = parse_vec(R, ["0", "x"])
    assert sub.colon([v]).is_zero()
    assert _terms(sub.colon([v])) == _terms(reference_colon(sub, [v]))
    got = sub.colon_module([parse_poly(R, "x")])
    assert _terms(got) == [{(0, (0, 1, 0)): 1}]
    assert _terms(got) == _terms(reference_colon_module(sub, [parse_poly(R, "x")]))
    meet = sub.intersect(other)
    assert _terms(meet) == [{(0, (1, 1, 0)): 1}]
    assert _terms(meet) == _terms(reference_intersect(sub, other))


def test_term_colon_can_be_the_unit_ideal():
    R = _xyz()
    sub = ideal(R, ["x", "y^2"])
    whole = sub.colon([Vec.from_poly(parse_poly(R, "x*y"))])
    assert is_unit_ideal(whole)
    assert _terms(whole) == [{(0, (0, 0, 0)): 1}]
    assert sub.colon_module([parse_poly(R, "y^2")]).equals(unit_ideal(R))


@pytest.mark.parametrize("char, coeffs", [(32003, (12345, 7, 31999)), (0, ("3/2", "-5", "7/3"))])
def test_term_kernels_ignore_coefficients(char, coeffs):
    R = _xyz(char=char)
    a, b, c = (R.coeff(k) for k in coeffs)
    scaled = Submodule(R, 1, (0,), [Vec(R, {(0, (2, 0, 0)): a}), Vec(R, {(0, (0, 3, 0)): b})])
    plain = ideal(R, ["x^2", "y^3"])
    v = Vec(R, {(0, (1, 1, 0)): c})
    got = scaled.colon([v])
    assert _terms(got) == _terms(plain.colon([Vec(R, {(0, (1, 1, 0)): R.one})]))
    assert _terms(got) == _terms(reference_colon(scaled, [v]))
    # (x^2, y^3) : xy = (x, y^2)
    assert got.equals(ideal(R, ["x", "y^2"]))
    poly = Poly(R, {(1, 1, 0): c})
    assert _terms(scaled.colon_module([poly])) == _terms(reference_colon_module(scaled, [poly]))
    assert _terms(scaled.intersect(ideal(R, ["x*y"]))) == _terms(ideal(R, ["x^2*y", "x*y^3"]))


def test_term_colon_over_a_monomial_quotient_uses_the_base_relations():
    # in k[x,y,z]/(y^2, xz): (x : y) holds y, since y*y = 0
    R = _xyz(relations=["y^2", "x*z"])
    got = ideal(R, ["x"]).colon([Vec.from_poly(parse_poly(R, "y"))])
    assert got.equals(ideal(R, ["x", "y"]))
    assert _terms(got) == _terms(reference_colon(ideal(R, ["x"]), [Vec.from_poly(parse_poly(R, "y"))]))


def test_term_kernels_build_no_lift_solver(monkeypatch):
    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(submodule_mod, "LiftSolver", counting("LiftSolver", LiftSolver))
    monkeypatch.setattr(submodule_mod, "buchberger", counting("buchberger", submodule_mod.buchberger))
    for case in sorted(TERM_KERNEL_CASES):
        sub, other, vectors, polys = _term_kernel_inputs(case, 0)
        sub.intersect(other).groebner()
        sub.colon(vectors)
        sub.colon(other)
        sub.colon_module(polys).groebner()
    assert calls == []
    # a binomial still goes through the block solver
    R = _xyz()
    ideal(R, ["x^2", "y"]).colon([Vec.from_poly(parse_poly(R, "x + z"))])
    assert "LiftSolver" in calls
