"""Submodule lattice operations, with hand-checked closed forms frozen in.

The oracle tests at the end compare the one-kernel intersect, colon and
colon_module with the constructions they replaced (one kernel per vector or
polynomial, folded by intersections, every generator tagged), and the
one-pass minimal_generators with the drop-one-at-a-time loop it replaced, on
seeded random homogeneous input.
"""

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
    return Submodule(a.ring, a.rank, a.twists, out, a.order, check=False)


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
    monkeypatch.setattr(cache, "_ACTIVE", cache.Cache(enabled=False))


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
    assert len(calls) <= len(kept) + 1


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
    monkeypatch.setattr(cache, "_ACTIVE", cache.Cache(enabled=False))
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


def test_groebner_key_does_not_depend_on_generator_order(monkeypatch):
    keys = []

    class Recording(cache.Cache):
        def key(self, *parts):
            keys.append(super().key(*parts))
            return keys[-1]

    store = Recording()
    monkeypatch.setattr(cache, "_ACTIVE", store)
    first = _codec_module("q_fractions").groebner()
    second = _codec_module("q_fractions", reverse=True).groebner()
    assert keys[0] == keys[1] and second == first
    assert store.stats()["hits"] == 1
    _codec_module("gf").groebner()
    assert keys[2] != keys[0]


def test_disabled_cache_builds_no_key(monkeypatch):
    calls = []
    monkeypatch.setattr(cache.Cache, "key", lambda self, *parts: calls.append(parts))
    monkeypatch.setattr(cache, "_ACTIVE", cache.Cache(enabled=False))
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
])
def test_malformed_cache_rows_are_rejected(char, rows):
    with pytest.raises(ValueError):
        submodule_mod._basis_from_rows(_xyz(char=char), 1, rows)
