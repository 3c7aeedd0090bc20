"""Coherent functor builders, both evaluation routes, and composites.

Length oracles, hand computed: Hom(R/(x), R/(x,y)^2) = ((x,y)^2:x)/(x,y)^2
= (x,y)/(x,y)^2 of length 2; R/(x) (x) R/(x,y)^3 = R/((x,y)^3+(x)) with
basis 1, y, y^2; Tor_1(R/(x), R/(x)) = (0:x) = R/(x); Tor_1(k,k) has
length 2 (first Koszul rank); the socle of R/(x,y)^2 is (x,y)/(x,y)^2.

The oracle tests at the end compare evaluate() with the route it replaced
(each pushed Hom(L, X) generator lifted to coefficients over Hom(K, X) and
re-expanded) on seeded random cyclic modules over several rings.
"""

import random

import pytest

from functorlab.corpus import ORACLE_BASES, base
from functorlab.errors import ConfigurationError, ContractViolation, FunctorLabError
from functorlab.fpmodule import FPModule, hom_ext_tor, push_through
from functorlab.functors import (
    Composite,
    evaluate,
    evaluate_via_diagram,
    functor_from_ext,
    functor_from_hom,
    functor_from_tensor,
    functor_from_tor,
)
from functorlab.functors import _hom_module
from functorlab.groebner import LiftSolver, spans_terms
from functorlab.invariants import associated_primes
from functorlab.oracles import monomials_of_degree
from functorlab.poly import Poly, Vec, parse_vec
from functorlab.rings import PolyRing
from functorlab.submodule import Submodule


R = PolyRing(("x", "y"))
FREE = FPModule.free(R, (0,))
K_MOD = FPModule.cyclic(R, ("x", "y"))


def quotient(*polys):
    return FPModule.cyclic(R, polys)


def test_identity_functor_returns_argument():
    ident = functor_from_hom(FREE)
    x = quotient("x^2", "x*y", "y^2")
    out = evaluate(ident, x)
    assert out.hilbert_equal(x)
    assert out.length() == 3


def test_hom_functor_lengths():
    f = functor_from_hom(quotient("x"))
    assert evaluate(f, FREE).is_zero()
    out = evaluate(f, quotient("x^2", "x*y", "y^2"))
    assert out.length() == 2


def test_hom_of_cyclic_at_itself():
    f = functor_from_hom(quotient("x"))
    out = evaluate(f, quotient("x"))
    assert out.hilbert_function([0, 1, 2, 3]) == [1, 1, 1, 1]


def test_tensor_functor_lengths():
    f = functor_from_tensor(quotient("x"))
    out = evaluate(f, quotient("x^3", "x^2*y", "x*y^2", "y^3"))
    assert out.length() == 3
    g = functor_from_tensor(K_MOD)
    assert evaluate(g, quotient("x^2", "x*y", "y^2")).length() == 1
    assert evaluate(functor_from_tensor(FREE), quotient("x")).hilbert_equal(quotient("x"))


def test_tensor_matches_tor_zero():
    for m in (quotient("x"), K_MOD, quotient("x^2", "x*y")):
        f = functor_from_tensor(m)
        for x in (quotient("x^2", "x*y", "y^2"), quotient("y")):
            assert evaluate(f, x).hilbert_equal(hom_ext_tor(m, x, 0, "tor"))


def test_ext_functor_against_direct():
    m = quotient("x")
    f = functor_from_ext(m, 1)
    out = evaluate(f, quotient("x^3", "x^2*y", "x*y^2", "y^3"))
    assert out.length() == 3
    for x in (quotient("x^2", "x*y", "y^2"), FREE):
        assert evaluate(f, x).hilbert_equal(hom_ext_tor(m, x, 1, "ext"))


def test_tor_functor_against_direct():
    m = quotient("x")
    f = functor_from_tor(m, 1)
    out = evaluate(f, quotient("x"))
    # (0:x) in R/(x) carries the syzygy twist, so the window starts at 1
    assert out.hilbert_function([0, 1, 2, 3]) == [0, 1, 1, 1]
    assert out.hilbert_equal(FPModule.from_cokernel(R, (1,), [parse_vec(R, ["x"])]))
    k1 = functor_from_tor(K_MOD, 1)
    assert evaluate(k1, K_MOD).length() == 2
    for x in (quotient("x^2", "x*y", "y^2"), quotient("y")):
        assert evaluate(k1, x).hilbert_equal(hom_ext_tor(K_MOD, x, 1, "tor"))


def test_vanishing_beyond_resolution():
    # pd(R/(x)) = 1, so Ext^2 and Tor_2 must be the zero functor
    m = quotient("x")
    assert evaluate(functor_from_ext(m, 2), K_MOD).is_zero()
    assert evaluate(functor_from_tor(m, 2), K_MOD).is_zero()


def test_index_guards():
    with pytest.raises(ConfigurationError):
        functor_from_ext(K_MOD, 0)
    with pytest.raises(ConfigurationError):
        functor_from_tor(K_MOD, 0)


def corpus_functors():
    return [
        functor_from_hom(FREE),
        functor_from_hom(quotient("x")),
        functor_from_tensor(quotient("x")),
        functor_from_tensor(K_MOD),
        functor_from_ext(quotient("x"), 1),
        functor_from_ext(K_MOD, 1),
        functor_from_tor(K_MOD, 1),
        functor_from_tor(quotient("x"), 1),
    ]


def corpus_arguments():
    sub = FPModule.subquotient(
        R, 1, (0,), [parse_vec(R, ["x"]), parse_vec(R, ["y"])],
        [parse_vec(R, ["x^2"]), parse_vec(R, ["x*y"]), parse_vec(R, ["y^2"])],
    )
    return [quotient("x^2", "x*y", "y^2"), quotient("x^2", "x*y"), sub]


def test_route_equivalence_on_corpus():
    pairs = 0
    for f in corpus_functors():
        for x in corpus_arguments():
            direct = evaluate(f, x)
            diagram = evaluate_via_diagram(f, x)
            assert direct.hilbert_equal(diagram), pairs
            pairs += 1
    assert pairs == 24


def test_route_equivalence_ass_sets():
    from functorlab.invariants import associated_primes

    f = functor_from_hom(quotient("x"))
    x = quotient("x^2", "x*y")
    a = associated_primes(evaluate(f, x))
    b = associated_primes(evaluate_via_diagram(f, x))
    names = lambda ps: sorted(tuple(sorted(str(q) for q in p.gens)) for p in ps)
    assert names(a) == names(b)


def test_expression_socle():
    expr = Composite(functor_from_hom(K_MOD), functor_from_hom(FREE))
    out = expr.evaluate(quotient("x^2", "x*y", "y^2"))
    assert out.length() == 2


def test_expression_residue_tensor():
    expr = Composite(functor_from_tensor(K_MOD), functor_from_hom(FREE))
    for n in (2, 3):
        powers = ["x^%d" % n] + [
            "x^%d*y^%d" % (n - j, j) for j in range(1, n)
        ] + ["y^%d" % n]
        out = expr.evaluate(quotient(*powers))
        assert out.length() == 1


def test_expression_identity_composition():
    ident = functor_from_hom(FREE)
    inner = functor_from_tensor(quotient("x"))
    x = quotient("x^2", "x*y", "y^2")
    plain = inner.evaluate(x)
    wrapped = Composite(ident, inner).evaluate(x)
    assert plain.hilbert_equal(wrapped)
    assert evaluate_via_diagram(inner, x).hilbert_equal(plain)


def test_expression_guards():
    with pytest.raises(ConfigurationError):
        Composite()


def induced_map(fx, fy):
    """F applied to a canonical surjection X -> Y = X/extra.

    fx and fy must come from evaluate() on modules sharing one ambient,
    with Y's relations containing X's; the Hom blocks then coincide and
    the induced map just re-expresses the F(X) generators inside F(Y).
    Returns the matrix: one column of F(Y)-generator coefficients per
    F(X) generator.
    """
    if fx.rank != fy.rank or fx.twists != fy.twists:
        raise ContractViolation("induced map needs a shared Hom ambient")
    solver = LiftSolver(fy.ring, fy.rank, fy.twists, list(fy.gens), list(fy.rels))
    cols = []
    for g in fx.gens:
        coeffs = solver.lift(g)
        if coeffs is None:
            raise ContractViolation("generator image lies outside the target value")
        cols.append(coeffs)
    return cols


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


def test_induced_maps_compose_along_surjections():
    f = functor_from_hom(quotient("x"))
    x = quotient("x^3", "x^2*y", "x*y^2", "y^3")
    y = quotient("x^2", "x*y", "y^2")
    z = K_MOD
    fx, fy, fz = evaluate(f, x), evaluate(f, y), evaluate(f, z)
    xy = induced_map(fx, fy)
    yz = induced_map(fy, fz)
    xz = induced_map(fx, fz)
    two_step = compose_columns(yz, xy, R)
    for j in range(len(fx.gens)):
        gap = fz.element(xz[j]) - fz.element(two_step[j])
        assert fz.rels_sub().contains(gap)


def test_diagram_is_cached_and_commutes():
    f = functor_from_ext(K_MOD, 1)
    d1 = f.diagram()
    d2 = f.diagram()
    assert d1 is d2
    # the presentation square commutes: alpha sends K's relations into L's
    pres_k, pres_l = d1.pres_k, d1.pres_l
    rels_l = Submodule(R, len(pres_l.gens), pres_l.gen_twists, list(pres_l.columns))
    k_cols = [col.components(len(pres_k.gens)) for col in pres_k.columns]
    assert k_cols
    for col in compose_columns(d1.alpha, k_cols, R):
        assert rels_l.contains(Vec.from_polys(col))


# -- oracle: the coefficient-lift route evaluate() replaced ----------------------


def reference_alpha(functor):
    """f on presentation generators, each image lifted over L's generators."""
    pres_k = functor.k.presentation()
    pres_l = functor.l.presentation()
    l = functor.l
    lookup = {id(g): j for j, g in enumerate(functor.k.gens)}
    solver = LiftSolver(l.ring, l.rank, l.twists, list(pres_l.gens), list(l.rels))
    cols = []
    for g in pres_k.gens:
        img = l.element(functor.f[lookup[id(g)]])
        if not img:
            cols.append([Poly.zero(l.ring) for _ in pres_l.gens])
            continue
        coeffs = solver.lift(img)
        if coeffs is None:
            raise ContractViolation("map image is not expressible in the presentation")
        cols.append(coeffs)
    return cols


def reference_evaluate(functor, x):
    """coker of the induced map Hom(L, X) -> Hom(K, X) on generator coefficients."""
    hk = _hom_module(functor.k, x)
    hl = _hom_module(functor.l, x)
    if not hl.gens or not hk.gens:
        return hk
    alpha = reference_alpha(functor)
    solver = LiftSolver(hk.ring, hk.rank, hk.twists, list(hk.gens), list(hk.rels))
    images = []
    for u in hl.gens:
        coeffs = solver.lift(push_through(u, alpha, x.rank))
        if coeffs is None:
            raise ContractViolation("induced image left the Hom module")
        images.append(hk.element(coeffs))
    return FPModule(hk.ring, hk.rank, hk.twists, hk.gens, list(hk.rels) + images, check=False)


ORACLE_BUILDERS = (
    functor_from_hom,
    functor_from_tensor,
    lambda m: functor_from_ext(m, 1),
    lambda m: functor_from_tor(m, 1),
)


def random_cyclic(rng, ring):
    """R/I for one to three homogeneous monomials or binomials of degree 1-3."""
    rels = []
    for _ in range(rng.randint(1, 3)):
        monos = monomials_of_degree(ring, rng.randint(1, 3))
        if not monos:
            continue
        picked = rng.sample(monos, 1 if rng.random() < 0.6 else min(2, len(monos)))
        coeffs = {m: ring.coeff(rng.choice((1, -1, 2))) for m in picked}
        rels.append(Vec.from_poly(Poly(ring, coeffs)))
    return FPModule(ring, 1, (0,), [Vec.unit(ring, 0)], rels)


def value_summary(m):
    """Hilbert numerator, Ass (or the refusal's type) and whether gens + rels are terms."""
    try:
        primes = associated_primes(m)
        ass = sorted(tuple(sorted(str(g.component(0)) for g in p.gens)) for p in primes)
    except FunctorLabError as exc:
        ass = type(exc).__name__
    return m.numerator(), ass, spans_terms(list(m.gens) + list(m.rels), m.ring)


@pytest.mark.parametrize("case", sorted(ORACLE_BASES))
def test_evaluate_matches_lift_route(case):
    ring = base(ORACLE_BASES[case])
    rng = random.Random("evaluate/%s" % case)
    for _ in range(6):
        m, x = random_cyclic(rng, ring), random_cyclic(rng, ring)
        for build in ORACLE_BUILDERS:
            f = build(m)
            assert value_summary(evaluate(f, x)) == value_summary(reference_evaluate(f, x))


def test_ext1_over_quotient_keeps_its_associated_primes():
    ring = base("k[x,y,z]/(y^2, xz)")
    m = FPModule.cyclic(ring, ("y", "z^2"))
    f = functor_from_ext(m, 1)
    got = value_summary(evaluate(f, m))
    assert got == value_summary(reference_evaluate(f, m))
    assert got[1] == [("x", "y", "z"), ("y", "z")]


def test_evaluate_at_a_new_point_builds_no_lift_solver(monkeypatch):
    f = functor_from_tensor(quotient("x"))
    evaluate(f, quotient("x"))
    builds = []
    real_init = LiftSolver.__init__

    def counting(self, *args, **kwargs):
        builds.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(LiftSolver, "__init__", counting)
    assert evaluate(f, quotient("x^3", "x^2*y", "x*y^2", "y^3")).length() == 3
    assert builds == []
