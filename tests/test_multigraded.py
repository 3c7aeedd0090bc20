"""Rees presentations, strand extraction, analytic spread, Artin-Rees.

Hand oracles: R((x,y)) has the single Koszul relation, its strand n is
(x,y)^n with n+1 generators; (x) cap (x,y)^n = x*(x,y)^(n-1) gives AR
exponent 1; (y^2) cap (x)^n = (x^n y^2) gives exponent 0; analytic spreads
of (x,y), (x), and the pair ((x),(x)) are 2, 1, 2. The spread is checked
against the special fiber built by hand over k[y] on the component corpus.
Each certified Artin-Rees exponent of the corpus is the least: lowering a
component by one breaks the defining equality on a window.
"""

import pytest

from functorlab.errors import ContractViolation
from functorlab.fpmodule import FPModule
from functorlab.multigraded import (
    analytic_spread,
    artin_rees_exponent,
    artin_rees_window,
    graded_component,
    intersection_strand,
    rees_algebra,
    rees_module,
)
from functorlab.poly import Vec, parse_vec
from functorlab.rings import PolyRing
from functorlab.corpus import INPUTS, KINDS, base, component_corpus
from functorlab.grid import box_points
from functorlab.submodule import IdealFamily, ideal


R = PolyRing(("x", "y"))
MAX = IdealFamily([ideal(R, ["x", "y"])])
FREE = FPModule.free(R, (0,))


def test_rees_algebra_of_maximal_ideal():
    alg = rees_algebra(MAX)
    assert alg.r == 1
    assert alg.aq.names == ("x", "y", "y1_1", "y1_2")
    assert [alg.aq.weights[i] for i in (2, 3)] == [2, 2]
    # single Koszul relation y*Y1 - x*Y2, multidegree (1,)
    assert len(alg.q_gens) == 1
    assert alg.mdeg(next(iter(alg.q_gens[0].terms))) == (1,)


def test_rees_module_of_free_is_algebra():
    rees = rees_module(MAX, FREE)
    alg = rees_algebra(MAX)
    assert rees.ring == alg.aq
    assert rees.twists == (0,)
    # the relations of R(R) are exactly Q, which the ring already holds
    assert list(rees.rels) == [Vec.from_poly(q) for q in alg.q_gens]
    assert rees.hilbert_equal(FPModule.free(alg.aq, (0,)))
    assert rees.dim() == 3


def test_rees_names_step_around_ring_variables():
    # ring variables named like the bookkeeping push it to underscored names
    ring = PolyRing(("y1_1", "t1"))
    family = IdealFamily([ideal(ring, ["y1_1", "t1"])])
    alg = rees_algebra(family)
    assert alg.aq.names == ("y1_1", "t1", "_y1_1", "y1_2")
    assert alg.b_ring.names[-1] == "_t1"
    free = FPModule.free(ring, (0,))
    strand = graded_component(family, rees_module(family, free), (2,))
    assert strand.hilbert_equal(FPModule(ring, 1, (0,), list(family.power_product((2,)).gens), []))
    assert analytic_spread(free, family) == 2


def test_strands_are_ideal_powers():
    rees = rees_module(MAX, FREE)
    for n in range(5):
        comp = graded_component(MAX, rees, (n,))
        # Hilbert agrees with the honest ideal power (x,y)^n in R
        idl = MAX.power_product((n,))
        direct = FPModule(R, 1, (0,), list(idl.gens), [])
        assert comp.hilbert_equal(direct)
        assert len(comp.gens) == n + 1


def test_strand_of_principal_family():
    fam = IdealFamily([ideal(R, ["x"])])
    comp = graded_component(fam, rees_module(fam, FREE), (2,))
    direct = FPModule(R, 1, (0,), [parse_vec(R, ["x^2"])], [])
    assert comp.hilbert_equal(direct)


def test_two_ideal_strands():
    fam = IdealFamily([ideal(R, ["x", "y^2"]), ideal(R, ["x^2", "y"])])
    comp = graded_component(fam, rees_module(fam, FREE), (1, 1))
    prod = fam.power_product((1, 1))
    direct = FPModule(R, 1, (0,), list(prod.gens), [])
    assert comp.hilbert_equal(direct)


def test_component_of_presented_module():
    # M = R/(x): strand n of R(M) is (x,y)^n (R/(x)) = (x,y)^n/(x-part)
    m = FPModule.cyclic(R, ("x",))
    comp = graded_component(MAX, rees_module(MAX, m), (2,))
    idl = MAX.power_product((2,)).plus(ideal(R, ["x"]))
    direct = FPModule(
        R, 1, (0,), list(idl.gens), [parse_vec(R, ["x"])],
    )
    # (x,y)^2 + (x) over (x) has Hilbert function of (y^2) in k[y]
    assert comp.hilbert_equal(FPModule.subquotient(R, 1, (0,), list(idl.gens), [parse_vec(R, ["x"])]))
    assert comp.hilbert_function([0, 1, 2, 3]) == direct.hilbert_function([0, 1, 2, 3])


def test_analytic_spreads():
    assert analytic_spread(FREE, MAX) == 2
    assert analytic_spread(FREE, IdealFamily([ideal(R, ["x"])])) == 1
    two = IdealFamily([ideal(R, ["x"]), ideal(R, ["x"])])
    assert analytic_spread(FREE, two) == 2
    # spread only sees R/ann: torsion module over the line
    m = FPModule.cyclic(R, ("x^2", "x*y"))
    assert analytic_spread(m, MAX) == analytic_spread(
        FPModule.cyclic(R, ("x^2", "x*y")), MAX
    )


def _special_fiber_dim(module, family):
    """dim R(M)/mR(M) built by hand over k[y]: the relations of R(M) and Q
    times each generator, with every term that holds a base variable
    dropped."""
    rees = rees_module(family, module)
    alg = rees_algebra(family)
    nb = alg.base.nvars
    ky = PolyRing(alg.aq.names[nb:], alg.base.char, alg.aq.weights[nb:])
    q_rels = [Vec.from_poly(q, i) for q in alg.q_gens for i in range(rees.rank)]
    rels = []
    for rel in list(rees.rels) + q_rels:
        kept = {
            (c, mono[nb:]): ky.coeff(cf)
            for (c, mono), cf in rel.terms.items()
            if not any(mono[:nb])
        }
        if kept:
            rels.append(Vec(ky, kept))
    gens = [Vec.unit(ky, c) for c in range(rees.rank)]
    return FPModule(ky, rees.rank, rees.twists, gens, rels, check=False).dim()


CORPUS = component_corpus()


@pytest.mark.parametrize(
    "family, module",
    [case[2:4] for case in CORPUS],
    ids=[case[0] for case in CORPUS],
)
def test_spread_is_the_special_fiber_dimension(family, module):
    assert analytic_spread(module, family) == _special_fiber_dim(module, family)


def test_certified_artin_rees_embedded_line():
    # N = (x) inside M = R, I = (x,y): I^n cap (x) = x I^(n-1), exponent 1
    assert artin_rees_exponent(MAX, FREE, ideal(R, ["x"])) == (1,)


def test_certified_artin_rees_transverse():
    fam = IdealFamily([ideal(R, ["x"])])
    assert artin_rees_exponent(fam, FREE, ideal(R, ["y^2"])) == (0,)


def test_certified_exponent_validates_on_window():
    sub = ideal(R, ["x"])
    d = artin_rees_exponent(MAX, FREE, sub)
    w = FREE.rels_sub()
    for n in range(d[0], d[0] + 9):
        left = intersection_strand(MAX, FREE, sub, (n,))
        base = intersection_strand(MAX, FREE, sub, d)
        gap = (n - d[0],)
        assert left.equals(MAX.apply(gap, base).plus(w))


def test_two_ideal_artin_rees():
    fam = IdealFamily([ideal(R, ["x"]), ideal(R, ["y"])])
    # I1^a I2^b cap (xy) = x^a y^b ... cap (xy) needs one step in each slot
    assert artin_rees_exponent(fam, FREE, ideal(R, ["x*y"])) == (1, 1)


def _artin_rees_cases():
    """(label, family, N, expected d): the corpus's Artin-Rees cases on its
    four bases, and N = (xy) along the pair (x), (y)."""
    out = []
    for kind in KINDS:
        ring = base(kind)
        for gens, sub, expected in INPUTS[kind].artin_rees:
            label = "%s, I = (%s), N = (%s)" % (kind, ", ".join(gens), sub)
            out.append((label, IdealFamily([ideal(ring, gens)]), ideal(ring, [sub]), expected))
    pair = IdealFamily([ideal(R, ["x"]), ideal(R, ["y"])])
    out.append(("GF(p), (x) and (y), N = (xy)", pair, ideal(R, ["x*y"]), (1, 1)))
    return out


AR_CASES = _artin_rees_cases()


@pytest.mark.parametrize(
    "family, sub, expected", [case[1:] for case in AR_CASES], ids=[case[0] for case in AR_CASES]
)
def test_certified_exponent_is_the_least(family, sub, expected):
    # d is the expected exponent, and no smaller one works: lowering any
    # positive component by one breaks the equality on the window above it
    free = FPModule.free(family.ring, (0,))
    d = artin_rees_exponent(family, free, sub)
    assert d == expected
    for j, e in enumerate(d):
        if e:
            low = d[:j] + (e - 1,) + d[j + 1:]
            window = box_points(low, tuple(a + 3 for a in low))
            assert artin_rees_window(family, free, sub, low, window) is not None, low


def test_ar_pair_containment_guard():
    with pytest.raises(ContractViolation):
        artin_rees_exponent(
            MAX,
            FPModule(R, 1, (0,), [parse_vec(R, ["x"])], []),
            ideal(R, ["y"]),
        )
