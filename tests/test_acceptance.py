"""Acceptance runs: the checks a release must pass, one verdict line each.

Each test exercises a full pipeline (family -> observable grid -> fit or
verdict) against independently known answers: closed-form Hilbert-Samuel
values, staircase counts, hand-traced eventual shapes, regular-sequence
grades, and route cross-checks. Timing limits are asserted where a check
is only useful if it stays cheap.
"""

import time
from fractions import Fraction

import pytest

from functorlab.fitting import fit_polynomial
from functorlab.fpmodule import FPModule
from functorlab.functors import (
    evaluate,
    evaluate_via_diagram,
    functor_from_ext,
    functor_from_hom,
    functor_from_tensor,
)
from functorlab.grid import GridBox
from functorlab.multigraded import analytic_spread, artin_rees_exponent, intersection_strand
from functorlab.oracles import grade_by_regular_sequence, staircase_count
from functorlab.poly import Vec, parse_poly, parse_vec
from functorlab.rings import PolyRing
from functorlab.corpus import route_corpus
from functorlab.selftest import run_selftest
from functorlab.stability import (
    FamilySpec,
    betti_bass_asymptotics,
    component_track,
    degree_bound_check,
    detect_stabilization,
    grade_asymptotics,
    grid_evaluate,
    normal_form,
)
from functorlab.submodule import IdealFamily, ideal, unit_ideal


@pytest.fixture(scope="module")
def ring():
    return PolyRing(("x", "y"))


def _free(ring):
    return FPModule.free(ring, (0,))


def _unit(ring):
    return unit_ideal(ring)


def _fam(ring, *gen_lists):
    return IdealFamily([ideal(ring, gens) for gens in gen_lists])


def test_01_hilbert_samuel_powers_fit_quadratic(ring):
    t0 = time.monotonic()
    spec = FamilySpec.quotient(_free(ring), _unit(ring), _fam(ring, ("x", "y")))
    box = GridBox((1,), (12,), shell=2)
    obs = grid_evaluate(None, spec, box, ("lambda",))
    table = {p: row["lambda"] for p, row in obs.items()}
    assert table == {(n,): n * (n + 1) // 2 for n in range(1, 13)}
    fit = fit_polynomial(table, box, 3)
    assert fit is not None and fit.total_degree == 2
    assert fit.onset == (1,)
    assert fit.coeffs == {(1,): Fraction(1, 2), (2,): Fraction(1, 2)}
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print("PASS 01: lambda(R/(x,y)^n) = n(n+1)/2 on [1,12], quadratic fit, %.2fs" % elapsed)


def test_02_two_ideal_fit_with_staircase_oracle(ring):
    spec = FamilySpec.quotient(
        _free(ring), _unit(ring), _fam(ring, ("x", "y^2"), ("x^2", "y"))
    )
    box = GridBox((1, 1), (6, 6), shell=1)
    obs = grid_evaluate(None, spec, box, ("lambda",))
    table = {p: row["lambda"] for p, row in obs.items()}
    fit = fit_polynomial(table, box, 2)
    assert fit is not None and fit.total_degree == 2
    assert fit.onset == (1, 1)
    oracle = staircase_count(ring, [(3, 0), (1, 1), (2, 2), (0, 3)])
    assert oracle == 5
    assert table[(1, 1)] == oracle
    assert fit.evaluate((1, 1)) == 5
    print("PASS 02: bivariate length fit is exact quadratic, value 5 at (1,1) by staircase")


def test_03_eventual_shape_for_three_functors(ring):
    free = _free(ring)
    mod_x = FPModule.cyclic(ring, ("x",))
    fam = _fam(ring, ("x", "y"))
    box = GridBox((1,), (8,), shell=1)
    spec = FamilySpec.quotient(free, _unit(ring), fam)
    cases = [
        ("Hom(R/(x), -)", functor_from_hom(mod_x)),
        ("R/(x) tensor -", functor_from_tensor(mod_x)),
        ("Ext^1(R/(x), -)", functor_from_ext(mod_x, 1)),
    ]
    for label, functor in cases:
        nf = normal_form(functor, spec, box)
        lo = max(nf.d[0], 1)
        assert lo + 6 <= 8, label
        for n in range(lo, lo + 7):
            assert nf.member_value((n,)).length() == n, (label, n)
        assert nf.u_module().hilbert_equal(evaluate(functor, free)), label
        assert len(nf.validated) == 8 - lo + 1 or len(nf.validated) == 8, label
    print("PASS 03: eventual shape certified on [d, d+6] for Hom, tensor, Ext^1 by R/(x)")


def test_04_degree_bound_law_with_identity_equality(ring):
    free = _free(ring)
    fam = _fam(ring, ("x", "y"))
    spec = FamilySpec.quotient(free, _unit(ring), fam)
    box = GridBox((1,), (8,), shell=2)
    mod_x = FPModule.cyclic(ring, ("x",))
    kmod = FPModule.cyclic(ring, ("x", "y"))
    cases = [
        ("identity", functor_from_hom(free), 2, True),
        ("Hom(R/(x), -)", functor_from_hom(mod_x), 1, False),
        ("R/(x) tensor -", functor_from_tensor(mod_x), 1, False),
        ("k tensor -", functor_from_tensor(kmod), 0, False),
    ]
    assert analytic_spread(free, fam) == 2
    for label, functor, want_deg, want_equality in cases:
        table = {
            p: evaluate(functor, spec.member(p)).length() for p in box.points()
        }
        fit = fit_polynomial(table, box, 3)
        assert fit is not None and fit.total_degree == want_deg, label
        check = degree_bound_check(spec.degree_law(functor), fit)
        assert check["verdict"] == "PASS", (label, check)
        assert check["equality_required"] is want_equality, label
    print("PASS 04: degree law holds for 4 functors; equality forced and met for identity")


def test_05_associated_primes_stabilize(ring):
    spec = FamilySpec.quotient(_free(ring), _unit(ring), _fam(ring, ("x^2", "x*y")))
    box = GridBox((1,), (8,), shell=2)
    obs = grid_evaluate(None, spec, box, ("ass",))
    table = {p: row["ass"] for p, row in obs.items()}
    verdict = detect_stabilization(table, box)
    assert verdict["stable"] is True
    assert verdict["value"] == [("x",), ("x", "y")]
    assert verdict["witness"], "stable verdict must carry shell witness points"
    assert all(table[p] == verdict["value"] for p in box.points())
    print("PASS 05: Ass(R/(x^2,xy)^n) = {(x), (x,y)} for n in [1,8], witnessed on the shell")


def test_06_grade_stabilizes_and_matches_regular_sequence_oracle(ring):
    free = _free(ring)
    box = GridBox((1,), (8,), shell=2)

    spec_x = FamilySpec.quotient(free, _unit(ring), _fam(ring, ("x",)))
    rep = grade_asymptotics(ideal(ring, ("y",)), None, spec_x, box)
    assert rep["verdict"]["stable"] is True and rep["verdict"]["value"] == 1
    y_poly = [parse_poly(ring, "y")]
    for p, got in sorted(rep["table"].items()):
        assert got == grade_by_regular_sequence(y_poly, spec_x.member(p)), p

    spec_m = FamilySpec.quotient(free, _unit(ring), _fam(ring, ("x", "y")))
    rep_m = grade_asymptotics(ideal(ring, ("x", "y")), None, spec_m, box)
    assert rep_m["verdict"]["stable"] is True and rep_m["verdict"]["value"] == 0
    m_polys = [parse_poly(ring, "x"), parse_poly(ring, "y")]
    for p, got in sorted(rep_m["table"].items()):
        assert got == grade_by_regular_sequence(m_polys, spec_m.member(p)), p
    print("PASS 06: grade((y), R/(x^n)) = 1 and grade(m, R/m^n) = 0, matching the oracle pointwise")


def test_07_uniform_intersection_exponents_certified(ring):
    free = _free(ring)
    cases = [
        (_fam(ring, ("x", "y")), ideal(ring, ["x"]), (1,)),
        (_fam(ring, ("x",)), ideal(ring, ["y^2"]), (0,)),
    ]
    for family, sub, expected in cases:
        d = artin_rees_exponent(family, free, sub)
        assert d == expected
        rels = free.rels_sub()
        base = intersection_strand(family, free, sub, d)
        for step in range(0, 9):
            n = tuple(a + step for a in d)
            gap = tuple(a - b for a, b in zip(n, d))
            left = intersection_strand(family, free, sub, n)
            assert left.equals(family.apply(gap, base).plus(rels)), (expected, n)
    print("PASS 07: intersection exponents d=1 for (x) along (x,y), d=0 for (y^2) along (x); 9-point windows exact")


def test_08_betti_bass_profiles_and_homological_dimensions(ring):
    spec = FamilySpec.quotient(_free(ring), _unit(ring), _fam(ring, ("x", "y")))
    box = GridBox((1,), (10,), shell=2)
    rep = betti_bass_asymptotics(None, spec, box, i_max=3)
    fits = rep["fits"]
    assert fits["betti_0"].total_degree == 0 and fits["betti_0"].evaluate((7,)) == 1
    assert fits["betti_1"].coeffs == {(0,): Fraction(1), (1,): Fraction(1)}
    assert fits["betti_2"].coeffs == {(1,): Fraction(1)}
    assert fits["betti_3"].evaluate((7,)) == 0
    for name, entry in rep["bounds"].items():
        assert entry["bound"] == 1, name
        assert entry["verdict"] == "PASS", name
    assert rep["verdicts"]["pd"]["stable"] is True and rep["verdicts"]["pd"]["value"] == 2
    assert rep["verdicts"]["id"]["stable"] is True and rep["verdicts"]["id"]["value"] == 2
    shell_rows = [rep["observations"][p] for p in box.shell_points()]
    assert all(row["bass_2"] != 0 for row in shell_rows)
    assert all(row["bass_3"] == 0 for row in shell_rows)
    print("PASS 08: beta = (1, n+1, n) within degree 1, pd = 2, id = 2 via mu^2 != 0, mu^3 = 0")


def test_09_blowup_strand_lengths_and_torsion_freeness(ring):
    fam = _fam(ring, ("x", "y"))
    mg = FamilySpec.component(_free(ring), fam)
    box = GridBox((0,), (10,), shell=2)
    kmod = FPModule.cyclic(ring, ("x", "y"))

    rep = component_track(mg, functor_from_tensor(kmod), box, observables=("lambda",))
    table = {p: row["lambda"] for p, row in rep["observations"].items()}
    assert table == {(n,): n + 1 for n in range(0, 11)}
    fit = rep["fits"]["lambda"]
    assert fit.total_degree == 1
    rep_ass = component_track(mg, None, box, observables=("ass",))
    assert rep_ass["verdicts"]["ass"]["stable"] is True
    assert rep_ass["verdicts"]["ass"]["value"] == [()]
    print("PASS 09: k tensor blowup strands have length n+1 (degree-1 fit); strands stay torsion-free")


def test_10_direct_and_diagram_routes_agree(ring):
    pairs = route_corpus(ring, count=25)
    assert len(pairs) >= 25
    disagreements = 0
    window = range(-2, 8)
    for functor, argument in pairs:
        left = list(evaluate(functor, argument).hilbert_function(window))
        right = list(evaluate_via_diagram(functor, argument).hilbert_function(window))
        if left != right:
            disagreements += 1
    assert disagreements == 0
    print("PASS 10: %d seeded functor/argument pairs agree between both evaluation routes" % len(pairs))


def test_11_spread_depends_only_on_the_annihilator(ring):
    free = _free(ring)
    m_fam = _fam(ring, ("x", "y"))
    x_fam = _fam(ring, ("x",))
    e1, e2 = Vec.unit(ring, 0), Vec.unit(ring, 1)
    two_copies = FPModule(
        ring, 2, (0, 0), [e1, e2],
        [e1.mul_poly(parse_poly(ring, "x")), e2.mul_poly(parse_poly(ring, "x"))],
    )
    ideal_as_module = FPModule(
        ring, 1, (0,), [parse_vec(ring, ["x"]), parse_vec(ring, ["y"])], []
    )
    sum_with_free = FPModule(
        ring, 2, (0, 0), [e1, e2],
        [e2.mul_poly(parse_poly(ring, "x^2")), e2.mul_poly(parse_poly(ring, "x*y"))],
    )
    cases = [
        ("R/(x^2,xy)", FPModule.cyclic(ring, ("x^2", "x*y")), ("x^2", "x*y"), m_fam),
        ("R/(x^2)", FPModule.cyclic(ring, ("x^2",)), ("x^2",), m_fam),
        ("R/(x) + R/(x)", two_copies, ("x",), m_fam),
        ("(x,y) as module", ideal_as_module, (), m_fam),
        ("R + R/(x^2,xy)", sum_with_free, (), m_fam),
        ("R/(y)", FPModule.cyclic(ring, ("y",)), ("y",), x_fam),
    ]
    for label, module, ann_gens, fam in cases:
        reduced = FPModule.cyclic(ring, ann_gens) if ann_gens else free
        left = analytic_spread(module, fam)
        right = analytic_spread(reduced, fam)
        assert left == right, (label, left, right)
    assert analytic_spread(free, m_fam) == 2
    assert analytic_spread(free, x_fam) == 1
    print("PASS 11: analytic spread matches the annihilator-quotient route on 6 modules")


def test_12_invariant_suites_all_green():
    t0 = time.monotonic()
    lines = []
    code = run_selftest(emit=lines.append)
    elapsed = time.monotonic() - t0
    assert code == 0, "\n".join(lines)
    assert any("all suites green" in line for line in lines)
    assert elapsed < 120.0
    print("PASS 12: invariant corpus green in %.2fs" % elapsed)
