"""Associated primes, grade, depth, Betti/Bass, pd/id.

Oracles: Ass(R/(x^2,xy)) = {(x), (x,y)} is the textbook embedded-prime
example; grade values double-checked by exhibiting regular sequences by
hand; Bass numbers of R/(x,y)^n against local duality (mu^2 != 0, mu^3 = 0).

The reference tests at the end compare the support-filtered Ass route with
the annihilator criterion run on every variable-subset prime, the localised
test that is_associated runs on fine modules with that criterion, and the
Bass numbers read off the minimal resolution with the lengths of
Ext^i(k, M), on seeded random
fine and binomial modules over GF(32003), Q, weights (1,2,1) and the
quotient bases k[x,y,z]/(xy) and k[x,y,z]/(x^2). The Ext ladder, which
builds only the stages that can hold an associated prime, is also compared
with the ungated ladder that takes an annihilator at every stage.
"""

import math
import random

import pytest

from functorlab import fpmodule, invariants
from functorlab.errors import ContractViolation, StrategyExhausted
from functorlab.fpmodule import FPModule, hom_ext_tor
from functorlab.groebner import LiftSolver, spans_terms
from functorlab.invariants import (
    _subset_ideal,
    _variable_subset_candidates,
    annihilator,
    associated_primes,
    bass_number,
    bass_profile,
    betti_number,
    depth,
    grade,
    injective_dimension,
    is_associated,
    projective_dimension,
    residue_field,
)
from functorlab.multigraded import graded_component, rees_module
from functorlab.poly import parse_poly, parse_vec, quotient_ring
from functorlab.rings import PolyRing
from functorlab.submodule import IdealFamily, Submodule, ideal, unit_ideal


R = PolyRing(("x", "y"))


def cyclic(*rels, ring=R):
    return FPModule.cyclic(ring, rels)


def names(prime):
    return tuple(",".join(g.to_strings(1)) for g in prime.gens)


def test_annihilator_of_cyclic():
    m = cyclic("x^2", "x*y")
    a = annihilator(m)
    assert a.equals(ideal(R, ["x^2", "x*y"]))
    assert annihilator(FPModule.zero(R)).contains(parse_vec(R, ["1"]))


def test_embedded_prime_example():
    m = cyclic("x^2", "x*y")
    primes = associated_primes(m)
    assert [names(p) for p in primes] == [("x",), ("x", "y")]


def test_prime_of_torsion_free_module():
    gens = [parse_vec(R, ["x"]), parse_vec(R, ["y"])]
    m = FPModule(R, 1, (0,), gens, [])
    primes = associated_primes(m)
    assert len(primes) == 1
    assert not primes[0].gens  # the zero ideal


def test_associated_primes_of_residue_field():
    primes = associated_primes(residue_field(R))
    assert len(primes) == 1
    assert names(primes[0]) == ("x", "y")


def test_is_associated_direct():
    m = cyclic("x^2", "x*y")
    assert is_associated(m, ideal(R, ["x"]))
    assert is_associated(m, ideal(R, ["x", "y"]))
    assert not is_associated(m, ideal(R, ["y"]))


def test_non_fine_module_uses_ext_ladder():
    # (x+y)-torsion: Ass(R/(x+y)) = {(x+y)} is not a subset prime, so the
    # ladder must refuse rather than answer
    with pytest.raises(StrategyExhausted):
        associated_primes(cyclic("x + y"))


def test_ext_ladder_on_presented_ideal():
    # the module (x,y) presented by its Koszul syzygy is not fine but its
    # Ext annihilators are monomial
    m = FPModule(
        R,
        2,
        (1, 1),
        [parse_vec(R, ["1", "0"]), parse_vec(R, ["0", "1"])],
        [parse_vec(R, ["y", "-x"])],
    )
    primes = associated_primes(m)
    assert len(primes) == 1
    assert not primes[0].gens


def test_grade_values():
    # grade((y), R/(x^n)) = 1: y is regular, and depth caps at dim = 1
    assert grade(ideal(R, ["y"]), cyclic("x^3")) == 1
    # grade((x,y), R/(x,y)^2) = 0: every element is killed by the socle
    assert grade(ideal(R, ["x", "y"]), cyclic("x^2", "x*y", "y^2")) == 0
    assert grade(ideal(R, ["x", "y"]), FPModule.free(R, (0,))) == 2
    assert grade(ideal(R, ["x"]), FPModule.free(R, (0,))) == 1
    assert grade(ideal(R, ["3"]), cyclic("x")) == math.inf
    assert grade(ideal(R, ["x"]), FPModule.zero(R)) == math.inf


def test_grade_over_singular_base():
    s = quotient_ring(PolyRing(("x", "y")), ("x*y",))
    m = FPModule.cyclic(s, ())
    # x is a zerodivisor on S but (x,y) still has a grade-0 witness? no:
    # Hom(S/(x), S) = (0 : x) = (y) != 0, so grade((x), S) = 0
    assert grade(ideal(s, ["x"]), m) == 0


def test_depth_and_dimensions():
    m = cyclic("x^2", "x*y", "y^2")
    assert depth(m) == 0
    assert projective_dimension(m) == 2
    assert injective_dimension(m) == 2
    free = FPModule.free(R, (0,))
    assert depth(free) == 2
    assert projective_dimension(free) == 0
    assert injective_dimension(free) == 2
    assert depth(FPModule.zero(R)) == math.inf
    assert projective_dimension(FPModule.zero(R)) == -math.inf


def test_betti_bass_oracles():
    m = cyclic("x^2", "x*y", "y^2")
    assert [betti_number(m, i) for i in range(4)] == [1, 3, 2, 0]
    assert bass_number(m, 0) == 2  # socle of R/(x,y)^2 is two-dimensional
    assert bass_number(m, 2) != 0
    assert bass_number(m, 3) == 0
    assert depth(m) == 0


def test_cohen_macaulay_depth_equals_dim():
    # R/(x) is a polynomial line: depth 1, pd 1
    m = cyclic("x")
    assert depth(m) == 1
    assert projective_dimension(m) == 1
    assert m.dim() == 1


# -- references: every subset tested, Bass numbers from Ext^i(k, M) ------------


def all_subsets_ass(module):
    """Ass by the annihilator criterion on every variable-subset prime, none
    accepted untested: complete whenever Ass consists of such primes, and
    independent of the localised test that is_associated runs on modules
    spanned by terms."""
    ring = module.ring
    primes = [_subset_ideal(ring, s) for s in _variable_subset_candidates(ring)]
    return [p for p in primes if invariants._annihilator_test(module, p)]


def reference_ext_support(module):
    """Ass off the ungated Ext ladder: Ext^i(M, R) and its annihilator at
    every stage 0..n, refusing wherever that annihilator is not monomial."""
    ring = module.ring
    if ring.relations:
        raise StrategyExhausted("Ext ladder needs a polynomial base")
    free = FPModule.free(ring, (0,))
    subsets = set()
    for i in range(ring.nvars + 1):
        e = hom_ext_tor(module, free, i, "Ext")
        if e.is_zero():
            continue
        mins = invariants._monomial_minimal_primes(annihilator(e))
        if mins is None:
            raise StrategyExhausted("Ext annihilator at stage %d is not monomial" % i)
        subsets.update(s for s in mins if len(s) == i)
    return [_subset_ideal(ring, s) for s in sorted(subsets, key=lambda s: (len(s), sorted(s)))]


def ext_bass_reference(module, count):
    """mu^i as the length of Ext^i(k, M), over a k of its own, not the one
    the ring keeps."""
    k = FPModule.cyclic(module.ring, module.ring.names)
    return [hom_ext_tor(k, module, i, "Ext").length() for i in range(count)]


XYZ = ("x", "y", "z")
REFERENCE_RINGS = {
    "gf": PolyRing(XYZ),
    "q": PolyRing(XYZ, char=0),
    "w121": PolyRing(XYZ, weights=(1, 2, 1)),
    "xy": quotient_ring(PolyRing(XYZ), ["x*y"]),
    "x2": quotient_ring(PolyRing(XYZ), ["x^2"]),
}


def _monomial(rng, ring, top):
    exps = [rng.randint(0, top) for _ in ring.names]
    factors = ["%s^%d" % (n, e) for n, e in zip(ring.names, exps) if e]
    return "*".join(factors) or "1"


def _vec(ring, rank, entries):
    comps = ["0"] * rank
    for c, text in entries:
        comps[c] = text
    return parse_vec(ring, comps)


def random_fine_module(rng, ring):
    """Rank 1-2 subquotient with single-term generators and relations."""
    rank = rng.randint(1, 2)
    twists = tuple(rng.randint(0, 1) for _ in range(rank))
    gens = [_vec(ring, rank, [(c, _monomial(rng, ring, 1))]) for c in range(rank)]
    rels = [
        rng.choice(gens).mul_poly(parse_poly(ring, _monomial(rng, ring, 2)))
        for _ in range(rng.randint(1, 4))
    ]
    return FPModule(ring, rank, twists, gens, rels)


def random_binomial_module(rng, ring):
    """Rank 2 cokernel with a binomial relation m1*e1 - m2*e2 and monomial
    relations; the twists make the binomial homogeneous."""
    m1, m2 = _monomial(rng, ring, 1), _monomial(rng, ring, 1)
    d1, d2 = (parse_poly(ring, m).degree() for m in (m1, m2))
    rels = [_vec(ring, 2, [(0, m1), (1, "-" + m2)])]
    for _ in range(rng.randint(0, 2)):
        rels.append(_vec(ring, 2, [(rng.randint(0, 1), _monomial(rng, ring, 2))]))
    return FPModule.from_cokernel(ring, (d2, d1), rels)


def random_linear_form_module(rng, ring):
    """Rank 2 cokernel with a relation m1*e1 - (a + b)*m2*e2 for variables
    a, b of equal weight, and monomial relations: Ext annihilators that are
    not monomial turn up at some stages."""
    m1, m2 = _monomial(rng, ring, 1), _monomial(rng, ring, 1)
    pairs = [
        (a, b)
        for a in range(ring.nvars)
        for b in range(a + 1, ring.nvars)
        if ring.weights[a] == ring.weights[b]
    ]
    a, b = rng.choice(pairs)
    form = "(%s + %s)*%s" % (ring.names[a], ring.names[b], m2)
    d1, d2 = (parse_poly(ring, f).degree() for f in (m1, form))
    rels = [_vec(ring, 2, [(0, m1), (1, "-" + form)])]
    for _ in range(rng.randint(0, 2)):
        rels.append(_vec(ring, 2, [(rng.randint(0, 1), _monomial(rng, ring, 2))]))
    return FPModule.from_cokernel(ring, (d2, d1), rels)


def _ass_names(primes):
    return [names(p) for p in primes]


@pytest.mark.parametrize("ring_name", sorted(REFERENCE_RINGS))
def test_support_route_matches_all_subsets_on_fine_modules(ring_name):
    ring = REFERENCE_RINGS[ring_name]
    rng = random.Random("fine-" + ring_name)
    for _ in range(10):
        m = random_fine_module(rng, ring)
        assert _ass_names(associated_primes(m)) == _ass_names(all_subsets_ass(m)), m


@pytest.mark.parametrize("ring_name", sorted(REFERENCE_RINGS))
def test_localised_test_matches_annihilator_criterion_on_fine_modules(ring_name):
    ring = REFERENCE_RINGS[ring_name]
    rng = random.Random("localised-" + ring_name)
    primes = [_subset_ideal(ring, s) for s in _variable_subset_candidates(ring)]
    ranks, non_unit, verdicts = set(), 0, set()
    for _ in range(40):
        m = random_fine_module(rng, ring)
        assert spans_terms(m.gens + m.rels, ring)
        ranks.add(m.rank)
        non_unit += any(any(mono) for g in m.gens for _c, mono in g.terms)
        for p in primes:
            got = is_associated(m, p)
            assert got == invariants._annihilator_test(m, p), (m, names(p))
            verdicts.add(got)
    assert ranks == {1, 2} and non_unit >= 20 and verdicts == {True, False}, (ranks, non_unit)


@pytest.mark.parametrize("ring_name", sorted(REFERENCE_RINGS))
def test_ext_support_route_matches_all_subsets_on_binomial_modules(ring_name):
    ring = REFERENCE_RINGS[ring_name]
    rng = random.Random("binomial-" + ring_name)
    answered = 0
    for _ in range(8):
        m = random_binomial_module(rng, ring)
        if spans_terms(m.gens + m.rels, ring) or m.is_zero():
            continue
        if ring.relations:
            # the Ext-support scheme is only complete over a polynomial base
            with pytest.raises(StrategyExhausted):
                associated_primes(m)
            continue
        try:
            got = associated_primes(m)
        except StrategyExhausted:
            continue
        # every Ext annihilator was monomial, so Ass is made of subset primes
        assert _ass_names(got) == _ass_names(all_subsets_ass(m)), m
        answered += 1
    assert ring.relations or answered >= 3


def _ass_or_refused(fn, module):
    try:
        return _ass_names(fn(module))
    except StrategyExhausted:
        return None


@pytest.mark.parametrize("ring_name", sorted(REFERENCE_RINGS))
def test_gated_ext_ladder_matches_ungated_reference(ring_name):
    ring = REFERENCE_RINGS[ring_name]
    rng = random.Random("gated-" + ring_name)
    outcomes = {"both": 0, "gated only": 0, "neither": 0}
    corpus = [random_binomial_module(rng, ring) for _ in range(10)]
    corpus += [random_linear_form_module(rng, ring) for _ in range(30)]
    for m in corpus:
        if spans_terms(m.gens + m.rels, ring) or m.is_zero():
            continue
        got = _ass_or_refused(associated_primes, m)
        ref = _ass_or_refused(reference_ext_support, m)
        if ref is not None:
            assert got == ref, m
            outcomes["both"] += 1
        elif got is not None:
            # only stages that cannot hold a height-i prime refused in the
            # reference, so Ass is still made of subset primes
            assert got == _ass_names(all_subsets_ass(m)), m
            outcomes["gated only"] += 1
        else:
            outcomes["neither"] += 1
    if ring.relations:
        assert outcomes["both"] == outcomes["gated only"] == 0, outcomes
    else:
        assert outcomes["both"] >= 5 and outcomes["gated only"] >= 1, outcomes


def test_koszul_ideal_with_a_linear_form_is_torsion_free():
    # (x, y + z) presented by its Koszul syzygy: Ext^1(M, R) = R/(x, y + z)
    # has a non-monomial annihilator but codimension 2 > 1, so no stage that
    # can hold an associated prime refuses; M is torsion-free, Ass = {(0)}
    ring = REFERENCE_RINGS["gf"]
    m = FPModule(
        ring,
        2,
        (1, 1),
        [parse_vec(ring, ["1", "0"]), parse_vec(ring, ["0", "1"])],
        [parse_vec(ring, ["y + z", "-x"])],
    )
    with pytest.raises(StrategyExhausted):
        reference_ext_support(m)
    assert _ass_names(associated_primes(m)) == [()]


@pytest.mark.parametrize("ring_name", sorted(REFERENCE_RINGS))
def test_bass_profile_matches_ext_of_residue_field(ring_name):
    ring = REFERENCE_RINGS[ring_name]
    rng = random.Random("bass-" + ring_name)
    count = ring.nvars + 2
    for _ in range(4):
        for m in (random_fine_module(rng, ring), random_binomial_module(rng, ring)):
            assert bass_profile(m, count) == ext_bass_reference(m, count), m


def test_bass_profile_reads_the_resolution_backwards():
    m = cyclic("x^2", "x*y", "y^2")
    assert bass_profile(m, 5) == [2, 3, 1, 0, 0]
    assert m.resolution(0).ranks() == [1, 3, 2]
    assert bass_profile(FPModule.free(R, (0,)), 4) == [0, 0, 1, 0]
    assert bass_profile(FPModule.zero(R), 3) == [0, 0, 0]


def _count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_finite_length_fine_module_needs_no_associated_test(monkeypatch):
    # the only candidate above ann(M) = (x^2, x*y, y^3) is the maximal ideal,
    # a minimal prime of the support: accepted without the exact test
    m = cyclic("x^2", "x*y", "y^3")
    calls = _count_calls(monkeypatch, invariants, "is_associated")
    assert _ass_names(associated_primes(m)) == [("x", "y")]
    assert calls == []


def test_only_embedded_candidates_are_tested(monkeypatch):
    m = cyclic("x^2", "x*y")
    calls = _count_calls(monkeypatch, invariants, "is_associated")
    assert _ass_names(associated_primes(m)) == [("x",), ("x", "y")]
    assert len(calls) == 1  # (x) is minimal over ann(M); only (x, y) is tested


def test_fine_ass_takes_no_colon_module_intersect_or_lift_solver(monkeypatch):
    # R/(x^2, y^2, x*y*z)^3 over k[x,y,z], a member of the xyz-tensor family:
    # its one embedded candidate (x, y, z) is decided from minimal monomials
    ring = REFERENCE_RINGS["gf"]
    cube = IdealFamily([ideal(ring, ["x^2", "y^2", "x*y*z"])]).power_product((3,))
    m = FPModule.of(unit_ideal(ring), cube)
    colons = _count_calls(monkeypatch, Submodule, "colon_module")
    meets = _count_calls(monkeypatch, Submodule, "intersect")
    builds = _count_calls(monkeypatch, LiftSolver, "__init__")
    tests = _count_calls(monkeypatch, invariants, "is_associated")
    assert _ass_names(associated_primes(m)) == [("x", "y"), ("x", "y", "z")]
    assert len(tests) == 1
    assert colons == [] and meets == [] and builds == []


def test_fine_module_with_non_monomial_annihilator_is_refused(monkeypatch):
    monkeypatch.setattr(invariants, "annihilator", lambda module: ideal(R, ["x + y"]))
    with pytest.raises(ContractViolation):
        associated_primes(cyclic("x^2"))


def test_ext_support_candidates_are_accepted_untested(monkeypatch):
    # R(-1)^2 / (y*e1 - x*e2) + R/(x^2, x*y): not fine, Ass = (0), (x), (x, y)
    m = FPModule.from_cokernel(
        R, (1, 1, 0),
        [
            parse_vec(R, ["y", "-x", "0"]),
            parse_vec(R, ["0", "0", "x^2"]),
            parse_vec(R, ["0", "0", "x*y"]),
        ],
    )
    assert not spans_terms(m.gens + m.rels, R)
    calls = _count_calls(monkeypatch, invariants, "is_associated")
    assert _ass_names(associated_primes(m)) == [(), ("x",), ("x", "y")]
    assert calls == []
    monkeypatch.undo()
    assert _ass_names(all_subsets_ass(m)) == [(), ("x",), ("x", "y")]


def test_rees_strands_take_no_ext_annihilator(monkeypatch):
    # the strands m^n of R(m) over k[x,y] are not fine; rank 1 gives (0), and
    # Ext^1 has finite length, so no stage needs a colon
    family = IdealFamily([ideal(R, ["x", "y"])])
    rees = rees_module(family, FPModule.free(R, (0,)))
    colons = _count_calls(monkeypatch, invariants, "annihilator")
    exts = _count_calls(monkeypatch, invariants, "hom_ext_tor")
    for n in range(1, 7):
        strand = graded_component(family, rees, (n,))
        assert not spans_terms(strand.gens + strand.rels, R), n
        before = len(exts)
        assert _ass_names(associated_primes(strand)) == [()], n
        assert len(exts) - before <= 1, n
    assert colons == []


def test_bass_number_over_a_quotient_base_reads_one_ext(monkeypatch):
    ring = REFERENCE_RINGS["xy"]
    m = FPModule.from_cokernel(ring, (0,), [parse_vec(ring, ["z^2"])])
    expected = ext_bass_reference(m, 3)
    calls = _count_calls(monkeypatch, invariants, "hom_ext_tor")
    assert [bass_number(m, i) for i in range(3)] == expected
    assert len(calls) == 3


def test_bass_numbers_over_a_quotient_base_grow_one_resolution_of_k(monkeypatch):
    # the ring keeps k, so mu^0 .. mu^4 of R/(z^2) over k[x,y,z]/(xy) resolve
    # k once and grow that complex to 5 stages, instead of resolving a fresh
    # k to 1, 2, 3, 4 and 5 stages (15 stages)
    ring = quotient_ring(PolyRing(XYZ), ["x*y"])
    m = FPModule.from_cokernel(ring, (0,), [parse_vec(ring, ["z^2"])])
    expected = ext_bass_reference(m, 5)
    k = residue_field(ring)
    assert residue_field(ring) is k
    calls = _count_calls(monkeypatch, fpmodule, "free_resolution")
    assert [bass_number(m, i) for i in range(5)] == expected
    assert calls == [k]
    assert len(k.resolution(0).maps) == 5
