"""Stability lab: families, grids, verdicts, bounds, and the normal form.

Length oracles are classical counts: lambda(R/(x,y)^n) = n(n+1)/2 by the
staircase, lambda((I^n : x)/I^n) = lambda(I^(n-1)/I^n) = n for I = (x,y),
and beta_i(R/(x,y)^n) = (1, n+1, n) from the Hilbert-Burch resolution.
"""

import json
import math
import os
import sys
from fractions import Fraction

import pytest

from functorlab import (
    cache, fpmodule, functors, groebner, hilbert, invariants, multigraded, stability, submodule,
)
from functorlab.corpus import ass_keys, component_corpus
from functorlab.errors import CapExceeded, ConfigurationError, ContractViolation
from functorlab.fitting import FittedPolynomial
from functorlab.fpmodule import FPModule
from functorlab.functors import (
    CoherentFunctor,
    Composite,
    functor_from_hom,
    functor_from_tensor,
    evaluate,
)
from functorlab.grid import GridBox
from functorlab.multigraded import graded_component, rees_module
from functorlab.invariants import (
    bass_number,
    betti_number,
    injective_dimension,
    projective_dimension,
)
from functorlab.rings import PolyRing
from functorlab.poly import Poly, Vec, parse_vec, quotient_ring
from functorlab.runner import run_scenario_object
from functorlab.scenario import (
    build_scenario, bundled_scenario_path, load_scenario, load_scenario_text,
)
from functorlab.stability import (
    FamilySpec,
    degree_bound_check,
    detect_stabilization,
    grid_evaluate,
    normal_form,
)
from functorlab.submodule import IdealFamily, Submodule, ideal, unit_ideal, zero_submodule


@pytest.fixture(scope="module")
def ring():
    return PolyRing(("x", "y"))


def _free(ring):
    return FPModule.free(ring, (0,))


def _poly(ring, name):
    return Poly.variable(ring, name)


def _mxy(ring):
    return IdealFamily([ideal(ring, [_poly(ring, "x"), _poly(ring, "y")])])


def _spec(module, family):
    """The quotient family module / I^n module, I the family's ideal."""
    return FamilySpec.quotient(module, unit_ideal(module.ring), family)


def _grade_shell(J, spec, box):
    """The grade((J), member) table over the box and its shell verdict."""
    obs = grid_evaluate(None, spec, box, ("grade",), grade_ideal=J)
    table = {p: row["grade"] for p, row in obs.items()}
    return table, detect_stabilization(table, box)


def _xy_tasks(family, box, tasks, functor=None):
    """The report entries of tasks run over k[x,y], with the ideal m = (x, y),
    the free module F and k = R/m declared."""
    doc = {
        "format": "scn/1",
        "label": "xy lab",
        "ring": {"variables": ["x", "y"]},
        "ideals": {"m": ["x", "y"]},
        "modules": {"F": {"type": "free", "twists": [0]},
                    "k": {"type": "cyclic", "polys": ["x", "y"]}},
        "family": family,
        "box": box,
        "tasks": tasks,
    }
    if functor is not None:
        doc["functor"] = functor
    _code, report, _meta = run_scenario_object(build_scenario(doc))
    return report["tasks"]


def _fitted(payload):
    """The FittedPolynomial a report's fit payload describes."""
    coeffs = {
        tuple(c["exponents"]): Fraction(c["numerator"], c["denominator"])
        for c in payload["coefficients"]
    }
    return FittedPolynomial(payload["variables"], coeffs, payload["onset"])


def test_quotient_member_powers(ring):
    spec = FamilySpec.quotient(_free(ring), unit_ideal(ring), _mxy(ring))
    assert spec.member((0,)).length() == 0
    for n in (1, 2, 3, 4):
        assert spec.member((n,)).length() == n * (n + 1) // 2


def test_quotient_member_two_ideals(ring):
    fam = IdealFamily([ideal(ring, [_poly(ring, "x")]), ideal(ring, [_poly(ring, "y")])])
    spec = FamilySpec.quotient(_free(ring), unit_ideal(ring), fam)
    # R/(x^a y^b) is infinite for a, b >= 1; the staircase under x^2 y^1 has
    # no finite length, so check Hilbert values instead of total length.
    member = spec.member((2, 1))
    direct = FPModule.cyclic(ring, ("x^2*y",))
    assert member.hilbert_equal(direct)


def test_family_spec_rejects_outside_vectors(ring):
    x, y = _poly(ring, "x"), _poly(ring, "y")
    # the ideal (x) viewed as a module: y does not lie in it
    m = FPModule(ring, 1, (0,), [Vec.from_poly(x)], [])
    with pytest.raises(ContractViolation):
        FamilySpec.quotient(m, ideal(ring, [y]), _mxy(ring))


def test_grid_evaluate_lengths_and_ass(ring):
    spec = FamilySpec.quotient(_free(ring), unit_ideal(ring), _mxy(ring))
    box = GridBox((1,), (4,), shell=1)
    obs = grid_evaluate(None, spec, box, ("lambda", "ass"))
    assert [obs[(n,)]["lambda"] for n in range(1, 5)] == [1, 3, 6, 10]
    assert obs[(2,)]["ass"] == [("x", "y")]


def test_grid_evaluate_rejects_unknown_observable(ring):
    spec = FamilySpec.quotient(_free(ring), unit_ideal(ring), _mxy(ring))
    with pytest.raises(ConfigurationError):
        grid_evaluate(None, spec, GridBox((1,), (3,), shell=1), ("volume",))


def test_detect_stabilization_shell_verdicts():
    box = GridBox((1,), (6,), shell=2)
    stable = {(n,): "v" if n >= 3 else "w" for n in range(1, 7)}
    verdict = detect_stabilization(stable, box)
    assert verdict["stable"] is True
    assert verdict["value"] == "v"
    assert verdict["shell_floor"] == (4,)
    moving = {(n,): n for n in range(1, 7)}
    assert detect_stabilization(moving, box)["stable"] is False
    assert "refused" not in verdict
    assert "refused" not in detect_stabilization(moving, box)


def test_refused_shell_point_is_not_stable():
    # identical refusals on the shell are not a value, and one refusal
    # among equal values breaks the shell too
    box = GridBox((1,), (6,), shell=2)
    error = {"error": "strategy exhausted: not monomial"}
    refused = {(n,): dict(error) for n in range(1, 7)}
    verdict = detect_stabilization(refused, box)
    assert verdict["stable"] is False
    assert verdict["value"] is None
    assert verdict["witness"] == []
    assert verdict["refused"] == [(4,), (5,), (6,)]
    mixed = {(n,): "v" for n in range(1, 7)}
    mixed[(5,)] = dict(error)
    verdict = detect_stabilization(mixed, box)
    assert (verdict["stable"], verdict["value"], verdict["refused"]) == (False, None, [(5,)])


def test_ass_of_powers_stabilizes(ring):
    x, y = _poly(ring, "x"), _poly(ring, "y")
    fam = IdealFamily([ideal(ring, [x * x, x * y])])
    spec = FamilySpec.quotient(_free(ring), unit_ideal(ring), fam)
    box = GridBox((1,), (8,), shell=2)
    obs = grid_evaluate(None, spec, box, ("ass",))
    table = {p: row["ass"] for p, row in obs.items()}
    verdict = detect_stabilization(table, box)
    assert verdict["stable"] is True
    assert verdict["value"] == [("x",), ("x", "y")]


def test_grade_asymptotics_finite_and_infinite(ring):
    x, y = _poly(ring, "x"), _poly(ring, "y")
    free = _free(ring)
    fam = _mxy(ring)
    box = GridBox((1,), (5,), shell=2)
    # grade((x,y), R/(x,y)^n) = 0: the maximal ideal consists of zerodivisors
    spec = FamilySpec.quotient(free, unit_ideal(ring), fam)
    _table, verdict = _grade_shell(ideal(ring, [x, y]), spec, box)
    assert verdict["stable"] is True
    assert verdict["value"] == 0
    # grade((y), R/(x^n)) = 1: y is regular and the quotient by it is finite
    fam_x = IdealFamily([ideal(ring, [x])])
    spec_x = FamilySpec.quotient(free, unit_ideal(ring), fam_x)
    _table, verdict = _grade_shell(ideal(ring, [y]), spec_x, box)
    assert verdict["value"] == 1
    # JX = X forces grade infinity: J = (y) on members killed by y shifts
    fam_y = IdealFamily([ideal(ring, [y])])
    zero = zero_submodule(ring, 1, (0,))
    spec_zero = FamilySpec.quotient(FPModule.cyclic(ring, ("1",)), zero, fam_y)
    _table, verdict = _grade_shell(ideal(ring, [y]), spec_zero, box)
    assert verdict["value"] == float("inf")


def test_betti_bass_fits_and_dimensions(ring):
    (entry,) = _xy_tasks(
        {"kind": "quotient", "module": "F", "ideals": ["m"]},
        {"lo": [1], "hi": [6], "shell": 2},
        [{"task": "betti_bass", "i_max": 3}],
    )
    assert entry["status"] == "PASS"
    fits = {name: _fitted(payload) for name, payload in entry["fits"].items()}
    b0, b1, b2 = fits["betti_0"], fits["betti_1"], fits["betti_2"]
    assert b0.total_degree == 0 and b0.evaluate((9,)) == 1
    assert b1.evaluate((9,)) == 10 and b1.total_degree == 1
    assert b2.evaluate((9,)) == 9
    assert fits["betti_3"].evaluate((9,)) == 0
    assert entry["verdicts"]["pd"]["stable"] is True
    assert entry["verdicts"]["pd"]["value"] == 2
    assert entry["verdicts"]["id"]["value"] == 2
    for name in ("betti_0", "betti_1", "betti_2"):
        assert entry["bounds"][name]["verdict"] == "PASS"


def test_degree_bound_identity_functor(ring):
    free = _free(ring)
    fam = _mxy(ring)
    spec = FamilySpec.quotient(free, unit_ideal(ring), fam)
    box = GridBox((1,), (6,), shell=2)
    obs = grid_evaluate(None, spec, box, ("lambda",))
    from functorlab.fitting import fit_polynomial

    fit = fit_polynomial({p: row["lambda"] for p, row in obs.items()}, box, 2)
    assert fit is not None and fit.total_degree == 2
    verdict = degree_bound_check(spec.degree_law(functor_from_hom(free)), fit)
    assert verdict["verdict"] == "PASS"
    assert verdict["dim_fm"] == 2
    assert verdict["spread"] == 2
    assert verdict["bound"] == 2
    assert verdict["equality_required"] is True


def test_degree_bound_can_fail(ring):
    # a deliberately wrong fit (degree 3) must FAIL against bound 2
    from functorlab.fitting import FittedPolynomial
    from fractions import Fraction

    free = _free(ring)
    fake = FittedPolynomial(1, {(3,): Fraction(1)}, (1,), ((1,),))
    spec = FamilySpec.quotient(free, unit_ideal(ring), _mxy(ring))
    verdict = degree_bound_check(spec.degree_law(functor_from_hom(free)), fake)
    assert verdict["verdict"] == "FAIL"


def test_normal_form_identity_functor(ring):
    free = _free(ring)
    fam = _mxy(ring)
    box = GridBox((1,), (5,), shell=1)
    nf = normal_form(functor_from_hom(free), _spec(free, fam), box)
    assert nf.c == (0,) and nf.d == (0,)
    assert [nf.member_value((n,)).length() for n in (1, 2, 3, 4)] == [1, 3, 6, 10]
    assert len(nf.validated) == 5


def test_normal_form_hom_from_hypersurface(ring):
    # F = Hom(R/(x), -): F(R/I^n) = (I^n : x)/I^n = I^(n-1)/I^n, length n
    x = _poly(ring, "x")
    free = _free(ring)
    mod_x = FPModule.cyclic(ring, ("x",))
    fam = _mxy(ring)
    box = GridBox((1,), (5,), shell=1)
    nf = normal_form(functor_from_hom(mod_x), _spec(free, fam), box)
    assert nf.d == (1,)
    assert [nf.member_value((n,)).length() for n in (1, 2, 3, 4, 5)] == [1, 2, 3, 4, 5]
    assert nf.provenance["d_verdict"] == "certified"


def test_normal_form_tensor_functor(ring):
    # F = R/(x) tensor -: F(R/I^n) = R/(I^n + (x)), length n
    x = _poly(ring, "x")
    free = _free(ring)
    mod_x = FPModule.cyclic(ring, ("x",))
    fam = _mxy(ring)
    box = GridBox((1,), (5,), shell=1)
    nf = normal_form(functor_from_tensor(mod_x), _spec(free, fam), box)
    assert [nf.member_value((n,)).length() for n in (1, 2, 3, 4, 5)] == [1, 2, 3, 4, 5]
    assert nf.u_module().hilbert_equal(evaluate(functor_from_tensor(mod_x), free))


def test_normal_form_with_non_free_l(ring):
    # K = R, L = R/(x), f the quotient map: F(X) = X/(0 :_X x), so
    # F(R/I^n) = (R/I^n)/(I^(n-1)/I^n) has length n(n+1)/2 - n; L is not
    # free, so c comes from a certified Artin-Rees exponent on the L side
    free = _free(ring)
    mod_x = FPModule.cyclic(ring, ("x",))
    one = Poly.constant(ring, ring.one)
    functor = CoherentFunctor(free, mod_x, [[one]])
    box = GridBox((1,), (6,), shell=1)
    spec = _spec(free, _mxy(ring))
    nf = normal_form(functor, spec, box)
    assert nf.c == (1,)
    assert nf.provenance["c_verdict"] == "certified"
    assert [nf.member_value((n,)).length() for n in range(1, 7)] == [
        n * (n - 1) // 2 for n in range(1, 7)
    ]
    assert len(nf.validated) == 6
    # the same functor goes into the spec and the grid as it is
    assert spec.value(functor, (4,)).length() == 6
    obs = grid_evaluate(functor, spec, box, ("lambda",))
    assert {p: row["lambda"] for p, row in obs.items()} == {
        (n,): n * (n - 1) // 2 for n in range(1, 7)
    }


def test_grid_evaluate_composite(ring):
    # Hom(k, -) after R/(x) tensor -: the socle of R/(I^n + (x)) = k[y]/(y^n)
    # has length 1 at every n
    free = _free(ring)
    inner = functor_from_tensor(FPModule.cyclic(ring, ("x",)))
    outer = functor_from_hom(FPModule.cyclic(ring, ("x", "y")))
    spec = _spec(free, _mxy(ring))
    box = GridBox((1,), (5,), shell=1)
    obs = grid_evaluate(Composite(outer, inner), spec, box, ("lambda",))
    assert {p: row["lambda"] for p, row in obs.items()} == {(n,): 1 for n in range(1, 6)}


def test_normal_form_member_below_d_rejected(ring):
    x = _poly(ring, "x")
    free = _free(ring)
    mod_x = FPModule.cyclic(ring, ("x",))
    nf = normal_form(
        functor_from_hom(mod_x), _spec(free, _mxy(ring)), GridBox((1,), (4,), shell=1)
    )
    with pytest.raises(ContractViolation):
        nf.member_value((0,))


def test_normal_form_two_ideal_family(ring):
    x, y = _poly(ring, "x"), _poly(ring, "y")
    fam = IdealFamily([ideal(ring, [x]), ideal(ring, [y])])
    free = _free(ring)
    box = GridBox((1, 1), (3, 3), shell=1)
    nf = normal_form(functor_from_hom(free), _spec(free, fam), box)
    # members are R/(x^a y^b): compare Hilbert windows against direct quotients
    member = nf.member_value((2, 2))
    direct = FPModule.cyclic(ring, ("x^2*y^2",))
    assert member.hilbert_equal(direct)


def test_component_track_rees_strands(ring):
    # k tensor m^n along the strands of R(m, R), and the strands themselves
    lengths, ass = _xy_tasks(
        {"kind": "component", "module": "F", "ideals": ["m"]},
        {"lo": [1], "hi": [6], "shell": 2},
        [{"task": "component_track", "observables": ["lambda"]},
         {"task": "component_track", "observables": ["ass"], "identity": True}],
        functor={"builder": "tensor", "module": "k"},
    )
    fit = _fitted(lengths["fits"]["lambda"])
    assert fit.total_degree == 1
    assert fit.evaluate((9,)) == 10
    assert ass["verdicts"]["ass"]["stable"] is True
    assert ass["verdicts"]["ass"]["value"] == [[]]


COMPONENT_CASES = component_corpus()


@pytest.mark.parametrize(
    "family, module, points",
    [case[2:] for case in COMPONENT_CASES],
    ids=[case[0] for case in COMPONENT_CASES],
)
def test_component_member_is_the_rees_strand(family, module, points):
    # I^n M, built from the family's power products, against strand n cut
    # from the Rees module's presentation over R[y]/Q: Hilbert series,
    # length where finite, and Ass wherever both routes answer
    spec = FamilySpec.component(module, family)
    rees = rees_module(family, module)
    for point in points:
        member, strand = spec.member(point), graded_component(family, rees, point)
        assert member.hilbert_equal(strand), point
        length = member.length()
        if length != math.inf:
            assert length == strand.length(), point
        mine, theirs = ass_keys(member), ass_keys(strand)
        if mine is not None and theirs is not None:
            assert mine == theirs, point


def test_component_corpus_covers_its_axes():
    # the comparison is not vacuous: finite lengths, answered Ass and r = 2
    # all occur
    assert any(len(case[2].ideals) == 2 for case in COMPONENT_CASES)
    finite = compared = 0
    for _label, _ring, family, module, points in COMPONENT_CASES:
        spec = FamilySpec.component(module, family)
        for point in points:
            member = spec.member(point)
            finite += 0 < member.length() < math.inf
            compared += ass_keys(member) is not None
    assert finite >= 20 and compared >= 100


def test_component_track_infinite_lengths_refused(ring):
    # m^n has infinite length: the fit is refused with a note, and the task
    # fails
    (entry,) = _xy_tasks(
        {"kind": "component", "module": "F", "ideals": ["m"]},
        {"lo": [1], "hi": [5], "shell": 1},
        [{"task": "component_track", "observables": ["lambda"]}],
    )
    assert "error" in entry["fits"]["lambda"]
    assert entry["notes"] == ["lambda fit refused: %s" % entry["fits"]["lambda"]["error"]]
    assert entry["status"] == "FAIL"
    assert entry["failures"] == ["lambda fit did not validate on the strand family"]


# -- one resolution per observed module ------------------------------------------


def _standalone(fn, module):
    try:
        return fn(module)
    except CapExceeded:
        return "cap exceeded"


def _observed_module(name):
    R = PolyRing(("x", "y"))
    if name == "cyclic":
        return FPModule.cyclic(R, ["x^2", "x*y", "y^2"])
    if name == "free":
        return FPModule.free(R, (0, 1))
    if name == "zero":
        return FPModule.zero(R)
    # R/(x) over k[x,y]/(x^2): infinite pd and id, both scans hit the cap
    return FPModule.cyclic(quotient_ring(R, ["x^2"]), ["x"])


def _count_resolutions(monkeypatch):
    """The modules free_resolution is called on, in order; every reader
    reaches it through FPModule.resolution."""
    real = fpmodule.free_resolution
    resolved = []

    def counting(target, length_cap):
        resolved.append(target)
        return real(target, length_cap)

    monkeypatch.setattr(fpmodule, "free_resolution", counting)
    return resolved


@pytest.mark.parametrize("i_max", [1, 4])
@pytest.mark.parametrize("name", ["cyclic", "free", "zero", "quotient_base"])
def test_observe_resolves_each_module_once(monkeypatch, name, i_max):
    module = _observed_module(name)
    resolved = _count_resolutions(monkeypatch)
    row = stability._observe(module, ("betti", "bass", "pd", "id"), None, i_max)
    # over a polynomial base the Bass numbers are read off the module's own
    # resolution; over a quotient base they need one resolution of k
    assert module in resolved
    if name == "quotient_base":
        assert len(resolved) == 2, name
        (k,) = [m for m in resolved if m is not module]
        assert k.rank == 1 and k.rels_sub().equals(ideal(module.ring, ["x", "y"]))
    else:
        assert len(resolved) == 1, name
    monkeypatch.undo()
    module = _observed_module(name)
    for i in range(i_max + 1):
        assert row["betti_%d" % i] == betti_number(module, i), (name, i)
        assert row["bass_%d" % i] == bass_number(module, i), (name, i)
    assert row["pd"] == _standalone(projective_dimension, module)
    assert row["id"] == _standalone(injective_dimension, module)
    if name == "quotient_base":
        assert row["pd"] == row["id"] == "cap exceeded"
    if name == "zero":
        assert row["pd"] == row["id"] == float("-inf")


def _non_fine_module(R):
    """R(-1)^2 / (y*e1 - x*e2) + R/(x^2, x*y): not fine, so Ass takes the
    Ext route."""
    return FPModule.from_cokernel(
        R, (1, 1, 0),
        [parse_vec(R, v) for v in (["y", "-x", "0"], ["0", "0", "x^2"], ["0", "0", "x*y"])],
    )


def test_observe_shares_one_resolution_with_ass(monkeypatch):
    # Ass reads the resolution pd is read from; with every observable, grade
    # against R/J included, the row takes one resolution of the module and
    # one of R/J
    R = PolyRing(("x", "y"))
    J = ideal(R, ["x", "y"])
    module = _non_fine_module(R)
    resolved = _count_resolutions(monkeypatch)
    row = stability._observe(module, ("ass", "pd"), None, 2)
    assert resolved == [module]
    full_module = _non_fine_module(R)
    quotient = invariants._cyclic_quotient(J)
    del resolved[:]
    full = stability._observe(full_module, stability.OBSERVABLE_NAMES, quotient, 2)
    assert len(resolved) == 2
    assert full_module in resolved and quotient in resolved
    monkeypatch.undo()
    assert row["ass"] == full["ass"] == [(), ("x",), ("x", "y")]
    assert row["pd"] == full["pd"] == projective_dimension(_non_fine_module(R))
    standalone = _non_fine_module(R)
    assert full["lambda"] == standalone.length()
    assert full["grade"] == invariants.grade(J, standalone)
    for i in range(3):
        assert full["betti_%d" % i] == betti_number(standalone, i), i
        assert full["bass_%d" % i] == bass_number(standalone, i), i
    assert full["id"] == _standalone(injective_dimension, standalone)


def test_grade_grid_resolves_r_mod_j_once(monkeypatch):
    # grade((x, y), R/(x^2, y*z)^n) over k[x,y,z]: R/J is the same module at
    # every point, so the grid resolves it once instead of once per point
    R = PolyRing(("x", "y", "z"))
    J = ideal(R, ["x", "y"])
    fam = IdealFamily([ideal(R, ["x^2", "y*z"])])
    spec = FamilySpec.quotient(_free(R), unit_ideal(R), fam)
    box = GridBox((1,), (5,), shell=1)
    resolved = _count_resolutions(monkeypatch)
    table, _verdict = _grade_shell(J, spec, box)
    assert len(resolved) == 1
    assert resolved[0].rels_sub().equals(J)
    monkeypatch.undo()
    for p, value in table.items():
        assert value == invariants.grade(J, spec.member(p)), p


def _two_ideal_sweep_spec(R, a=("x", "y^2"), b=("x^2", "y")):
    fam = IdealFamily([ideal(R, list(a)), ideal(R, list(b))])
    return FamilySpec.quotient(_free(R), unit_ideal(R), fam)


def test_quotient_sweep_cache_traffic(tmp_path, monkeypatch):
    # lambda over the box [1..2]^2 of R/(x, y^2)^a (x^2, y)^b: every power,
    # product and relation module is spanned by terms, so its basis is its
    # minimal terms and no cache is read or written
    R = PolyRing(("x", "y"))
    box = GridBox((1, 1), (2, 2), shell=1)
    cold = cache.Cache(directory=str(tmp_path))
    monkeypatch.setattr(cache, "_ACTIVE", cold)
    obs = grid_evaluate(None, _two_ideal_sweep_spec(R), box, ("lambda",))
    assert {p: row["lambda"] for p, row in obs.items()} == {
        (1, 1): 5, (1, 2): 10, (2, 1): 10, (2, 2): 16,
    }
    assert cold.stats() == {"hits": 0, "misses": 0, "puts": 0, "corrupt": 0}
    assert list(tmp_path.iterdir()) == []

    # a member's relation module has its product's basis, computed again
    spec = _two_ideal_sweep_spec(R)
    product = spec.family.power_product((2, 1)).groebner()
    member = spec.member((2, 1))
    assert Submodule(R, 1, (0,), member.rels, check=False).groebner() == product
    assert cold.stats() == {"hits": 0, "misses": 0, "puts": 0, "corrupt": 0}


def test_non_term_member_reuses_its_power_product_basis(tmp_path, monkeypatch):
    # with M = R free, the member's relation module is the power product, so
    # its basis is the product's and no lookup is made for it
    R = PolyRing(("x", "y"))
    store = cache.Cache(str(tmp_path))
    monkeypatch.setattr(cache, "_ACTIVE", store)
    spec = _two_ideal_sweep_spec(R, ("x^2 + y^2", "x*y"), ("x + y", "y^2"))
    product = spec.family.power_product((2, 1)).groebner()
    before = store.stats()
    assert before["misses"] == 4
    assert spec.member((2, 1)).rels_sub().groebner() == product
    assert store.stats() == before


def test_non_term_quotient_sweep_cache_traffic(tmp_path, monkeypatch):
    # lambda over the box [1..2]^2 of R/(x^2 + y^2, xy)^a (x + y, y^2)^b from
    # a cold disk cache: one miss and one put per distinct basis, then every
    # lookup a hit against the primed directory. A member's relation module
    # is its power product, basis included, so no basis is looked up twice.
    # The seven bases are a and b (the family checks both are proper) and
    # the products a^1 b^1, a^1 b^2, a^2, a^2 b^1, a^2 b^2, each built from
    # its neighbour with one fewer factor of the last ideal; b^2 is never
    # built.
    R = PolyRing(("x", "y"))
    box = GridBox((1, 1), (2, 2), shell=1)
    sweep = (("x^2 + y^2", "x*y"), ("x + y", "y^2"))
    cold = cache.Cache(directory=str(tmp_path))
    monkeypatch.setattr(cache, "_ACTIVE", cold)
    obs = grid_evaluate(None, _two_ideal_sweep_spec(R, *sweep), box, ("lambda",))
    assert {p: row["lambda"] for p, row in obs.items()} == {
        (1, 1): 8, (1, 2): 14, (2, 1): 18, (2, 2): 26,
    }
    assert cold.stats() == {"hits": 0, "misses": 7, "puts": 7, "corrupt": 0}
    assert len(list(tmp_path.glob("*/*.json"))) == 7

    warm = cache.Cache(directory=str(tmp_path))
    monkeypatch.setattr(cache, "_ACTIVE", warm)
    assert grid_evaluate(None, _two_ideal_sweep_spec(R, *sweep), box, ("lambda",)) == obs
    assert warm.stats() == {"hits": 7, "misses": 0, "puts": 0, "corrupt": 0}


# -- one member and one value per point --------------------------------------------

XYZ_TENSOR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "perfbench", "scenarios", "xyz_tensor.scn"
)


def _record_calls(monkeypatch, owner, name):
    """Wrap owner.name so that every call's arguments are appended to the
    returned list."""
    calls = []
    real = getattr(owner, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapped)
    return calls


def _record_everywhere(monkeypatch, owner, name):
    """_record_calls on owner.name and on every binding of the same
    function that a functorlab module imported by name."""
    real = getattr(owner, name)
    calls = _record_calls(monkeypatch, owner, name)
    wrapped = getattr(owner, name)
    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("functorlab.") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, wrapped)
    return calls


def test_xyz_tensor_builds_each_member_and_value_once(monkeypatch):
    # fit, Ass of the members and betti_bass read one member and one
    # F(member) per box point; F(M) for the degree law is one more value
    monkeypatch.setattr(cache, "_ACTIVE", cache.Cache())
    scn = load_scenario(XYZ_TENSOR)
    members = _record_calls(monkeypatch, FamilySpec, "member")
    on_members = _record_calls(monkeypatch, functors, "evaluate")
    on_module = _record_calls(monkeypatch, stability, "evaluate")
    code, _report, _meta = run_scenario_object(scn)
    assert code == 0
    assert sorted(args[1] for args in members) == sorted(scn.box.points())
    assert len(on_members) == len(scn.box.points())
    assert len(on_module) == 1


TWO_IDEAL_SWEEP = {
    "format": "scn/1",
    "label": "two ideal sweep",
    "ring": {"characteristic": 32003, "variables": ["x", "y"]},
    "ideals": {"a": ["x", "y^2"], "b": ["x^2", "y"]},
    "modules": {"M": {"type": "free", "twists": [0]}},
    "family": {"kind": "quotient", "module": "M", "ideals": ["a", "b"]},
    "box": {"lo": [1, 1], "hi": [10, 10], "shell": 1},
    "tasks": [{"task": "fit", "degree_cap": 2}],
    "output": {"stem": "two_ideal_sweep"},
}


def test_two_ideal_sweep_minimises_each_monomial_set_once(monkeypatch):
    # the fit of lambda(R/(x, y^2)^a (x^2, y)^b) over [1..10]^2 with the
    # cache off: each power product prunes its term products once, a
    # member's numerator reads the leads of its reduced basis unpruned, and
    # a member scales the one span N the spec keeps; the bounds sit just
    # above the counts of that path once the scenario is loaded (109 and
    # 110), well below those of pruning every lead set again (309) or of
    # rebuilding N at every point (210)
    monkeypatch.setattr(cache, "_ACTIVE", cache.Cache())
    monkeypatch.setattr(hilbert, "_NUMERATOR_MEMO", {})
    scn = load_scenario_text(json.dumps(TWO_IDEAL_SWEEP))
    pruned = _record_everywhere(monkeypatch, hilbert, "minimal_monomials")
    built = _record_calls(monkeypatch, Submodule, "__init__")
    code, report, _meta = run_scenario_object(scn)
    assert code == 0 and report["status"] == "PASS"
    assert len(pruned) <= 115
    assert len(built) <= 115


def test_rees_component_track_builds_each_strand_once(monkeypatch):
    # both component_track tasks, the tensor one and the identity one, read
    # the scenario's spec, so each strand I^n M is built once, from the
    # family's power products: no Rees module is presented and no strand
    # is cut from one, at load or in a task, and the default fit cap counts
    # the variables of R[y]/Q without presenting it
    cut = _record_everywhere(monkeypatch, multigraded, "graded_component")
    presented = _record_everywhere(monkeypatch, multigraded, "rees_module")
    algebras = _record_everywhere(monkeypatch, multigraded, "rees_algebra")
    eliminated = _record_everywhere(monkeypatch, groebner, "eliminate_module")
    scn = load_scenario(bundled_scenario_path("rees_component_track"))
    strands = _record_calls(monkeypatch, FamilySpec, "member")
    code, _report, _meta = run_scenario_object(scn)
    assert code == 0
    assert sorted(args[1] for args in strands) == sorted(scn.box.points())
    assert cut == [] and presented == []
    assert algebras == [] and eliminated == []


def test_loading_rees_component_track_presents_no_rees_algebra(monkeypatch):
    # a component family is built at load without the Rees algebra and
    # without an elimination
    presented = _record_everywhere(monkeypatch, multigraded, "rees_algebra")
    eliminated = _record_everywhere(monkeypatch, groebner, "eliminate_module")
    load_scenario(bundled_scenario_path("rees_component_track"))
    assert presented == [] and eliminated == []


def test_component_members_share_the_module_relation_span(monkeypatch):
    # M = R/(x^2 + y^2, xz - y^2) has relations that are not terms: every
    # member I^n M = (I^n U + W)/W holds M's own relation span W, so with the
    # cache off W's basis is computed by one Buchberger run for the box
    R = PolyRing(("x", "y", "z"))
    monkeypatch.setattr(cache, "_ACTIVE", cache.Cache())
    module = FPModule.cyclic(R, ("x^2 + y^2", "x*z - y^2"))
    family = IdealFamily([ideal(R, ["x^2 - y*z", "x*y + z^2"])])
    spec = FamilySpec.component(module, family)
    runs = _record_calls(monkeypatch, submodule, "buchberger")
    box = GridBox((0,), (4,), shell=1)
    grid_evaluate(None, spec, box, ("lambda",))
    for p in box.points():
        assert spec.value(None, p).rels_sub() is module.rels_sub()
    assert [args[0] for args in runs].count(module.rels) == 1


def test_evaluate_on_a_member_runs_no_buchberger_for_hom_relations(monkeypatch):
    # F = N (x) - at R/a^2 for the non-term a = (x^2 + y^2, xy): Hom(K, X)
    # and Hom(L, X) are block modules of X, which carry the power product's
    # basis, so the pushed generators reduce without a Buchberger run
    R = PolyRing(("x", "y"))
    monkeypatch.setattr(cache, "_ACTIVE", cache.Cache())
    fam = IdealFamily([ideal(R, ["x^2 + y^2", "x*y"])])
    member = FamilySpec.quotient(_free(R), unit_ideal(R), fam).member((2,))
    functor = functor_from_tensor(FPModule.cyclic(R, ("x", "y^2")))
    functor.diagram()
    runs = _record_calls(monkeypatch, submodule, "buchberger")
    value = evaluate(functor, member)
    assert runs == []
    assert value.length() == 2
    # K = R/(x, y) is not free: Hom(K, X) keeps X's relation basis and F(X)
    # keeps Hom(K, X)'s spans, so Hom runs no loop on R/a^n, n = 1..4, for
    # a = (x^2 - yz, xy + z^2), and Ext^1 runs at most one per point
    S = PolyRing(("x", "y", "z"))
    fam = IdealFamily([ideal(S, ["x^2 - y*z", "x*y + z^2"])])
    spec = FamilySpec.quotient(_free(S), unit_ideal(S), fam)
    k = FPModule.cyclic(S, ("x", "y"))
    for functor, most in ((functor_from_hom(k), 0), (functors.functor_from_ext(k, 1), 1)):
        functor.diagram()
        for n in range(1, 5):
            member = spec.member((n,))
            member.gens_sub().groebner()
            member.rels_sub().groebner()
            del runs[:]
            evaluate(functor, member)
            assert len(runs) <= most, (functor, n)


def test_normal_form_reads_the_values_the_fit_kept(monkeypatch):
    # hilbert_samuel_xy runs fit, degree_bound and normal_form over [1..12]:
    # normal_form validates against the spec's kept F(member) values and the
    # report reads member lengths off the members validation built, so each
    # point's member, F(member) and shaped member is built once; F(M) for
    # the degree law and for the U check are the two more evaluations
    scn = load_scenario(bundled_scenario_path("hilbert_samuel_xy"))
    members = _record_calls(monkeypatch, FamilySpec, "member")
    shaped = _record_calls(monkeypatch, stability.NormalForm, "member_value")
    on_members = _record_calls(monkeypatch, functors, "evaluate")
    on_module = _record_calls(monkeypatch, stability, "evaluate")
    code, report, _meta = run_scenario_object(scn)
    assert code == 0
    points = scn.box.points()
    assert len(points) == 12
    assert sorted(args[1] for args in members) == sorted(points)
    assert sorted(args[1] for args in shaped) == sorted(points)
    assert len(on_members) == 12
    assert len(on_module) == 2
    (entry,) = [e for e in report["tasks"] if e["task"] == "normal_form"]
    assert entry["status"] == "PASS"
    assert entry["member_lengths"] == {str(n): n * (n + 1) // 2 for n in range(1, 13)}
