"""Invariant suites run by the selftest subcommand.

Every suite checks an identity the engine has no freedom about, on inputs
drawn from the seeded corpus (corpus.py), and loops over the corpus bases
it can read; its message gives its count on each base in one format. The
four kinds are GF(p), Q, weights (1,2) (all in x, y) and k[x,y,z]/(y^2, xz).

  suite                    identity                                bases
  buchberger_s_vectors     reduced bases, S-vectors reduce to 0    four kinds, xy-z^2, k[x,y,z]
  syzygy_vs_brute_kernels  syzygies absorb brute strand kernels    four kinds
  euler_characteristic     grown resolutions balance Hilbert       GF(p), Q, weights (1,2)
  tor_balance              Tor_i(M, N) = Tor_i(N, M), i = 0, 1     four kinds
  bass_koszul_duality      mu^i = beta_(n-i) = length Ext^i(k,M)   GF(p), Q, weights (1,2)
  route_equivalence        evaluate = evaluate_via_diagram         four kinds
  artin_rees_certificates  certificates hold on 9-point windows    four kinds
  fit_exactness            quadratic recovered, 2^n refused        none
  cache_robustness         bad entries recomputed, never trusted   GF(p)
  term_kernels             term colons, intersections, numerators  four kinds, k[x,y,z]
  fast_path_routes         fast paths = LiftSolver route           GF(p), Q, weights (1,2), xy-z^2
  component_strands        I^n M = Rees strand (series, Ass)       four kinds

Here xy-z^2 is k[x,y,z]/(xy - z^2), over which fast_path_routes checks
that the solver route is taken. The fault hook flips one length in the
route-equivalence suite so the tripwire itself can be demonstrated.
"""

import os
import tempfile
from operator import add

from .cache import Cache, install
from .corpus import (
    INPUTS,
    KINDS,
    POLYNOMIAL_KINDS,
    ass_keys,
    base,
    component_corpus,
    module_corpus,
    per_kind,
    route_corpus,
    seeded,
)
from .errors import ConfigurationError, FunctorLabError
from .fitting import fit_polynomial
from .fpmodule import FPModule, hom_ext_tor
from .functors import evaluate, evaluate_via_diagram
from .grid import GridBox
from .groebner import LiftSolver, buchberger, make_lead_index, reduce_vec, s_vector, spans_terms
from .hilbert import ideal_numerator, series_window
from .invariants import bass_profile, ext_bass_profile
from .multigraded import artin_rees_exponent, artin_rees_window, graded_component, rees_module
from .oracles import brute_kernel, monomials_of_degree
from .poly import Vec, parse_vec
from .stability import FamilySpec
from .submodule import IdealFamily, Submodule, ideal, zero_submodule


class Broken(Exception):
    """An identity that failed, with what went wrong."""


def _engine_error(exc):
    """The text of an engine error that ended a check: its type, then its message."""
    return "%s: %s" % (type(exc).__name__, exc)


def per_base(kinds, what, seed=None):
    """Make a suite of check(ring, inputs, rng, *args), run on the base of
    each kind with its corpus inputs and the one Random(seed) of seeded; the
    check returns its count, and its failure, a failed identity or an engine
    error, is named with the base."""
    def suite(check):
        def run(*args):
            counts = {}
            for kind, ring, rng in seeded(kinds, seed):
                try:
                    counts[kind] = check(ring, INPUTS[kind], rng, *args)
                except Broken as exc:
                    raise Broken("%s over %s" % (exc, kind)) from None
                except FunctorLabError as exc:
                    raise Broken("%s over %s" % (_engine_error(exc), kind)) from None
            return per_kind(what, counts)
        return run
    return suite


@per_base(INPUTS, "bases checked")
def suite_buchberger(ring, inputs, _rng):
    """Each basis is reduced, holds its generators, and its S-vectors reduce
    to zero. Term ideals (over a monomial base too) take the minimal-terms
    shortcut instead of the pair loop."""
    for texts in inputs.ideals:
        sub = ideal(ring, texts)
        bound = sub.bound
        basis = buchberger(sub.gens, ring=ring, rank=1, twists=(0,), bound=bound)
        lead = make_lead_index(basis, bound)
        for g in sub.gens:
            if reduce_vec(g, basis, bound, lead)[0]:
                raise Broken("generator %s escapes the basis of %s" % (g.component(0), texts))
        leads = [g.lead(bound)[0] for g in basis]
        for g, lead_term in zip(basis, leads):
            # reduced: monic, and no lead divides a term except its own lead
            if g.terms[lead_term] != ring.one:
                raise Broken("basis of %s is not monic" % (texts,))
            for tc, tm in g.terms:
                hits = sum(lc == tc and ring.mono_divides(lm, tm) for lc, lm in leads)
                if hits != ((tc, tm) == lead_term):
                    raise Broken("basis of %s is not reduced" % (texts,))
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                (ci, mi), (cj, mj) = leads[i], leads[j]
                if ci != cj:
                    continue
                s = s_vector(basis[i], basis[j], mi, mj, ring.mono_lcm(mi, mj), ring)
                if reduce_vec(s, basis, bound, lead)[0]:
                    raise Broken("S-vector (%d, %d) of %s did not reduce to zero" % (i, j, texts))
    return len(inputs.ideals)


def _holds(sub, mono):
    return sub.contains(Vec(sub.ring, {(0, mono): sub.ring.one}))


def _numerator_mismatch(sub, top):
    """Whether the Hilbert numerator of R/sub (ideal_numerator of its lead
    monomials) fails to count, in degrees 0..top, the monomials outside sub,
    read by normal_form."""
    ring = sub.ring
    numer = ideal_numerator(ring, sub.lead_monomials()[0])
    outside = [
        sum(1 for m in monomials_of_degree(ring, d) if not _holds(sub, m)) for d in range(top + 1)
    ]
    return series_window(ring, numer, 0, top) != outside


@per_base(KINDS + ("k[x,y,z]",), "pairs of term ideals")
def suite_term_kernels(ring, inputs, _rng):
    """colon, colon_module and intersect of the corpus's term ideals (every
    generator and base relation a single term) meet their definitions, and
    the Hilbert numerators of the ideals and of their products count
    standard monomials. A monomial m lies in (I : J) and in (I :_F J)
    exactly when m*x^e lies in I for every generator x^e of J, and in I cap J
    exactly when it lies in both. Membership is read by normal_form on every
    monomial up to the sum of the top degrees of the reduced bases of I and
    J, which bounds the generators of all three results and of IJ; each
    result must be spanned by terms, so agreeing on those monomials makes it
    equal to its definition."""
    ideals = [ideal(ring, texts) for texts in inputs.ideals]
    ideals = [sub for sub in ideals if spans_terms(sub.gens, ring)]
    for I in ideals:
        for J in ideals:
            exps = [m for g in J.gens for (_c, m) in g.terms]
            results = {
                "colon": I.colon(list(J.gens)),
                "colon_module": I.colon_module([g.component(0) for g in J.gens]),
                "intersect": I.intersect(J),
            }
            for name, result in results.items():
                if not spans_terms(result.groebner(), ring):
                    raise Broken("%s of %s by %s is not spanned by terms" % (name, I, J))
            top = sum(max(g.degree((0,)) for g in sub.groebner()) for sub in (I, J))
            for d in range(top + 1):
                for m in monomials_of_degree(ring, d):
                    in_colon = all(_holds(I, tuple(map(add, m, e))) for e in exps)
                    want = {
                        "colon": in_colon,
                        "colon_module": in_colon,
                        "intersect": _holds(I, m) and _holds(J, m),
                    }
                    for name, result in results.items():
                        if _holds(result, m) != want[name]:
                            raise Broken("%s of %s by %s is wrong at the monomial %r" % (
                                name, I, J, m))
            for sub in (I, I.multiply_ideal(J)):
                if _numerator_mismatch(sub, top):
                    raise Broken("the Hilbert numerator of %s misses its staircase" % sub)
    return len(ideals) ** 2


@per_base(KINDS, "brute kernel vectors absorbed")
def suite_syzygy(ring, inputs, _rng):
    """Syzygies annihilate their generators, and the brute-force kernels of
    the strands up to three degrees past the top generator lie in them. Over
    k[x,y,z]/(y^2, xz) the term ideals take the solver route, and the base
    relations count as zero."""
    checked = 0
    for case in inputs.syzygies:
        if isinstance(case[0], list):
            twists, gens = (0, 0), [parse_vec(ring, c) for c in case]
        else:
            twists, gens = (0,), [parse_vec(ring, [t]) for t in case]
        sub = Submodule(ring, len(twists), twists, gens)
        syz = sub.syzygies()
        gens = list(sub.gens)
        zero = zero_submodule(ring, len(twists), twists)  # the base relations
        # soundness: every syzygy column kills the generators
        for s in syz.gens:
            acc = None
            for g, c in zip(gens, s.components(len(gens))):
                term = g.mul_poly(c)
                acc = term if acc is None else acc + term
            if not zero.contains(acc):
                raise Broken("a syzygy of %s fails to annihilate them" % (gens,))
        # completeness: brute strand kernels reduce to zero against the basis
        src_twists = tuple(g.degree(sub.twists) for g in gens)
        degrees = range(min(src_twists), max(src_twists) + 4)
        for v in brute_kernel(ring, src_twists, gens, sub.twists, degrees):
            if not syz.contains(v):
                raise Broken("a brute kernel vector of %s escapes the syzygies" % (gens,))
            checked += 1
    return checked


@per_base(POLYNOMIAL_KINDS, "grown resolutions balanced")
def suite_euler(ring, _inputs, _rng):
    """The alternating sum of the Hilbert functions of a resolution is the
    module's. Each resolution is grown in two steps, one stage and then to
    six, so the grown complex is checked."""
    window = range(-1, 7)
    modules = module_corpus(ring)
    for module in modules:
        module.resolution(1)
        res = module.resolution(6)
        acc = [0] * len(window)
        for k, frees in enumerate(res.modules):
            values = frees.hilbert_function(window)
            sign = 1 if k % 2 == 0 else -1
            acc = [a + sign * v for a, v in zip(acc, values)]
        if not res.exhausted:
            raise Broken("resolution of %r did not end by stage 6" % (module,))
        if acc != list(module.hilbert_function(window)):
            raise Broken("Euler identity fails for %r" % (module,))
    return len(modules)


@per_base(KINDS, "pairs balanced", seed=20260815)
def suite_tor_balance(ring, _inputs, rng):
    """Tor_i(M, N) and Tor_i(N, M) have one Hilbert function, i = 0, 1, on
    six seeded pairs of corpus modules."""
    corpus = module_corpus(ring)
    pairs = [(rng.choice(corpus), rng.choice(corpus)) for _ in range(6)]
    for m, n in pairs:
        for i in (0, 1):
            if not hom_ext_tor(m, n, i, "tor").hilbert_equal(hom_ext_tor(n, m, i, "tor")):
                raise Broken("Tor_%d balance fails for %r and %r" % (i, m, n))
    return len(pairs)


@per_base(POLYNOMIAL_KINDS, "profiles agree")
def suite_bass_koszul_duality(ring, _inputs, _rng):
    """mu^i = beta_(n-i) off the minimal resolution agrees with the length
    of Ext^i(k, M)."""
    modules = module_corpus(ring)
    for module in modules:
        if bass_profile(module, ring.nvars + 2) != ext_bass_profile(module, ring.nvars + 2):
            raise Broken("Bass profiles disagree for %r" % (module,))
    return len(modules)


@per_base(KINDS, "pairs agree on [-2, 8)")
def suite_route_equivalence(ring, _inputs, _rng, inject_fault=False):
    """Both evaluation routes give one Hilbert function on [-2, 8) for the
    seeded route corpus; the fault flips one length."""
    pairs = route_corpus(ring)
    for index, (functor, argument) in enumerate(pairs):
        left = list(evaluate(functor, argument).hilbert_function(range(-2, 8)))
        right = list(evaluate_via_diagram(functor, argument).hilbert_function(range(-2, 8)))
        if inject_fault and index == 7:
            left[3] += 1
        if left != right:
            raise Broken("routes disagree on pair %d" % index)
    return len(pairs)


@per_base(KINDS, "certificates verified on 9-point windows")
def suite_artin_rees(ring, inputs, _rng):
    """Each certificate is the expected exponent, and the window equality
    holds on the nine points past it."""
    for gens, sub, expected in inputs.artin_rees:
        family = IdealFamily([ideal(ring, gens)])
        free, sub = FPModule.free(ring, (0,)), ideal(ring, [sub])
        d = artin_rees_exponent(family, free, sub)
        if d != expected:
            raise Broken("certificate %r for %s, expected %r" % (d, gens, expected))
        window = [tuple(a + step for a in d) for step in range(9)]
        bad = artin_rees_window(family, free, sub, d, window)
        if bad is not None:
            raise Broken("window equality fails at %r for %s" % (bad, gens))
    return len(inputs.artin_rees)


def suite_fit_exactness():
    box = GridBox((1,), (10,), shell=2)
    table = {(n,): n * (n + 1) // 2 for n in range(1, 11)}
    fit = fit_polynomial(table, box, 2)
    if fit is None or fit.total_degree != 2:
        raise Broken("exact quadratic was not recovered")
    if any(fit.evaluate((n,)) != table[(n,)] for n in range(1, 11)):
        raise Broken("fit has nonzero residuals")
    drift = {(n,): 2 ** n for n in range(1, 11)}
    if fit_polynomial(drift, box, 3) is not None:
        raise Broken("non-polynomial table was not refused")
    return "quadratic exact, exponential refused"


def suite_cache_robustness():
    with tempfile.TemporaryDirectory() as scratch:
        cache = Cache(directory=scratch)
        key = cache.key("selftest", "entry")
        cache.put(key, {"value": 42})
        path = cache._path(key)
        # unreadable, and well-formed JSON that is not a sealed entry
        for count, text in enumerate(("{corrupted", "[]"), 1):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            if cache.get(key) is not None:
                raise Broken("corrupted entry %r was trusted" % text)
            if cache.corrupt != count:
                raise Broken("corruption not recorded")
        cache.put(key, {"value": 42})
        if cache.get(key) != {"value": 42}:
            raise Broken("recomputed entry not readable")
    # a Groebner entry sealed with its right key and digest but holding a
    # row with a negative exponent reads as corrupt, is recomputed and put
    # back; the ideal is not spanned by terms, since a term module never
    # reaches the cache
    ring, gens = base("GF(p)"), ["x^2 + y^2", "x*y", "y^3"]
    with tempfile.TemporaryDirectory() as scratch:
        writer = Cache(directory=scratch)
        previous = install(writer)
        try:
            fresh = ideal(ring, gens).groebner()
            (key,) = [name[: -len(".json")] for _d, _s, names in os.walk(scratch) for name in names]
            writer.put(key, [[[0, 2, -1, 1]]])
            # the first fresh cache rejects the entry and puts the basis
            # back; the second reads it
            for expected in (
                {"hits": 0, "misses": 1, "puts": 1, "corrupt": 1},
                {"hits": 1, "misses": 0, "puts": 0, "corrupt": 0},
            ):
                reader = Cache(directory=scratch)
                install(reader)
                try:
                    again = ideal(ring, gens).groebner()
                except (ValueError, ConfigurationError) as exc:
                    raise Broken("malformed Groebner entry raised: %s" % exc)
                if again != fresh:
                    raise Broken("malformed Groebner entry was trusted")
                if reader.stats() != expected:
                    raise Broken("cache statistics %r, expected %r" % (reader.stats(), expected))
        finally:
            install(previous)
    return "corrupted and malformed entries recomputed, never trusted"


def _solver_syzygies(sub):
    """The syzygies of sub's generators read off one LiftSolver."""
    degs = tuple(g.degree(sub.twists) for g in sub.gens)
    solver = LiftSolver(sub.ring, sub.rank, sub.twists, list(sub.gens))
    return Submodule(sub.ring, len(sub.gens), degs, solver.kernel_vectors(), check=False)


def _solver_presentation(module):
    """(pruned generators, span of the columns) of module's presentation,
    read off one LiftSolver over the pruned generators."""
    ring, rels = module.ring, list(module.rels)
    pruned = module.gens_sub().minimal_generators(modulo=rels).gens
    solver = LiftSolver(ring, module.rank, module.twists, list(pruned), rels)
    twists = tuple(g.degree(module.twists) for g in pruned)
    return pruned, Submodule(ring, len(pruned), twists, solver.kernel_vectors(), check=False)


def _check_presentation(module, solver):
    """module's presentation against the solver route: built with a solver
    exactly when solver is true, the same pruned generators, a column span
    equal to the kernel's, and coeffs_of writing each generator back modulo
    relations."""
    pres = module.presentation()
    if (pres._solver is not None) != solver:
        raise Broken("presentation of %r %s" % (
            module, "skipped the solver" if solver else "built a solver"))
    pruned, kernel = _solver_presentation(module)
    if pres.gens != pruned:
        raise Broken("pruned generators differ for %r" % (module,))
    columns = Submodule(module.ring, len(pruned), pres.gen_twists, pres.columns, check=False)
    if not columns.equals(kernel):
        raise Broken("presentation columns of %r span another kernel" % (module,))
    for g in pres.gens:
        coeffs = pres.coeffs_of(g)
        if coeffs is None:
            raise Broken("coeffs_of finds no coefficients for a generator of %r" % (module,))
        back = Vec.zero(module.ring)
        for c, h in zip(coeffs, pres.gens):
            back = back + h.mul_poly(c)
        if not module.rels_sub().contains(back - g):
            raise Broken("coeffs_of does not write a generator of %r back" % (module,))


def _seeded_vector(rng, ring, twists, degree):
    """A homogeneous vector of the given degree under twists with up to two
    terms per component, none of them at the unit monomial."""
    terms = {}
    for c, t in enumerate(twists):
        monos = [m for m in monomials_of_degree(ring, degree - t) if any(m)]
        for m in rng.sample(monos, min(len(monos), rng.randint(0, 2))):
            terms[(c, m)] = ring.coeff(rng.randint(1, 9))
    return Vec(ring, terms)


@per_base(POLYNOMIAL_KINDS + ("k[x,y,z]/(xy - z^2)",),
          "syzygy modules and presentations agree with the solver route", seed=20261019)
def suite_fast_path_routes(ring, _inputs, rng):
    """The lcm syzygies of single terms and the solver-free presentation of
    a cokernel of the free module agree with the LiftSolver route on six
    seeded draws over a polynomial base: equal spans (Submodule.equals) and
    equal pruned generators. For a relation with a unit-monomial term, and
    over a quotient base, the solver route is taken and still agrees."""
    if ring.relations:
        terms = Submodule(ring, 1, (0,), [parse_vec(ring, ["x"]), parse_vec(ring, ["z"])])
        if not terms.syzygies().equals(_solver_syzygies(terms)):
            raise Broken("syzygies of terms differ from the solver's")
        _check_presentation(FPModule.cyclic(ring, ("x",)), solver=True)
        return 2
    for _ in range(6):
        twists = rng.choice([(0,), (0, 1), (0, 0), (1, 0)])
        gens = []
        for _ in range(rng.randint(2, 5)):
            c = rng.randrange(len(twists))
            mono = rng.choice(monomials_of_degree(ring, rng.randint(1, 3)))
            gens.append(Vec(ring, {(c, mono): ring.coeff(rng.randint(1, 9))}))
        sub = Submodule(ring, len(twists), twists, gens)
        syz = sub.syzygies()
        pairs = sum(
            1 for i, a in enumerate(sub.gens) for b in sub.gens[i + 1:]
            if a.max_component() == b.max_component()
        )
        if len(syz.gens) != pairs:
            raise Broken("syzygies of %r did not take the lcm route" % (sub,))
        if not syz.equals(_solver_syzygies(sub)):
            raise Broken("lcm syzygies of %r differ from the solver's" % (sub,))
        rels = [_seeded_vector(rng, ring, twists, max(twists) + rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))]
        _check_presentation(FPModule.from_cokernel(ring, twists, [w for w in rels if w]), False)
    _check_presentation(module_corpus(ring)[-1], solver=True)  # the unit relation
    return 13


def suite_component_strands():
    """Each member I^n M of a component family agrees with the strand n cut
    from a presentation of the Rees module R(I, M) over R[y]/Q
    (graded_component): the same Hilbert series, and the same Ass wherever
    both routes answer."""
    counts = dict.fromkeys(KINDS, 0)
    compared = 0
    for label, kind, family, module, points in component_corpus():
        spec = FamilySpec.component(module, family)
        rees = rees_module(family, module)
        for point in points:
            member, strand = spec.member(point), graded_component(family, rees, point)
            if not member.hilbert_equal(strand):
                raise Broken("I^n M and the Rees strand differ at %r for %s" % (point, label))
            mine, theirs = ass_keys(member), ass_keys(strand)
            if mine is not None and theirs is not None:
                if mine != theirs:
                    raise Broken("Ass of I^n M and the Rees strand differ at %r for %s"
                                 % (point, label))
                compared += 1
            counts[kind] += 1
    return per_kind("strands equal the Rees route", counts) + "; Ass compared at %d" % compared


SUITES = (
    ("buchberger_s_vectors", suite_buchberger),
    ("syzygy_vs_brute_kernels", suite_syzygy),
    ("euler_characteristic", suite_euler),
    ("tor_balance", suite_tor_balance),
    ("bass_koszul_duality", suite_bass_koszul_duality),
    ("route_equivalence", suite_route_equivalence),
    ("artin_rees_certificates", suite_artin_rees),
    ("fit_exactness", suite_fit_exactness),
    ("cache_robustness", suite_cache_robustness),
    ("term_kernels", suite_term_kernels),
    ("fast_path_routes", suite_fast_path_routes),
    ("component_strands", suite_component_strands),
)


def run_selftest(inject_fault=False, emit=print):
    """Pass/fail matrix; returns 0 when green, 1 with the first failure named.
    A suite fails on a failed identity or on an engine error it raises; the
    suites after it still run."""
    failures = []
    for name, suite in SUITES:
        try:
            detail = suite(inject_fault) if name == "route_equivalence" else suite()
            ok = True
        except Broken as exc:
            ok, detail = False, str(exc)
        except FunctorLabError as exc:
            ok, detail = False, _engine_error(exc)
        emit("%-28s %s  %s" % (name, "ok " if ok else "FAIL", detail))
        if not ok and not failures:
            failures.append((name, detail))
    if failures:
        emit("first failing invariant: %s (%s)" % failures[0])
        return 1
    emit("all suites green")
    return 0
