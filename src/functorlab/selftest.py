"""Invariant corpus run by the selftest subcommand.

Every suite checks an identity the engine has no freedom about: returned
bases are reduced, hold their generators and have S-vectors that reduce to
zero, syzygies annihilate their generators and absorb brute-force strand
kernels, resolutions grown in two steps respect the Euler identity, Tor is
balanced, Bass numbers read off the minimal resolution equal the lengths of
Ext^i(k, M) (Koszul self-duality), the two evaluation routes agree on a
seeded corpus, Artin-Rees certificates hold on a window, the fitter is exact,
the cache recomputes an unreadable, unsealed or malformed entry instead of
trusting it, the colons and intersections of term ideals meet their
definitions, the Hilbert numerators of term ideals count their standard
monomials, the lcm syzygies of terms and the solver-free presentations
of cokernels span what a LiftSolver reads off, and the members I^n M of
component families equal the strands cut from a Rees module.
The fault hook flips one length in the route-equivalence suite so the
tripwire itself can be demonstrated.
"""

import os
import random
import tempfile
from operator import add

from .cache import Cache, install
from .errors import ConfigurationError, StrategyExhausted
from .fitting import fit_polynomial
from .fpmodule import FPModule, hom_ext_tor
from .functors import (
    evaluate,
    evaluate_via_diagram,
    functor_from_ext,
    functor_from_hom,
    functor_from_tensor,
    functor_from_tor,
)
from .grid import GridBox, box_points
from .groebner import LiftSolver, buchberger, make_lead_index, reduce_vec, s_vector, spans_terms
from .hilbert import ideal_numerator, series_window
from .invariants import associated_primes, bass_profile, ext_bass_profile
from .multigraded import artin_rees_exponent, artin_rees_window, graded_component, rees_module
from .oracles import brute_kernel, monomials_of_degree
from .poly import Vec, parse_vec, quotient_ring
from .rings import PolyRing
from .stability import FamilySpec
from .submodule import IdealFamily, Submodule, ideal, zero_submodule


def _ring():
    return PolyRing(("x", "y"))


def _polynomial_rings():
    """k[x, y] over GF(32003), over Q, and with weights (1, 2)."""
    return (_ring(), PolyRing(("x", "y"), char=0), PolyRing(("x", "y"), weights=(1, 2)))


def _module_corpus(ring):
    out = [FPModule.free(ring, (0,))]
    for batch in (("x",), ("x", "y"), ("x^2", "x*y", "y^2"), ("x^2", "y^3"), ("x*y",)):
        out.append(FPModule.cyclic(ring, batch))
    out.append(FPModule.from_cokernel(ring, (0, 1), [parse_vec(ring, ["x", "-1"])]))
    return out


def _buchberger_corpus():
    """(ring, ideal generators) over GF(32003), Q, weights (1, 2), the
    quotient base k[x,y,z]/(xy - z^2) and the monomial quotient base
    k[x,y,z]/(y^2, xz). Some lists give a generator before a lower-degree one
    that divides it, so the input queue reorders them and reduces the
    multiple away. Term ideals (over a monomial base too) take the
    minimal-terms shortcut instead of the pair loop."""
    plain = [
        ["x", "y"],
        ["x^2", "x*y", "y^2"],
        ["x^3", "x^2", "x*y"],
        ["x^3 - x*y^2", "y^3"],
        ["x^2 + y^2", "x*y"],
        ["x^3 + x*y^2", "y^3 + x^2*y", "x^2 + y^2"],
    ]
    weighted = PolyRing(("x", "y"), weights=(1, 2))
    quotient = quotient_ring(PolyRing(("x", "y", "z")), ["x*y - z^2"])
    monomial_quotient = quotient_ring(PolyRing(("x", "y", "z")), ["y^2", "x*z"])
    out = [(_ring(), texts) for texts in plain]
    out += [(PolyRing(("x", "y"), char=0), texts) for texts in plain]
    out += [(weighted, texts) for texts in (
        ["x^2 - y", "x*y"],
        ["x^3", "x*y", "y^2"],
        ["x^2*y", "x*y^2", "y^3"],
        ["x^4 + y^2", "x^2*y", "x^3"],
        ["x^3*y + x*y^2", "x^2 - y", "y^2"],
    )]
    out += [(quotient, texts) for texts in (
        ["x", "z"],
        ["x^2 + y^2", "x*z"],
        ["y^3 - x*z^2", "x^2*z", "x*z", "y^2"],
    )]
    out += [(monomial_quotient, texts) for texts in (
        ["x^2", "y*z"],
        ["x*y^3", "z^3", "x*y", "x^2*y"],
        ["y", "x^2*z", "z^2"],
        ["x + z", "y*z"],
    )]
    return out


def suite_buchberger():
    """Each basis is reduced, holds its generators, and its S-vectors reduce
    to zero."""
    corpus = _buchberger_corpus()
    for ring, texts in corpus:
        sub = ideal(ring, texts)
        bound = sub.bound
        basis = buchberger(sub.gens, ring=ring, rank=1, twists=(0,), bound=bound)
        lead = make_lead_index(basis, bound)
        for g in sub.gens:
            if reduce_vec(g, basis, bound, lead)[0]:
                return False, "generator %s escapes the basis of %s" % (g.component(0), texts)
        leads = [g.lead(bound)[0] for g in basis]
        for g, lead_term in zip(basis, leads):
            # reduced: monic, and no lead divides a term except its own lead
            if g.terms[lead_term] != ring.one:
                return False, "basis of %s is not monic" % (texts,)
            for tc, tm in g.terms:
                hits = sum(lc == tc and ring.mono_divides(lm, tm) for lc, lm in leads)
                if hits != ((tc, tm) == lead_term):
                    return False, "basis of %s is not reduced" % (texts,)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                (ci, mi), (cj, mj) = leads[i], leads[j]
                if ci != cj:
                    continue
                s = s_vector(basis[i], basis[j], mi, mj, ring.mono_lcm(mi, mj), ring)
                remainder, _ = reduce_vec(s, basis, bound, lead)
                if remainder:
                    return False, "S-vector (%d, %d) of %s did not reduce to zero" % (i, j, texts)
    return True, "%d bases checked over GF(p), Q, weights (1,2), two quotient bases" % len(corpus)


def _term_ideal_groups():
    """The term ideals of _buchberger_corpus (generators and base relations
    all single terms), grouped by ring, and a k[x,y,z] group whose ideals
    each use two of the variables, so their numerators are staircases and
    those of their products with three active variables pivot down to
    staircases."""
    groups = {}
    for ring, texts in _buchberger_corpus():
        sub = ideal(ring, texts)
        if spans_terms(sub.gens, ring):
            groups.setdefault(ring, []).append(sub)
    xyz = PolyRing(("x", "y", "z"))
    groups[xyz] = [
        ideal(xyz, texts) for texts in (["x^2", "x*y^2", "y^3"], ["y*z", "z^3"], ["x^3", "x*z^2"])
    ]
    return groups


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


def suite_term_kernels():
    """colon, colon_module and intersect of term ideals meet their
    definitions, and the Hilbert numerators of the ideals and of their
    products count standard monomials. A monomial m lies in (I : J) and in
    (I :_F J) exactly when m*x^e lies in I for every generator x^e of J, and
    in I cap J exactly when it lies in both. Membership is read by
    normal_form on every monomial up to the sum of the top degrees of the
    reduced bases of I and J, which bounds the generators of all three
    results and of IJ; each result must be spanned by terms, so agreeing on
    those monomials makes it equal to its definition."""
    checked = 0
    for ring, ideals in _term_ideal_groups().items():
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
                        return False, "%s of %s by %s is not spanned by terms" % (name, I, J)
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
                                return False, "%s of %s by %s is wrong at the monomial %r" % (
                                    name, I, J, m)
                for sub in (I, I.multiply_ideal(J)):
                    if _numerator_mismatch(sub, top):
                        return False, "the Hilbert numerator of %s misses its staircase" % sub
                checked += 1
    return True, (
        "%d pairs of term ideals over GF(p), Q, weights (1,2), k[x,y,z] and k[x,y,z]/(y^2, xz)"
        % checked
    )


def _syzygy_corpus():
    """(ring, twists, generator columns) over GF(32003), Q, weights (1, 2)
    and the monomial quotient base k[x,y,z]/(y^2, xz): term ideals (the lcm
    syzygies over a polynomial base), a non-term ideal and a rank-2 module
    (a LiftSolver)."""
    plain = [["x", "y"], ["x^2", "x*y", "y^2"], ["x^2 + y^2", "x*y"], [["x", "y"], ["y", "x"]]]
    weighted = [["x^2", "y"], ["x^3", "x*y", "y^2"], ["x^2 + y", "x*y"], [["x^2", "y"], ["y", "x^2"]]]
    quotient = [["x", "y"], ["x^2", "y*z", "z^2"], ["x + z", "y"], [["x", "y"], ["z", "x"]]]
    rings = _polynomial_rings() + (quotient_ring(PolyRing(("x", "y", "z")), ["y^2", "x*z"]),)
    out = []
    for ring, cases in zip(rings, (plain, plain, weighted, quotient)):
        for case in cases:
            if isinstance(case[0], list):
                out.append((ring, (0, 0), [parse_vec(ring, c) for c in case]))
            else:
                out.append((ring, (0,), [parse_vec(ring, [t]) for t in case]))
    return out


def suite_syzygy():
    """Syzygies annihilate their generators, and the brute-force kernels of
    the strands up to three degrees past the top generator lie in them."""
    checked = 0
    for ring, twists, gens in _syzygy_corpus():
        sub = Submodule(ring, len(twists), twists, gens)
        syz = sub.syzygies()
        gens = list(sub.gens)
        zero = zero_submodule(ring, len(twists), twists)  # the base relations
        # soundness: every syzygy column kills the generators
        for s in syz.gens:
            parts = s.components(len(gens))
            acc = None
            for g, c in zip(gens, parts):
                term = g.mul_poly(c)
                acc = term if acc is None else acc + term
            if not zero.contains(acc):
                return False, "a syzygy of %s fails to annihilate them" % (gens,)
        # completeness: brute strand kernels reduce to zero against the basis
        src_twists = tuple(g.degree(sub.twists) for g in gens)
        degrees = range(min(src_twists), max(src_twists) + 4)
        for v in brute_kernel(ring, src_twists, gens, sub.twists, degrees):
            if not syz.contains(v):
                return False, "a brute kernel vector of %s escapes the syzygies" % (gens,)
            checked += 1
    return True, (
        "%d brute kernel vectors absorbed over GF(p), Q, weights (1,2) and k[x,y,z]/(y^2, xz)"
        % checked
    )


def suite_euler():
    """The alternating sum of the Hilbert functions of a resolution is the
    module's, over GF(p), Q and weights (1, 2). Each resolution is grown in
    two steps, one stage and then to six, so the grown complex is checked."""
    window = range(-1, 7)
    checked = 0
    for ring in _polynomial_rings():
        for module in _module_corpus(ring):
            module.resolution(1)
            res = module.resolution(6)
            acc = [0] * len(window)
            for k, frees in enumerate(res.modules):
                values = frees.hilbert_function(window)
                sign = 1 if k % 2 == 0 else -1
                acc = [a + sign * v for a, v in zip(acc, values)]
            direct = module.hilbert_function(window)
            if not res.exhausted:
                return False, "resolution of %r did not end by stage 6" % (module,)
            if acc != list(direct):
                return False, "Euler identity fails for %r" % (module,)
            checked += 1
    return True, "%d grown resolutions balanced over GF(p), Q, weights (1,2)" % checked


def suite_tor_balance():
    ring = _ring()
    corpus = _module_corpus(ring)
    rng = random.Random(20260815)
    pairs = [(rng.choice(corpus), rng.choice(corpus)) for _ in range(6)]
    for m, n in pairs:
        for i in (0, 1):
            left = hom_ext_tor(m, n, i, "tor")
            right = hom_ext_tor(n, m, i, "tor")
            if not left.hilbert_equal(right):
                return False, "Tor_%d balance fails" % i
    return True, "%d pairs balanced" % len(pairs)


def suite_bass_koszul_duality():
    """mu^i = beta_(n-i) off the minimal resolution agrees with the length
    of Ext^i(k, M) over GF(p), Q and weights (1, 2)."""
    checked = 0
    for ring in _polynomial_rings():
        count = ring.nvars + 2
        for module in _module_corpus(ring):
            if bass_profile(module, count) != ext_bass_profile(module, count):
                return False, "Bass profiles disagree for %r" % (module,)
            checked += 1
    return True, "%d profiles agree over GF(p), Q, weights (1,2)" % checked


def route_corpus(ring, count=25, seed=20260401):
    """Seeded (functor, argument) pairs; deterministic across runs."""
    rng = random.Random(seed)
    modules = _module_corpus(ring)
    builders = []
    for m in modules[1:4]:
        builders.append(functor_from_hom(m))
        builders.append(functor_from_tensor(m))
        builders.append(functor_from_ext(m, 1))
        builders.append(functor_from_tor(m, 1))
    pairs = []
    while len(pairs) < count:
        pairs.append((rng.choice(builders), rng.choice(modules)))
    return pairs


def suite_route_equivalence(inject_fault=False):
    ring = _ring()
    pairs = route_corpus(ring)
    lo, hi = -2, 8
    for index, (functor, argument) in enumerate(pairs):
        direct = evaluate(functor, argument)
        diagram = evaluate_via_diagram(functor, argument)
        left = list(direct.hilbert_function(range(lo, hi)))
        right = list(diagram.hilbert_function(range(lo, hi)))
        if inject_fault and index == 7:
            left[3] += 1
        if left != right:
            return False, "routes disagree on pair %d" % index
    return True, "%d pairs agree on [%d, %d)" % (len(pairs), lo, hi)


def _artin_rees_corpus():
    """(ring, family generators, N, expected d): term families over GF(p),
    and one non-term family each over GF(p), Q, weights (1, 2) and the
    monomial quotient base k[x,y,z]/(y^2, xz)."""
    gf, q, weighted = _polynomial_rings()
    quotient = quotient_ring(PolyRing(("x", "y", "z")), ["y^2", "x*z"])
    return (
        (gf, ["x", "y"], "x", (1,)),
        (gf, ["x"], "y^2", (0,)),
        (gf, ["x^2 + y^2", "x*y"], "x", (1,)),
        (q, ["x^2 + y^2", "x*y"], "x", (1,)),
        (weighted, ["x^2 + y", "x*y"], "x", (1,)),
        (quotient, ["x + z", "y"], "x", (0,)),
    )


def suite_artin_rees():
    cases = _artin_rees_corpus()
    for ring, gens, sub, expected in cases:
        family = IdealFamily([ideal(ring, gens)])
        free, sub = FPModule.free(ring, (0,)), [parse_vec(ring, [sub])]
        d, verdict = artin_rees_exponent(family, free, sub)
        if verdict != "certified" or d != expected:
            return False, "certificate %r for %s over %s, expected %r" % (
                d, gens, ring.signature(), expected)
        window = [tuple(a + step for a in d) for step in range(9)]
        bad = artin_rees_window(family, free, sub, d, window, {})
        if bad is not None:
            return False, "window equality fails at %r for %s over %s" % (
                bad, gens, ring.signature())
    return True, (
        "%d certificates verified on 9-point windows over GF(p), Q, weights (1,2) "
        "and k[x,y,z]/(y^2, xz)" % len(cases)
    )


def suite_fit_exactness():
    box = GridBox((1,), (10,), shell=2)
    table = {(n,): n * (n + 1) // 2 for n in range(1, 11)}
    fit = fit_polynomial(table, box, 2)
    if fit is None or fit.total_degree != 2:
        return False, "exact quadratic was not recovered"
    if any(fit.evaluate((n,)) != table[(n,)] for n in range(1, 11)):
        return False, "fit has nonzero residuals"
    drift = {(n,): 2 ** n for n in range(1, 11)}
    if fit_polynomial(drift, box, 3) is not None:
        return False, "non-polynomial table was not refused"
    return True, "quadratic exact, exponential refused"


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
                return False, "corrupted entry %r was trusted" % text
            if cache.corrupt != count:
                return False, "corruption not recorded"
        cache.put(key, {"value": 42})
        if cache.get(key) != {"value": 42}:
            return False, "recomputed entry not readable"
    with tempfile.TemporaryDirectory() as scratch:
        failure = _malformed_groebner_entry(scratch)
    if failure:
        return False, failure
    return True, "corrupted and malformed entries recomputed, never trusted"


def _malformed_groebner_entry(scratch):
    """A Groebner entry sealed with its right key and digest but holding a
    row with a negative exponent reads as corrupt, is recomputed and put
    back; returns what went wrong, or None. The ideal is not spanned by
    terms, since a term module never reaches the cache."""
    ring = _ring()
    gens = ["x^2 + y^2", "x*y", "y^3"]
    writer = Cache(directory=scratch)
    previous = install(writer)
    try:
        fresh = ideal(ring, gens).groebner()
        (key,) = [name[: -len(".json")] for _d, _s, names in os.walk(scratch) for name in names]
        writer.put(key, [[[0, 2, -1, 1]]])
        # the first fresh cache rejects the entry and puts the basis back;
        # the second reads it
        for expected in (
            {"hits": 0, "misses": 1, "puts": 1, "corrupt": 1},
            {"hits": 1, "misses": 0, "puts": 0, "corrupt": 0},
        ):
            reader = Cache(directory=scratch)
            install(reader)
            try:
                again = ideal(ring, gens).groebner()
            except (ValueError, ConfigurationError) as exc:
                return "malformed Groebner entry raised: %s" % exc
            if again != fresh:
                return "malformed Groebner entry was trusted"
            if reader.stats() != expected:
                return "cache statistics %r, expected %r" % (reader.stats(), expected)
    finally:
        install(previous)
    return None


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


def _presentation_mismatch(module):
    """What is wrong with module's presentation against the solver route,
    or None: the same pruned generators, a column span equal to the
    kernel's, and coeffs_of writing each generator back modulo relations."""
    pres = module.presentation()
    pruned, kernel = _solver_presentation(module)
    if pres.gens != pruned:
        return "pruned generators differ for %r" % (module,)
    columns = Submodule(module.ring, len(pruned), pres.gen_twists, pres.columns, check=False)
    if not columns.equals(kernel):
        return "presentation columns of %r span another kernel" % (module,)
    for g in pres.gens:
        coeffs = pres.coeffs_of(g)
        if coeffs is None:
            return "coeffs_of finds no coefficients for a generator of %r" % (module,)
        back = Vec.zero(module.ring)
        for c, h in zip(coeffs, pres.gens):
            back = back + h.mul_poly(c)
        if not module.rels_sub().contains(back - g):
            return "coeffs_of does not write a generator of %r back" % (module,)
    return None


def _seeded_vector(rng, ring, twists, degree):
    """A homogeneous vector of the given degree under twists with up to two
    terms per component, none of them at the unit monomial."""
    terms = {}
    for c, t in enumerate(twists):
        monos = [m for m in monomials_of_degree(ring, degree - t) if any(m)]
        for m in rng.sample(monos, min(len(monos), rng.randint(0, 2))):
            terms[(c, m)] = ring.coeff(rng.randint(1, 9))
    return Vec(ring, terms)


def suite_fast_path_routes():
    """The lcm syzygies of single terms and the solver-free presentation of
    a cokernel of the free module agree with the LiftSolver route on seeded
    input over GF(p), Q and weights (1, 2): equal spans (Submodule.equals)
    and equal pruned generators. Over a quotient base, and for a relation
    with a unit-monomial term, the solver route is taken and still agrees."""
    rng = random.Random(20261019)
    checked = 0
    for ring in _polynomial_rings():
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
                return False, "syzygies of %r did not take the lcm route" % (sub,)
            if not syz.equals(_solver_syzygies(sub)):
                return False, "lcm syzygies of %r differ from the solver's" % (sub,)
            rels = [_seeded_vector(rng, ring, twists, max(twists) + rng.randint(1, 3))
                    for _ in range(rng.randint(1, 3))]
            module = FPModule.from_cokernel(ring, twists, [w for w in rels if w])
            if module.presentation()._solver is not None:
                return False, "presentation of %r built a solver" % (module,)
            failure = _presentation_mismatch(module)
            if failure:
                return False, failure
            checked += 2
    quotient = quotient_ring(PolyRing(("x", "y", "z")), ["x*y - z^2"])
    terms = Submodule(quotient, 1, (0,), [parse_vec(quotient, ["x"]), parse_vec(quotient, ["z"])])
    if not terms.syzygies().equals(_solver_syzygies(terms)):
        return False, "syzygies of terms over %s differ from the solver's" % quotient.signature()
    ring = _ring()
    for module in (
        FPModule.cyclic(quotient, ("x",)),
        FPModule.from_cokernel(ring, (0, 1), [parse_vec(ring, ["x", "-1"])]),
    ):
        if module.presentation()._solver is None:
            return False, "presentation of %r skipped the solver" % (module,)
        failure = _presentation_mismatch(module)
        if failure:
            return False, failure
    return True, (
        "%d seeded syzygy modules and presentations over GF(p), Q, weights (1,2); "
        "quotient base and unit relation on the solver route" % checked
    )


def component_corpus(seed=20261019):
    """Seeded component families (label, ring, family, module, points) over
    GF(32003), Q, weights (1, 2) and the monomial quotient base
    k[x,y,z]/(y^2, xz). Each ring has a term ideal and a non-term ideal
    (r = 1), and a pair of them in an order the seed picks (r = 2); M is
    free, cyclic with non-term relations, or presented on two generators by
    one relation with a term in each. Points run to n = 3 for r = 1 and to
    (2, 1) or (1, 2) for r = 2."""
    rng = random.Random(seed)
    quotient = quotient_ring(PolyRing(("x", "y", "z")), ["y^2", "x*z"])
    rings = _polynomial_rings() + (quotient,)
    # per ring: term ideal, non-term ideal, cyclic relations, presentation column
    inputs = (
        (["x^2", "x*y"], ["x^2 + y^2", "x*y"], ("x^2 + y^2", "x*y"), ["x", "y"]),
        (["x", "y^2"], ["x^2 - x*y", "y^2"], ("x^2 - x*y", "y^2"), ["x", "y"]),
        (["x^2", "y"], ["x^2 + y", "x*y"], ("x^2 + y", "x*y"), ["y", "x^2"]),
        (["x", "z"], ["x^2 - y*z", "x*y + z^2"], ("x + z",), ["x", "z"]),
    )
    names = ("GF(p)", "Q", "weights (1,2)", "k[x,y,z]/(y^2, xz)")
    out = []
    for name, ring, (term, nonterm, cyclic, column) in zip(names, rings, inputs):
        modules = (
            ("free", FPModule.free(ring, (0,))),
            ("cyclic", FPModule.cyclic(ring, cyclic)),
            ("presented", FPModule.from_cokernel(ring, (0, 0), [parse_vec(ring, column)])),
        )
        pair = [ideal(ring, term), ideal(ring, nonterm)]
        rng.shuffle(pair)
        top = rng.choice([(2, 1), (1, 2)])
        families = (
            ("term", IdealFamily([ideal(ring, term)]), [(n,) for n in range(4)]),
            ("non-term", IdealFamily([ideal(ring, nonterm)]), [(n,) for n in range(4)]),
            ("pair", IdealFamily(pair), box_points((0, 0), top)),
        )
        for family_label, family, points in families:
            for module_label, module in modules:
                label = "%s, %s, %s" % (name, family_label, module_label)
                out.append((label, ring, family, module, points))
    return out


def _ass_keys(module):
    """Ass as sorted generator strings, or None when the Ext route refuses."""
    try:
        primes = associated_primes(module)
    except StrategyExhausted:
        return None
    return sorted(sorted(str(g.component(0)) for g in p.gens) for p in primes)


def suite_component_strands():
    """Each member I^n M of a component family agrees with the strand n cut
    from a presentation of the Rees module R(I, M) over R[y]/Q
    (graded_component): the same Hilbert series, and the same Ass wherever
    both routes answer."""
    checked = compared = 0
    for label, _ring, family, module, points in component_corpus():
        spec = FamilySpec.component(module, family)
        rees = rees_module(family, module)
        for point in points:
            member, strand = spec.member(point), graded_component(family, rees, point)
            if not member.hilbert_equal(strand):
                return False, "I^n M and the Rees strand differ at %r for %s" % (point, label)
            mine, theirs = _ass_keys(member), _ass_keys(strand)
            if mine is not None and theirs is not None:
                if mine != theirs:
                    return False, "Ass of I^n M and the Rees strand differ at %r for %s" % (
                        point, label)
                compared += 1
            checked += 1
    return True, (
        "%d strands equal the Rees route (Ass compared at %d) over GF(p), Q, weights (1,2) "
        "and k[x,y,z]/(y^2, xz)" % (checked, compared)
    )


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
    """Pass/fail matrix; returns 0 when green, 1 with the first failure named."""
    failures = []
    for name, suite in SUITES:
        if name == "route_equivalence":
            ok, detail = suite(inject_fault=inject_fault)
        else:
            ok, detail = suite()
        emit("%-28s %s  %s" % (name, "ok " if ok else "FAIL", detail))
        if not ok and not failures:
            failures.append((name, detail))
    if failures:
        emit("first failing invariant: %s (%s)" % failures[0])
        return 1
    emit("all suites green")
    return 0
