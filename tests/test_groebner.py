"""Groebner kernel: bases, normal forms, syzygies, lifts, elimination.

Expected bases here were worked out by hand (the examples are small enough to
reduce on paper) and are frozen as canonical string forms. The oracle tests
at the end compare buchberger with a plain reference Buchberger (every pair,
no criteria, fixpoint interreduction) on seeded random homogeneous input,
given as generated and given in descending degree with multiples of earlier
generators mixed in, so the degree-ordered input queue has work to do.
Term-only input, which skips the loop, is compared with the same reference.
The heap reduce_vec is compared with the max-scan division it replaced.
"""

import heapq
import random

import pytest

from functorlab import groebner
from functorlab.groebner import (
    LiftSolver,
    base_relation_vectors,
    buchberger,
    eliminate_module,
    monic_lead,
    reduce_vec,
    s_vector,
)
from functorlab.oracles import monomials_of_degree
from functorlab.poly import Poly, Vec, parse_poly, parse_vec, quotient_ring
from functorlab.rings import PolyRing, TermOrder


def gb_strings(basis, rank):
    return [g.to_strings(rank) for g in basis]


def ring_xy(char=32003):
    return PolyRing(("x", "y"), char=char)


def test_buchberger_linear_pair_reduces_to_variables():
    R = ring_xy()
    bound = TermOrder().bind(R, (0,))
    vecs = [Vec.from_poly(parse_poly(R, s)) for s in ("x+y", "x-y")]
    basis = buchberger(vecs, ring=R, rank=1, twists=(0,), bound=bound)
    assert gb_strings(basis, 1) == [["y"], ["x"]]


def test_buchberger_lex_circle_hyperbola():
    # lex with x > y: {x^2 - 1, x*y - 1} has reduced basis {y^2 - 1, x - y}
    R = PolyRing(("x", "y"), char=0)
    bound = TermOrder(kind="lex").bind(R, (0,))
    vecs = [Vec.from_poly(parse_poly(R, s)) for s in ("x^2-1", "x*y-1")]
    basis = buchberger(vecs, ring=R, rank=1, twists=(0,), bound=bound)
    assert gb_strings(basis, 1) == [["y^2 - 1"], ["x - y"]]


def test_normal_form_against_basis():
    R = PolyRing(("x", "y"), char=0)
    bound = TermOrder(kind="lex").bind(R, (0,))
    vecs = [Vec.from_poly(parse_poly(R, s)) for s in ("x^2-1", "x*y-1")]
    basis = buchberger(vecs, ring=R, rank=1, twists=(0,), bound=bound)
    r, _ = reduce_vec(Vec.from_poly(parse_poly(R, "x^2+y")), basis, bound)
    assert r.to_strings(1) == ["y + 1"]


def test_tracked_division_reassembles_input():
    R = ring_xy()
    bound = TermOrder().bind(R, (0,))
    vecs = [Vec.from_poly(parse_poly(R, s)) for s in ("x^2+y^2", "x*y")]
    basis = buchberger(vecs, ring=R, rank=1, twists=(0,), bound=bound)
    v = Vec.from_poly(parse_poly(R, "x^3 + x^2*y + y^3"))
    r, quots = reduce_vec(v, basis, bound, track=True)
    acc = r
    for q, g in zip(quots, basis):
        acc = acc + g.mul_poly(q)
    assert acc == v


def test_syzygy_of_x2_xy_is_koszul():
    R = ring_xy()
    targets = [Vec.from_poly(parse_poly(R, s)) for s in ("x^2", "x*y")]
    solver = LiftSolver(R, 1, (0,), targets)
    kern = solver.kernel_vectors()
    assert len(kern) == 1
    a, b = kern[0].components(2)
    # the module of relations is generated by (y, -x) up to a unit
    assert targets[0].mul_poly(a) + targets[1].mul_poly(b) == Vec.zero(R)
    assert a.degree() == 1 and b.degree() == 1


def test_lift_membership_and_refusal():
    R = ring_xy()
    targets = [Vec.from_poly(parse_poly(R, s)) for s in ("x^2", "x*y")]
    solver = LiftSolver(R, 1, (0,), targets)
    coeffs = solver.lift(Vec.from_poly(parse_poly(R, "x^3 + x^2*y")))
    assert coeffs is not None
    acc = Vec.zero(R)
    for c, t in zip(coeffs, targets):
        acc = acc + t.mul_poly(c)
    assert acc == Vec.from_poly(parse_poly(R, "x^3 + x^2*y"))
    assert solver.lift(Vec.from_poly(parse_poly(R, "y^2"))) is None


def test_lift_modulo_submodule():
    R = ring_xy()
    targets = [Vec.from_poly(parse_poly(R, "x"))]
    modulo = [Vec.from_poly(parse_poly(R, "y^2"))]
    solver = LiftSolver(R, 1, (0,), targets, modulo)
    # x*y is x*(y) on the nose; y^2 only lands in the span because of modulo
    assert solver.lift(Vec.from_poly(parse_poly(R, "x*y"))) is not None
    assert solver.lift(Vec.from_poly(parse_poly(R, "y^2"))) is not None
    assert solver.lift(Vec.from_poly(parse_poly(R, "y"))) is None


def test_quotient_base_relations_enter_every_computation():
    # over R = k[x,y]/(x*y), the ideal (x) contains x*y as 0, so y kills x
    P = ring_xy()
    R = quotient_ring(P, ["x*y"])
    targets = [Vec.from_poly(parse_poly(R, "x"))]
    solver = LiftSolver(R, 1, (0,), targets)
    kern = solver.kernel_vectors()
    polys = [k.component(0) for k in kern]
    assert any(str(p) == "y" for p in polys)


def test_module_groebner_distinct_components_no_pairs():
    R = ring_xy()
    bound = TermOrder().bind(R, (0, 0))
    vecs = [parse_vec(R, ["x", "y"]), parse_vec(R, ["0", "x"])]
    basis = buchberger(vecs, ring=R, rank=2, twists=(0, 0), bound=bound)
    # the basis must still contain both generators' leads
    leads = {g.lead(bound)[0] for g in basis}
    assert (0, (1, 0)) in leads
    assert (1, (1, 0)) in leads or (1, (0, 1)) in leads


def test_elimination_keeps_only_parameter_free_elements():
    # eliminate t from (x - t, y - t^2): the t-free part is (y - x^2)... with
    # weights making it homogeneous: use x deg 1, y deg 2, t deg 1.
    R = PolyRing(("t", "x", "y"), char=0, weights=(1, 1, 2))
    vecs = [
        Vec.from_poly(parse_poly(R, "x - t")),
        Vec.from_poly(parse_poly(R, "y - t^2")),
    ]
    free = eliminate_module(vecs, ring=R, rank=1, twists=(0,), elim_vars=(0,))
    assert [g.to_strings(1) for g in free] == [["x^2 - y"]]


def test_homogeneous_grevlex_basis_char_p_matches_char_0_shape():
    for char in (0, 32003):
        R = PolyRing(("x", "y", "z"), char=char)
        bound = TermOrder().bind(R, (0,))
        vecs = [
            Vec.from_poly(parse_poly(R, s))
            for s in ("x^2 - y*z", "x*y - z^2", "y^2 - x*z")
        ]
        basis = buchberger(vecs, ring=R, rank=1, twists=(0,), bound=bound)
        leads = sorted(g.lead(bound)[0][1] for g in basis)
        assert len(basis) == len(set(leads)) == len(leads)
        assert all(g.is_homogeneous((0,)) for g in basis)


def test_sugar_queue_handles_inhomogeneous_input_too():
    # the engine is used homogeneously, but plain affine input must not crash
    R = PolyRing(("x", "y"), char=0)
    bound = TermOrder(kind="lex").bind(R, (0,))
    vecs = [Vec.from_poly(parse_poly(R, s)) for s in ("x^2 + x", "x*y + 1")]
    basis = buchberger(vecs, ring=R, rank=1, twists=(0,), bound=bound)
    assert basis  # terminates with a nonempty basis


def test_inputs_covered_by_earlier_leads_form_no_pairs(monkeypatch):
    # x^3 and x^2*y reduce to zero against x^2 before they enter, and the
    # coprime pair (x^2, y^2) falls to the product criterion
    R = ring_xy()
    bound = TermOrder().bind(R, (0,))
    calls = []
    reduced = []

    def counting_s_vector(*args):
        calls.append(args)
        return s_vector(*args)

    def counting_reduce_vec(v, *args, **kwargs):
        reduced.append(v)
        return reduce_vec(v, *args, **kwargs)

    monkeypatch.setattr(groebner, "reduce_vec", counting_reduce_vec)
    monkeypatch.setattr(groebner, "s_vector", counting_s_vector)
    # the binomial x^3 + x^2*y keeps the input off the all-terms shortcut, so
    # the loop runs; it too reduces to zero against x^2
    texts = ("x^2", "x^3", "x^2*y", "y^2", "x^3 + x^2*y")
    vecs = [Vec.from_poly(parse_poly(R, s)) for s in texts]
    basis = buchberger(vecs, ring=R, rank=1, twists=(0,), bound=bound)
    assert gb_strings(basis, 1) == [["y^2"], ["x^2"]]
    assert len(calls) == 0
    # every input went through the queue and was reduced before entering
    assert all(any(r is v for r in reduced) for v in vecs)


# -- oracle: the reference algorithm --------------------------------------


def _reference_interreduce(vectors, bound, ring):
    """Fixpoint auto-reduction: reduce each element by all the others until
    nothing changes."""
    vs = [monic_lead(v, bound, ring)[1] for v in vectors if v]
    changed = True
    while changed:
        changed = False
        for i in range(len(vs)):
            others = vs[:i] + vs[i + 1:]
            if not others:
                continue
            r, _ = reduce_vec(vs[i], others, bound)
            if r != vs[i]:
                changed = True
                if r:
                    vs[i] = monic_lead(r, bound, ring)[1]
                else:
                    del vs[i]
                break
    vs.sort(key=lambda v: bound.term_key(v.lead(bound)[0]))
    return vs


def reference_buchberger(vectors, *, ring, rank, twists, bound):
    """Buchberger's algorithm with no pair criterion at all, pairs taken by
    ascending lcm degree."""
    G = _reference_interreduce(list(vectors) + base_relation_vectors(ring, rank), bound, ring)
    pairs = []

    def push_pairs(j):
        cj, mj = G[j].lead(bound)[0]
        for i in range(j):
            ci, mi = G[i].lead(bound)[0]
            if ci == cj:
                heapq.heappush(pairs, (ring.mono_degree(ring.mono_lcm(mi, mj)) + twists[cj], i, j))

    for j in range(len(G)):
        push_pairs(j)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        mi, mj = G[i].lead(bound)[0][1], G[j].lead(bound)[0][1]
        s = s_vector(G[i], G[j], mi, mj, ring.mono_lcm(mi, mj), ring)
        r, _ = reduce_vec(s, G, bound)
        if r:
            G.append(monic_lead(r, bound, ring)[1])
            push_pairs(len(G) - 1)
    return _reference_interreduce(G, bound, ring)


def random_vectors(rng, ring, twists, count, degrees, terms=3):
    """count homogeneous vectors of degrees drawn from degrees, each with up
    to terms random terms per component."""
    out = []
    while len(out) < count:
        d = rng.choice(degrees)
        items = {}
        for c, tw in enumerate(twists):
            monos = monomials_of_degree(ring, d - tw) if d >= tw else []
            if not monos or rng.random() < 0.3:
                continue
            for m in rng.sample(monos, min(terms, len(monos))):
                items[(c, m)] = ring.coeff(rng.randint(-3, 3))
        items = {t: cf for t, cf in items.items() if cf}
        if items:
            out.append(Vec(ring, items))
    return out


def assert_same_basis(got, want):
    assert [g.terms for g in got] == [w.terms for w in want]


def _grevlex(char=32003, weights=None, relations=()):
    names = ("x", "y") if weights else ("x", "y", "z")
    R = PolyRing(names, char=char, weights=weights)
    return quotient_ring(R, list(relations)) if relations else R


ORACLE_CASES = {
    # name: (ring, twists, term order, generator count, degrees)
    "rank1_gf": (lambda: _grevlex(), (0,), TermOrder(), 4, (2, 3)),
    "rank1_q": (lambda: _grevlex(char=0), (0,), TermOrder(), 3, (2, 3)),
    "rank1_weights_1_2": (lambda: _grevlex(weights=(1, 2)), (0,), TermOrder(), 4, (3, 4, 5)),
    "rank1_quotient": (lambda: _grevlex(relations=["x*y - z^2", "y^3"]), (0,), TermOrder(), 3, (2, 3)),
    "rank1_elim": (lambda: _grevlex(), (0,), TermOrder(kind="elim", elim=(0,), module_kind="top"),
                   3, (2, 3)),
    "rank2_pot": (lambda: _grevlex(), (0, 1), TermOrder(module_kind="pot"), 4, (2, 3)),
    "rank2_top_q": (lambda: _grevlex(char=0), (0, 0), TermOrder(module_kind="top"), 3, (1, 2)),
    "rank3_top": (lambda: _grevlex(), (0, 1, 1), TermOrder(module_kind="top"), 4, (2, 3)),
    "rank3_pot_quotient": (lambda: _grevlex(relations=["x^2 - y*z"]), (1, 0, 0),
                           TermOrder(module_kind="pot"), 4, (2, 3)),
}


def descending_with_multiples(rng, ring, twists, vecs):
    """vecs plus, for two of them, a variable times the vector and a variable
    times its sum with another vector of its degree, all sorted by
    descending degree (ties keep their order)."""
    out = list(vecs)
    for v in rng.sample(vecs, min(2, len(vecs))):
        var = Poly.variable(ring, rng.choice(ring.names))
        out.append(v.mul_poly(var))
        same = [u for u in vecs if u is not v and u.degree(twists) == v.degree(twists)]
        if same:
            out.append((v + rng.choice(same).scale(ring.coeff(2))).mul_poly(var))
    out.sort(key=lambda v: -v.degree(twists))
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_buchberger_matches_reference(case, seed):
    make_ring, twists, order, count, degrees = ORACLE_CASES[case]
    R = make_ring()
    rng = random.Random("%s/%d" % (case, seed))
    vecs = random_vectors(rng, R, twists, count, degrees)
    bound = order.bind(R, twists)
    rank = len(twists)
    want = reference_buchberger(vecs, ring=R, rank=rank, twists=twists, bound=bound)
    for given in (vecs, descending_with_multiples(rng, R, twists, vecs)):
        got = buchberger(given, ring=R, rank=rank, twists=twists, bound=bound)
        assert_same_basis(got, want)


def assert_lift_solver_matches_reference(R, twists, targets, modulo):
    solver = LiftSolver(R, len(twists), twists, targets, modulo)
    tags = [Vec(R, {(len(twists) + i, R.unit_mono()): R.one}) for i in range(len(targets))]
    want = reference_buchberger([t + e for t, e in zip(targets, tags)] + modulo, ring=R,
                                rank=len(twists) + len(targets), twists=solver.aug_twists,
                                bound=solver.bound)
    assert_same_basis(solver.basis, want)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("char", [0, 32003])
def test_lift_solver_tagged_basis_matches_reference(char, seed):
    R = _grevlex(char=char)
    twists = (0, 1)
    rng = random.Random("lift/%d/%d" % (char, seed))
    targets = random_vectors(rng, R, twists, 3, (2, 3), terms=2)
    modulo = random_vectors(rng, R, twists, 1, (3,), terms=2)
    assert_lift_solver_matches_reference(R, twists, targets, modulo)
    # tagged multiples of earlier targets, and modulo vectors, in descending degree
    assert_lift_solver_matches_reference(
        R, twists, descending_with_multiples(rng, R, twists, targets),
        descending_with_multiples(rng, R, twists, modulo + targets[:1]),
    )


@pytest.mark.parametrize("case", ["rank1_gf", "rank1_quotient", "rank2_pot", "rank3_top"])
def test_shuffled_and_duplicated_generators_give_identical_basis(case):
    make_ring, twists, order, count, degrees = ORACLE_CASES[case]
    R = make_ring()
    rng = random.Random("shuffle/%s" % case)
    vecs = random_vectors(rng, R, twists, count, degrees)
    bound = order.bind(R, twists)
    rank = len(twists)
    base = buchberger(vecs, ring=R, rank=rank, twists=twists, bound=bound)
    for _ in range(3):
        again = vecs + [v.scale(rng.randint(2, 9)) for v in rng.sample(vecs, 2)]
        rng.shuffle(again)
        got = buchberger(again, ring=R, rank=rank, twists=twists, bound=bound)
        assert [g.terms for g in got] == [b.terms for b in base]


# -- term-generated input: the shortcut against the reference loop --------


def random_terms(rng, ring, twists, count, degrees):
    """count single-term vectors of degrees drawn from degrees, with random
    nonzero coefficients."""
    out = []
    while len(out) < count:
        d = rng.choice(degrees)
        c = rng.randrange(len(twists))
        monos = monomials_of_degree(ring, d - twists[c])
        if monos:
            cf = ring.coeff(rng.choice([-3, -2, -1, 1, 2, 3]))
            out.append(Vec(ring, {(c, rng.choice(monos)): cf}))
    return out


TERM_CASES = {
    # name: (ring, twists, term order); the shortcut applies to all but the
    # non-monomial quotient base
    "gf": (lambda: _grevlex(), (0,), TermOrder()),
    "q": (lambda: _grevlex(char=0), (0,), TermOrder()),
    "weights_1_2": (lambda: _grevlex(weights=(1, 2)), (0,), TermOrder()),
    "elim": (lambda: _grevlex(), (0,), TermOrder(kind="elim", elim=(0,), module_kind="top")),
    "rank2_pot": (lambda: _grevlex(), (0, 1), TermOrder(module_kind="pot")),
    "rank3_top": (lambda: _grevlex(char=0), (0, 1, 1), TermOrder(module_kind="top")),
    "lex_top": (lambda: _grevlex(char=0), (1, 0), TermOrder(kind="lex", module_kind="top")),
    "monomial_quotient": (lambda: _grevlex(relations=["y^3", "x*z"]), (0,), TermOrder()),
    "rank1_quotient": (lambda: _grevlex(relations=["x*y - z^2"]), (0,), TermOrder()),
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(TERM_CASES))
def test_term_input_basis_matches_reference(case, seed, monkeypatch):
    make_ring, twists, order = TERM_CASES[case]
    R = make_ring()
    rng = random.Random("terms/%s/%d" % (case, seed))
    vecs = random_terms(rng, R, twists, 5, (2, 3, 4))
    bound = order.bind(R, twists)
    rank = len(twists)
    want = reference_buchberger(vecs, ring=R, rank=rank, twists=twists, bound=bound)
    reduced = []

    def counting_reduce_vec(*args, **kwargs):
        reduced.append(args)
        return reduce_vec(*args, **kwargs)

    monkeypatch.setattr(groebner, "reduce_vec", counting_reduce_vec)
    # as generated; then shuffled with rescaled copies and variable multiples
    again = vecs + [v.scale(R.coeff(rng.choice([-1, 5]))) for v in vecs[:2]]
    again += [v.mul_poly(Poly.variable(R, rng.choice(R.names))) for v in vecs[2:4]]
    rng.shuffle(again)
    for given in (vecs, again):
        reduced.clear()
        got = buchberger(given, ring=R, rank=rank, twists=twists, bound=bound)
        assert_same_basis(got, want)
        # the pair loop runs only where a base relation is not a term
        assert bool(reduced) == (case == "rank1_quotient")


# -- oracle: heap reduction against the scan it replaced -------------------------


def scan_reduce(v, basis, bound):
    """Full normal form by the lead scan: take the largest remaining term,
    divide by the first basis element whose lead divides it."""
    ring = v.ring
    leads = [g.lead(bound)[0] for g in basis]
    work, rem = dict(v.terms), {}
    while work:
        t = max(work, key=bound.term_key)
        coeff = work.pop(t)
        for (gc, gm), g in zip(leads, basis):
            if gc == t[0] and ring.mono_divides(gm, t[1]):
                shift = ring.mono_div(t[1], gm)
                for (c, m), cf in g.terms.items():
                    if (c, m) == (gc, gm):
                        continue
                    s = (c, tuple(a + b for a, b in zip(m, shift)))
                    val = ring.sub(work.get(s, ring.zero), ring.mul(cf, coeff))
                    if val:
                        work[s] = val
                    else:
                        work.pop(s, None)
                break
        else:
            rem[t] = coeff
    return Vec(ring, rem)


REDUCE_CASES = {
    # name: (ring, twists, term order, blocks)
    "gf": (lambda: _grevlex(), (0,), TermOrder(), None),
    "q": (lambda: _grevlex(char=0), (0,), TermOrder(), None),
    "quotient": (lambda: _grevlex(relations=["x*y - z^2", "y^3"]), (0,), TermOrder(), None),
    # the LiftSolver shape: term over position, main components in block 1
    "top_blocks": (lambda: _grevlex(), (0, 1, 2, 2), TermOrder(module_kind="top"), (1, 1, 0, 0)),
    "top_blocks_elim_q": (lambda: _grevlex(char=0), (1, 0, 1),
                          TermOrder(kind="elim", elim=(1,), module_kind="top"), (1, 0, 0)),
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(REDUCE_CASES))
def test_heap_reduction_matches_the_scan_and_reassembles(case, seed):
    make_ring, twists, order, blocks = REDUCE_CASES[case]
    R = make_ring()
    rng = random.Random("reduce/%s/%d" % (case, seed))
    bound = order.bind(R, twists, blocks)
    rank = len(twists)
    gens = random_vectors(rng, R, twists, 4, (2, 3))
    basis = buchberger(gens, ring=R, rank=rank, twists=twists, bound=bound)
    vs = random_vectors(rng, R, twists, 6, (3, 4, 5), terms=4)
    # and members of the span plus a remainder
    vs += [g.mul_poly(Poly.variable(R, rng.choice(R.names))) + vs[0] for g in gens[:2]]
    for v in vs:
        r, quots = reduce_vec(v, basis, bound, track=True)
        assert r == scan_reduce(v, basis, bound)
        acc = r
        for q, g in zip(quots, basis):
            acc = acc + g.mul_poly(q)
        assert acc == v
        assert reduce_vec(v, basis, bound)[0] == r
