"""Groebner machinery for submodules of graded free modules.

Everything runs over the ambient polynomial ring. Quotient-ring base
relations are adjoined as generators (relation times each basis vector), so
normal forms and syzygies over R = P/I0 come out of the same Buchberger loop
that serves the polynomial case.

The engine is deliberately plain. One loop takes inputs and S-pairs together
in degree order (Giovini et al., "One sugar cube, please", 1991): the inputs
wait in a queue ordered by the degree of their lead, and each is reduced
against the basis so far before it enters, so an input that the basis
already covers forms no pairs. Every new element goes through the
Gebauer-Moeller pair update (criteria B, M and F; the product criterion for
ideals only, since it fails for modules), which marks the pairs it drops dead
in the pair heap instead of rebuilding it. One pass over the finished basis
makes the output canonical (monic, minimal, tail-reduced, sorted by lead).
No F4/F5.

Division (reduce_vec) pops the lead off a heap of packed term keys instead
of scanning for it, dividing by a lead index that a Submodule or LiftSolver
builds once per basis. One run of the same loop (_run) also gives
Submodule.minimal_generators: the inputs it does not reduce to zero.

Term-generated input skips the loop. When every input and every base
relation is a single term (spans_terms), the submodule is spanned by terms,
and its reduced basis is its minimal terms, made monic and sorted by lead
(Dickson's lemma; Cox-Little-O'Shea, Ideals, Varieties, and Algorithms,
2.4-2.7): term_basis returns that list, the one the loop would return,
from (component, monomial) terms, building a vector only for each term it
keeps.
Submodule.groebner asks spans_terms first, so a term module never builds a
cache key or reaches buchberger at all, and Submodule.minimal_generators
asks it too: on term input a candidate reduces to zero exactly when an
entered term divides it, so the terms it keeps are found by divisibility
with no run of _run. Nor does it run for the pairwise lcm syzygies of
terms, which Submodule.syzygies prunes on the lcm lattice as it builds
them.

LiftSolver is the workhorse behind syzygies, kernels, preimages, and lifts:
it tags each target with a fresh component that sorts below every main
component, so basis elements supported purely on tags spell out coefficient
relations, and division remainders spell out lifts.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import add as _add, le as _le, mul as _mul

from .hilbert import minimal_monomials
from .poly import Poly, Vec
from .rings import MAX_DEGREE, TermOrder, check_degree


def base_relation_vectors(ring, rank):
    out = []
    for rel in ring.relations:
        for c in range(rank):
            out.append(Vec.from_poly(rel, c))
    return out


def base_relation_terms(ring, rank):
    """The (component, monomial) terms of base_relation_vectors."""
    return [(c, m) for rel in ring.relations for m in rel.terms for c in range(rank)]


def spans_terms(vectors, ring):
    """Whether span(vectors) + I0 * R^rank is spanned by terms: every vector
    and every base relation is a single term or zero."""
    return all(len(v.terms) <= 1 for v in vectors) and all(
        len(rel.terms) <= 1 for rel in ring.relations
    )


def monic_lead(vec, bound, ring):
    """(lead term, vec scaled to lead coefficient one)."""
    lead, c = vec.lead(bound)
    if c == ring.one:
        return lead, vec
    return lead, vec.scale(ring.inv(c))


def _index_entry(lead, vec, i):
    """Lead index entry of the monic vec with lead term lead, at position i:
    (lead monomial, i, tail), tail the (component, monomial, coefficient) of
    every other term."""
    tail = tuple((c, m, cf) for (c, m), cf in vec.terms.items() if (c, m) != lead)
    return lead[1], i, tail


def make_lead_index(vectors, bound):
    """component -> [(lead monomial, position, tail)] of monic vectors, in
    order; the index reduce_vec divides by."""
    idx = {}
    for i, g in enumerate(vectors):
        lead, _ = g.lead(bound)
        idx.setdefault(lead[0], []).append(_index_entry(lead, g, i))
    return idx


def reduce_vec(v, basis, bound, lead_index=None, track=False):
    """Full normal form of v against monic basis vectors.

    Returns (remainder, quotients); quotients is None unless track is set, in
    which case v == sum(quotients[i] * basis[i]) + remainder.

    The working terms sit in a heap keyed by the negated packed term key, so
    the lead is one pop away (Monagan-Pearce, "Polynomial division using
    dynamic arrays, heaps, and packed exponent vectors", CASC 2007). A
    popped term is never produced again, since a reduction step only adds
    smaller terms; an entry whose term cancelled meanwhile is skipped. The
    lead is popped before the step, so the reducer's tail alone is added.
    """
    ring = v.ring
    if lead_index is None:
        lead_index = make_lead_index(basis, bound)
    base, coef = bound.base, bound.coef  # bound.term_key, inlined
    work = dict(v.terms)
    heap = [(-base[c] - sum(map(_mul, m, coef)), (c, m)) for c, m in work]
    heapify(heap)
    rem = {}
    quots = [dict() for _ in basis] if track else None
    mono_div, mono_degree = ring.mono_div, ring.mono_degree
    mul, sub, neg, add = ring.mul, ring.sub, ring.neg, ring.add
    while heap:
        t = heappop(heap)[1]
        coeff = work.pop(t, None)
        if coeff is None:
            continue
        comp, m = t
        if mono_degree(m) > MAX_DEGREE:
            check_degree(ring, m)  # raises
        for gm, gi, tail in lead_index.get(comp, ()):
            if all(map(_le, gm, m)):  # x^gm divides x^m
                break
        else:
            rem[t] = coeff
            continue
        shift = mono_div(m, gm)
        for gc, gmono, gcf in tail:
            mono = tuple(map(_add, gmono, shift))
            s = (gc, mono)
            delta = mul(gcf, coeff)
            cur = work.get(s)
            if cur is None:
                work[s] = neg(delta)
                heappush(heap, (-base[gc] - sum(map(_mul, mono, coef)), s))
            else:
                val = sub(cur, delta)
                if val:
                    work[s] = val
                else:
                    del work[s]
        if track:
            qd = quots[gi]
            prev = qd.get(shift)
            val = add(prev, coeff) if prev is not None else coeff
            if val:
                qd[shift] = val
            else:
                qd.pop(shift, None)
    remainder = Vec(ring, rem)
    if track:
        return remainder, [Poly(ring, q) for q in quots]
    return remainder, None


def interreduce(elements, bound, ring):
    """Reduced form of a minimal Groebner basis: tail-reduced, sorted by lead.

    elements are (lead term, monic vector) pairs of a Groebner basis of
    their span, no lead dividing another. The reduced basis is then unique,
    so one pass gives it: replace the tail of each element by its normal
    form against the others.
    """
    term_key = bound.term_key
    elements = sorted(elements, key=lambda e: term_key(e[0]))
    basis = [v for _lead, v in elements]
    lead_index = {}
    for i, (lead, v) in enumerate(elements):
        lead_index.setdefault(lead[0], []).append(_index_entry(lead, v, i))
    out = []
    for lead, v in elements:
        tail = dict(v.terms)
        del tail[lead]
        r, _ = reduce_vec(Vec(ring, tail), basis, bound, lead_index)
        terms = {lead: ring.one}
        terms.update(r.terms)
        out.append(Vec(ring, terms))
    return out


def term_basis(terms, bound, ring):
    """Reduced Groebner basis of the span of the (component, monomial)
    terms.

    Keeps, per component, the monomials that no other one divides
    (hilbert.minimal_monomials), and builds a monic vector only for each
    kept term, sorted by term_key, as interreduce sorts. Refuses
    (check_degree) a kept term too large for the packed term key.
    """
    by_component = {}
    for c, m in terms:
        by_component.setdefault(c, []).append(m)
    kept = []
    for c, monos in by_component.items():
        minimal = minimal_monomials(ring, monos)
        check_degree(ring, minimal[-1])  # the highest degree, last
        kept.extend((c, m) for m in minimal)
    kept.sort(key=bound.term_key)
    one = ring.one
    return [Vec(ring, {t: one}) for t in kept]


def s_vector(f, g, mf, mg, lcm, ring):
    """S-vector of monic f and g, whose leads mf and mg lie in one component
    and have least common multiple lcm."""
    sf = ring.mono_div(lcm, mf)
    sg = ring.mono_div(lcm, mg)
    terms = {(c, tuple(map(_add, m, sf))): cf for (c, m), cf in f.terms.items()}
    sub, neg = ring.sub, ring.neg
    for (c, m), cf in g.terms.items():
        key = (c, tuple(map(_add, m, sg)))
        cur = terms.get(key)
        if cur is None:
            terms[key] = neg(cf)
        else:
            val = sub(cur, cf)
            if val:
                terms[key] = val
            else:
                del terms[key]
    return Vec(ring, terms)


def buchberger(vectors, *, ring, rank, twists, bound):
    """Reduced Groebner basis of span(vectors) + I0 * R^rank.

    The inputs and then the base-relation vectors go through one run of
    _run; one pass of interreduce makes its basis canonical. When
    spans_terms holds, the loop is skipped: the S-vector of two terms is
    zero, so term_basis gives the basis the loop would.
    """
    if spans_terms(vectors, ring):
        terms = [t for v in vectors for t in v.terms] + base_relation_terms(ring, rank)
        return term_basis(terms, bound, ring)
    given = list(vectors) + base_relation_vectors(ring, rank)
    elements, _entered = _run(given, ring=ring, rank=rank, twists=twists, bound=bound)
    return interreduce(elements, bound, ring)


def _run(inputs, *, ring, rank, twists, bound):
    """The Buchberger loop over the vectors inputs.

    Returns (elements, entered): the (lead term, monic vector) pairs of a
    minimal Groebner basis of the inputs' span, and the positions in inputs
    of the inputs whose reduction was nonzero, in the order they entered.

    The inputs wait in one queue, ordered by the degree of their lead
    (monomial degree plus the twist of its component), then by position. The loop always takes the lowest item next: the next input if
    its degree is strictly below the sugar of the lowest queued pair, else
    that pair. An input is reduced against the live basis before it enters;
    a zero remainder adds nothing. For homogeneous inputs every pair of
    degree at most d is thus finished before an input of degree d is
    reduced, so that input reduces to zero exactly when the inputs before it
    span it (Singular's mstd; Greuel-Pfister, A Singular Introduction to
    Commutative Algebra).

    Every new element (reduced input or S-vector remainder) goes through the
    Gebauer-Moeller update. Criterion B scans only the queued pairs of the
    new lead's component and marks the ones it drops dead in place; the new
    pairs that survive criteria M and F (and, for ideals, the product
    criterion) are pushed onto the heap. Popping skips dead entries. Elements
    whose lead is a multiple of the new lead stop forming pairs and stop
    serving as reducers.
    """
    mono_lcm, mono_divides, mono_degree = ring.mono_lcm, ring.mono_divides, ring.mono_degree
    G = []  # monic elements
    leads = []  # their lead terms (component, monomial)
    lead_index = {}  # component -> index entries (see make_lead_index) of the live elements
    queued = {}  # component -> heap entries of its pairs, possibly dead
    pairs = []  # heap of [sugar, i, j, lcm]; lcm None marks a dead or popped entry

    def add(v):
        lead, v = monic_lead(v, bound, ring)
        c, mh = lead
        h = len(G)
        G.append(v)
        leads.append(lead)
        # criterion B: h divides the lcm of a queued pair and shares it with
        # neither end, so the pairs (i, h) and (j, h) cover it
        kept = []
        for p in queued.get(c, ()):
            lcm = p[3]
            if lcm is None:
                continue
            if (
                mono_divides(mh, lcm)
                and mono_lcm(leads[p[1]][1], mh) != lcm
                and mono_lcm(leads[p[2]][1], mh) != lcm
            ):
                p[3] = None
            else:
                kept.append(p)
        by_lcm, live = {}, []
        for entry in lead_index.get(c, ()):
            gm = entry[0]
            by_lcm.setdefault(mono_lcm(gm, mh), []).append(entry)
            if not mono_divides(mh, gm):
                live.append(entry)
        live.append(_index_entry(lead, v, h))
        lead_index[c] = live
        # criterion M: drop an lcm with a proper divisor among the new lcms;
        # criterion F: keep one pair per remaining lcm, none if any of them
        # is coprime (the product criterion, valid for ideals only)
        minimal = []
        for lcm in sorted(by_lcm, key=mono_degree):
            if any(mono_divides(m, lcm) for m in minimal):
                continue
            minimal.append(lcm)
            group = by_lcm[lcm]
            if rank == 1 and any(not any(a and b for a, b in zip(e[0], mh)) for e in group):
                continue
            p = [mono_degree(lcm) + twists[c], group[0][1], h, lcm]
            heappush(pairs, p)
            kept.append(p)
        queued[c] = kept

    queue = []
    for k, v in enumerate(inputs):
        if v:
            (c, m), _ = v.lead(bound)
            queue.append((mono_degree(m) + twists[c], k))
    queue.sort(reverse=True)  # lowest (degree, position) last
    entered = []

    while True:
        while pairs and pairs[0][3] is None:
            heappop(pairs)
        if queue and (not pairs or queue[-1][0] < pairs[0][0]):
            k = queue.pop()[1]
            v = inputs[k]
        elif pairs:
            k = None
            p = heappop(pairs)
            _, i, j, lcm = p
            p[3] = None
            v = s_vector(G[i], G[j], leads[i][1], leads[j][1], lcm, ring)
            if not v:
                continue
        else:
            break
        r, _ = reduce_vec(v, G, bound, lead_index)
        if r:
            add(r)
            if k is not None:
                entered.append(k)

    elements = [(leads[e[1]], G[e[1]]) for bucket in lead_index.values() for e in bucket]
    return elements, entered


class LiftSolver:
    """Coefficient kernels and lifts for a fixed target list.

    targets are vectors in R^rank (ambient twists given); modulo is a list of
    vectors whose span (plus base relations) is treated as zero. The solver
    answers two questions about the map R^s -> R^rank / span(modulo) sending
    e_i to targets[i]:

    - kernel_vectors(): generators of the kernel (coefficient vectors in R^s);
    - lift(v): coefficients a with v == sum a_i targets[i] modulo span, else
      None.

    Tag components sort strictly below main components (block order), so the
    tagged basis answers both by construction. The ring order is grevlex, or
    the elimination order for the variable indices elim when it is nonempty.
    """

    def __init__(self, ring, rank, twists, targets, modulo=(), elim=()):
        self.ring = ring
        self.rank = rank
        self.twists = tuple(twists)
        self.targets = list(targets)
        s = len(self.targets)
        tag_twists = []
        for t in self.targets:
            d = t.degree(self.twists) if t else None
            tag_twists.append(d if d is not None else 0)
        self.aug_twists = self.twists + tuple(tag_twists)
        blocks = (1,) * rank + (0,) * s
        order = TermOrder(kind="elim" if elim else "grevlex", elim=elim, module_kind="top")
        self.bound = order.bind(ring, self.aug_twists, blocks)
        aug = []
        for i, t in enumerate(self.targets):
            terms = dict(t.terms)
            terms[(rank + i, ring.unit_mono())] = ring.one
            aug.append(Vec(ring, terms))
        aug.extend(modulo)
        self.basis = buchberger(
            aug, ring=ring, rank=rank + s, twists=self.aug_twists, bound=self.bound
        )
        self.lead_index = make_lead_index(self.basis, self.bound)

    def kernel_vectors(self):
        """Coefficient vectors generating {a : sum a_i t_i in span(modulo)}."""
        rank = self.rank
        out = []
        for g in self.basis:
            if any(c < rank for (c, _m) in g.terms):
                continue
            out.append(g.shifted(-rank))
        return out

    def lift(self, v):
        """Coefficients of v over the targets, or None if not in the span."""
        r, _ = reduce_vec(v, self.basis, self.bound, self.lead_index)
        if any(c < self.rank for (c, _m) in r.terms):
            return None
        coeff_vec = r.shifted(-self.rank)
        s = len(self.targets)
        return [-p for p in coeff_vec.components(s)]


def eliminate_module(vectors, *, ring, rank, twists, elim_vars):
    """Generators of span(vectors) intersected with the elim-free part.

    These are the elements of the Groebner basis under the elimination order
    with no occurrence of the eliminated variables.
    """
    order = TermOrder(kind="elim", elim=tuple(elim_vars), module_kind="top")
    bound = order.bind(ring, twists)
    gb = buchberger(vectors, ring=ring, rank=rank, twists=twists, bound=bound)
    elim_set = set(elim_vars)
    free = []
    for g in gb:
        if all(all(m[i] == 0 for i in elim_set) for (_c, m) in g.terms):
            free.append(g)
    return free
