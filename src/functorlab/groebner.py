"""Groebner machinery for submodules of graded free modules.

Everything runs over the ambient polynomial ring. Quotient-ring base
relations are adjoined as generators (relation times each basis vector), so
normal forms and syzygies over R = P/I0 come out of the same Buchberger loop
that serves the polynomial case.

The engine is deliberately plain: pair selection ordered by sugar degree
(true degree, since all input is homogeneous) and the Gebauer-Moeller pair
update (criteria B, M and F; the product criterion for ideals only, since it
fails for modules). Inputs enter as given, made monic; one pass over the
finished basis makes the output canonical (monic, minimal, tail-reduced,
sorted by lead). No F4/F5.

LiftSolver is the workhorse behind syzygies, kernels, preimages, and lifts:
it tags each target with a fresh component that sorts below every main
component, so basis elements supported purely on tags spell out coefficient
relations, and division remainders spell out lifts.
"""

from __future__ import annotations

from heapq import heapify, heappop
from operator import add

from .poly import Poly, Vec
from .rings import TermOrder


def base_relation_vectors(ring, rank):
    out = []
    for rel in ring.relations:
        for c in range(rank):
            out.append(Vec.from_poly(rel, c))
    return out


def monic_lead(vec, bound, ring):
    """(lead term, vec scaled to lead coefficient one)."""
    lead, c = vec.lead(bound)
    if c == ring.one:
        return lead, vec
    return lead, vec.scale(ring.inv(c))


def make_lead_index(vectors, bound):
    idx = {}
    for i, g in enumerate(vectors):
        (c, m), _ = g.lead(bound)
        idx.setdefault(c, []).append((m, i))
    return idx


def reduce_vec(v, basis, bound, lead_index=None, track=False):
    """Full normal form of v against monic basis vectors.

    Returns (remainder, quotients); quotients is None unless track is set, in
    which case v == sum(quotients[i] * basis[i]) + remainder.
    """
    ring = v.ring
    if lead_index is None:
        lead_index = make_lead_index(basis, bound)
    work = dict(v.terms)
    rem = {}
    quots = [dict() for _ in basis] if track else None
    mono_divides = ring.mono_divides
    mono_div = ring.mono_div
    mul, sub, neg, add = ring.mul, ring.sub, ring.neg, ring.add
    while work:
        t = max(work, key=bound.term_key)
        comp, m = t
        coeff = work[t]
        hit = None
        for gm, gi in lead_index.get(comp, ()):
            if mono_divides(gm, m):
                hit = (gm, gi)
                break
        if hit is None:
            del work[t]
            rem[t] = coeff
            continue
        gm, gi = hit
        shift = mono_div(m, gm)
        for (gc, gmono), gcf in basis[gi].terms.items():
            key = (gc, tuple(a + b for a, b in zip(gmono, shift)))
            delta = mul(gcf, coeff)
            cur = work.get(key)
            val = sub(cur, delta) if cur is not None else neg(delta)
            if val:
                work[key] = val
            else:
                work.pop(key, None)
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


def interreduce(vectors, bound, ring):
    """Reduced form of a Groebner basis: monic, minimal, tail-reduced, by lead.

    The input must already be a Groebner basis of its span. The reduced
    basis is then unique, so one pass gives it: drop every element whose
    lead is a multiple of a smaller kept lead, then replace the tail of each
    survivor by its normal form against the kept set.
    """
    term_key = bound.term_key
    mono_divides = ring.mono_divides
    vs = []
    for v in vectors:
        if v:
            lead, v = monic_lead(v, bound, ring)
            vs.append((term_key(lead), lead, v))
    vs.sort(key=lambda kv: kv[0])
    kept, leads, lead_index = [], [], {}
    for _key, lead, v in vs:
        c, m = lead
        bucket = lead_index.setdefault(c, [])
        if any(mono_divides(km, m) for km, _i in bucket):
            continue
        bucket.append((m, len(kept)))
        kept.append(v)
        leads.append(lead)
    out = []
    for v, lead in zip(kept, leads):
        tail = dict(v.terms)
        del tail[lead]
        r, _ = reduce_vec(Vec(ring, tail), kept, bound, lead_index)
        terms = {lead: ring.one}
        terms.update(r.terms)
        out.append(Vec(ring, terms))
    return out


def s_vector(f, g, mf, mg, lcm, ring):
    """S-vector of monic f and g, whose leads mf and mg lie in one component
    and have least common multiple lcm."""
    sf = ring.mono_div(lcm, mf)
    sg = ring.mono_div(lcm, mg)
    terms = {(c, tuple(map(add, m, sf))): cf for (c, m), cf in f.terms.items()}
    sub, neg = ring.sub, ring.neg
    for (c, m), cf in g.terms.items():
        key = (c, tuple(map(add, m, sg)))
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

    Every new element (input or S-vector remainder) goes through the
    Gebauer-Moeller update: queued pairs fall to criterion B, the new pairs
    to criteria M and F, and for ideals coprime pairs to the product
    criterion. Elements whose lead is a multiple of the new lead stop
    forming pairs and stop serving as reducers.
    """
    mono_lcm, mono_divides, mono_degree = ring.mono_lcm, ring.mono_divides, ring.mono_degree
    G = []
    leads = []
    lead_index = {}  # component -> [(lead monomial, index)] of the live elements
    pairs = []  # heap of (sugar, i, j, component, lcm)

    def add(v):
        (c, mh), v = monic_lead(v, bound, ring)
        h = len(G)
        G.append(v)
        leads.append(mh)
        # criterion B: h divides the lcm of a queued pair and shares it with
        # neither end, so the pairs (i, h) and (j, h) cover it
        kept = [
            p for p in pairs
            if p[3] != c
            or not mono_divides(mh, p[4])
            or mono_lcm(leads[p[1]], mh) == p[4]
            or mono_lcm(leads[p[2]], mh) == p[4]
        ]
        by_lcm, live = {}, []
        for gm, g in lead_index.get(c, ()):
            by_lcm.setdefault(mono_lcm(gm, mh), []).append((gm, g))
            if not mono_divides(mh, gm):
                live.append((gm, g))
        live.append((mh, h))
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
            if rank == 1 and any(not any(a and b for a, b in zip(gm, mh)) for gm, _g in group):
                continue
            kept.append((mono_degree(lcm) + twists[c], group[0][1], h, c, lcm))
        heapify(kept)
        pairs[:] = kept

    for v in list(vectors) + base_relation_vectors(ring, rank):
        if v:
            add(v)

    while pairs:
        _, i, j, _c, lcm = heappop(pairs)
        s = s_vector(G[i], G[j], leads[i], leads[j], lcm, ring)
        if not s:
            continue
        r, _ = reduce_vec(s, G, bound, lead_index)
        if r:
            add(r)

    return interreduce([G[g] for bucket in lead_index.values() for _m, g in bucket], bound, ring)


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
    tagged basis answers both by construction.
    """

    def __init__(self, ring, rank, twists, targets, modulo=(), ring_order_kind="grevlex", elim=()):
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
        order = TermOrder(kind=ring_order_kind, elim=elim, module_kind="top")
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

    def kernel_vectors(self):
        """Coefficient vectors generating {a : sum a_i t_i in span(modulo)}."""
        rank = self.rank
        out = []
        for g in self.basis:
            if any(c < rank for (c, _m) in g.terms):
                continue
            out.append(Vec(self.ring, {(c - rank, m): cf for (c, m), cf in g.terms.items()}))
        return out

    def lift(self, v):
        """Coefficients of v over the targets, or None if not in the span."""
        r, _ = reduce_vec(v, self.basis, self.bound)
        if any(c < self.rank for (c, _m) in r.terms):
            return None
        coeff_vec = Vec(self.ring, {(c - self.rank, m): cf for (c, m), cf in r.terms.items()})
        s = len(self.targets)
        return [-p for p in coeff_vec.components(s)]

    def contains(self, v):
        return self.lift(v) is not None


def eliminate_module(vectors, *, ring, rank, twists, elim_vars):
    """Groebner basis of span(vectors) intersected with the elim-free part.

    Returns (full_basis, free_basis) where free_basis are the elements with no
    occurrence of the eliminated variables; they generate the intersection
    with the subring's free module.
    """
    order = TermOrder(kind="elim", elim=tuple(elim_vars), module_kind="top")
    bound = order.bind(ring, twists)
    gb = buchberger(vectors, ring=ring, rank=rank, twists=twists, bound=bound)
    elim_set = set(elim_vars)
    free = []
    for g in gb:
        if all(all(m[i] == 0 for i in elim_set) for (_c, m) in g.terms):
            free.append(g)
    return gb, free
