"""Submodules of twisted free modules, with the ideal algebra built on top.

A Submodule is span(gens) inside R^rank with generator twists; over a
quotient base R = P/I0 it implicitly contains I0*R^rank, so membership,
intersections, colons, and syzygies are all relative to the quotient. Ideals
are the rank-1, twist-0 case.

Every submodule uses one term order, GREVLEX (graded reverse lex, position
over term): the invariants the lab reports do not depend on it. Other
orders exist only at the Groebner level (TermOrder.bind for buchberger,
LiftSolver and eliminate_module).

Groebner bases are computed lazily and canonicalized (monic, auto-reduced,
sorted), so module equality is literal equality of canonical bases, and
the lead index of the basis (groebner.make_lead_index) is built once for
every normal_form and lead_monomials call. A module spanned by terms
(groebner.spans_terms) gets its basis straight from its minimal terms,
which costs less than a cache lookup, and so does the whole ambient
module, whose basis is its unit vectors over any base. The Submodule is
the one owner of its basis within a process; every other basis also goes
through the content-addressed disk cache when one is set.

On term input (self and the other side both spanned by terms) colon,
colon_module and intersect are exponent arithmetic on the per-component
minimal monomials: (I : x^u) is generated by the m / gcd(m, x^u), and
I cap J by the pairwise lcms (Cox-Little-O'Shea, Ideals, Varieties, and
Algorithms, 2.4 and 4.4). Every other input goes through one LiftSolver.
So do syzygies, except those of single terms over a polynomial base,
which are the pairwise lcm syzygies (Eisenbud, Commutative Algebra,
Lemma 15.1), pruned on the lcm lattice to minimal generators with no
Buchberger loop. minimal_generators of terms modulo terms runs none
either: a candidate is kept unless a modulo term, a base-relation term or
an earlier kept term of its component divides it.

On the term path each monomial set is minimised once. A product keeps
the minimal exponent sums (term_basis) and builds a vector only for
those; over a polynomial base they are its basis, set as it is built, and
so are the minimal monomials of a colon or an intersection
(_term_submodule). The leads of a basis are read as they are, since a
reduced basis's leads are already minimal: by lead_monomials, by the
Hilbert numerator, and by the meets of the next colon. canonical() hands
back a module whose generators already are its basis.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, is_, le

from . import cache
from .errors import ContractViolation, HomogeneityError
from .groebner import (
    LiftSolver,
    _run,
    base_relation_terms,
    base_relation_vectors,
    buchberger,
    make_lead_index,
    reduce_vec,
    spans_terms,
    term_basis,
)
from .hilbert import minimal_monomials, monomial_colon
from .poly import Vec, parse_poly, parse_vec
from .rings import GREVLEX


# -- Groebner cache entries ---------------------------------------------------
#
# A vector is stored as its term rows [component, e_1..e_n, coeff]: coeff is
# an int in [1, p) over GF(p) and str(Fraction) over Q. Cache keys are built
# from the same rows, sorted, so they do not depend on generator order.


def _term_rows(v):
    if v.ring.char:
        return [[c, *m, cf] for (c, m), cf in v.terms.items()]
    return [[c, *m, str(cf)] for (c, m), cf in v.terms.items()]


def _basis_from_rows(ring, twists, vectors):
    """Vecs from the term rows of a cache entry; ValueError on any malformed
    row, and on a basis that is not reduced in its leads: they must be
    sorted by term_key (strictly, as every basis here is), and no lead may
    divide a later one in its component. Numerators read the leads as the
    minimal generators of the lead module, so a cached basis that breaks
    this would give wrong lengths."""
    if type(vectors) is not list:
        raise ValueError("basis is not a list")
    rank, bound = len(twists), GREVLEX.bind(ring, twists)
    width = ring.nvars + 2
    char = ring.char
    out = []
    for rows in vectors:
        if type(rows) is not list or not rows:
            raise ValueError("basis vector is not a nonempty list")
        terms = {}
        for row in rows:
            if type(row) is not list or len(row) != width:
                raise ValueError("term row of the wrong shape")
            c, *mono, cf = row
            if type(c) is not int or not 0 <= c < rank:
                raise ValueError("component outside the ambient module")
            if any(type(e) is not int or e < 0 for e in mono):
                raise ValueError("exponent is not a nonnegative int")
            terms[(c, tuple(mono))] = _coefficient(char, cf)
        if len(terms) != len(rows):
            raise ValueError("repeated term in a basis vector")
        out.append(Vec(ring, terms))
    leads = [g.lead(bound)[0] for g in out]
    keys = [bound.term_key(t) for t in leads]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise ValueError("leads not sorted by term key")
    for i, (c, m) in enumerate(leads):
        if any(d == c and ring.mono_divides(p, m) for d, p in leads[:i]):
            raise ValueError("a lead divides another lead")
    return out


def _coefficient(char, cf):
    """The field element a term row stores; ValueError unless nonzero and canonical."""
    if char:
        if type(cf) is not int or not 0 < cf < char:
            raise ValueError("coefficient outside GF(%d)^*" % char)
        return cf
    if type(cf) is not str:
        raise ValueError("rational coefficient is not a string")
    try:
        value = Fraction(cf)
    except (ValueError, ZeroDivisionError):
        raise ValueError("unreadable rational coefficient %r" % cf) from None
    if not value or str(value) != cf:
        raise ValueError("rational coefficient %r is zero or not canonical" % cf)
    return value


# -- term kernels ---------------------------------------------------------------


def _term_meet(ring, colons):
    """Minimal monomials of the intersection of the monomial ideals (I : x^u)
    over colons, a nonempty list of (minimal monomials of I, u).

    (I : x^u) is generated by the m / gcd(m, x^u), and an intersection by
    the pairwise lcms; each meet is pruned before the next one is formed.
    """
    meet = None
    for monos, u in colons:
        part = monomial_colon(ring, monos, u)
        if meet is None:
            meet = part
        else:
            meet = minimal_monomials(ring, [ring.mono_lcm(a, b) for a in meet for b in part])
    return meet


def _lcm_syzygies(ring, gens):
    """The pairwise lcm syzygies of the single-term vectors gens: for i < j
    with both terms in one component, (m / t_i) e_i - (m / t_j) e_j, t the
    terms with their coefficients and m the lcm of their monomials."""
    terms = [next(iter(g.terms.items())) for g in gens]
    out = []
    for i, ((ci, mi), fi) in enumerate(terms):
        for j in range(i + 1, len(terms)):
            (cj, mj), fj = terms[j]
            if ci == cj:
                lcm = ring.mono_lcm(mi, mj)
                out.append(Vec(ring, {
                    (i, ring.mono_div(lcm, mi)): ring.inv(fi),
                    (j, ring.mono_div(lcm, mj)): ring.neg(ring.inv(fj)),
                }))
    return out


def _minimal_lcm_syzygies(ring, gens, degs):
    """The lcm syzygies of the single-term vectors gens that
    minimal_generators keeps, in candidate_key order, with no Buchberger
    loop. The syzygy of a pair i, j of component c lives in the multidegree
    (c, L), L the lcm of their monomials. There, modulo the syzygies of
    lower degree (those whose lcm strictly divides L; the weights are
    positive), it is u_i - u_j, u_k the unit-scaled basis vector of each
    term k of component c dividing L. So it lies in the span of the
    candidates before it exactly when i and j are joined by the pairs whose
    lcm strictly divides L and the pairs of lcm L kept before it: a
    spanning forest per multidegree, grown in candidate order."""
    terms = [next(iter(g.terms)) for g in gens]
    forests = {}  # (c, L) -> union-find parents over the terms dividing L
    kept = []
    for v in sorted(_lcm_syzygies(ring, gens), key=candidate_key(degs, len(gens))):
        (i, _), (j, _) = sorted(v.terms)
        c = terms[i][0]
        lcm = ring.mono_lcm(terms[i][1], terms[j][1])
        parent = forests.get((c, lcm))
        if parent is None:
            below = [k for k, (ck, m) in enumerate(terms) if ck == c and all(map(le, m, lcm))]
            parent = forests[(c, lcm)] = {k: k for k in below}
            for a in below:
                for b in below:
                    if a < b and ring.mono_lcm(terms[a][1], terms[b][1]) != lcm:
                        parent[_root(parent, a)] = _root(parent, b)
        ri, rj = _root(parent, i), _root(parent, j)
        if ri != rj:
            parent[ri] = rj
            kept.append(v)
    return kept


def _root(parent, k):
    while parent[k] != k:
        k = parent[k]
    return k


def _keep_terms(candidates, fixed):
    """The single-term candidates, in order, that no (component, monomial)
    term of fixed and no earlier kept candidate of the same component
    divides."""
    held = {}
    for c, m in fixed:
        held.setdefault(c, []).append(m)
    kept = []
    for g in candidates:
        (c, m), = g.terms
        monos = held.setdefault(c, [])
        if not any(all(map(le, p, m)) for p in monos):
            monos.append(m)
            kept.append(g)
    return kept


def candidate_key(twists, rank):
    """The order in which minimal_generators takes its candidates, and so
    returns the ones it keeps: by degree under twists, then by text."""
    return lambda g: (g.degree(twists), str(g.to_strings(rank)))


def _term_submodule(ring, twists, per_component):
    """The submodule spanned by the monomials per_component[c] in component
    c, each list minimal under divisibility (as _term_meet returns it).
    Over a polynomial base those terms, sorted by term_key, are the reduced
    basis, so it comes preset."""
    terms = [(c, m) for c, monos in enumerate(per_component) for m in monos]
    if not ring.relations:
        terms.sort(key=GREVLEX.bind(ring, twists).term_key)
    one = ring.one
    out = Submodule(ring, len(twists), twists, [Vec(ring, {t: one}) for t in terms], check=False)
    if not ring.relations:
        out._gb = list(out.gens)
    return out


class Submodule:
    __slots__ = ("ring", "rank", "twists", "gens", "_bound", "_gb", "_leads", "_minimal")

    def __init__(self, ring, rank, twists, gens, check=True):
        self.ring = ring
        self.rank = rank
        self.twists = tuple(twists)
        if len(self.twists) != rank:
            raise ContractViolation("need one twist per ambient component")
        self.gens = tuple(filter(None, gens))  # zero vectors are falsy
        if check:
            for g in self.gens:
                if not g.is_homogeneous(self.twists):
                    raise HomogeneityError(
                        "inhomogeneous generator %r under twists %r" % (g, self.twists)
                    )
        self._bound = None
        self._gb = None
        self._leads = None
        self._minimal = False  # gens are their own minimal generators, in order

    # -- plumbing --------------------------------------------------------

    @property
    def bound(self):
        if self._bound is None:
            self._bound = GREVLEX.bind(self.ring, self.twists)
        return self._bound

    def _same_ambient(self, other):
        if (
            self.ring != other.ring
            or self.rank != other.rank
            or self.twists != other.twists
        ):
            raise ContractViolation("submodules live in different ambient modules")

    def groebner(self):
        """The reduced Groebner basis, computed once or read from the cache.

        A module spanned by terms takes its minimal terms (term_basis) and
        never touches the cache; nor does one with a unit term in every
        component, the whole ambient module, whose reduced basis over any
        base is its unit vectors. Otherwise, with the cache off (no
        directory) no key is built. A cache entry holds each basis vector
        as its term rows (see _term_rows); a hit decodes straight into Vec
        terms, and a malformed entry, or one whose leads are not those of a
        reduced basis (_basis_from_rows), counts as corrupt and is
        recomputed.
        """
        if self._gb is not None:
            return self._gb
        ring, rank = self.ring, self.rank
        if spans_terms(self.gens, ring):
            terms = [t for g in self.gens for t in g.terms] + base_relation_terms(ring, rank)
            self._gb = term_basis(terms, self.bound, ring)
            return self._gb
        units = {c for g in self.gens if len(g.terms) == 1 for c, m in g.terms if not any(m)}
        if len(units) == rank:
            unit = ring.unit_mono()
            self._gb = term_basis([(c, unit) for c in range(rank)], self.bound, ring)
            return self._gb
        store = cache.active_cache()
        key = None
        if store.directory:
            key = store.key(
                "gb/2",
                self.ring.signature(),
                GREVLEX.signature(),
                list(self.twists),
                self.rank,
                sorted(sorted(_term_rows(g)) for g in self.gens),
            )
            self._gb = store.get(key, lambda rows: _basis_from_rows(self.ring, self.twists, rows))
        if self._gb is None:
            self._gb = buchberger(
                self.gens, ring=self.ring, rank=self.rank, twists=self.twists, bound=self.bound
            )
            if key is not None:
                store.put(key, [_term_rows(g) for g in self._gb])
        return self._gb

    def lead_index(self):
        """make_lead_index of the basis, built once."""
        if self._leads is None:
            self._leads = make_lead_index(self.groebner(), self.bound)
        return self._leads

    # -- membership ------------------------------------------------------

    def normal_form(self, v):
        r, _ = reduce_vec(v, self.groebner(), self.bound, self.lead_index())
        return r

    def contains(self, v):
        return not self.normal_form(v)

    def contains_all(self, vectors):
        return all(self.contains(v) for v in vectors)

    def is_zero(self):
        return not self.groebner()

    def equals(self, other):
        self._same_ambient(other)
        return self.groebner() == other.groebner()

    def contains_submodule(self, other):
        self._same_ambient(other)
        return self.contains_all(other.gens)

    def lead_monomials(self):
        """Per component, the lead monomials of the basis, in basis order:
        the minimal generators of the lead module, since the basis is
        reduced. Read off the lead index when it exists, else off the basis
        itself, where a single-term vector's term is its lead."""
        if self._leads is not None:
            return [[entry[0] for entry in self._leads.get(c, ())] for c in range(self.rank)]
        out = [[] for _ in range(self.rank)]
        bound = self.bound
        for g in self.groebner():
            if len(g.terms) == 1:
                (c, m), = g.terms
            else:
                (c, m), _ = g.lead(bound)
            out[c].append(m)
        return out

    def canonical(self):
        """Same module, generated by its canonical Groebner basis: self when
        its generators already are that basis, element for element."""
        basis = self.groebner()
        if len(basis) == len(self.gens) and all(map(is_, basis, self.gens)):
            return self
        out = Submodule(self.ring, self.rank, self.twists, basis, check=False)
        out._gb = list(out.gens)
        return out

    def blocks(self, block_twists):
        """len(block_twists) copies of self in as many copies of its ambient
        module, copy i at component offset i*rank and twisted by
        block_twists[i].

        A basis self already has is carried over, not computed again: the
        basis of the copies is the union of the shifted bases, sorted by the
        new bound's term_key, since reduction never crosses components and
        within one copy the order is self's, shifted by a constant twist.
        """
        twists = [t + s for s in block_twists for t in self.twists]
        offsets = [i * self.rank for i in range(len(block_twists))]
        gens = [g.shifted(off) for off in offsets for g in self.gens]
        out = Submodule(self.ring, len(twists), twists, gens, check=False)
        if self._gb is not None:
            bound = out.bound
            basis = [g.shifted(off) for off in offsets for g in self._gb]
            basis.sort(key=lambda g: bound.term_key(g.lead(bound)[0]))
            out._gb = basis
        return out

    # -- lattice and transporter operations --------------------------------

    def plus(self, other):
        """self + other; a side without generators adds nothing, so the
        other side comes back as it is, with the basis it has."""
        self._same_ambient(other)
        if not other.gens:
            return self
        if not self.gens:
            return other
        return Submodule(
            self.ring, self.rank, self.twists, self.gens + other.gens, check=False
        )

    def intersect(self, other):
        """self cap other, read off one kernel.

        The kernel of R^s -> F / other, e_i -> gens[i], holds the
        coefficient vectors a with sum a_i gens[i] in other; those sums
        generate the intersection. When both sides are spanned by terms it
        is, per component, the pairwise lcms of their minimal monomials.
        """
        self._same_ambient(other)
        if spans_terms(self.gens + other.gens, self.ring):
            zero = self.ring.unit_mono()
            meets = [
                _term_meet(self.ring, [(mine, zero), (theirs, zero)])
                for mine, theirs in zip(self.lead_monomials(), other.lead_monomials())
            ]
            return _term_submodule(self.ring, self.twists, meets)
        mine = list(self.gens)
        solver = LiftSolver(self.ring, self.rank, self.twists, mine, list(other.gens))
        out = []
        for k in solver.kernel_vectors():
            acc = Vec.zero(self.ring)
            for i, g in enumerate(mine):
                coeff = k.component(i)
                if coeff:
                    acc = acc + g.mul_poly(coeff)
            if acc:
                out.append(acc)
        return Submodule(self.ring, self.rank, self.twists, out, check=False)

    def _block_solver(self, degrees, targets):
        """LiftSolver into len(degrees) copies of the ambient module, copy j
        twisted down by degrees[j], with self in every copy as the modulus."""
        rank = self.rank
        twists = [t - d for d in degrees for t in self.twists]
        modulo = [g.shifted(j * rank) for j in range(len(degrees)) for g in self.gens]
        return LiftSolver(self.ring, rank * len(degrees), twists, targets, modulo)

    def colon(self, vectors_or_sub):
        """(self : V) = {r in R : r*V inside self}, an ideal.

        For V = v_1..v_k this is one kernel: the r with r*(v_1, ..., v_k)
        in the sum of k copies of self, inside k copies of the ambient
        module, copy i twisted down by deg v_i so the one target has
        degree 0. When self and V are spanned by terms it is the
        intersection over v = c x^u e_j of (S_j : x^u), S_j the
        component-j monomial ideal of self.
        """
        if isinstance(vectors_or_sub, Submodule):
            self._same_ambient(vectors_or_sub)
            vectors = list(vectors_or_sub.gens)
        else:
            vectors = [v for v in vectors_or_sub if v]
        if not vectors:
            return unit_ideal(self.ring)
        if spans_terms(self.gens + tuple(vectors), self.ring):
            minimal = self.lead_monomials()
            meet = _term_meet(self.ring, [(minimal[j], u) for v in vectors for j, u in v.terms])
            return _term_submodule(self.ring, (0,), [meet]).canonical()
        rank = self.rank
        target = Vec(
            self.ring,
            {(c + i * rank, m): cf for i, v in enumerate(vectors) for (c, m), cf in v.terms.items()},
        )
        solver = self._block_solver([v.degree(self.twists) for v in vectors], [target])
        gens = solver.kernel_vectors()
        return Submodule(self.ring, 1, (0,), gens, check=False).canonical()

    def colon_module(self, polys):
        """(self :_F J) = {v in the ambient : p*v inside self for all p in J}.

        For J = (q_1..q_m) this is one kernel: the v with
        (q_1 v, ..., q_m v) in the sum of m copies of self, read off one
        target (q_1 e_c, ..., q_m e_c) per ambient component c, with copy j
        of the ambient module twisted down by deg q_j. When self and J are
        spanned by terms it is, in each component c, the intersection over
        q = x^w of (S_c : x^w).
        """
        polys = [q for q in polys if q]
        if not polys:
            whole = [Vec.unit(self.ring, c) for c in range(self.rank)]
            return Submodule(self.ring, self.rank, self.twists, whole, check=False)
        if spans_terms(self.gens + tuple(polys), self.ring):
            exponents = [w for q in polys for w in q.terms]
            meets = [_term_meet(self.ring, [(monos, w) for w in exponents])
                     for monos in self.lead_monomials()]
            return _term_submodule(self.ring, self.twists, meets)
        rank = self.rank
        targets = [
            Vec(
                self.ring,
                {(c + j * rank, m): cf for j, q in enumerate(polys) for m, cf in q.terms.items()},
            )
            for c in range(rank)
        ]
        solver = self._block_solver([q.degree() for q in polys], targets)
        return Submodule(
            self.ring, self.rank, self.twists, solver.kernel_vectors(), check=False
        )

    def syzygies(self):
        """Coefficient relations among gens: a submodule of R^len(gens).

        When every generator is a single term and the base is a polynomial
        ring, the syzygies are generated by the pairwise lcm syzygies
        (m_ij / g_i) e_i - (m_ij / g_j) e_j, m_ij the lcm of two terms in
        one component (Eisenbud, Commutative Algebra, Lemma 15.1). They come
        pruned on the lcm lattice to the ones minimal_generators would keep
        (_minimal_lcm_syzygies), which it then hands back as they are.
        Every other input goes through one LiftSolver.
        """
        ring, gens = self.ring, self.gens
        degs = self.gen_degrees()
        if not ring.relations and all(len(g.terms) == 1 for g in gens):
            out = Submodule(ring, len(gens), degs, _minimal_lcm_syzygies(ring, gens, degs),
                            check=False)
            out._minimal = True
            return out
        solver = LiftSolver(ring, self.rank, self.twists, list(gens))
        return Submodule(ring, len(gens), degs, solver.kernel_vectors(), check=False)

    def multiply_ideal(self, ideal):
        """Product submodule ideal * self (ideal: rank 1, twist 0).

        When both sides are generated by terms, the product is generated by
        its minimal term products (term_basis of the exponent sums); else by
        every product of a generator of ideal with one of self. Over a
        polynomial base those minimal products are already the product's
        reduced basis, so it comes preset. When self is R itself (rank 1,
        generated by the unit vector) the product is ideal, with ideal's
        basis: ideal itself when the twists agree too.
        """
        if ideal.rank != 1 or ideal.ring != self.ring:
            raise ContractViolation("multiplier must be an ideal over the same ring")
        ring = self.ring
        if self.rank == 1 and self.gens == (Vec.unit(ring, 0),):
            if self.twists == ideal.twists:
                return ideal
            out = Submodule(ring, 1, self.twists, ideal.gens, check=False)
            out._gb = ideal._gb
            return out
        if not all(len(g.terms) == 1 for g in self.gens + ideal.gens):
            gens = [g.mul_poly(p.component(0)) for p in ideal.gens for g in self.gens]
            return Submodule(ring, self.rank, self.twists, gens, check=False)
        exponents = [e for p in ideal.gens for (_z, e) in p.terms]
        terms = [t for g in self.gens for t in g.terms]
        sums = [(c, tuple(map(add, m, e))) for e in exponents for c, m in terms]
        gens = term_basis(sums, self.bound, ring)
        out = Submodule(ring, self.rank, self.twists, gens, check=False)
        if not ring.relations:
            out._gb = gens
        return out

    def gen_degrees(self):
        return tuple(g.degree(self.twists) for g in self.gens)

    def candidates(self, modulo=()):
        """gens in candidate_key order, the order minimal_generators takes
        them in. Every generator and every modulo vector must be
        homogeneous; else ContractViolation."""
        for v in self.gens + tuple(modulo):
            if not v.is_homogeneous(self.twists):
                raise ContractViolation("minimal generators need homogeneous input, got %r" % v)
        return sorted(self.gens, key=candidate_key(self.twists, self.rank))

    def minimal_generators(self, modulo=()):
        """A subset of gens minimally generating (self + span(modulo)) / span(modulo).

        modulo lists vectors of the same ambient module that count as zero:
        a generator they span, alone or with other generators, is dropped.
        With modulo empty the result minimally generates self. Every
        generator and every modulo vector must be homogeneous; else
        ContractViolation.

        Graded Nakayama pruning in one Buchberger run (groebner._run):
        modulo and the base relations enter first at each degree, then the
        generators in (degree, text) order, and a generator is kept when it
        does not reduce to zero, that is, when the generators before it plus
        modulo do not span it. Since every ring here has positive weights
        (R_0 is the field), the kept ones plus modulo span self +
        span(modulo) and none of them lies in the span of the others plus
        modulo.

        Term input (spans_terms of gens and modulo) never enters the loop:
        S-vectors of terms vanish, and a term reduces to zero only by an
        entered term that divides it. So a candidate is kept unless a
        modulo term, a base-relation term or an earlier kept term of its
        component divides it, which is what the loop keeps. The lcm
        syzygies of terms (syzygies) are kept whole, in their order: they
        were pruned as they were built.
        """
        ring, rank, twists = self.ring, self.rank, self.twists
        modulo = [v for v in modulo if v]
        if self._minimal and not modulo:
            return self
        candidates = self.candidates(modulo)
        if spans_terms(self.gens + tuple(modulo), ring):
            fixed = [t for v in modulo for t in v.terms] + base_relation_terms(ring, rank)
            return Submodule(ring, rank, twists, _keep_terms(candidates, fixed), check=False)
        fixed = modulo + base_relation_vectors(ring, rank)
        inputs = fixed + candidates  # at equal degree, position puts fixed first
        _elements, entered = _run(inputs, ring=ring, rank=rank, twists=twists, bound=self.bound)
        gens = [inputs[k] for k in entered if k >= len(fixed)]
        return Submodule(ring, rank, twists, gens, check=False)

    def __repr__(self):
        body = "; ".join(",".join(g.to_strings(self.rank)) for g in self.gens)
        return "Submodule(rank=%d, gens=[%s])" % (self.rank, body)


# -- constructors ------------------------------------------------------------


def ideal(ring, generators):
    gens = [Vec.from_poly(parse_poly(ring, g)) for g in generators]
    return Submodule(ring, 1, (0,), gens)


def unit_ideal(ring):
    return Submodule(ring, 1, (0,), [Vec.unit(ring, 0)], check=False)


def zero_submodule(ring, rank, twists):
    return Submodule(ring, rank, tuple(twists), [], check=False)


def submodule(ring, rank, twists, generators):
    """generators: iterable of Vec or dense component-string lists."""
    gens = []
    for g in generators:
        gens.append(g if isinstance(g, Vec) else parse_vec(ring, g))
    return Submodule(ring, rank, tuple(twists), gens)


def is_unit_ideal(sub):
    return any(not any(m) for m in sub.lead_monomials()[0])


# -- families of ideals -------------------------------------------------------


class IdealFamily:
    """A tuple (I_1, ..., I_r) of homogeneous ideals with cached products.

    power_product(exps) returns prod_j I_j^(exps[j]) with canonical generators,
    built from its cached neighbour: power_product(exps - e_j) * I_j, j the
    last index with exps[j] > 0, so each product multiplies one basis by the
    generators of one I_j. The canonical basis does not depend on the route
    (minimal terms for term ideals, the reduced Groebner basis otherwise).
    apply(exps, target) multiplies a target submodule by that product.
    """

    def __init__(self, ideals):
        self.ideals = tuple(ideals)
        if not self.ideals:
            raise ContractViolation("need at least one ideal in the family")
        self.ring = self.ideals[0].ring
        for member in self.ideals:
            if member.rank != 1 or member.ring != self.ring:
                raise ContractViolation("family members must be ideals over one ring")
        self.is_proper = tuple(not is_unit_ideal(member) for member in self.ideals)
        self._products = {(0,) * self.r: unit_ideal(self.ring)}

    @property
    def r(self):
        return len(self.ideals)

    def power_product(self, exps):
        exps = tuple(int(n) for n in exps)
        if len(exps) != self.r or any(n < 0 for n in exps):
            raise ContractViolation("exponent vector %r does not match family" % (exps,))
        missing = []  # (exps, j) down to the nearest cached neighbour
        while exps not in self._products:
            j = max(i for i, n in enumerate(exps) if n)
            missing.append((exps, j))
            exps = exps[:j] + (exps[j] - 1,) + exps[j + 1 :]
        hit = self._products[exps]
        for exps, j in reversed(missing):
            hit = hit.multiply_ideal(self.ideals[j]).canonical()
            self._products[exps] = hit
        return hit

    def apply(self, exps, target):
        return target.multiply_ideal(self.power_product(exps))
