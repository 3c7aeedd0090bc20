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
sorted), so module equality is literal equality of canonical bases. A module
spanned by terms (groebner.spans_terms) gets its basis straight from its
minimal terms, which costs less than a cache lookup; every other basis is
memoized through the content-addressed cache.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from . import cache
from .errors import ContractViolation, HomogeneityError
from .groebner import (
    LiftSolver,
    base_relation_vectors,
    buchberger,
    reduce_vec,
    spans_terms,
    term_basis,
)
from .hilbert import leads_by_component
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


def _basis_from_rows(ring, rank, vectors):
    """Vecs from the term rows of a cache entry; ValueError on any malformed row."""
    if type(vectors) is not list:
        raise ValueError("basis is not a list")
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


class Submodule:
    __slots__ = ("ring", "rank", "twists", "gens", "_bound", "_gb")

    def __init__(self, ring, rank, twists, gens, check=True):
        self.ring = ring
        self.rank = rank
        self.twists = tuple(twists)
        if len(self.twists) != rank:
            raise ContractViolation("need one twist per ambient component")
        kept = []
        for g in gens:
            if not g:
                continue
            if check and not g.is_homogeneous(self.twists):
                raise HomogeneityError(
                    "inhomogeneous generator %r under twists %r" % (g, self.twists)
                )
            kept.append(g)
        self.gens = tuple(kept)
        self._bound = None
        self._gb = None

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
        never touches the cache. Otherwise, with the cache off no key is
        built. A cache entry holds each basis vector as its term rows (see
        _term_rows); a hit decodes straight into Vec terms, and a malformed
        entry counts as corrupt and is recomputed.
        """
        if self._gb is not None:
            return self._gb
        if spans_terms(self.gens, self.ring):
            given = list(self.gens) + base_relation_vectors(self.ring, self.rank)
            self._gb = term_basis(given, self.bound, self.ring)
            return self._gb
        store = cache.active_cache()
        key = None
        if store.enabled:
            key = store.key(
                "gb/2",
                self.ring.signature(),
                GREVLEX.signature(),
                list(self.twists),
                self.rank,
                sorted(sorted(_term_rows(g)) for g in self.gens),
            )
            self._gb = store.get(key, lambda rows: _basis_from_rows(self.ring, self.rank, rows))
        if self._gb is None:
            self._gb = buchberger(
                self.gens, ring=self.ring, rank=self.rank, twists=self.twists, bound=self.bound
            )
            if key is not None:
                store.put(key, [_term_rows(g) for g in self._gb])
        return self._gb

    # -- membership ------------------------------------------------------

    def normal_form(self, v):
        r, _ = reduce_vec(v, self.groebner(), self.bound)
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
        return leads_by_component(self.groebner(), self.bound, self.rank)

    def canonical(self):
        """Same module, generated by its canonical Groebner basis."""
        out = Submodule(
            self.ring, self.rank, self.twists, self.groebner(), check=False
        )
        out._gb = list(out.gens)
        return out

    # -- lattice and transporter operations --------------------------------

    def plus(self, other):
        self._same_ambient(other)
        return Submodule(
            self.ring, self.rank, self.twists, self.gens + other.gens, check=False
        )

    def intersect(self, other):
        """self cap other, read off one kernel.

        The kernel of R^s -> F / other, e_i -> gens[i], holds the
        coefficient vectors a with sum a_i gens[i] in other; those sums
        generate the intersection.
        """
        self._same_ambient(other)
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
        degree 0.
        """
        if isinstance(vectors_or_sub, Submodule):
            self._same_ambient(vectors_or_sub)
            vectors = list(vectors_or_sub.gens)
        else:
            vectors = [v for v in vectors_or_sub if v]
        if not vectors:
            return unit_ideal(self.ring)
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
        of the ambient module twisted down by deg q_j.
        """
        polys = [q for q in polys if q]
        if not polys:
            whole = [Vec.unit(self.ring, c) for c in range(self.rank)]
            return Submodule(self.ring, self.rank, self.twists, whole, check=False)
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
        """Coefficient relations among gens: a submodule of R^len(gens)."""
        degs = tuple(g.degree(self.twists) for g in self.gens)
        solver = LiftSolver(self.ring, self.rank, self.twists, list(self.gens))
        return Submodule(
            self.ring, len(self.gens), degs, solver.kernel_vectors(), check=False
        )

    def multiply_ideal(self, ideal):
        """Product submodule ideal * self (ideal: rank 1, twist 0).

        When both sides are generated by terms, the product is generated by
        its minimal term products (term_basis of the exponent sums); else by
        every product of a generator of ideal with one of self. Over a
        polynomial base those minimal products are already the product's
        reduced basis, so it comes preset.
        """
        if ideal.rank != 1 or ideal.ring != self.ring:
            raise ContractViolation("multiplier must be an ideal over the same ring")
        ring = self.ring
        if not all(len(g.terms) == 1 for g in self.gens + ideal.gens):
            gens = [g.mul_poly(p.component(0)) for p in ideal.gens for g in self.gens]
            return Submodule(ring, self.rank, self.twists, gens, check=False)
        products = [
            Vec(ring, {(c, tuple(map(add, m, e))): ring.one})
            for ((_z, e),) in (p.terms for p in ideal.gens)
            for ((c, m),) in (g.terms for g in self.gens)
        ]
        gens = term_basis(products, self.bound, ring)
        out = Submodule(ring, self.rank, self.twists, gens, check=False)
        if not ring.relations:
            out._gb = gens
        return out

    def minimal_generators(self, modulo=()):
        """A subset of gens minimally generating (self + span(modulo)) / span(modulo).

        modulo lists vectors of the same ambient module that count as zero:
        a generator they span, alone or with other generators, is dropped.
        With modulo empty the result minimally generates self.

        Graded Nakayama pruning: walk gens once in (degree, text) order and
        keep a generator only when the kept ones plus modulo do not span it.
        The kept ones plus modulo span self + span(modulo), and since every
        ring here has positive weights (R_0 is the field), none of them lies
        in the span of the others plus modulo. The span is rebuilt only when
        a generator is kept: one Groebner basis per kept generator, plus one
        of modulo alone.
        """
        modulo = list(modulo)
        kept = []
        span = Submodule(self.ring, self.rank, self.twists, modulo, check=False)
        for g in sorted(self.gens, key=lambda g: (g.degree(self.twists), str(g.to_strings(self.rank)))):
            if not span.contains(g):
                kept.append(g)
                span = Submodule(
                    self.ring, self.rank, self.twists, kept + modulo, check=False
                )
        return Submodule(self.ring, self.rank, self.twists, kept, check=False)

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
    for g in sub.groebner():
        (_c, m), _ = g.lead(sub.bound)
        if not any(m):
            return True
    return False


# -- families of ideals -------------------------------------------------------


class IdealFamily:
    """A tuple (I_1, ..., I_r) of homogeneous ideals with cached powers.

    power_product(exps) returns prod_j I_j^(exps[j]) with canonical generators;
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
        self._powers = {}
        self._products = {}

    @property
    def r(self):
        return len(self.ideals)

    def power(self, j, k):
        if k == 0:
            return unit_ideal(self.ring)
        hit = self._powers.get((j, k))
        if hit is None:
            hit = self.power(j, k - 1).multiply_ideal(self.ideals[j]).canonical()
            self._powers[(j, k)] = hit
        return hit

    def power_product(self, exps):
        exps = tuple(int(n) for n in exps)
        if len(exps) != self.r or any(n < 0 for n in exps):
            raise ContractViolation("exponent vector %r does not match family" % (exps,))
        hit = self._products.get(exps)
        if hit is None:
            hit = self.power(0, exps[0])
            for j in range(1, self.r):
                hit = hit.multiply_ideal(self.power(j, exps[j])).canonical()
            self._products[exps] = hit
        return hit

    def apply(self, exps, target):
        return target.multiply_ideal(self.power_product(exps))
