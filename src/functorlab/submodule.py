"""Submodules of twisted free modules, with the ideal algebra built on top.

A Submodule is span(gens) inside R^rank with generator twists; over a
quotient base R = P/I0 it implicitly contains I0*R^rank, so membership,
intersections, colons, and syzygies are all relative to the quotient. Ideals
are the rank-1, twist-0 case.

Groebner bases are computed lazily, canonicalized (monic, auto-reduced,
sorted), and memoized through the content-addressed cache, so module equality
is literal equality of canonical bases.
"""

from __future__ import annotations

from . import cache
from .errors import ContractViolation, HomogeneityError
from .groebner import LiftSolver, buchberger, reduce_vec
from .hilbert import leads_by_component
from .poly import Vec, parse_poly, parse_vec
from .rings import GREVLEX, TermOrder


def _into_block(v, offset):
    """v with every component index moved up by offset."""
    return Vec(v.ring, {(c + offset, m): cf for (c, m), cf in v.terms.items()})


class Submodule:
    __slots__ = ("ring", "rank", "twists", "order", "gens", "is_groebner", "_bound", "_gb")

    def __init__(self, ring, rank, twists, gens, order=GREVLEX, check=True):
        self.ring = ring
        self.rank = rank
        self.twists = tuple(twists)
        if len(self.twists) != rank:
            raise ContractViolation("need one twist per ambient component")
        self.order = order
        self.is_groebner = False
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
            self._bound = self.order.bind(self.ring, self.twists)
        return self._bound

    def _same_ambient(self, other):
        if (
            self.ring != other.ring
            or self.rank != other.rank
            or self.twists != other.twists
        ):
            raise ContractViolation("submodules live in different ambient modules")

    def groebner(self):
        if self._gb is not None:
            return self._gb
        store = cache.active_cache()
        key = store.key(
            "gb/1",
            self.ring.signature(),
            self.order.signature(),
            list(self.twists),
            self.rank,
            sorted(str(g.to_strings(self.rank)) for g in self.gens),
        )
        hit = store.get(key)
        if hit is not None:
            self._gb = [parse_vec(self.ring, comps) for comps in hit]
            return self._gb
        self._gb = buchberger(
            self.gens, ring=self.ring, rank=self.rank, twists=self.twists, bound=self.bound
        )
        store.put(key, [g.to_strings(self.rank) for g in self._gb])
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
        if self.order.signature() == other.order.signature():
            return self.groebner() == other.groebner()
        return self.contains_all(other.gens) and other.contains_all(self.gens)

    def contains_submodule(self, other):
        self._same_ambient(other)
        return self.contains_all(other.gens)

    def lead_monomials(self):
        return leads_by_component(self.groebner(), self.bound, self.rank)

    def canonical(self):
        """Same module, generated by its canonical Groebner basis."""
        out = Submodule(
            self.ring, self.rank, self.twists, self.groebner(), self.order, check=False
        )
        out.is_groebner = True
        out._gb = list(out.gens)
        return out

    # -- lattice and transporter operations --------------------------------

    def plus(self, other):
        self._same_ambient(other)
        return Submodule(
            self.ring, self.rank, self.twists, self.gens + other.gens, self.order, check=False
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
        return Submodule(self.ring, self.rank, self.twists, out, self.order, check=False)

    def _block_solver(self, degrees, targets):
        """LiftSolver into len(degrees) copies of the ambient module, copy j
        twisted down by degrees[j], with self in every copy as the modulus."""
        rank = self.rank
        twists = [t - d for d in degrees for t in self.twists]
        modulo = [_into_block(g, j * rank) for j in range(len(degrees)) for g in self.gens]
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
            return unit_ideal(self.ring, self.order)
        rank = self.rank
        target = Vec(
            self.ring,
            {(c + i * rank, m): cf for i, v in enumerate(vectors) for (c, m), cf in v.terms.items()},
        )
        solver = self._block_solver([v.degree(self.twists) for v in vectors], [target])
        gens = solver.kernel_vectors()
        return Submodule(self.ring, 1, (0,), gens, self.order, check=False).canonical()

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
            return Submodule(self.ring, self.rank, self.twists, whole, self.order, check=False)
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
            self.ring, self.rank, self.twists, solver.kernel_vectors(), self.order, check=False
        )

    def syzygies(self):
        """Coefficient relations among gens: a submodule of R^len(gens)."""
        degs = tuple(g.degree(self.twists) for g in self.gens)
        solver = LiftSolver(self.ring, self.rank, self.twists, list(self.gens))
        return Submodule(
            self.ring, len(self.gens), degs, solver.kernel_vectors(), self.order, check=False
        )

    def multiply_ideal(self, ideal):
        """Product submodule ideal * self (ideal: rank 1, twist 0)."""
        if ideal.rank != 1 or ideal.ring != self.ring:
            raise ContractViolation("multiplier must be an ideal over the same ring")
        gens = []
        for p in ideal.gens:
            poly = p.component(0)
            for g in self.gens:
                gens.append(g.mul_poly(poly))
        return Submodule(self.ring, self.rank, self.twists, gens, self.order, check=False)

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
        span = Submodule(self.ring, self.rank, self.twists, modulo, self.order, check=False)
        for g in sorted(self.gens, key=lambda g: (g.degree(self.twists), str(g.to_strings(self.rank)))):
            if not span.contains(g):
                kept.append(g)
                span = Submodule(
                    self.ring, self.rank, self.twists, kept + modulo, self.order, check=False
                )
        return Submodule(self.ring, self.rank, self.twists, kept, self.order, check=False)

    def __repr__(self):
        body = "; ".join(",".join(g.to_strings(self.rank)) for g in self.gens)
        return "Submodule(rank=%d, gens=[%s])" % (self.rank, body)


# -- constructors ------------------------------------------------------------


def ideal(ring, generators, order=GREVLEX):
    gens = [Vec.from_poly(parse_poly(ring, g)) for g in generators]
    return Submodule(ring, 1, (0,), gens, order)


def unit_ideal(ring, order=GREVLEX):
    return Submodule(ring, 1, (0,), [Vec.unit(ring, 0)], order, check=False)


def zero_submodule(ring, rank, twists, order=GREVLEX):
    return Submodule(ring, rank, tuple(twists), [], order, check=False)


def submodule(ring, rank, twists, generators, order=GREVLEX):
    """generators: iterable of Vec or dense component-string lists."""
    gens = []
    for g in generators:
        gens.append(g if isinstance(g, Vec) else parse_vec(ring, g))
    return Submodule(ring, rank, tuple(twists), gens, order)


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
            return unit_ideal(self.ring, self.ideals[j].order)
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
