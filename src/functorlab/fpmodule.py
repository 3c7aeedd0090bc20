"""Finitely presented graded modules in subquotient form.

An FPModule is U/W for submodules W <= U of a twisted free module; every
module the engine touches (kernels, cokernels, homology, Hom/Ext/Tor values,
graded strands) is carried in this shape. Built from vectors, the relation
span is checked to lie inside the generator span, so U/W is meaningful on
the nose; FPModule.subquotient, for a W that may stick out of U, augments
the generators first, which changes nothing up to canonical isomorphism. A
module carries no term order of its own: its generator and relation spans
are Submodules, which all use GREVLEX.

Each Groebner basis has one owner, the Submodule it spans, and a span
travels as that object: FPModule.of(U, W) keeps the two Submodules it is
given, so a module built from spans another module, a family or an ideal
already holds reads their bases instead of computing them again. A span
of the unit vectors, as in a free module or a cokernel, is the whole
ambient module, whose reduced basis is the unit vectors over any base
(Submodule.groebner), so it runs no Buchberger loop and reads no cache.

Numeric questions (Hilbert function, length, dimension) go through the
module's Hilbert numerator: numer(F/W) - numer(F/U), each read off the
leads of the span's reduced basis (Submodule.lead_monomials). Those leads
are already the minimal generators of the lead module, so they are only
sorted, not pruned again (hilbert.module_numerator). Presentations and
kernels go through LiftSolver, except where the answer is known: a
cokernel of a free module over a polynomial base, with no unit entry in
its relations, is presented by its relations' minimal generators, and the
syzygies of single terms are their pairwise lcm syzygies, already pruned
to minimal generators on the lcm lattice (Submodule.syzygies). The
presentation keeps one solver, so Presentation.coeffs_of writes vectors
over the presentation generators without a second solve. Free
resolutions prune to minimal generators at every stage, which over a
graded-local base makes the differentials unit-free, so Betti numbers are
literal ranks. A resolution is handed the module's Hilbert numerator, so
the series of each syzygy module is known, by the Euler characteristic,
before it is solved for (GradedComplex): a syzygy module of series 0 ends
the complex with no solve, and kernel generators whose free module has the
kernel's series are kept with no pruning run, so a finite resolution ends
without its last two Buchberger loops. A module keeps its resolution like
its presentation and Hilbert numerator: FPModule.resolution(length)
returns the one complex, grown in place from its kept syzygy columns when
a longer one is asked for, so every reader (Hom/Ext/Tor, Betti and Bass
numbers, pd, Ass) shares it and no stage is built twice.

This module is also the one home of block modules and of maps. A map is
a Poly matrix, column-major with one column per source generator. Hom,
Ext, Tor and the functor normal form all put b copies of a module X into
one free module X^b, block i holding component c of X at index
i*width + c (width = rank of X's ambient), and let a matrix act on the
copies: block_module builds X^b, push_through applies Hom(f, X):
X^b -> X^a for a matrix f: R^a -> R^b to ambient vectors (f (x) X is
Hom of the transpose), and block_kernel reads the preimage of a
submodule off one LiftSolver. X^b carries the Groebner bases X already
has (Submodule.blocks).
"""

from __future__ import annotations

from .errors import ContractViolation
from .groebner import LiftSolver
from .hilbert import (
    krull_dim as numer_krull_dim,
    length_value,
    module_numerator,
    numer_add,
    numer_shift,
    series_window,
)
from .poly import Vec
from .submodule import Submodule, candidate_key


class FPModule:
    __slots__ = (
        "ring",
        "rank",
        "twists",
        "gens",
        "rels",
        "_gens_sub",
        "_rels_sub",
        "_numer",
        "_presentation",
        "_resolution",
    )

    def __init__(self, ring, rank, twists, gens, rels, check=True):
        gens_sub = Submodule(ring, rank, twists, gens, check=check)
        rels_sub = Submodule(ring, rank, twists, rels, check=check)
        if check and rels_sub.gens and not gens_sub.contains_all(rels_sub.gens):
            raise ContractViolation("relations do not lie in the generator span")
        self._adopt(gens_sub, rels_sub)

    def _adopt(self, gens_sub, rels_sub):
        self.ring = gens_sub.ring
        self.rank = gens_sub.rank
        self.twists = gens_sub.twists
        self.gens = gens_sub.gens
        self.rels = rels_sub.gens
        self._gens_sub = gens_sub
        self._rels_sub = rels_sub
        self._numer = None
        self._presentation = None
        self._resolution = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, gens_sub, rels_sub):
        """gens_sub / rels_sub, the two Submodule objects kept as the
        module's spans, so a basis either already has is not computed
        again. The spans must share an ambient module; that rels_sub lies
        in gens_sub is the caller's to know, and is not checked."""
        gens_sub._same_ambient(rels_sub)
        out = cls.__new__(cls)
        out._adopt(gens_sub, rels_sub)
        return out

    @classmethod
    def free(cls, ring, twists):
        gens = [Vec.unit(ring, c) for c in range(len(twists))]
        return cls(ring, len(twists), twists, gens, [], check=False)

    @classmethod
    def cyclic(cls, ring, relation_polys=()):
        """R/(relation_polys) presented on one generator of degree 0."""
        from .poly import parse_poly

        rels = [Vec.from_poly(parse_poly(ring, p)) for p in relation_polys]
        return cls(ring, 1, (0,), [Vec.unit(ring, 0)], rels)

    @classmethod
    def from_cokernel(cls, ring, twists, columns):
        """coker of the map with the given columns into the free module."""
        gens = [Vec.unit(ring, c) for c in range(len(twists))]
        return cls(ring, len(twists), twists, gens, columns)

    @classmethod
    def subquotient(cls, ring, rank, twists, gens, rels):
        """U/W for arbitrary U, W: relations outside U are adjoined to U."""
        probe = Submodule(ring, rank, tuple(twists), gens)
        extra = [w for w in rels if w and not probe.contains(w)]
        return cls(ring, rank, tuple(twists), list(gens) + extra, rels, check=False)

    @classmethod
    def zero(cls, ring):
        return cls(ring, 1, (0,), [], [], check=False)

    # -- structure ---------------------------------------------------------

    def gens_sub(self):
        return self._gens_sub

    def rels_sub(self):
        return self._rels_sub

    def gen_degrees(self):
        return self._gens_sub.gen_degrees()

    def numerator(self):
        if self._numer is None:
            below = module_numerator(self.ring, self._rels_sub.lead_monomials(), self.twists)
            above = module_numerator(self.ring, self._gens_sub.lead_monomials(), self.twists)
            self._numer = numer_add(below, above, sign=-1)
        return self._numer

    def hilbert_function(self, degrees):
        degrees = list(degrees)
        if not degrees:
            return []
        lo, hi = min(degrees), max(degrees)
        window = series_window(self.ring, self.numerator(), lo, hi)
        return [window[d - lo] for d in degrees]

    def length(self):
        return length_value(self.ring, self.numerator())

    def dim(self):
        return numer_krull_dim(self.ring, self.numerator())

    def is_zero(self):
        return not self.numerator()

    def hilbert_equal(self, other):
        """Exact equality of Hilbert functions in every degree."""
        return self.numerator() == other.numerator()

    # -- elements ----------------------------------------------------------

    def element(self, coeffs):
        acc = Vec.zero(self.ring)
        for c, g in zip(coeffs, self.gens):
            if c:
                acc = acc + g.mul_poly(c)
        return acc

    # -- presentations -------------------------------------------------------

    def presentation(self):
        """Minimal cokernel presentation (gens pruned, relations minimal).

        A cokernel of the free module, whose gens are the ambient unit
        vectors in order, over a polynomial base and with no relation
        holding a unit-monomial term, keeps every generator: the columns
        are then the minimal generators of the relation span, written over
        the generators in pruned order, and no LiftSolver is built until
        coeffs_of asks for one. Every other module reads its columns off
        the kernel of one LiftSolver.
        """
        if self._presentation is not None:
            return self._presentation
        ring, rank, twists, rels = self.ring, self.rank, self.twists, list(self.rels)
        if self._is_free_cokernel():
            pruned = sorted(self.gens, key=candidate_key(twists, rank))
            position = {g.max_component(): i for i, g in enumerate(pruned)}
            kernel = [
                Vec(ring, {(position[c], m): cf for (c, m), cf in w.terms.items()}) for w in rels
            ]
            solver = None
        else:
            pruned = list(self._gens_sub.minimal_generators(modulo=rels).gens)
            solver = LiftSolver(ring, rank, twists, pruned, rels)
            kernel = solver.kernel_vectors()
        gen_twists = tuple(g.degree(twists) for g in pruned)
        columns = Submodule(ring, len(pruned), gen_twists, kernel, check=False).minimal_generators()
        self._presentation = Presentation(
            tuple(pruned), gen_twists, columns.gens, solver, (ring, rank, twists, rels)
        )
        return self._presentation

    def _is_free_cokernel(self):
        """Whether gens are the ambient unit vectors in order, no relation
        has a unit-monomial term and the base is a polynomial ring: then no
        generator lies in the span of the others and the relations, and the
        kernel of R^gens -> ambient / rels is the relation span itself."""
        if self.ring.relations or not self.gens_are_units():
            return False
        return all(any(m) for w in self.rels for (_c, m) in w.terms)

    def gens_are_units(self):
        """Whether gens are the ambient unit vectors, in order."""
        ring = self.ring
        return len(self.gens) == self.rank and all(
            g == Vec.unit(ring, c) for c, g in enumerate(self.gens)
        )

    def resolution(self, length):
        """The module's minimal free resolution, at least length stages long
        unless it ends sooner. The module keeps it: a longer request grows
        the same complex, so the returned complex may be longer than asked."""
        if self._resolution is None:
            self._resolution = free_resolution(self, length)
        return self._resolution.grow(length)

    def __repr__(self):
        return "FPModule(rank=%d, gens=%d, rels=%d)" % (
            self.rank,
            len(self.gens),
            len(self.rels),
        )


class Presentation:
    """Data of a minimal presentation R^s1 -> R^s0 -> M -> 0.

    columns are coefficient vectors in R^s0 (one per relation); matrix()
    renders them as a column-major Poly matrix. coeffs_of uses one
    LiftSolver (gens modulo the module's relations): the one that produced
    the columns, or, when none did, one built on first use.
    """

    __slots__ = ("gens", "gen_twists", "columns", "_solver", "_ambient")

    def __init__(self, gens, gen_twists, columns, solver, ambient):
        """ambient is the module's (ring, rank, twists, relations)."""
        self.gens = gens
        self.gen_twists = gen_twists
        self.columns = columns
        self._solver = solver
        self._ambient = ambient

    def coeffs_of(self, v):
        """Coefficients of an ambient vector over gens modulo the module's
        relations, or None if it lies outside the module."""
        if self._solver is None:
            ring, rank, twists, rels = self._ambient
            self._solver = LiftSolver(ring, rank, twists, list(self.gens), rels)
        return self._solver.lift(v)

    def matrix(self):
        s0 = len(self.gens)
        return tuple(tuple(col.components(s0)) for col in self.columns)

    def column_twists(self):
        return tuple(col.degree(self.gen_twists) for col in self.columns)


# -- graded complexes and resolutions ----------------------------------------


class GradedComplex:
    """Chain of free modules with differentials maps[k]: modules[k+1] -> modules[k].

    maps[k] is a Poly matrix, column-major: one column per generator of
    modules[k+1], holding its image's coefficients over modules[k]'s
    generators. pending holds the minimal generators of the kernel of the
    last differential, the columns of the next one; the complex is exhausted
    when there are none, and grow resumes from them.

    numer is the Hilbert numerator of the module M the complex resolves.
    Along 0 -> Z_k -> F_k -> ... -> F_0 -> M -> 0 the series of each
    syzygy module Z_k is then known before Z_k is computed:
    numer(Z_k) = numer(F_k) - numer(Z_(k-1)), numer(Z_(-1)) = numer(M)
    (Traverso, "Hilbert functions and the Buchberger algorithm", JSC 22,
    1996, drives Buchberger with the same fact). grow uses it twice. A
    kernel whose numerator is empty is 0, so the complex ends with no solve.
    Kernel generators whose free module R^m(-deg) has the kernel's series
    map onto it isomorphically, so none lies in the span of the others and
    they are its minimal generators with no pruning run.
    """

    def __init__(self, modules, maps, pending, numer):
        self.modules = list(modules)
        self.maps = list(maps)
        self.pending = list(pending)
        self._unit_numer = FPModule.free(self.modules[0].ring, (0,)).numerator()
        kernel = numer
        for stage in self.modules:
            kernel = numer_add(self._free_numer(stage.twists), kernel, sign=-1)
        self._kernel_numer = kernel  # numer(Z_k), k = len(maps)

    @property
    def exhausted(self):
        return not self.pending

    def _free_numer(self, twists):
        """numer of (+)_t R(-t), from the base ring's numerator read once."""
        out = {}
        for t in twists:
            out = numer_add(out, numer_shift(self._unit_numer, t))
        return out

    def grow(self, length):
        """Extend to length differentials, or until the syzygies run out."""
        while len(self.maps) < length and self.pending:
            columns = self.pending
            twists = self.modules[-1].twists
            ring = self.modules[-1].ring
            col_twists = tuple(c.degree(twists) for c in columns)
            self.maps.append(tuple(tuple(c.components(len(twists))) for c in columns))
            self.modules.append(FPModule.free(ring, col_twists))
            image = Submodule(ring, len(twists), twists, columns, check=False)
            self.pending = self._kernel_generators(image)
        return self

    def _kernel_generators(self, image):
        """Minimal generators of the syzygies of image's generators, the
        kernel of the differential just appended."""
        numer = numer_add(self._free_numer(self.modules[-1].twists), self._kernel_numer, sign=-1)
        self._kernel_numer = numer
        if not numer:
            return []
        kern = image.syzygies()
        if self._free_numer(kern.gen_degrees()) == numer:
            return kern.candidates()
        return list(kern.minimal_generators().gens)

    def ranks(self):
        return [len(m.gens) for m in self.modules]

    def twist_table(self):
        return [m.twists for m in self.modules]


def free_resolution(module, length_cap):
    """Free resolution with minimal generators at every stage.

    Over the graded-local base this makes every differential unit-free, so
    ranks are Betti numbers. Stops early when the syzygies run out; the
    exhausted flag records whether the end was reached before the cap. The
    complex is handed the module's Hilbert numerator, so it knows the
    series of every syzygy module before solving for it (GradedComplex).
    """
    if length_cap < 0:
        raise ContractViolation("length_cap must be nonnegative")
    pres = module.presentation()
    stage0 = FPModule.free(module.ring, pres.gen_twists)
    return GradedComplex([stage0], [], pres.columns, module.numerator()).grow(length_cap)


# -- Hom / Ext / Tor -----------------------------------------------------------


def block_module(x, block_twists):
    """X^b with the i-th copy twisted by block_twists[i]. Its spans are the
    Submodule.blocks of X's, so the Groebner bases X already has are
    carried over, not computed again."""
    return FPModule.of(x.gens_sub().blocks(block_twists), x.rels_sub().blocks(block_twists))


def push_through(u, columns, width):
    """The ambient vector u of X^a pushed into X^b along a Poly matrix.

    columns[j][i] multiplies block i of u into block j of the result: this
    is Hom(f, X) for the map f with columns columns. So a presentation
    matrix (one column per relation) sends Hom blocks over the generators
    to blocks over the relations.
    """
    ring = u.ring
    parts = {}
    for (row, mono), cf in u.terms.items():
        i, r = divmod(row, width)
        parts.setdefault(i, {})[(r, mono)] = cf
    slices = [(i, Vec(ring, d)) for i, d in sorted(parts.items())]
    acc = {}
    for j, col in enumerate(columns):
        off = j * width
        for i, piece in slices:
            entry = col[i]
            if not entry:
                continue
            for (r, mono), cf in piece.mul_poly(entry).terms.items():
                key = (r + off, mono)
                prev = acc.get(key)
                val = ring.add(prev, cf) if prev is not None else cf
                if val:
                    acc[key] = val
                else:
                    acc.pop(key, None)
    return Vec(ring, acc)


def block_kernel(columns, src, tgt, width, modulo):
    """Generators of the preimage of span(modulo) under push_through.

    src and tgt are the block modules X^a and X^b the matrix joins; with
    modulo = tgt.rels this is the kernel of X^a -> X^b, i.e. Hom(coker, X)
    when columns present a module. The solver runs over the pushed
    generators of src, so each kernel vector is a combination of them.
    """
    targets = [push_through(g, columns, width) for g in src.gens]
    solver = LiftSolver(src.ring, tgt.rank, tgt.twists, targets, [v for v in modulo if v])
    kept = (src.element(k.components(len(targets))) for k in solver.kernel_vectors())
    return [v for v in kept if v]


def transpose_columns(columns, height):
    """Column-major transpose: returns the matrix of the dual map."""
    width = len(columns)
    return [[columns[j][i] for j in range(width)] for i in range(height)]


def hom_ext_tor(module, x, i, which):
    """H^i(Hom(F_., X)), H_i(F_. (x) X), or Hom(M, X) for i = 0 / which='Hom'.

    F_. is module.resolution(i + 1). The value at stage i is the kernel of
    the outgoing push modulo the image of the incoming one; building it with
    check=True refuses a resolution whose differentials do not compose to
    zero.
    """
    which = which.lower()
    if which not in ("hom", "ext", "tor"):
        raise ContractViolation("which must be one of Hom, Ext, Tor")
    if which == "hom":
        i = 0
        which = "ext"
    if i < 0:
        raise ContractViolation("homological index must be nonnegative")
    res = module.resolution(i + 1)
    ranks = res.ranks()
    twist = res.twist_table()
    if i >= len(twist) or not twist[i]:
        return FPModule.zero(module.ring)
    # stage k of the complex is X^(r_k), its blocks twisted by the degrees of
    # F_k (Tor) or by their negatives (Ext, where Hom dualizes F_k)
    sign = -1 if which == "ext" else 1
    stages = {
        k: block_module(x, [sign * t for t in twist[k]])
        for k in (i - 1, i, i + 1)
        if 0 <= k < len(twist)
    }

    def matrix(src, dst):
        """The push from stage src to stage dst along the d joining them:
        d's own matrix for Ext (Hom(d, X)), its transpose for Tor (d (x) X)."""
        if src not in stages or dst not in stages:
            return None
        k = max(src, dst)
        cols = res.maps[k - 1]
        return cols if which == "ext" else transpose_columns(cols, ranks[k - 1])

    # Ext: X^(r_(i-1)) -> X^(r_i) -> X^(r_(i+1)); Tor runs the other way
    prev, nxt = (i - 1, i + 1) if which == "ext" else (i + 1, i - 1)
    into, out = matrix(prev, i), matrix(i, nxt)
    here = stages[i]
    if into is None and out is None:
        return here
    rels = list(here.rels)
    if into is not None:
        pushed = (push_through(g, into, x.rank) for g in stages[prev].gens)
        rels.extend(v for v in pushed if v)
    if out is None:
        return FPModule(x.ring, here.rank, here.twists, here.gens, rels, check=False)
    gens = block_kernel(out, here, stages[nxt], x.rank, stages[nxt].rels)
    return FPModule(x.ring, here.rank, here.twists, gens, rels, check=True)
