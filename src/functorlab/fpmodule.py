"""Finitely presented graded modules in subquotient form.

An FPModule is U/W for submodules W <= U of a twisted free module; every
module the engine touches (kernels, cokernels, homology, Hom/Ext/Tor values,
graded strands) is carried in this shape. The relation span is required to
lie inside the generator span at construction, so U/W is meaningful on the
nose; constructors that naturally produce an exterior W (images, homology)
augment the generators first, which changes nothing up to canonical
isomorphism. A module carries no term order of its own: its generator and
relation spans are Submodules, which all use GREVLEX.

Numeric questions (Hilbert function, length, dimension) go through the
module's Hilbert numerator: numer(F/W) - numer(F/U). Presentations and
kernels go through LiftSolver; the presentation keeps its solver, so
Presentation.coeffs_of writes a vector over the presentation generators
without a second solve. Free
resolutions prune to minimal generators at every stage, which over a
graded-local base makes the differentials unit-free, so Betti numbers are
literal ranks.

This module is also the one home of block modules. Hom, Ext, Tor and the
functor normal form all put b copies of a module X into one free module
X^b, block i holding component c of X at index i*width + c (width = rank of
X's ambient), and let a Poly matrix act on the copies: block_module builds
X^b, block_map is the matrix as a map on generator coefficients,
push_through applies it to ambient vectors, and block_kernel reads the
preimage of a submodule off one LiftSolver.
"""

from __future__ import annotations

from .errors import CapExceeded, ContractViolation
from .groebner import LiftSolver
from .hilbert import (
    krull_dim as numer_krull_dim,
    length_value,
    module_numerator,
    numer_add,
    series_window,
)
from .poly import Poly, Vec
from .submodule import Submodule


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
    )

    def __init__(self, ring, rank, twists, gens, rels, check=True):
        self.ring = ring
        self.rank = rank
        self.twists = tuple(twists)
        gens_sub = Submodule(ring, rank, self.twists, gens, check=check)
        rels_sub = Submodule(ring, rank, self.twists, rels, check=check)
        self.gens = gens_sub.gens
        self.rels = rels_sub.gens
        self._gens_sub = gens_sub
        self._rels_sub = rels_sub
        if check and self.rels and not gens_sub.contains_all(self.rels):
            raise ContractViolation("relations do not lie in the generator span")
        self._numer = None
        self._presentation = None

    # -- constructors ------------------------------------------------------

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

    def with_relations(self, sub):
        """self / sub, for self without relations and sub a Submodule of
        its generator span: the relation span is sub itself, and the
        generator span self's, so a basis either already has is not
        computed again."""
        if self.rels:
            raise ContractViolation("with_relations needs a module without relations")
        self._gens_sub._same_ambient(sub)
        out = FPModule(self.ring, self.rank, self.twists, self.gens, sub.gens, check=False)
        out._gens_sub = self._gens_sub
        out._rels_sub = sub
        return out

    # -- structure ---------------------------------------------------------

    def gens_sub(self):
        return self._gens_sub

    def rels_sub(self):
        return self._rels_sub

    def gen_degrees(self):
        return tuple(g.degree(self.twists) for g in self.gens)

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

    def annihilates(self, v):
        """True when v is zero in the module (lies in the relation span)."""
        return self._rels_sub.contains(v)

    # -- presentations -------------------------------------------------------

    def presentation(self):
        """Minimal cokernel presentation (gens pruned, relations minimal)."""
        if self._presentation is not None:
            return self._presentation
        pruned = list(self._gens_sub.minimal_generators(modulo=self.rels).gens)
        gen_twists = tuple(g.degree(self.twists) for g in pruned)
        solver = LiftSolver(self.ring, self.rank, self.twists, pruned, list(self.rels))
        columns = Submodule(
            self.ring, len(pruned), gen_twists, solver.kernel_vectors(), check=False
        ).minimal_generators()
        self._presentation = Presentation(tuple(pruned), gen_twists, columns.gens, solver)
        return self._presentation

    def __repr__(self):
        return "FPModule(rank=%d, gens=%d, rels=%d)" % (
            self.rank,
            len(self.gens),
            len(self.rels),
        )


class Presentation:
    """Data of a minimal presentation R^s1 -> R^s0 -> M -> 0.

    columns are coefficient vectors in R^s0 (one per relation); matrix()
    renders them as a column-major Poly matrix. coeffs_of reuses the
    LiftSolver (gens modulo the module's relations) that produced the columns.
    """

    __slots__ = ("gens", "gen_twists", "columns", "_solver")

    def __init__(self, gens, gen_twists, columns, solver):
        self.gens = gens
        self.gen_twists = gen_twists
        self.columns = columns
        self._solver = solver

    def coeffs_of(self, v):
        """Coefficients of an ambient vector over gens modulo the module's
        relations, or None if it lies outside the module."""
        return self._solver.lift(v)

    def matrix(self):
        s0 = len(self.gens)
        return tuple(tuple(col.components(s0)) for col in self.columns)

    def column_twists(self):
        return tuple(col.degree(self.gen_twists) for col in self.columns)


class ModuleMap:
    """Homogeneous map of FPModules, stored column-major on generators.

    columns[j][i] is the coefficient of target generator i in the image of
    source generator j; shift is the uniform degree the map adds.
    """

    __slots__ = ("source", "target", "columns", "shift")

    def __init__(self, source, target, columns, shift=0, check=True):
        self.source = source
        self.target = target
        self.columns = tuple(tuple(row) for row in columns)
        self.shift = shift
        if check:
            sdeg = source.gen_degrees()
            tdeg = target.gen_degrees()
            if len(self.columns) != len(source.gens):
                raise ContractViolation("need one column per source generator")
            for j, col in enumerate(self.columns):
                if len(col) != len(target.gens):
                    raise ContractViolation("column %d has wrong height" % j)
                for i, entry in enumerate(col):
                    if entry and entry.degree() != sdeg[j] + shift - tdeg[i]:
                        raise ContractViolation(
                            "entry (%d,%d) is not homogeneous of the right degree" % (i, j)
                        )

    @classmethod
    def zero_map(cls, source, target):
        zero = Poly.zero(source.ring)
        cols = [[zero for _ in target.gens] for _ in source.gens]
        return cls(source, target, cols, check=False)

    def image_vec(self, j):
        acc = Vec.zero(self.target.ring)
        for i, entry in enumerate(self.columns[j]):
            if entry:
                acc = acc + self.target.gens[i].mul_poly(entry)
        return acc

    def image_vecs(self):
        return [self.image_vec(j) for j in range(len(self.columns))]

    def apply_coeffs(self, coeffs):
        out = [Poly.zero(self.target.ring) for _ in self.target.gens]
        for j, c in enumerate(coeffs):
            if not c:
                continue
            for i, entry in enumerate(self.columns[j]):
                if entry:
                    out[i] = out[i] + entry * c
        return out

    def compose(self, inner):
        """self o inner (inner feeds into self)."""
        if inner.target is not self.source and inner.target.gens != self.source.gens:
            raise ContractViolation("composition targets do not line up")
        cols = [self.apply_coeffs(col) for col in inner.columns]
        return ModuleMap(
            inner.source, self.target, cols, shift=self.shift + inner.shift, check=False
        )

    def is_zero_map(self):
        return all(self.target.annihilates(self.image_vec(j)) for j in range(len(self.columns)))


# -- exactness toolkit ---------------------------------------------------------


def kernel(f):
    """ker f as a subquotient of f's source."""
    tgt = f.target
    solver = LiftSolver(tgt.ring, tgt.rank, tgt.twists, f.image_vecs(), list(tgt.rels))
    src = f.source
    gens = [src.element(k.components(len(src.gens))) for k in solver.kernel_vectors()]
    return FPModule(src.ring, src.rank, src.twists, [v for v in gens if v], src.rels)


def cokernel(f):
    tgt = f.target
    vecs = [v for v in f.image_vecs() if v]
    return FPModule(
        tgt.ring, tgt.rank, tgt.twists, tgt.gens, list(tgt.rels) + vecs, check=False
    )


def quotient_by(module, sub_vectors):
    """module / (span of ambient vectors); vectors must lie in the module."""
    extra = [v for v in sub_vectors if v]
    for v in extra:
        if not module.gens_sub().contains(v):
            raise ContractViolation("quotient vector lies outside the module")
    return FPModule(
        module.ring,
        module.rank,
        module.twists,
        module.gens,
        list(module.rels) + extra,
        check=False,
    )


def homology(f, g):
    """ker(g)/im(f) for composable f: A -> B, g: B -> C with g o f = 0."""
    if g is None:
        return cokernel(f)
    if f is None:
        return kernel(g)
    composite = g.compose(f)
    if not composite.is_zero_map():
        raise ContractViolation("maps do not compose to zero")
    ker_mod = kernel(g)
    imgs = [v for v in f.image_vecs() if v]
    b = f.target
    return FPModule(
        b.ring,
        b.rank,
        b.twists,
        ker_mod.gens,
        list(b.rels) + imgs,
        check=True,
    )


# -- graded complexes and resolutions ----------------------------------------


class GradedComplex:
    """Chain of FPModules with differentials maps[k]: modules[k+1] -> modules[k]."""

    def __init__(self, modules, maps, exhausted=True, check=True):
        self.modules = list(modules)
        self.maps = list(maps)
        self.exhausted = exhausted
        if check:
            for k in range(len(self.maps) - 1):
                comp = self.maps[k].compose(self.maps[k + 1])
                if not comp.is_zero_map():
                    raise ContractViolation("differentials at %d do not square to zero" % k)

    def ranks(self):
        return [len(m.gens) for m in self.modules]

    def twist_table(self):
        return [m.twists for m in self.modules]


def free_resolution(module, length_cap):
    """Free resolution with minimal generators at every stage.

    Over the graded-local base this makes every differential unit-free, so
    ranks are Betti numbers. Stops early when the syzygies run out; the
    exhausted flag records whether the end was reached before the cap.
    """
    if length_cap < 0:
        raise ContractViolation("length_cap must be nonnegative")
    ring = module.ring
    pres = module.presentation()
    twists = pres.gen_twists
    modules = [FPModule.free(ring, twists)]
    maps = []
    columns = list(pres.columns)
    exhausted = not columns
    for _stage in range(1, length_cap + 1):
        if not columns:
            break
        col_twists = tuple(c.degree(twists) for c in columns)
        nxt = FPModule.free(ring, col_twists)
        mat = [list(c.components(len(twists))) for c in columns]
        maps.append(ModuleMap(nxt, modules[-1], mat, check=False))
        modules.append(nxt)
        kern = Submodule(ring, len(twists), twists, columns, check=False).syzygies()
        columns = list(kern.minimal_generators().gens)
        twists = col_twists
        exhausted = not columns
    return GradedComplex(modules, maps, exhausted=exhausted, check=False)


# -- Hom / Ext / Tor -----------------------------------------------------------


def block_module(x, block_twists):
    """X^b with the i-th copy twisted by block_twists[i]."""
    twists = []
    for s in block_twists:
        twists.extend(t + s for t in x.twists)
    offsets = [i * x.rank for i in range(len(block_twists))]
    gens = [g.shifted(off) for off in offsets for g in x.gens]
    rels = [w.shifted(off) for off in offsets for w in x.rels]
    return FPModule(x.ring, len(offsets) * x.rank, twists, gens, rels, check=False)


def block_map(psi_columns, x, src, tgt, tgt_blocks):
    """The map X^a -> X^b induced by a Poly matrix psi: R^a -> R^b.

    psi_columns[j][i] sends source block j to target block i; src and tgt
    must be block modules over x (sharing them between maps keeps
    compositions well-typed).
    """
    zero = Poly.zero(x.ring)
    gcount = len(x.gens)
    cols = []
    for j in range(len(psi_columns)):
        for g in range(gcount):
            col = [zero] * (tgt_blocks * gcount)
            for i in range(tgt_blocks):
                entry = psi_columns[j][i]
                if entry:
                    col[i * gcount + g] = entry
            cols.append(col)
    return ModuleMap(src, tgt, cols, check=False)


def push_through(u, columns, width):
    """The ambient vector u of X^a pushed into X^b along a Poly matrix.

    columns[j][i] multiplies block i of u into block j of the result (the
    transpose of block_map's convention), so a presentation matrix (one
    column per relation) sends Hom blocks over the generators to blocks
    over the relations.
    """
    ring = u.ring
    nblocks = len(columns[0]) if columns else 0
    parts = [dict() for _ in range(nblocks)]
    for (row, mono), cf in u.terms.items():
        i, r = divmod(row, width)
        parts[i][(r, mono)] = cf
    slices = [Vec(ring, d) for d in parts]
    acc = {}
    for j, col in enumerate(columns):
        off = j * width
        for i, entry in enumerate(col):
            if not entry or not slices[i]:
                continue
            for (r, mono), cf in slices[i].mul_poly(entry).terms.items():
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
    when columns present a module.
    """
    ring = src.ring
    targets = [push_through(Vec.unit(ring, idx), columns, width) for idx in range(src.rank)]
    solver = LiftSolver(ring, tgt.rank, tgt.twists, targets, [v for v in modulo if v])
    return [v for v in solver.kernel_vectors() if v]


def transpose_columns(columns, height):
    """Column-major transpose: returns the matrix of the dual map."""
    width = len(columns)
    return [[columns[j][i] for j in range(width)] for i in range(height)]


def hom_ext_tor(module, x, i, which, resolution=None):
    """H^i(Hom(F_., X)), H_i(F_. (x) X), or Hom(M, X) for i = 0 / which='Hom'.

    F_. is free_resolution(module, i + 1), or resolution when given, which
    must reach stage i + 1 unless it is exhausted.
    """
    which = which.lower()
    if which not in ("hom", "ext", "tor"):
        raise ContractViolation("which must be one of Hom, Ext, Tor")
    if which == "hom":
        i = 0
        which = "ext"
    if i < 0:
        raise ContractViolation("homological index must be nonnegative")
    need = i + 1
    if resolution is not None:
        if not resolution.exhausted and len(resolution.maps) < need:
            raise CapExceeded("supplied resolution is too short for stage %d" % i)
        res = resolution
    else:
        res = free_resolution(module, need)
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

    def differential(k):
        """d_k (x) X: X^(r_k) -> X^(r_(k-1)), or Hom(d_k, X) the other way."""
        if k not in stages or k - 1 not in stages:
            return None
        cols = res.maps[k - 1].columns
        if which == "ext":
            dual = transpose_columns(cols, ranks[k - 1])
            return block_map(dual, x, stages[k - 1], stages[k], ranks[k])
        return block_map(cols, x, stages[k], stages[k - 1], ranks[k - 1])

    # Ext: X^(r_(i-1)) -> X^(r_i) -> X^(r_(i+1)); Tor runs the other way
    into, out = differential(i), differential(i + 1)
    if which == "tor":
        into, out = out, into
    if into is None and out is None:
        return stages[i]
    return homology(into, out)
