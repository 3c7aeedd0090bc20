"""Multi-Rees algebras, Rees modules, and Artin-Rees exponents.

The blowup algebra S = R[I_1 t_1, ..., I_r t_r] is presented as R[y]/Q with
one variable y_(j,k) per chosen generator f_(j,k) of I_j, carrying
multidegree e_j and internal weight deg(f) + 1 (the +1 balances the hidden
t_j, so everything stays honestly graded after t is eliminated). Q comes
from eliminating t out of the ideal (y_(j,k) - f_(j,k) t_j). The
bookkeeping variables are named y{j}_{k} and t{j}, with leading
underscores added to any name a ring variable already holds.

The Rees module R(I, M) = sum of I^n M is an FPModule over the ring
R[y]/Q, which carries Q among its relations: one generator per generator
of M, twisted by its degree, and the relations below. Its strand n,
cut out by graded_component, is I^n M; its analytic spread is the
dimension of R(M)/mR(M), m the ideal of the base variables.

Module-level kernels are computed one level up, in R[y, t]: the coefficient
kernel of A^s -> R(M) is cut out by an elimination order pushing t first, and
the top-position module order guarantees that a kernel element whose lead is
t-free is entirely t-free, so the t-free part of the Groebner kernel is a
complete set of relations over R[y].

The Artin-Rees exponent of N inside M, N a Submodule of M's ambient module,
is the componentwise maximum multidegree of a minimal generating set of
ker(R(M) -> R(M/N)); the graded Nakayama argument makes that a valid
uniform exponent, the least one, with no sampling involved.
artin_rees_window checks the defining equalities past it on given points.
"""

from __future__ import annotations

import itertools

from .errors import ContractViolation
from .fpmodule import FPModule
from .groebner import LiftSolver, eliminate_module
from .poly import Poly, Vec, extend_ring, pad_poly, pad_vec, truncate_vec
from .rings import PolyRing
from .submodule import Submodule


_REES_MEMO = {}


def _family_key(family):
    base = family.ideals[0].ring
    parts = [base.signature()]
    for idl in family.ideals:
        parts.append("|".join(sorted(",".join(g.to_strings(1)) for g in idl.gens)))
    return tuple(parts)


class MultigradedAlgebraPresentation:
    """S = R[It] as R[y]/Q; degree-0 strand is R itself."""

    __slots__ = ("base", "r", "aq", "b_ring", "y_start", "t_start", "y_block", "q_gens", "j_gens")

    def __init__(self, base, r, aq, b_ring, y_start, t_start, y_block, q_gens, j_gens):
        self.base = base
        self.r = r
        self.aq = aq
        self.b_ring = b_ring
        self.y_start = y_start
        self.t_start = t_start
        self.y_block = y_block
        self.q_gens = q_gens
        self.j_gens = j_gens

    def mdeg(self, mono):
        """Multidegree of a monomial of R[y] (x-variables count zero)."""
        out = [0] * self.r
        for v, b in enumerate(self.y_block):
            e = mono[self.y_start + v]
            if e:
                out[b] += e
        return tuple(out)

    def vec_mdeg(self, vec):
        """Common multidegree of a multihomogeneous vector over R[y]."""
        seen = None
        for (_c, mono) in vec.terms:
            d = self.mdeg(mono)
            if seen is None:
                seen = d
            elif seen != d:
                raise ContractViolation("vector is not multihomogeneous")
        return seen

    def y_monomials(self, mvec):
        """All y-monomials of the given multidegree, as full exponent tuples."""
        if any(c < 0 for c in mvec):
            return []
        block_vars = [[] for _ in range(self.r)]
        for v, b in enumerate(self.y_block):
            block_vars[b].append(v)
        choices = []
        for j in range(self.r):
            opts = []
            for combo in itertools.combinations_with_replacement(block_vars[j], mvec[j]):
                e = {}
                for v in combo:
                    e[v] = e.get(v, 0) + 1
                opts.append(e)
            if not opts:
                return []
            choices.append(opts)
        out = []
        width = self.aq.nvars
        for pick in itertools.product(*choices):
            e = [0] * width
            for part in pick:
                for v, k in part.items():
                    e[self.y_start + v] += k
            out.append(tuple(e))
        return sorted(out)

    def t_free(self, vec):
        for (_c, mono) in vec.terms:
            if any(mono[self.t_start + j] for j in range(self.r)):
                return False
        return True


def rees_algebra(family):
    """Present the multi-Rees algebra of an ideal family; memoized."""
    key = _family_key(family)
    hit = _REES_MEMO.get(key)
    if hit is not None:
        return hit
    base = family.ideals[0].ring
    if not all(family.is_proper):
        raise ContractViolation("Rees presentation needs proper ideals")
    r = len(family.ideals)

    def fresh(name):
        while name in base.names:
            name = "_" + name
        return name

    y_names, y_weights, y_block, f_polys = [], [], [], []
    for j, idl in enumerate(family.ideals):
        for k, g in enumerate(idl.minimal_generators().gens):
            p = g.component(0)
            y_names.append(fresh("y%d_%d" % (j + 1, k + 1)))
            y_weights.append(p.degree() + 1)
            y_block.append(j)
            f_polys.append(p)
    t_names = [fresh("t%d" % (j + 1)) for j in range(r)]
    ay = extend_ring(base, y_names, y_weights)
    b_ring = extend_ring(base, y_names + t_names, y_weights + [1] * r)
    y_start = base.nvars
    t_start = base.nvars + len(y_names)
    j_gens = []
    for v, p in enumerate(f_polys):
        y_var = Poly.variable(b_ring, y_names[v])
        t_var = Poly.variable(b_ring, t_names[y_block[v]])
        j_gens.append(y_var - pad_poly(p, b_ring) * t_var)
    vecs = [Vec.from_poly(g) for g in j_gens]
    free = eliminate_module(
        vecs,
        ring=b_ring,
        rank=1,
        twists=(0,),
        elim_vars=list(range(t_start, t_start + r)),
    )
    bare_ay = PolyRing(ay.names, ay.char, ay.weights)
    q_gens = []
    for w in free:
        poly = w.component(0)
        kept = {m[:t_start]: c for m, c in poly.terms.items()}
        q_gens.append(Poly(bare_ay, kept))
    aq = PolyRing(ay.names, ay.char, ay.weights, tuple(ay.relations) + tuple(q_gens))
    q_over_aq = [Poly(aq, dict(q.terms)) for q in q_gens]
    alg = MultigradedAlgebraPresentation(
        base, r, aq, b_ring, y_start, t_start, tuple(y_block), q_over_aq, j_gens
    )
    _REES_MEMO[key] = alg
    return alg


def _rees_relations(alg, module, n_gens):
    """Relations over R[y]/Q of the generators of R(M) modulo R(N).

    The coefficient kernel of A^s -> M[t] / (W + N + J) taken in R[y, t]
    under the t-first elimination order; its t-free part, with t dropped,
    is a complete set of relations. With N = 0 these present R(M) itself.
    """
    b = alg.b_ring
    targets = [pad_vec(g, b) for g in module.gens]
    modulo = [pad_vec(w, b) for w in list(module.rels) + list(n_gens)]
    modulo += [Vec.from_poly(q, c) for q in alg.j_gens for c in range(module.rank)]
    solver = LiftSolver(
        b,
        module.rank,
        module.twists,
        targets,
        modulo,
        elim=tuple(range(alg.t_start, alg.t_start + alg.r)),
    )
    return [truncate_vec(k, alg.aq) for k in solver.kernel_vectors() if alg.t_free(k)]


def rees_module(family, module):
    """R(M) = sum of I^n M as an FPModule over R[y]/Q: M's generators as
    unit vectors twisted by their degrees (the free module's span, whose
    basis comes preset), presented by _rees_relations."""
    alg = rees_algebra(family)
    if module.ring.signature() != alg.base.signature():
        raise ContractViolation("module and family live over different rings")
    rels = _rees_relations(alg, module, ())
    for rel in rels:
        alg.vec_mdeg(rel)  # multihomogeneity tripwire
    free = FPModule.free(alg.aq, module.gen_degrees())
    rels_sub = Submodule(alg.aq, free.rank, free.twists, rels, check=False)
    return FPModule.of(free.gens_sub(), rels_sub)


def graded_component(family, rees, nvec):
    """Strand n of rees = rees_module(family, M), a finitely presented
    module over the base ring.

    The reference route for component families: FamilySpec.member builds
    the strand at n as I^n M from the family's power products, and the
    tests and the selftest compare the two.

    Basis: generator i times each y-monomial of multidegree n.
    Relations: all y-monomial multiples of rees's relations and of Q times
    each generator landing in the strand. Twists are de-inflated by |n|_1,
    recovering the intrinsic grading of I^n M inside M.
    """
    alg = rees_algebra(family)
    if rees.ring != alg.aq:
        raise ContractViolation("module is not over the family's Rees algebra")
    nvec = tuple(nvec)
    if len(nvec) != alg.r:
        raise ContractViolation("component index has wrong arity")
    base = alg.base
    nb = base.nvars
    total = sum(nvec)
    strand = []
    index = {}
    twists = []
    y_monos = alg.y_monomials(nvec)
    for i, twist in enumerate(rees.twists):
        for ym in y_monos:
            index[(i, ym)] = len(strand)
            strand.append((i, ym))
            twists.append(twist + alg.aq.mono_degree(ym) - total)
    if not strand:
        return FPModule.zero(base)

    def expand(vec_terms):
        """One relation column: multiply and re-read in the strand basis."""
        cols = {}
        for (c, mono), coeff in vec_terms:
            xm = mono[:nb]
            ym = (0,) * nb + mono[nb:]
            row = index.get((c, ym))
            if row is None:
                raise ContractViolation("strand expansion fell outside the basis")
            cols.setdefault(row, {})
            acc = cols[row]
            acc[xm] = base.add(acc.get(xm, base.zero), coeff)
        terms = {}
        for row, polyterms in cols.items():
            for xm, cf in polyterms.items():
                if cf:
                    terms[(row, xm)] = cf
        return Vec(base, terms)

    columns = []
    q_rels = [Vec.from_poly(q, i) for q in alg.q_gens for i in range(rees.rank)]
    for rel in list(rees.rels) + q_rels:
        pdeg = alg.vec_mdeg(rel)
        gap = tuple(nvec[j] - pdeg[j] for j in range(alg.r))
        for gamma in alg.y_monomials(gap):
            shifted = [
                ((c, tuple(a + b for a, b in zip(mono, gamma))), coeff)
                for (c, mono), coeff in rel.terms.items()
            ]
            col = expand(shifted)
            if col:
                columns.append(col)
    return FPModule.from_cokernel(base, tuple(twists), columns)


def analytic_spread(module, family):
    """Krull dimension of R(M)/mR(M), m the ideal of the base variables:
    the special fiber of the blowup."""
    rees = rees_module(family, module)
    ring = rees.ring
    fiber = [
        Vec.from_poly(Poly.variable(ring, name), i)
        for name in module.ring.names
        for i in range(rees.rank)
    ]
    rels = rees.rels_sub().plus(Submodule(ring, rees.rank, rees.twists, fiber, check=False))
    return FPModule.of(rees.gens_sub(), rels).dim()


# -- Artin-Rees exponents --------------------------------------------------


def intersection_strand(family, module, sub, nvec):
    """(I^n U + W) cap (N + W) as an ambient submodule."""
    w = module.rels_sub()
    pow_u = family.apply(tuple(nvec), module.gens_sub()).plus(w)
    return pow_u.intersect(sub.plus(w))


def artin_rees_exponent(family, module, sub):
    """The least uniform d with I^n M cap N = I^(n-d) (I^d M cap N) for all
    n >= d, read off a minimal generating set of ker(R(M) -> R(M/N))."""
    if not module.gens_sub().contains_submodule(sub):
        raise ContractViolation("Artin-Rees pair needs N inside M")
    alg = rees_algebra(family)
    kernel_gens = _rees_relations(alg, module, sub.gens)
    base_rels = _rees_relations(alg, module, ())
    kernel = Submodule(alg.aq, len(module.gens), module.gen_degrees(), kernel_gens, check=False)
    kept = kernel.minimal_generators(modulo=base_rels).gens
    mdegs = [alg.vec_mdeg(k) for k in kept]
    if not mdegs:
        return tuple(0 for _ in range(alg.r))
    return tuple(max(m[j] for m in mdegs) for j in range(alg.r))


def artin_rees_window(family, module, sub, d, points):
    """The first n in points with I^(n-d) (I^d M cap N) + W != I^n M cap N,
    or None. Every point must be >= d; the strand at d is built once."""
    w = module.rels_sub()
    base = intersection_strand(family, module, sub, d)
    for n in points:
        gap = tuple(a - b for a, b in zip(n, d))
        strand = base if n == d else intersection_strand(family, module, sub, n)
        if not strand.equals(family.apply(gap, base).plus(w)):
            return n
    return None
