"""Coherent functors presented by a module map f: K -> L.

A functor here is the cokernel F(X) = coker(Hom(L, X) -> Hom(K, X)) where
the arrow precomposes with f. Hom, tensor, Tor_i and Ext^i all arise this
way from presentation data of a fixed module, and a Composite applies
functors in turn rather than flattening them to a single (K, L, f).

Two evaluation routes are provided. evaluate() works with the argument's
own subquotient presentation: F(X) is Hom(K, X) modulo the pushed Hom(L, X)
generators, each taken as its normal form modulo Hom(K, X)'s relations so
that the relation list is a function of the cosets alone.
evaluate_via_diagram() re-presents the argument as
a cokernel, lifts f to free presentations of K and L once, and computes
ker/im inside the ambient block modules. The two must agree degreewise on
every input; the lab treats a mismatch as a hard failure.
"""

from .errors import ConfigurationError, ContractViolation
from .fpmodule import (
    FPModule,
    block_kernel,
    block_module,
    push_through,
    transpose_columns,
)
from .poly import Poly, Vec
from .submodule import Submodule


class CoherentFunctor:
    """coker(h_L -> h_K) for a homogeneous map f: K -> L.

    f is a Poly matrix, column-major: column j holds the coefficients of
    the image of K's generator j over L's generators.
    """

    __slots__ = ("k", "l", "f", "_diagram")

    def __init__(self, k, l, f):
        if len(f) != len(k.gens) or any(len(col) != len(l.gens) for col in f):
            raise ContractViolation(
                "presentation map needs one column per K generator, "
                "each as long as L's generator list"
            )
        self.k = k
        self.l = l
        self.f = f
        self._diagram = None

    def diagram(self):
        if self._diagram is None:
            self._diagram = _lift_diagram(self)
        return self._diagram

    def evaluate(self, x):
        """F(X) by the direct route."""
        # looked up at call time, so a wrapper bound over functors.evaluate
        # also sees the calls made through this method
        return evaluate(self, x)


class LiftedDiagram:
    """Free presentations of K and L with f lifted to their generators.

    alpha is the matrix of f on presentation generators (one column per
    K-generator, entries over L-generators).
    """

    __slots__ = ("pres_k", "pres_l", "alpha")

    def __init__(self, pres_k, pres_l, alpha):
        self.pres_k = pres_k
        self.pres_l = pres_l
        self.alpha = alpha


# -- builders -------------------------------------------------------------------


def functor_from_hom(m):
    """Hom(M, -) as the coherent functor with K = M, L = 0."""
    zero = FPModule.zero(m.ring)
    return CoherentFunctor(m, zero, [()] * len(m.gens))


def functor_from_tensor(m):
    """M (x) - built from a cokernel presentation of M.

    With M = coker(phi: R^a -> R^b) the functor is coker applied to the
    induced X^a -> X^b, which is Hom-precomposition along the transpose of
    phi between free modules with negated twists.
    """
    ring = m.ring
    pres = m.presentation()
    k = FPModule.free(ring, tuple(-t for t in pres.gen_twists))
    l = FPModule.free(ring, tuple(-s for s in pres.column_twists()))
    f = transpose_columns(pres.matrix(), len(pres.gens))
    return CoherentFunctor(k, l, f)


def functor_from_ext(m, i):
    """Ext^i(M, -) for i >= 1: K = coker(d_{i+1}), L = F_{i-1}, f from d_i."""
    if i < 1:
        raise ConfigurationError("ext builder needs i >= 1; use the hom builder for i = 0")
    ring = m.ring
    res = m.resolution(i + 1)
    twist = res.twist_table()
    if i >= len(twist):
        return _zero_functor(ring)
    rels = [Vec.from_polys(col) for col in res.maps[i]] if i < len(res.maps) else []
    k = FPModule(ring, len(twist[i]), twist[i], _units(ring, len(twist[i])), rels, check=False)
    l = FPModule.free(ring, twist[i - 1])
    return CoherentFunctor(k, l, res.maps[i - 1])


def functor_from_tor(m, i):
    """Tor_i(M, -) for i >= 1 via the transposed resolution.

    K = coker of the transpose of d_i over the dual of F_i, L = dual of
    F_{i+1}, f = transpose of d_{i+1}; Hom(K, X) is then ker(d_i (x) X)
    and the image of Hom(L, X) is im(d_{i+1} (x) X).
    """
    if i < 1:
        raise ConfigurationError("tor builder needs i >= 1; use the tensor builder for i = 0")
    ring = m.ring
    res = m.resolution(i + 1)
    twist = res.twist_table()
    ranks = res.ranks()
    if i >= len(twist):
        return _zero_functor(ring)
    k_twists = tuple(-t for t in twist[i])
    rel_cols = transpose_columns(res.maps[i - 1], ranks[i - 1])
    rels = [Vec.from_polys(col) for col in rel_cols if any(col)]
    k = FPModule(ring, ranks[i], k_twists, _units(ring, ranks[i]), rels, check=False)
    if i < len(res.maps):
        l = FPModule.free(ring, tuple(-t for t in twist[i + 1]))
        f = transpose_columns(res.maps[i], ranks[i])
    else:
        l = FPModule.zero(ring)
        f = [()] * ranks[i]
    return CoherentFunctor(k, l, f)


def _zero_functor(ring):
    return CoherentFunctor(FPModule.zero(ring), FPModule.zero(ring), [])


def _units(ring, n):
    return [Vec.unit(ring, c) for c in range(n)]


# -- evaluation: direct route ----------------------------------------------------


def evaluate(functor, x):
    """F(X) as coker(Hom(L, X) -> Hom(K, X)), read inside Hom(K, X)'s ambient.

    Each Hom(L, X) generator is pushed along alpha and replaced by its normal
    form modulo Hom(K, X)'s relations, the one representative of its coset,
    so the relation list (and with it whether the value is spanned by terms)
    depends on the cosets alone. The value keeps Hom(K, X)'s spans and the
    bases they hold; a pushed vector that leaves Hom(K, X) raises
    ContractViolation.
    """
    hk = _hom_module(functor.k, x)
    hl = _hom_module(functor.l, x)
    if not hk.gens or not hl.gens:
        return hk
    alpha = functor.diagram().alpha
    rels = hk.rels_sub()
    pushed = [rels.normal_form(push_through(u, alpha, x.rank)) for u in hl.gens]
    if not hk.gens_sub().contains_all(pushed):
        raise ContractViolation("relations do not lie in the generator span")
    pushed_sub = Submodule(x.ring, hk.rank, hk.twists, pushed)
    return FPModule.of(hk.gens_sub(), rels.plus(pushed_sub))


def _hom_module(m, x):
    """Hom(M, X) as the kernel of X^{gens} -> X^{rels} over M's presentation."""
    pres = m.presentation()
    if not pres.gens:
        return FPModule.zero(x.ring)
    amb = block_module(x, [-t for t in pres.gen_twists])
    if not pres.columns:
        return amb
    tgt = block_module(x, [-s for s in pres.column_twists()])
    gens = block_kernel(pres.matrix(), amb, tgt, x.rank, tgt.rels)
    return FPModule.of(Submodule(amb.ring, amb.rank, amb.twists, gens), amb.rels_sub())


# -- evaluation: lifted-diagram route ---------------------------------------------


def _lift_diagram(functor):
    pres_k = functor.k.presentation()
    pres_l = functor.l.presentation()
    lookup = {id(g): j for j, g in enumerate(functor.k.gens)}
    alpha = []
    for g in pres_k.gens:
        img = functor.l.element(functor.f[lookup[id(g)]])
        if not img:
            alpha.append([Poly.zero(functor.l.ring) for _ in pres_l.gens])
            continue
        coeffs = pres_l.coeffs_of(img)
        if coeffs is None:
            raise ContractViolation("map image is not expressible in the presentation")
        alpha.append(coeffs)
    return LiftedDiagram(pres_k, pres_l, alpha)


def evaluate_via_diagram(functor, x):
    """F(X) = ker(gamma*)/alpha*(ker delta*) inside ambient block modules.

    The argument is first re-presented as a cokernel so block vectors are
    honest coefficient tuples; kernels are computed as raw solution
    submodules and the quotient is assembled ambient-level. Must agree
    degreewise with evaluate().
    """
    diag = functor.diagram()
    ring = x.ring
    xp = x.presentation()
    xc = FPModule.from_cokernel(ring, xp.gen_twists, list(xp.columns))
    if not diag.pres_k.gens:
        return FPModule.zero(ring)

    def hom_vectors(pres):
        """X^{gens} and the ambient generators of its Hom(coker, X) kernel."""
        amb = block_module(xc, [-t for t in pres.gen_twists])
        if not pres.columns:
            return amb, list(amb.gens)
        tgt = block_module(xc, [-s for s in pres.column_twists()])
        return amb, block_kernel(pres.matrix(), amb, tgt, xc.rank, tgt.rels)

    amb_k, u_gens = hom_vectors(diag.pres_k)
    v_gens = list(amb_k.rels)
    if diag.pres_l.gens:
        _amb_l, l_gens = hom_vectors(diag.pres_l)
        for w in l_gens:
            pushed = push_through(w, diag.alpha, xc.rank)
            if pushed:
                v_gens.append(pushed)
    return FPModule(ring, amb_k.rank, amb_k.twists, u_gens, v_gens, check=True)


# -- composition ------------------------------------------------------------------


class Composite:
    """G o F o ...: applies its parts right to left, so Composite(G, F)(X)
    is G(F(X)). The parts are never flattened to a single presentation."""

    __slots__ = ("parts",)

    def __init__(self, *parts):
        if not parts:
            raise ConfigurationError("compose needs at least one operand")
        self.parts = parts

    def evaluate(self, x):
        for part in reversed(self.parts):
            x = part.evaluate(x)
        return x
