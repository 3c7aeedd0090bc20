"""The asymptotic-stability engine the scenario tasks share.

Families are either quotient families M/I^n N or the strands I^n M of a
Rees module. The engine evaluates functor expressions over integer boxes
(grid_evaluate), detects stabilization of Ass/grade/pd/id on the held-out
shell (detect_stabilization), checks the paper's degree bound on a fitted
length polynomial (degree_bound_check), and builds the (T, U, V, W, c, d)
normal form whose members must reproduce F(M/I^n N) degreewise. The tasks
themselves, with their fits, default degree caps and verdicts, live in
runner. A normal form that fails validation raises immediately naming
the offending point; nothing is ever refitted or patched to make a family
look stable.
"""

from .errors import CapExceeded, ConfigurationError, ContractViolation, StrategyExhausted
from .fpmodule import FPModule, block_kernel, block_module, push_through
from .functors import evaluate
from .invariants import (
    _cyclic_quotient,
    _ext_grade,
    associated_primes,
    bass_profile,
    betti_number,
    injective_dimension,
    projective_dimension,
    scan_cap,
)
from .multigraded import analytic_spread, artin_rees_exponent
from .poly import Vec
from .submodule import Submodule


OBSERVABLE_NAMES = ("lambda", "ass", "grade", "betti", "bass", "pd", "id")


class FamilySpec:
    """A family of modules indexed by N^r, over an ideal family I.

    Quotient kind: members M/I^n N for a verified submodule N of M, kept
    as one Submodule (sub) in M's ambient module.
    Component kind: members I^n M, the strands of the Rees module
    R(I, M) = sum of I^n M; for M = U/W that is (I^n U + W)/W. Both kinds
    build a member from the family's kept power product I^n.

    The spec keeps what its tasks share, for as long as it lives: one
    member per point (value(None, p)), one F(member) per functor or Composite
    and point (value(expr, p)), the analytic spread, and one degree_law per
    functor. member(p) itself always builds a fresh member.
    """

    __slots__ = (
        "kind", "module", "sub", "family",
        "_members", "_values", "_spread", "_laws",
    )

    def __init__(self, kind, module, sub, family):
        self.kind = kind
        self.module = module
        self.sub = sub
        self.family = family
        self._members = {}
        self._values = {}
        self._spread = None
        self._laws = {}

    @classmethod
    def quotient(cls, module, sub, family):
        if not module.gens_sub().contains_submodule(sub):
            raise ContractViolation("family submodule is not contained in the module")
        if not all(family.is_proper):
            raise ConfigurationError("family ideals must be proper")
        return cls("quotient", module, sub, family)

    @classmethod
    def component(cls, module, family):
        """The strands I^n M of R(I, M). Nothing of the Rees algebra is
        presented, here or in a task: a member is built from the family's
        power products, and the default degree cap counts the variables of
        R[y]/Q without presenting it."""
        if not all(family.is_proper):
            raise ConfigurationError("family ideals must be proper")
        return cls("component", module, None, family)

    @property
    def r(self):
        return len(self.family.ideals)

    def member(self, nvec):
        """The member at nvec, built on M's and N's own spans, so their
        bases are computed once for the whole box: I^n M = (I^n U + W)/W,
        and M/I^n N = U/(W + I^n N). W lies in U, so no containment probe."""
        m = self.module
        if self.kind == "component":
            scaled = self.family.apply(tuple(nvec), m.gens_sub())
            return FPModule.of(scaled.plus(m.rels_sub()), m.rels_sub())
        scaled = self.family.apply(tuple(nvec), self.sub)
        return FPModule.of(m.gens_sub(), m.rels_sub().plus(scaled))

    def value(self, expr, nvec):
        """F(member) at nvec for expr, a CoherentFunctor or a Composite, or
        the member itself when expr is None; each is built once and kept."""
        nvec = tuple(nvec)
        member = self._members.get(nvec)
        if member is None:
            member = self._members[nvec] = self.member(nvec)
        if expr is None:
            return member
        key = (expr, nvec)
        out = self._values.get(key)
        if out is None:
            out = self._values[key] = expr.evaluate(member)
        return out

    def spread(self):
        """The analytic spread of the quotient family, computed once."""
        if self._spread is None:
            self._spread = analytic_spread(self.module, self.family)
        return self._spread

    def degree_law(self, functor):
        """The terms of deg P <= max(dim F(M), spread - r) for the lengths
        of F(M/I^n N): dim F(M), the analytic spread, r and the bound; one
        per functor, so a task's default degree cap and its bound check,
        and every task of the scenario, read the same."""
        law = self._laws.get(functor)
        if law is None:
            dim_fm = evaluate(functor, self.module).dim()
            spread, r = self.spread(), self.r
            law = {"dim_fm": dim_fm, "spread": spread, "r": r, "bound": max(dim_fm, spread - r)}
            self._laws[functor] = law
        return law


# -- grid evaluation ---------------------------------------------------------------


def _prime_key(sub):
    return tuple(sorted(str(v.components(1)[0]) for v in sub.gens))


def _observe(module, observables, grade_quotient, i_max):
    """One point's row. The module keeps its minimal resolution, so every
    beta_i, pd and, over a polynomial base, every mu^i = beta_(n-i), id and
    the Ext route of Ass read one complex; grade_quotient is R/J, shared by
    the grid."""
    out = {}
    cap = scan_cap(module.ring)
    if "lambda" in observables:
        out["lambda"] = module.length()
    if "ass" in observables:
        try:
            primes = associated_primes(module)
            out["ass"] = sorted(_prime_key(p) for p in primes)
        except StrategyExhausted as exc:
            out["ass"] = {"error": "strategy exhausted: %s" % exc}
    if "grade" in observables:
        out["grade"] = _ext_grade(grade_quotient, module)
    counts = [i_max + 1] if "bass" in observables else []
    if "id" in observables:
        counts.append(cap + 2)
    profile = bass_profile(module, max(counts)) if counts else None
    if "betti" in observables or "bass" in observables:
        for i in range(i_max + 1):
            if "betti" in observables:
                out["betti_%d" % i] = betti_number(module, i)
            if "bass" in observables:
                out["bass_%d" % i] = profile[i]
    if "pd" in observables:
        try:
            out["pd"] = projective_dimension(module)
        except CapExceeded:
            out["pd"] = "cap exceeded"
    if "id" in observables:
        try:
            out["id"] = injective_dimension(module, profile=profile)
        except CapExceeded:
            out["id"] = "cap exceeded"
    return out


def grid_evaluate(expr, spec, box, observables, grade_ideal=None, i_max=2):
    """Exact per-point observable table over the box, in ascending point order.

    expr is a CoherentFunctor or a Composite, or None for the identity
    (observe the member itself). Points are evaluated one after another.
    """
    bad = [o for o in observables if o not in OBSERVABLE_NAMES]
    if bad:
        raise ConfigurationError("unknown observables: %s" % ", ".join(bad))
    if box.r != spec.r:
        raise ConfigurationError("box dimension does not match the family")
    grade_quotient = None
    if "grade" in observables:
        if grade_ideal is None:
            raise ConfigurationError("grade observable needs an ideal")
        # R/J is the same at every point: one module, resolved once for the grid
        grade_quotient = _cyclic_quotient(grade_ideal)
    return {
        p: _observe(spec.value(expr, p), observables, grade_quotient, i_max)
        for p in sorted(box.points())
    }


def _is_refused(value):
    return isinstance(value, dict) and "error" in value


def detect_stabilization(table, box):
    """Constant-on-shell verdict; explicitly evidence-level, never a claim.

    A refused point (an {"error": ...} value) has no value to compare, so a
    shell with one is not stable; the verdict then lists those points under
    "refused".
    """
    shell = box.shell_points()
    vals = [table.get(p) for p in shell]
    refused = [p for p, v in zip(shell, vals) if _is_refused(v)]
    stable = bool(vals) and not refused and all(v is not None and v == vals[0] for v in vals)
    verdict = {
        "stable": stable,
        "value": vals[0] if stable else None,
        "shell_floor": box.shell_floor(),
        "witness": shell if stable else [],
        "evidence": "evidence-level on box",
    }
    if refused:
        verdict["refused"] = refused
    return verdict


def degree_bound_check(law, fitted):
    """deg P <= the bound of FamilySpec.degree_law, equality when dim wins
    strictly."""
    deg = fitted.total_degree
    bound = law["bound"]
    equality_required = law["dim_fm"] > law["spread"] - law["r"]
    holds = deg <= bound and (not equality_required or deg == bound)
    return dict(
        law,
        degree=deg,
        equality_required=equality_required,
        verdict="PASS" if holds else "FAIL",
    )


# -- the eventual normal form of a functor along a family ---------------------------


class NormalForm:
    """(T, U, V, W, c, d) with member formula (U + I^{n-d}V)/I^{n-d}W.

    U is a tuple of ambient generators and V, W are Submodules of T's
    ambient module; provenance records the A_1/A_2 generators and how c
    and d were found. Members are exact FPModules, validated at
    construction: validated maps each checked box point to its member.
    """

    __slots__ = (
        "t", "u", "v", "w", "c", "d", "family", "provenance", "validated",
    )

    def __init__(self, t, u, v, w, c, d, family, provenance):
        self.t = t
        self.u = tuple(u)
        self.v = v
        self.w = w
        self.c = tuple(c)
        self.d = tuple(d)
        self.family = family
        self.provenance = provenance
        self.validated = {}

    def member_value(self, nvec):
        if any(n < e for n, e in zip(nvec, self.d)):
            raise ContractViolation("normal form only covers n >= d = %r" % (self.d,))
        gap = tuple(n - e for n, e in zip(nvec, self.d))
        gens = list(self.u) + list(self.family.apply(gap, self.v).gens)
        rels = list(self.t.rels) + list(self.family.apply(gap, self.w).gens)
        return FPModule.subquotient(self.t.ring, self.t.rank, self.t.twists, gens, rels)

    def u_module(self):
        return FPModule.subquotient(
            self.t.ring, self.t.rank, self.t.twists, list(self.u), list(self.t.rels)
        )


def _to_cokernel_coords(pres, vectors):
    out = []
    for v in vectors:
        coeffs = pres.coeffs_of(v)
        if coeffs is None:
            raise ContractViolation("submodule vector lies outside the module")
        vec = Vec.from_polys(coeffs) if any(coeffs) else None
        if vec:
            out.append(vec)
    return out


def _sub(amb, gens, extra=()):
    ring = amb.ring
    vecs = [v for v in list(gens) + list(extra) if v]
    return Submodule(ring, amb.rank, amb.twists, vecs, check=False)


def _n_blocks(n_vecs, count, width):
    """N^count: the N-vectors in each of count blocks."""
    return [v.shifted(i * width) for i in range(count) for v in n_vecs]


def _block_side(pres, amb, mc, n_vecs, family):
    """One side of the lifted diagram: the block push amb -> X^{rels} along pres.

    Returns (e, kernel, preimage): e is the Artin-Rees exponent of the
    pushed image meeting the filtration of N^{rels}, kernel generates the
    kernel of the push, and preimage(n) generates the preimage of I^n N^{rels}.
    """
    width = mc.rank
    mat = pres.matrix()
    tgt = block_module(mc, [-s for s in pres.column_twists()])
    image = _sub(tgt, [push_through(g, mat, width) for g in amb.gens], tgt.rels)
    blocks = _n_blocks(n_vecs, len(pres.columns), width)
    prime = _sub(tgt, blocks, tgt.rels)
    prime_fp = FPModule.subquotient(mc.ring, tgt.rank, tgt.twists, blocks, list(tgt.rels))
    e = artin_rees_exponent(family, prime_fp, image.intersect(prime))

    def preimage(n):
        modulo = list(family.apply(n, prime).gens) + list(tgt.rels)
        return block_kernel(mat, amb, tgt, width, modulo)

    return e, block_kernel(mat, amb, tgt, width, tgt.rels), preimage


def normal_form(functor, spec, box):
    """Build and validate the stable shape of n -> F(M/I^n N), for the
    CoherentFunctor F over the quotient family spec.

    Follows the kernel/image bookkeeping of the lifted diagram: c comes
    from Artin-Rees on gamma*(A) meeting I^n N^{l1}, d from psi(B) meeting
    I^n N^{k1} (then raised to c componentwise), and U, V, W live in
    T = M^{k0}/phi(A_1). Every box point n >= d is checked against the
    functor value the spec keeps (spec.value(functor, n)); a mismatch raises
    naming the point.
    """
    module, family = spec.module, spec.family
    ring = module.ring
    r = len(family.ideals)
    diag = functor.diagram()
    pres_k, pres_l, alpha = diag.pres_k, diag.pres_l, diag.alpha
    mp = module.presentation()
    mc = FPModule.from_cokernel(ring, mp.gen_twists, list(mp.columns))
    width = mc.rank
    n_vecs = _to_cokernel_coords(mp, spec.sub.gens)
    k0 = len(pres_k.gens)
    if k0 == 0:
        raise ConfigurationError("zero functor has no normal form to build")
    amb_b = block_module(mc, [-t for t in pres_k.gen_twists])
    provenance = {}

    # A-side: c, A1 = ker(gamma*), A2 = preimage of I^c N^{l1}
    zero_exp = (0,) * r
    if not pres_l.gens:
        c = zero_exp
        provenance["c_verdict"] = "trivial: L needs no presentation"
        a1_gens, a2_gens = [], []
    else:
        amb_a = block_module(mc, [-t for t in pres_l.gen_twists])
        if not pres_l.columns:
            c = zero_exp
            provenance["c_verdict"] = "trivial: L is free"
            a1_gens = a2_gens = list(amb_a.gens)
        else:
            c, a1_gens, a_preimage = _block_side(pres_l, amb_a, mc, n_vecs, family)
            provenance["c_verdict"] = "certified"
            a2_gens = a_preimage(c)
    phi_a1 = [w for w in (push_through(v, alpha, width) for v in a1_gens) if w]
    phi_a2 = [w for w in (push_through(v, alpha, width) for v in a2_gens) if w]

    # B-side: d from psi(B) meeting the filtration of N^{k1}, raised to c
    if not pres_k.columns:
        d = c
        provenance["d_verdict"] = "trivial: K is free"
        ker_psi = v_pre = list(amb_b.gens)
    else:
        d_raw, ker_psi, b_preimage = _block_side(pres_k, amb_b, mc, n_vecs, family)
        provenance["d_verdict"] = "certified"
        d = tuple(max(a, b) for a, b in zip(d_raw, c))
        v_pre = b_preimage(d)

    gap_dc = tuple(a - b for a, b in zip(d, c))
    bprime = _sub(amb_b, _n_blocks(n_vecs, k0, width))
    w_parts = []
    if phi_a2:
        w_parts.extend(family.apply(gap_dc, _sub(amb_b, phi_a2)).gens)
    w_parts.extend(family.apply(d, bprime).gens)
    w_parts.extend(phi_a1)

    t_rels = list(amb_b.rels) + phi_a1
    t = FPModule.subquotient(ring, amb_b.rank, amb_b.twists, list(amb_b.gens), t_rels)
    u_gens = [v for v in ker_psi if v]
    v_gens = [v for v in v_pre if v] + phi_a1
    w_gens = [v for v in w_parts if v]

    v_span = _sub(amb_b, v_gens, t_rels)
    for g in w_gens:
        if not v_span.contains(g):
            raise ContractViolation("W escaped V: normal form construction is wrong")

    provenance["a1_generators"] = len(a1_gens)
    provenance["a2_generators"] = len(a2_gens)

    v_sub, w_sub = _sub(amb_b, v_gens), _sub(amb_b, w_gens)
    nf = NormalForm(t, u_gens, v_sub, w_sub, c, d, family, provenance)
    if not nf.u_module().hilbert_equal(evaluate(functor, module)):
        raise ContractViolation("U does not reproduce F(M)")
    for p in box.points():
        if any(x < e for x, e in zip(p, d)):
            continue
        shaped = nf.member_value(p)
        if not shaped.hilbert_equal(spec.value(functor, p)):
            raise ContractViolation(
                "normal form mismatch at %r: family value disagrees degreewise" % (p,)
            )
        nf.validated[p] = shaped
    return nf
