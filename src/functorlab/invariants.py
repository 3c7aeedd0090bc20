"""Associated primes, grade, depth, Betti and Bass numbers.

Associated primes are never guessed. For fine-graded modules the
candidates are the variable-subset primes that contain a minimal prime of
ann(M) (one colon, then a monomial cover). The candidates minimal by
inclusion are exactly the minimal primes of Supp M, which are always
associated (Matsumura, Thm 6.5) and are accepted without a test; each
embedded candidate p is accepted only when the exact criterion holds,
namely (0 :_M p) != 0 and the annihilator of (0 :_M p) is p on the nose.
On a fine module every input is spanned by terms, so that colon and each
test's colon_module, intersect and colon are exponent arithmetic on
minimal monomials, with no lift solver.
Otherwise, over a polynomial base in n variables, Ass M is read off Ext: a
prime of height i is associated to M exactly when it is a minimal prime of
ann Ext^i(M, R) (Eisenbud-Huneke-Vasconcelos, Thm 1.1, with codim
Ext^i(M, R) >= i), so those primes are accepted as they are found. Most of
the ladder is read off Hilbert series. (0) is associated exactly when M has
positive rank, i.e. dim M = n, so Hom(M, R) is never built. Ext^i(M, R)
vanishes below codim M = grade(ann M) and past pd M, so only those stages
are built. A stage with dim Ext^i(M, R) < n - i has codimension above i and
holds no height-i prime; only a stage with dim = n - i takes the
annihilator colon, and only such a stage can refuse. When no complete scheme
applies the computation refuses with StrategyExhausted rather than return a
possibly partial list.

Over a polynomial base in n variables, Koszul self-duality gives
Ext^i(k, M) = Tor_(n-i)(k, M) as vector spaces, so the Bass numbers are the
Betti numbers read backwards, mu^i = beta_(n-i), and vanish past n: one
minimal resolution of M serves Betti numbers, Bass numbers, pd, id and
depth. Over a quotient base mu^i is the length of Ext^i(k, M).

No function here takes a resolution. Each asks the module for the one it
keeps (FPModule.resolution), at the length it reads, so the Ext route of
Ass, Betti and Bass numbers and pd of one module share one complex, grown
as far as its longest reader needs.

grade(J, M) is the first nonvanishing Ext^i(R/J, M). Bass numbers have no
internal zeros between depth and the injective dimension, and Betti numbers
none between 0 and the projective dimension, so both dimensions are certified
by the first zero after a nonzero. The scan length comes from the ring
(scan_cap); it only guards against unbounded scans over a singular base.
"""

from __future__ import annotations

import math
from itertools import combinations

from .errors import CapExceeded, ContractViolation, StrategyExhausted
from .fpmodule import FPModule, hom_ext_tor
from .groebner import base_relation_vectors, spans_terms
from .poly import Poly, Vec
from .submodule import Submodule, is_unit_ideal, unit_ideal


def annihilator(module):
    """ann(M) = (rels : gens) as an ideal; unit ideal for the zero module."""
    if not module.gens:
        return unit_ideal(module.ring)
    return module.rels_sub().colon(list(module.gens))


def residue_field(ring):
    """k = R/m as a cyclic module, one per ring: the ring keeps it, so that
    its kept resolution grows in place for every Ext(k, -) reader."""
    if ring._residue_field is None:
        gens = [Vec.unit(ring, 0)]
        rels = [Vec.from_poly(Poly.variable(ring, n)) for n in ring.names]
        ring._residue_field = FPModule(ring, 1, (0,), gens, rels, check=False)
    return ring._residue_field


# -- associated primes ---------------------------------------------------------


def _subset_ideal(ring, subset):
    gens = [Vec.from_poly(Poly.variable(ring, ring.names[i])) for i in sorted(subset)]
    return Submodule(ring, 1, (0,), gens, check=False)


def _subset_is_prime(ring, subset):
    # needs every base relation to be a monomial inside the subset ideal
    for rel in base_relation_vectors(ring, 1):
        if len(rel.terms) != 1:
            return False
        (_c, mono), _coeff = next(iter(rel.terms.items()))
        if not any(mono[i] for i in subset):
            return False
    return True


def _variable_subset_candidates(ring):
    n = ring.nvars
    if n > 10:
        raise StrategyExhausted("too many variables for subset enumeration")
    out = []
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            if _subset_is_prime(ring, subset):
                out.append(frozenset(subset))
    return out


def _monomial_minimal_primes(ideal_sub):
    """Minimal variable subsets covering a monomial ideal, or None.

    Reads the reduced Groebner basis, which is monomial exactly when the
    ideal is; redundant generators do not change the minimal covers.
    """
    ring = ideal_sub.ring
    covers = []
    for g in ideal_sub.groebner():
        if len(g.terms) != 1:
            return None
        ((_c, mono),) = g.terms
        covers.append(frozenset(i for i in range(ring.nvars) if mono[i]))
    hits = []
    for size in range(ring.nvars + 1):
        for subset in combinations(range(ring.nvars), size):
            s = frozenset(subset)
            if any(h <= s for h in hits):
                continue
            if all(s & c for c in covers):
                hits.append(s)
    return hits


def _ext_support_candidates(module):
    ring = module.ring
    if ring.relations:
        raise StrategyExhausted(
            "Ext-support candidates are only complete over a polynomial base"
        )
    n, dim = ring.nvars, module.dim()
    # (0) is associated exactly when M has positive rank
    subsets = {frozenset()} if dim == n else set()
    res = module.resolution(n + 1)
    free = FPModule.free(ring, (0,))
    # Ext^i(M, R) vanishes below grade(ann M) = codim M and past pd M
    for i in range(max(1, n - dim), min(n, len(res.maps)) + 1):
        e = hom_ext_tor(module, free, i, "Ext")
        # codim Ext^i(M, R) >= i, so a height-i prime needs dim = n - i
        if e.is_zero() or e.dim() < n - i:
            continue
        mins = _monomial_minimal_primes(annihilator(e))
        if mins is None:
            raise StrategyExhausted(
                "Ext annihilator at stage %d is not generated by monomials" % i
            )
        for s in mins:
            if len(s) == i:
                subsets.add(s)
    return sorted(subsets, key=lambda s: (len(s), sorted(s)))


def is_associated(module, prime_ideal):
    """Exact test: (0 :_M p) != 0 and ann of that submodule equals p."""
    rels = module.rels_sub()
    polys = [g.component(0) for g in prime_ideal.gens]
    killed = rels.colon_module(polys).intersect(module.gens_sub())
    if rels.contains_submodule(killed):
        return False
    return rels.colon(list(killed.gens)).equals(prime_ideal)


def associated_primes(module):
    """Ass(M) as a sorted list of prime ideals; exact or refuses."""
    ring = module.ring
    if module.is_zero():
        return []
    if not spans_terms(module.gens + module.rels, ring):
        # a height-i minimal prime of ann Ext^i(M, R) is associated to
        # Ext^i(M, R) in codimension i, hence to M (EHV, Thm 1.1)
        subsets = _ext_support_candidates(module)
        return [_subset_ideal(ring, s) for s in subsets]
    support = _monomial_minimal_primes(annihilator(module))
    if support is None:
        raise ContractViolation("annihilator of a fine module is not monomial")
    subsets = [
        s for s in _variable_subset_candidates(ring) if any(m <= s for m in support)
    ]
    out = []
    for subset in subsets:
        p = _subset_ideal(ring, subset)
        # a candidate minimal by inclusion is a minimal prime of Supp M
        if not any(s < subset for s in subsets) or is_associated(module, p):
            out.append(p)
    return out


# -- grade and dimension invariants --------------------------------------------


def scan_cap(ring):
    """Last homological stage a scan reads before it refuses: n over a
    polynomial base in n variables (Hilbert's syzygy theorem), n + 4 over a
    quotient base, where resolutions need not end."""
    return ring.nvars if not ring.relations else ring.nvars + 4


def _cyclic_quotient(ideal_sub):
    """R/J, its relation span J itself."""
    return FPModule.of(unit_ideal(ideal_sub.ring), ideal_sub)


def grade(ideal_sub, module):
    """grade(J, M): least i with Ext^i(R/J, M) != 0; inf when certifiable."""
    return _ext_grade(_cyclic_quotient(ideal_sub), module)


def _ext_grade(quotient, module):
    """grade(J, M) for quotient = R/J. R/J keeps its resolution, so a grid
    that passes one R/J for every module resolves it once."""
    ideal_sub = quotient.rels_sub()
    if module.is_zero():
        return math.inf
    if is_unit_ideal(ideal_sub):
        return math.inf
    ring = module.ring
    if ideal_sub.ring != ring:
        raise ContractViolation("ideal and module live over different rings")
    cap = scan_cap(ring)
    for i in range(cap + 1):
        if not hom_ext_tor(quotient, module, i, "Ext").is_zero():
            return i
    if not ring.relations:
        # all Ext vanish up to the projective dimension of R/J
        return math.inf
    jm = module.gens_sub().multiply_ideal(ideal_sub)
    m_mod_jm = FPModule.of(module.gens_sub(), module.rels_sub().plus(jm))
    if m_mod_jm.is_zero():
        return math.inf
    raise CapExceeded("no nonvanishing Ext up to %d over a singular base" % cap)


def betti_number(module, i):
    """beta_i as the rank of the i-th stage of the minimal resolution."""
    if i < 0:
        raise ContractViolation("homological index must be nonnegative")
    ranks = module.resolution(i).ranks()
    return ranks[i] if i < len(ranks) else 0


def bass_number(module, i):
    """mu^i."""
    if i < 0:
        raise ContractViolation("homological index must be nonnegative")
    if module.ring.relations:
        k = residue_field(module.ring)
        return hom_ext_tor(k, module, i, "Ext").length()
    return bass_profile(module, i + 1)[i]


def ext_bass_profile(module, count):
    """mu^0 .. mu^(count-1) as lengths of Ext^i(k, M), sharing one resolution
    of k: the route over a quotient base, and the reference for the Koszul
    reading over a polynomial base."""
    k = residue_field(module.ring)
    return [hom_ext_tor(k, module, i, "Ext").length() for i in range(count)]


def bass_profile(module, count):
    """mu^0 .. mu^(count-1).

    Over a polynomial base in n variables mu^i = beta_(n-i), read off the
    module's minimal resolution, n stages long. Over a quotient base the
    profile is ext_bass_profile.
    """
    ring = module.ring
    if ring.relations:
        return ext_bass_profile(module, count)
    n = ring.nvars
    ranks = module.resolution(n).ranks()
    return [ranks[n - i] if 0 <= n - i < len(ranks) else 0 for i in range(count)]


def depth(module):
    """First nonvanishing Bass number; inf for the zero module."""
    if module.is_zero():
        return math.inf
    cap = scan_cap(module.ring)
    profile = bass_profile(module, cap + 1)
    for i, mu in enumerate(profile):
        if mu:
            return i
    raise CapExceeded("no nonzero Bass number up to %d" % cap)


def projective_dimension(module):
    """Length of the minimal resolution, certified within scan_cap + 1 stages."""
    if module.is_zero():
        return -math.inf
    cap = scan_cap(module.ring)
    res = module.resolution(cap + 1)
    pd = len(res.modules) - 1
    # a kept resolution may run past cap + 1; an end found there is not read
    if not res.exhausted or pd > cap + 1:
        raise CapExceeded("resolution still active at stage %d" % (cap + 1))
    return pd


def injective_dimension(module, profile=None):
    """Largest nonvanishing Bass number; no internal zeros make it certified.

    profile, when given, is a bass_profile of module of any length;
    entries beyond scan_cap + 1 are not read.
    """
    if module.is_zero():
        return -math.inf
    cap = scan_cap(module.ring)
    if profile is None:
        profile = bass_profile(module, cap + 2)
    last = None
    for i, mu in enumerate(profile[: cap + 2]):
        if mu:
            last = i
        elif last is not None:
            return last
    raise CapExceeded("Bass numbers still nonzero at stage %d" % (cap + 1))

