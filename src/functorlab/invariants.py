"""Associated primes, grade, depth, Betti and Bass numbers.

Associated primes are never guessed: a candidate prime p is accepted only
when the exact criterion holds, namely (0 :_M p) != 0 and the annihilator of
(0 :_M p) is p on the nose. Candidate generation is a ladder: fine-graded
modules draw candidates from variable-subset primes; otherwise, over a
polynomial base, minimal primes of the annihilators of Ext^i(M, R) of height
i are tried. When no complete candidate scheme applies the computation
refuses with StrategyExhausted rather than return a possibly partial list.

grade(J, M) is the first nonvanishing Ext^i(R/J, M). Bass numbers have no
internal zeros between depth and the injective dimension, and Betti numbers
none between 0 and the projective dimension, so both dimensions are certified
by the first zero after a nonzero; caps only guard against unbounded scans
over a singular base.
"""

from __future__ import annotations

import math
from itertools import combinations

from .errors import CapExceeded, ContractViolation, StrategyExhausted
from .fpmodule import FPModule, free_resolution, hom_ext_tor
from .groebner import base_relation_vectors
from .poly import Poly, Vec
from .rings import GREVLEX
from .submodule import Submodule, is_unit_ideal, unit_ideal


def annihilator(module):
    """ann(M) = (rels : gens) as an ideal; unit ideal for the zero module."""
    if not module.gens:
        return unit_ideal(module.ring, module.order)
    return module.rels_sub().colon(list(module.gens))


def residue_field(ring, order=GREVLEX):
    """k = R/m as a cyclic module."""
    gens = [Vec.unit(ring, 0)]
    rels = [Vec.from_poly(Poly.variable(ring, n)) for n in ring.names]
    return FPModule(ring, 1, (0,), gens, rels, order, check=False)


# -- associated primes ---------------------------------------------------------


def _is_fine(module):
    """Single-term generators, relations, and base relations throughout."""
    for v in list(module.gens) + list(module.rels):
        if len(v.terms) != 1:
            return False
    for rel in base_relation_vectors(module.ring, 1):
        if len(rel.terms) != 1:
            return False
    return True


def _subset_ideal(ring, subset, order):
    gens = [Vec.from_poly(Poly.variable(ring, ring.names[i])) for i in sorted(subset)]
    return Submodule(ring, 1, (0,), gens, order, check=False)


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
    """Minimal variable subsets covering a monomial ideal, or None."""
    ring = ideal_sub.ring
    gens = ideal_sub.minimal_generators().gens
    covers = []
    for g in gens:
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
    if module.ring.relations:
        raise StrategyExhausted(
            "Ext-support candidates are only complete over a polynomial base"
        )
    ring = module.ring
    free = FPModule.free(ring, (0,), module.order)
    res = free_resolution(module, ring.nvars + 1)
    subsets = set()
    for i in range(ring.nvars + 1):
        e = hom_ext_tor(module, free, i, "Ext", resolution=res)
        if e.is_zero():
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
    if _is_fine(module):
        subsets = _variable_subset_candidates(ring)
    else:
        subsets = _ext_support_candidates(module)
    out = []
    for subset in sorted(set(subsets), key=lambda s: (len(s), sorted(s))):
        p = _subset_ideal(ring, subset, module.order)
        if is_associated(module, p):
            out.append(p)
    return out


# -- grade and dimension invariants --------------------------------------------


def scan_cap(ring, length_cap):
    """Last homological stage a scan reads before it refuses."""
    if length_cap is not None:
        return length_cap
    return ring.nvars if not ring.relations else ring.nvars + 4


def grade(ideal_sub, module, length_cap=None):
    """grade(J, M): least i with Ext^i(R/J, M) != 0; inf when certifiable."""
    if module.is_zero():
        return math.inf
    if is_unit_ideal(ideal_sub):
        return math.inf
    ring = module.ring
    if ideal_sub.ring != ring:
        raise ContractViolation("ideal and module live over different rings")
    cyc = FPModule(
        ring, 1, (0,), [Vec.unit(ring, 0)], list(ideal_sub.gens), module.order, check=False
    )
    cap = scan_cap(ring, length_cap)
    res = free_resolution(cyc, cap + 1)
    for i in range(cap + 1):
        if not hom_ext_tor(cyc, module, i, "Ext", resolution=res).is_zero():
            return i
    if not ring.relations:
        # all Ext vanish up to the projective dimension of R/J
        return math.inf
    jm = [g.mul_poly(p.component(0)) for p in ideal_sub.gens for g in module.gens]
    quotient = FPModule(
        ring, module.rank, module.twists, module.gens,
        list(module.rels) + jm, module.order, check=False,
    )
    if quotient.is_zero():
        return math.inf
    raise CapExceeded("no nonvanishing Ext up to %d over a singular base" % cap)


def betti_number(module, i, resolution=None):
    """beta_i as the rank of the i-th stage of the minimal resolution.

    resolution, when given, is free_resolution(module, L) for some L >= i.
    """
    if i < 0:
        raise ContractViolation("homological index must be nonnegative")
    if resolution is None:
        resolution = free_resolution(module, i)
    elif not resolution.exhausted and len(resolution.maps) < i:
        raise CapExceeded("supplied resolution is too short for stage %d" % i)
    ranks = resolution.ranks()
    return ranks[i] if i < len(ranks) else 0


def bass_number(module, i, profile=None):
    """mu^i; profile, when given, is a bass_profile of module longer than i."""
    if i < 0:
        raise ContractViolation("homological index must be nonnegative")
    if profile is not None:
        return profile[i]
    k = residue_field(module.ring, module.order)
    return hom_ext_tor(k, module, i, "Ext").length()


def bass_profile(module, count):
    """mu^0 .. mu^(count-1), sharing one Koszul resolution."""
    k = residue_field(module.ring, module.order)
    res = free_resolution(k, count + 1)
    return [
        hom_ext_tor(k, module, i, "Ext", resolution=res).length() for i in range(count)
    ]


def depth(module, length_cap=None):
    """First nonvanishing Bass number; inf for the zero module."""
    if module.is_zero():
        return math.inf
    cap = scan_cap(module.ring, length_cap)
    profile = bass_profile(module, cap + 1)
    for i, mu in enumerate(profile):
        if mu:
            return i
    raise CapExceeded("no nonzero Bass number up to %d" % cap)


def projective_dimension(module, length_cap=None, resolution=None):
    """Length of the minimal resolution, certified within cap + 1 stages.

    resolution, when given, is free_resolution(module, L) for any L; stages
    beyond cap + 1 are not read.
    """
    if module.is_zero():
        return -math.inf
    cap = scan_cap(module.ring, length_cap)
    res = free_resolution(module, cap + 1) if resolution is None else resolution
    pd = len(res.modules) - 1
    if not res.exhausted or pd > cap + 1:
        raise CapExceeded("resolution still active at stage %d" % (cap + 1))
    return pd


def injective_dimension(module, length_cap=None, profile=None):
    """Largest nonvanishing Bass number; no internal zeros make it certified.

    profile, when given, is a bass_profile of module of any length;
    entries beyond cap + 1 are not read.
    """
    if module.is_zero():
        return -math.inf
    cap = scan_cap(module.ring, length_cap)
    if profile is None:
        profile = bass_profile(module, cap + 2)
    last = None
    for i, mu in enumerate(profile[: cap + 2]):
        if mu:
            last = i
        elif last is not None:
            return last
    raise CapExceeded("Bass numbers still nonzero at stage %d" % (cap + 1))


def depth_betti_bass(module, i):
    """The bundle the stability layer tracks per grid point."""
    return {
        "depth": depth(module),
        "betti": betti_number(module, i),
        "bass": bass_number(module, i),
    }
