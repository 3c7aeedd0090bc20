"""The seeded corpus that the selftest suites, and the tests that borrow
from them, draw their inputs from.

Each base ring is built in one place, under the one name that every suite
message uses for it, and only when asked for. The four base kinds are
GF(32003)[x,y], Q[x,y], k[x,y] with weights (1, 2) and the monomial
quotient k[x,y,z]/(y^2, xz); k[x,y,z]/(xy - z^2) is the non-monomial
quotient, and k[x,y,z] over GF(p) and Q serve the term-ideal suite and the
tests. INPUTS holds each base's fixed inputs, seeded draws a Random shared
along the kinds in their order, and per_kind writes a suite's counts.
"""

import random
from collections import namedtuple

from .errors import StrategyExhausted
from .fpmodule import FPModule
from .functors import functor_from_ext, functor_from_hom, functor_from_tensor, functor_from_tor
from .grid import box_points
from .invariants import associated_primes
from .poly import parse_vec, quotient_ring
from .rings import PolyRing
from .submodule import IdealFamily, ideal

_BASES = {
    "GF(p)": lambda: PolyRing(("x", "y")),
    "Q": lambda: PolyRing(("x", "y"), char=0),
    "weights (1,2)": lambda: PolyRing(("x", "y"), weights=(1, 2)),
    "k[x,y,z]/(y^2, xz)": lambda: quotient_ring(PolyRing(("x", "y", "z")), ["y^2", "x*z"]),
    "k[x,y,z]/(xy - z^2)": lambda: quotient_ring(PolyRing(("x", "y", "z")), ["x*y - z^2"]),
    "k[x,y,z]": lambda: PolyRing(("x", "y", "z")),
    "Q[x,y,z]": lambda: PolyRing(("x", "y", "z"), char=0),
}
KINDS = ("GF(p)", "Q", "weights (1,2)", "k[x,y,z]/(y^2, xz)")
POLYNOMIAL_KINDS = KINDS[:3]

# the bases the coefficient-route oracles of the tests run over, by test id
ORACLE_BASES = {
    "gf": "k[x,y,z]", "q": "Q[x,y,z]", "weights_1_2": "weights (1,2)",
    "quotient_xy_z2": "k[x,y,z]/(xy - z^2)", "quotient_y2_xz": "k[x,y,z]/(y^2, xz)",
}


def base(name):
    """The base ring under its corpus name, built afresh."""
    return _BASES[name]()


def seeded(kinds, seed):
    """(kind, ring, rng) for each kind in turn; one Random(seed) serves them
    all, so a kind's draws are fixed by the seed and the kinds before it."""
    rng = random.Random(seed)
    return [(kind, base(kind), rng) for kind in kinds]


def per_kind(what, counts):
    """A suite's message: the total, then the count on each base kind."""
    return "%d %s (%s)" % (
        sum(counts.values()), what, "; ".join("%s: %d" % item for item in counts.items()))


# Per base: ideal generators for the Buchberger suite, whose term ideals
# (generators and base relations all single terms) the term-ideal suite
# pairs; some lists give a generator before a lower-degree one that
# divides it, so the input queue reorders them and reduces the multiple
# away. Syzygy generators: a list of terms is an ideal, a list of columns
# a rank-2 module. Artin-Rees cases (I, N, expected d). Component inputs:
# a term ideal, a non-term ideal, cyclic relations and a presentation column.
Inputs = namedtuple("Inputs", "ideals syzygies artin_rees component", defaults=((),) * 4)
_PLAIN = (
    ["x", "y"],
    ["x^2", "x*y", "y^2"],
    ["x^3", "x^2", "x*y"],
    ["x^3 - x*y^2", "y^3"],
    ["x^2 + y^2", "x*y"],
    ["x^3 + x*y^2", "y^3 + x^2*y", "x^2 + y^2"],
)
_PLAIN_SYZYGIES = (
    ["x", "y"], ["x^2", "x*y", "y^2"], ["x^2 + y^2", "x*y"], [["x", "y"], ["y", "x"]],
)
INPUTS = {
    "GF(p)": Inputs(
        _PLAIN, _PLAIN_SYZYGIES,
        ((["x", "y"], "x", (1,)), (["x"], "y^2", (0,)), (["x^2 + y^2", "x*y"], "x", (1,))),
        (["x^2", "x*y"], ["x^2 + y^2", "x*y"], ("x^2 + y^2", "x*y"), ["x", "y"]),
    ),
    "Q": Inputs(
        _PLAIN, _PLAIN_SYZYGIES, ((["x^2 + y^2", "x*y"], "x", (1,)),),
        (["x", "y^2"], ["x^2 - x*y", "y^2"], ("x^2 - x*y", "y^2"), ["x", "y"]),
    ),
    "weights (1,2)": Inputs(
        (
            ["x^2 - y", "x*y"],
            ["x^3", "x*y", "y^2"],
            ["x^2*y", "x*y^2", "y^3"],
            ["x^4 + y^2", "x^2*y", "x^3"],
            ["x^3*y + x*y^2", "x^2 - y", "y^2"],
        ),
        (["x^2", "y"], ["x^3", "x*y", "y^2"], ["x^2 + y", "x*y"], [["x^2", "y"], ["y", "x^2"]]),
        ((["x^2 + y", "x*y"], "x", (1,)),),
        (["x^2", "y"], ["x^2 + y", "x*y"], ("x^2 + y", "x*y"), ["y", "x^2"]),
    ),
    "k[x,y,z]/(y^2, xz)": Inputs(
        (["x^2", "y*z"], ["x*y^3", "z^3", "x*y", "x^2*y"], ["y", "x^2*z", "z^2"], ["x + z", "y*z"]),
        (["x", "y"], ["x^2", "y*z", "z^2"], ["x + z", "y"], [["x", "y"], ["z", "x"]]),
        ((["x + z", "y"], "x", (0,)),),
        (["x", "z"], ["x^2 - y*z", "x*y + z^2"], ("x + z",), ["x", "z"]),
    ),
    "k[x,y,z]/(xy - z^2)": Inputs(
        (["x", "z"], ["x^2 + y^2", "x*z"], ["y^3 - x*z^2", "x^2*z", "x*z", "y^2"]),
    ),
    # two variables per ideal: staircase numerators, and products that pivot down to them
    "k[x,y,z]": Inputs((["x^2", "x*y^2", "y^3"], ["y*z", "z^3"], ["x^3", "x*z^2"])),
}


def module_corpus(ring):
    """The free module, five cyclic term quotients and a cokernel with a
    unit entry, over any base in x and y."""
    batches = (("x",), ("x", "y"), ("x^2", "x*y", "y^2"), ("x^2", "y^3"), ("x*y",))
    return [FPModule.free(ring, (0,))] + [FPModule.cyclic(ring, b) for b in batches] + [
        FPModule.from_cokernel(ring, (0, 1), [parse_vec(ring, ["x", "-1"])])]


def route_corpus(ring, count=25, seed=20260401):
    """Seeded (functor, argument) pairs; deterministic across runs."""
    rng = random.Random(seed)
    modules = module_corpus(ring)
    builders = [
        functor for m in modules[1:4] for functor in (
            functor_from_hom(m), functor_from_tensor(m),
            functor_from_ext(m, 1), functor_from_tor(m, 1))
    ]
    return [(rng.choice(builders), rng.choice(modules)) for _ in range(count)]


def component_corpus(seed=20261019):
    """Seeded component families (label, kind, family, module, points) over
    the four kinds. Each ring has a term ideal and a non-term ideal
    (r = 1), and a pair of them in an order the seed picks (r = 2); M is
    free, cyclic with non-term relations, or presented on two generators by
    one relation with a term in each. Points run to n = 3 for r = 1 and to
    (2, 1) or (1, 2) for r = 2."""
    out = []
    for kind, ring, rng in seeded(KINDS, seed):
        term, nonterm, cyclic, column = INPUTS[kind].component
        modules = (
            ("free", FPModule.free(ring, (0,))),
            ("cyclic", FPModule.cyclic(ring, cyclic)),
            ("presented", FPModule.from_cokernel(ring, (0, 0), [parse_vec(ring, column)])),
        )
        pair = [ideal(ring, term), ideal(ring, nonterm)]
        rng.shuffle(pair)
        top = rng.choice([(2, 1), (1, 2)])
        families = (
            ("term", IdealFamily([ideal(ring, term)]), [(n,) for n in range(4)]),
            ("non-term", IdealFamily([ideal(ring, nonterm)]), [(n,) for n in range(4)]),
            ("pair", IdealFamily(pair), box_points((0, 0), top)),
        )
        for family_label, family, points in families:
            for module_label, module in modules:
                label = "%s, %s, %s" % (kind, family_label, module_label)
                out.append((label, kind, family, module, points))
    return out


def ass_keys(module):
    """Ass as sorted generator strings, or None when the Ext route refuses."""
    try:
        primes = associated_primes(module)
    except StrategyExhausted:
        return None
    return sorted(sorted(str(g.component(0)) for g in p.gens) for p in primes)
