"""The benchmark's workloads: which scenarios run, with which cache and jobs.

Four workloads, chosen so that every layer of functorlab is stressed by one
of them and bypassed by another:

- ``xyz-tensor``: the reference scenario (three variables, few large
  Groebner bases), cache off.  Pair criteria and reduction speed show here;
  cache changes are predicted not to move it.
- ``sweep-cold``: a two-ideal sweep over a 10x10 box starting from an empty
  disk cache.  Many small bases; interreduction and the cache write path.
- ``sweep-warm``: the same sweep against a disk cache primed once, untimed.
  Every basis comes from the cache read path; Groebner speed-ups are
  predicted to show almost nothing.
- ``bundled``: the six scenarios shipped with the package, including the
  two that exit non-zero on purpose, with ``--jobs 2`` and a fresh in-memory
  cache per scenario (the CLI default).

Only the sweep ideals depend on the seed; ``xyz-tensor`` and ``bundled``
are fixed inputs.
"""

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
SCENARIO_DIR = os.path.join(HERE, "scenarios")
GOLDEN_DIR = os.path.join(HERE, "golden")

WORKLOADS = ("xyz-tensor", "sweep-cold", "sweep-warm", "bundled")

BUNDLED = (
    "ass_stabilization", "bad_box", "degree_bound_fail",
    "hilbert_samuel_xy", "rees_component_track", "two_ideal_fit",
)

# m-primary monomial ideals of x,y with two generators of degrees 1 and 2.
# Every ordered pair of two distinct ones has the same colength and the same
# Groebner work up to swapping x and y, so the seed does not change the cost.
# (A pair of equal ideals collapses to a one-parameter family that runs in
# under half the time, so it is not a candidate.)
SWEEP_IDEALS = (("x", "y^2"), ("x^2", "y"))
SWEEP_PAIRS = tuple(
    (a, b) for a in SWEEP_IDEALS for b in SWEEP_IDEALS if a != b
)
DEFAULT_SEED = 0
SWEEP_BOX = ([1, 1], [10, 10])


def sweep_ideals(seed):
    """The (a, b) generator lists of the sweep for one seed."""
    return SWEEP_PAIRS[seed % len(SWEEP_PAIRS)]


def sweep_scenario_text(seed):
    a, b = sweep_ideals(seed)
    data = {
        "format": "scn/1",
        "label": "two ideal sweep",
        "ring": {"characteristic": 32003, "variables": ["x", "y"]},
        "ideals": {"a": list(a), "b": list(b)},
        "modules": {"M": {"type": "free", "twists": [0]}},
        "family": {"kind": "quotient", "module": "M", "ideals": ["a", "b"]},
        "box": {"lo": SWEEP_BOX[0], "hi": SWEEP_BOX[1], "shell": 1},
        "tasks": [{"task": "fit", "degree_cap": 2}],
        "output": {"stem": "two_ideal_sweep"},
    }
    return json.dumps(data, indent=2) + "\n"


class Workload:
    """Scenario files plus how the child process runs them.

    cache is "off" (``--no-cache``), "memory" (a fresh in-process cache per
    scenario, the CLI default), "cold" (a fresh empty directory per timed
    run) or "warm" (one directory primed before the timed runs).
    """

    def __init__(self, scenarios, cache, jobs, golden):
        self.scenarios = scenarios  # list of (stem, path)
        self.cache = cache
        self.jobs = jobs
        self.golden = golden  # whether golden reports apply to these inputs


def build(name, seed, workdir, src_dir):
    """The workload's inputs for one seed; sweep scenarios go to workdir."""
    if name == "xyz-tensor":
        path = os.path.join(SCENARIO_DIR, "xyz_tensor.scn")
        return Workload([("xyz_tensor", path)], "off", 1, True)
    if name in ("sweep-cold", "sweep-warm"):
        path = os.path.join(workdir, "two_ideal_sweep.scn")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(sweep_scenario_text(seed))
        cache = "cold" if name == "sweep-cold" else "warm"
        golden = sweep_ideals(seed) == sweep_ideals(DEFAULT_SEED)
        return Workload([("two_ideal_sweep", path)], cache, 1, golden)
    if name == "bundled":
        root = os.path.join(src_dir, "functorlab", "scenarios")
        paths = [(stem, os.path.join(root, stem + ".scn")) for stem in BUNDLED]
        return Workload(paths, "memory", 2, True)
    raise ValueError("unknown workload %r" % name)


def golden_dir(name):
    """Golden reports of a workload; the two sweeps share one set."""
    if name.startswith("sweep-"):
        name = "sweep"
    return os.path.join(GOLDEN_DIR, name)


def load_expected(name):
    """{stem: {"exit": code, "sha256": hex or None}} recorded at the seed."""
    with open(os.path.join(golden_dir(name), "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def product_gens(left, right):
    """Exponent vectors of the generators of (left)(right), by adding exponents."""
    return {tuple(a + b for a, b in zip(m, g)) for m in left for g in right}


def monomial_power_gens(gens, n):
    """Exponent vectors of the generators of (gens)^n."""
    out = {tuple(0 for _ in gens[0])}
    for _ in range(n):
        out = product_gens(out, gens)
    return out


def minimal_monos(monos):
    monos = sorted(set(monos), key=lambda m: (sum(m), m))
    kept = []
    for m in monos:
        if not any(all(a >= b for a, b in zip(m, k)) for k in kept):
            kept.append(m)
    return kept


def parse_monomial(text, names):
    """Exponent vector of a monomial string such as ``x*y^2``."""
    exps = [0] * len(names)
    for factor in text.split("*"):
        var, _, power = factor.partition("^")
        exps[names.index(var)] += int(power or 1)
    return tuple(exps)


def lambda_oracle(report):
    """{point key: length} computed from the scenario's monomial data alone.

    Handles the two bench families: a quotient family of the free module
    of rank one, optionally tensored with a cyclic module R/(monomials).
    F(R/a^n) is then R/(a^n + relations), a monomial quotient, and its
    length is the number of standard monomials.
    """
    from functorlab.oracles import staircase_count
    from functorlab.rings import PolyRing

    scn = report["scenario"]
    names = scn["ring"]["variables"]
    ring = PolyRing(tuple(names))
    family = [
        [parse_monomial(g, names) for g in scn["ideals"][ideal]]
        for ideal in scn["family"]["ideals"]
    ]
    extra = []
    functor = scn.get("functor")
    if functor is not None:
        if functor["builder"] != "tensor":
            raise ValueError("the oracle only handles tensor with a cyclic module")
        decl = scn["modules"][functor["module"]]
        extra = [parse_monomial(p, names) for p in decl["polys"]]
    lo, hi = scn["box"]["lo"], scn["box"]["hi"]
    out = {}
    points = [()]
    for a, b in zip(lo, hi):
        points = [p + (n,) for p in points for n in range(a, b + 1)]
    for point in points:
        gens = {tuple(0 for _ in names)}
        for ideal_gens, n in zip(family, point):
            gens = product_gens(gens, monomial_power_gens(ideal_gens, n))
        gens = minimal_monos(list(gens) + extra)
        out[",".join(str(n) for n in point)] = staircase_count(ring, gens)
    return out
