"""scn/1 scenario files: JSON-compatible, versioned, hand-writable.

A scenario declares a ring, named ideals and modules, one functor
expression, a family (quotient or component), a box, and a task list.
Parsing is strict. First every key of every block is checked against its
kind in KEYS, which refuses unread keys, wrong kinds and undeclared names.
Then the blocks are built, which refuses inhomogeneous declarations, row
shapes, malformed boxes and the cross-key rules. Each refusal names its
block and comes before any computation starts.
"""

import json
import os
from collections import namedtuple
from fractions import Fraction

from .errors import ConfigurationError, ContractViolation, HomogeneityError
from .fpmodule import FPModule
from .functors import (
    CoherentFunctor,
    Composite,
    functor_from_ext,
    functor_from_hom,
    functor_from_tensor,
    functor_from_tor,
)
from .grid import GridBox
from .poly import parse_poly, parse_vec, quotient_ring
from .rings import PolyRing
from .stability import OBSERVABLE_NAMES, FamilySpec
from .submodule import IdealFamily, Submodule, ideal


FORMAT_TAG = "scn/1"
# levels of objects and lists a document may nest; a deeper one is refused
# before anything recurses on it, at whatever stack depth the caller runs
MAX_NESTING = 100


class Kind:
    """What one key holds. ok(value, declared) tests a value against the
    document's declared names and box dimension r; list-builtins prints the
    name; a refusal ends in the phrase ("... must be <phrase>"). A kind with
    names holds a declared ideal, module or submodule name (no phrase: the
    refusal names the unknown value), or a list of them."""

    __slots__ = ("name", "phrase", "ok", "names", "required")

    def __init__(self, name, phrase, ok, names=None, required=False):
        self.name = name
        self.phrase = phrase
        self.ok = ok
        self.names = names
        self.required = required

    def needed(self):
        """This kind, for a key its block must have."""
        return Kind(self.name, self.phrase, self.ok, self.names, required=True)


def _point_values(value, declared):
    """An object mapping "n_1,...,n_r" point keys to rational numbers."""
    if not isinstance(value, dict):
        return False
    for key, number in value.items():
        try:
            point = [int(part) for part in key.split(",")]
            Fraction(number)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            return False
        if isinstance(number, bool) or declared["r"] not in (None, len(point)):
            return False
    return True


BOOL = Kind("bool", "true or false", lambda v, d: isinstance(v, bool))
COUNT = Kind("nonnegative int", "a nonnegative integer", lambda v, d: type(v) is int and v >= 0)
INTS = Kind("int list", "a list of integers",
            lambda v, d: isinstance(v, list) and all(type(n) is int for n in v))
POINT = Kind("point", "a list of integers, one per box coordinate",
             lambda v, d: INTS.ok(v, d) and d["r"] in (None, len(v)))
EXPONENT = Kind("nonnegative point", "a list of nonnegative integers, one per box coordinate",
                lambda v, d: POINT.ok(v, d) and all(n >= 0 for n in v))
TEXT = Kind("string", "a string", lambda v, d: isinstance(v, str))
NAMES = Kind("names", "a nonempty list of names",
             lambda v, d: isinstance(v, list) and v != [] and all(isinstance(s, str) for s in v))
POLYS = Kind("polynomials", "a list of polynomial strings",
             lambda v, d: isinstance(v, list) and all(isinstance(p, str) for p in v))
GENERATORS = Kind("nonempty polynomials",
                  "a nonempty list of polynomial strings (use type free for the ring itself)",
                  lambda v, d: v != [] and POLYS.ok(v, d))
ROWS = Kind("polynomial rows", "a list of lists of polynomial strings",
            lambda v, d: isinstance(v, list) and all(POLYS.ok(row, d) for row in v))
PRIMES = Kind("prime lists", "a list of primes, each a list of generator strings", ROWS.ok)
IDEAL = Kind("ideal name", None, lambda v, d: isinstance(v, str) and v in d["ideal"], "ideal")
MODULE = Kind("module name", None, lambda v, d: isinstance(v, str) and v in d["module"], "module")
SUBMODULE = Kind("submodule name", None,
                 lambda v, d: isinstance(v, str) and v in d["submodule"], "submodule")
IDEALS = Kind("ideal names", "a nonempty list of declared ideals",
              lambda v, d: isinstance(v, list) and v != [] and all(IDEAL.ok(n, d) for n in v),
              "ideal")
OBSERVABLE = Kind("observable", "one of %s" % ", ".join(OBSERVABLE_NAMES),
                  lambda v, d: isinstance(v, str) and v in OBSERVABLE_NAMES)
OBSERVABLES = Kind("observables", "a list of observables, each one of %s"
                   % ", ".join(OBSERVABLE_NAMES),
                   lambda v, d: isinstance(v, list) and all(OBSERVABLE.ok(o, d) for o in v))
VALUES = Kind("point values", "an object mapping points such as \"1,2\", one integer per "
              "box coordinate, to numbers", _point_values)
VALUE = Kind("stable value", "any value", lambda v, d: True)
STEM = Kind("file stem", "a nonempty file name with no path separator",
            lambda v, d: isinstance(v, str) and v not in ("", ".", "..")
            and not any(c in v for c in ("/", os.sep, "\0")))
# read as "compose needs a nonempty list of parts"; each part is a functor block
PARTS = Kind("functor blocks", "a nonempty list of", lambda v, d: isinstance(v, list) and v != [])
OBJECT = Kind("object", "an object", lambda v, d: isinstance(v, dict))
LIST = Kind("list", "a list", lambda v, d: isinstance(v, list))

# Every key the loader reads, with its kind, one entry per block; the loader
# refuses any other key. The modules, functor, family and tasks blocks pick
# their entry by a selector key (SELECTORS), and every ideal is a list of
# polynomial strings.
KEYS = {
    "scenario": {
        "format": TEXT, "label": TEXT, "ring": OBJECT.needed(), "ideals": OBJECT,
        "modules": OBJECT, "functor": OBJECT, "family": OBJECT, "box": OBJECT,
        "tasks": LIST, "output": OBJECT,
    },
    "ring": {
        "variables": NAMES.needed(), "characteristic": COUNT, "weights": INTS,
        "base_relations": POLYS,
    },
    "ideals": POLYS,
    "modules": {
        "free": {"twists": INTS},
        "cyclic": {"polys": GENERATORS.needed()},
        "presentation": {"twists": INTS, "columns": ROWS},
        "submodule": {"of": MODULE.needed(), "vectors": ROWS},
    },
    "functor": {
        "hom": {"module": MODULE.needed()},
        "tensor": {"module": MODULE.needed()},
        "tor": {"module": MODULE.needed(), "i": COUNT.needed()},
        "ext": {"module": MODULE.needed(), "i": COUNT.needed()},
        "compose": {"parts": PARTS.needed()},
    },
    "family": {
        "quotient": {"module": MODULE.needed(), "ideals": IDEALS.needed(), "sub": SUBMODULE},
        "component": {"module": MODULE.needed(), "ideals": IDEALS.needed()},
    },
    "box": {"lo": INTS.needed(), "hi": INTS.needed(), "shell": COUNT},
    "tasks": {
        "normal_form": {},
        "stabilization": {
            "observable": OBSERVABLE, "ideal": IDEAL, "identity": BOOL, "assert_stable": BOOL,
            "expect_value": VALUE,
        },
        "fit": {
            "identity": BOOL, "degree_cap": COUNT, "assert_degree": COUNT,
            "assert_onset": POINT, "assert_values": VALUES,
        },
        "degree_bound": {"degree_cap": COUNT, "assert_max_degree": COUNT},
        "grade": {"ideal": IDEAL, "identity": BOOL, "expect_value": VALUE, "oracle": BOOL},
        "betti_bass": {"identity": BOOL, "i_max": COUNT, "assert_pd": COUNT, "assert_id": COUNT},
        "component_track": {
            "observables": OBSERVABLES, "ideal": IDEAL, "identity": BOOL,
            "assert_degree": COUNT, "assert_onset": POINT, "assert_values": VALUES,
            "expect_ass": PRIMES,
        },
        "artin_rees": {"sub": SUBMODULE.needed(), "window": COUNT, "expect": EXPONENT},
    },
    "output": {"stem": STEM},
}
SELECTORS = {"modules": "type", "functor": "builder", "family": "kind", "tasks": "task"}
BUILDER_KEYS = KEYS["functor"]
TASK_KEYS = KEYS["tasks"]

# how a block's refusals name the owner of its keys, and a key whose value
# is not of its kind: %(name)s is the selected task, builder or family kind,
# %(where)s the module declaration
WORDING = {
    "modules": ("module %(where)s", "%(where)s %(key)s must be %(phrase)s"),
    "functor": ("builder %(name)r", "%(name)s needs %(phrase)s %(key)s"),
    "tasks": ("task %(name)r", "%(key)r in task %(name)r must be %(phrase)s"),
}

# what a task needs besides the family and box blocks every task reads
TASK_NEEDS = {
    "normal_form": ("quotient", "single functor"),
    "degree_bound": ("quotient", "single functor"),
    "artin_rees": ("quotient",),
    "component_track": ("component",),
}


def bundled_scenarios():
    """Names of the scenario files shipped inside the package."""
    root = os.path.join(os.path.dirname(__file__), "scenarios")
    return tuple(sorted(f for f in os.listdir(root) if f.endswith(".scn")))


def names_a_path(arg):
    """Whether a scenario argument holds a path separator, and so names a
    file rather than a bundled scenario."""
    return any(sep and sep in arg for sep in (os.sep, os.altsep))


def bundled_scenario_path(name):
    if names_a_path(name):
        raise ConfigurationError("bundled scenario names hold no path separator: %r" % name)
    if not name.endswith(".scn"):
        name += ".scn"
    path = os.path.join(os.path.dirname(__file__), "scenarios", name)
    if not os.path.exists(path):
        raise ConfigurationError("no bundled scenario named %r" % name)
    return path


# the parsed and name-resolved scenario, ready for the runner
Scenario = namedtuple("Scenario", (
    "label", "ring", "ideals", "modules", "submodules", "expression", "family_spec", "box",
    "tasks", "output_stem", "raw",
))


def _fail(block, message):
    raise ConfigurationError("%s block: %s" % (block, message))


def load_scenario_text(text, char_override=None):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            "parse error at line %d column %d: %s" % (exc.lineno, exc.colno, exc.msg)
        )
    except RecursionError:
        raise ConfigurationError("parse error: the document nests too deeply to decode")
    return build_scenario(data, char_override=char_override)


def load_scenario(path, char_override=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError("cannot read scenario %s: %s" % (path, exc))
    return load_scenario_text(text, char_override=char_override)


def _walk(block, entry, data, declared, selector=None, name=None, where=None):
    """Refuse a key of data that entry does not list, a key it needs that
    data lacks, and a value that is not of its key's kind."""
    owner, shape = WORDING.get(block, ("%(block)s", "%(key)s must be %(phrase)s"))
    words = {"block": block, "name": name, "where": where}
    owner %= words
    unknown = sorted(k for k in data if k not in entry and k != selector)
    if unknown:
        _fail(block, "%s does not read %s (it reads: %s)" % (
            owner, ", ".join(map(repr, unknown)), ", ".join(entry) or "no key"))
    for key, kind in entry.items():
        if key not in data:
            if kind.required:
                _fail(block, "%s needs %r" % (owner, key))
        elif not kind.ok(data[key], declared):
            if kind.phrase is None:
                message = "unknown %s %r in %s" % (kind.names, data[key], owner)
            else:
                message = shape % dict(words, key=key, phrase=kind.phrase)
            if kind.names:
                message += " (have: %s)" % (", ".join(sorted(declared[kind.names])) or "none")
            _fail(block, message)


def _walk_chosen(block, data, declared, where):
    """_walk data against the entry of KEYS[block] that its selector key
    picks: a module type, builder, family kind or task."""
    selector, table = SELECTORS[block], KEYS[block]
    name = data.get(selector) if isinstance(data, dict) else None
    if not isinstance(name, str) or name not in table:
        _fail(block, "unknown %s %r in %s (have: %s)" % (selector, name, where, ", ".join(table)))
    _walk(block, table[name], data, declared, selector, name, where)


def _check_keys(data):
    """Check every block of data against its entry in KEYS, before anything
    is built."""
    _walk("scenario", KEYS["scenario"], data, None)
    modules = data.get("modules", {})
    hosts = {n for n, decl in modules.items()
             if not (isinstance(decl, dict) and decl.get("type") == "submodule")}
    box = data.get("box", {})
    corners = {len(box[k]) for k in ("lo", "hi") if isinstance(box.get(k), list)}
    declared = {
        "ideal": set(data.get("ideals", {})),
        "module": hosts,
        "submodule": set(modules) - hosts,
        # unknown while the corners disagree: the box block refuses them
        "r": corners.pop() if len(corners) == 1 else None,
    }
    _walk("ring", KEYS["ring"], data["ring"], declared)
    for name, gens in data.get("ideals", {}).items():
        if not KEYS["ideals"].ok(gens, declared):
            _fail("ideals", "%r must be %s" % (name, KEYS["ideals"].phrase))
    for name, decl in modules.items():
        _walk_chosen("modules", decl, declared, repr(name))
    functors = [data["functor"]] if "functor" in data else []
    while functors:
        functor = functors.pop(0)
        _walk_chosen("functor", functor, declared, "functor")
        functors.extend(functor.get("parts", ()))
    if "family" in data:
        _walk_chosen("family", data["family"], declared, "family")
    for block in ("box", "output"):
        if block in data:
            _walk(block, KEYS[block], data[block], declared)
    for i, entry in enumerate(data.get("tasks", [])):
        _walk_chosen("tasks", entry, declared, "entry %d" % i)


def _nests_too_deep(data):
    pending = [(data, 1)]
    while pending:
        node, level = pending.pop()
        if isinstance(node, dict):
            node = list(node.values())
        if isinstance(node, list):
            if level > MAX_NESTING:
                return True
            pending.extend((child, level + 1) for child in node)
    return False


def build_scenario(data, char_override=None):
    if not isinstance(data, dict):
        raise ConfigurationError("scenario must be a JSON object")
    if _nests_too_deep(data):
        raise ConfigurationError(
            "scenario nests deeper than %d levels of objects and lists" % MAX_NESTING
        )
    if data.get("format") != FORMAT_TAG:
        raise ConfigurationError("scenario format must be %r" % FORMAT_TAG)
    unknown = [k for k in data if k not in KEYS["scenario"]]
    if unknown:
        raise ConfigurationError("unknown top-level blocks: %s" % ", ".join(sorted(unknown)))
    _check_keys(data)
    label = data.get("label", "")
    stem = data.get("output", {}).get("stem", label.replace(" ", "_") or "scenario")
    if not STEM.ok(stem, None):
        _fail("output", "the label gives the stem %r, which is not %s; set a stem"
              % (stem, STEM.phrase))

    ring = _build_ring(data["ring"], char_override)
    ideals = _build_ideals(ring, data.get("ideals", {}))
    modules, submodules = _build_modules(ring, data.get("modules", {}))
    expression = None
    if "functor" in data:
        expression = _build_expression(data["functor"], modules)
    family_spec = None
    if "family" in data:
        family_spec = _build_family(data["family"], ideals, modules, submodules)
    box = None
    if "box" in data:
        box = _build_box(data["box"])
        if family_spec is not None and box.r != family_spec.r:
            _fail("box", "%d coordinates for a family of %d ideals" % (box.r, family_spec.r))
    tasks = _build_tasks(data.get("tasks", []), expression, family_spec, box)
    return Scenario(
        label, ring, ideals, modules, submodules, expression, family_spec,
        box, tasks, stem, data,
    )


def _build_ring(block, char_override):
    char = block.get("characteristic", 32003) if char_override is None else char_override
    try:
        base = PolyRing(tuple(block["variables"]), char=char, weights=block.get("weights"))
        rels = block.get("base_relations")
        return quotient_ring(base, rels) if rels else base
    except (ConfigurationError, HomogeneityError) as exc:
        _fail("ring", str(exc))


def _build_ideals(ring, block):
    out = {}
    for name, gens in block.items():
        try:
            out[name] = ideal(ring, [parse_poly(ring, g) for g in gens])
        except (ConfigurationError, HomogeneityError) as exc:
            _fail("ideals", "%r: %s" % (name, exc))
    return out


def _declaration(name, build):
    """build(), a polynomial it cannot parse or an inhomogeneous input
    refused as a modules-block error."""
    try:
        return build()
    except (ConfigurationError, HomogeneityError) as exc:
        _fail("modules", "%r: %s" % (name, exc))


def _build_modules(ring, block):
    modules = {}
    submodules = {}
    # every submodule after every module, so it may name a host declared later
    for name, decl in sorted(block.items(), key=lambda item: item[1]["type"] == "submodule"):
        kind = decl["type"]
        twists = tuple(decl.get("twists", [0]))
        if kind == "free":
            modules[name] = FPModule.free(ring, twists)
        elif kind == "cyclic":
            modules[name] = _declaration(name, lambda: FPModule.cyclic(ring, tuple(decl["polys"])))
        elif kind == "presentation":
            cols = decl.get("columns", [])
            if any(len(col) != len(twists) for col in cols):
                _fail("modules", "%r column shape does not match twists" % name)
            modules[name] = _declaration(name, lambda: FPModule.from_cokernel(
                ring, twists, [parse_vec(ring, col) for col in cols]))
        else:
            host = modules[decl["of"]]
            rows = decl.get("vectors", [])
            if any(len(row) != host.rank for row in rows):
                _fail("modules", "%r vector shape does not match %r" % (name, decl["of"]))
            submodules[name] = (decl["of"], _declaration(name, lambda: Submodule(
                ring, host.rank, host.twists, [parse_vec(ring, row) for row in rows])))
    return modules, submodules


def _build_expression(block, modules):
    builder = block["builder"]
    if builder == "compose":
        return Composite(*[_build_expression(p, modules) for p in block["parts"]])
    m = modules[block["module"]]
    i = block.get("i", 0)
    # Ext^0 = Hom and Tor_0 = tensor
    if builder in ("hom", "ext"):
        return functor_from_ext(m, i) if i else functor_from_hom(m)
    return functor_from_tor(m, i) if i else functor_from_tensor(m)


def _build_family(block, ideals, modules, submodules):
    fam = IdealFamily([ideals[n] for n in block["ideals"]])
    name = block["module"]
    if block["kind"] == "component":
        return FamilySpec.component(modules[name], fam)
    host, sub = submodules.get(block.get("sub"), (name, modules[name].gens_sub()))
    if host != name:
        _fail("family", "submodule %r lives in %r, not %r" % (block["sub"], host, name))
    return FamilySpec.quotient(modules[name], sub, fam)


def _build_box(block):
    try:
        return GridBox(block["lo"], block["hi"], block.get("shell", 1))
    except ContractViolation as exc:
        _fail("box", str(exc))


def _check_needs(name, expression, family_spec, box):
    """Refuse a task whose blocks are missing before any task runs."""
    for block, present in (("family", family_spec), ("box", box)):
        if present is None:
            _fail("tasks", "%s task needs a %s block" % (name, block))
    for need in TASK_NEEDS.get(name, ()):
        if need != "single functor":
            if family_spec.kind != need:
                _fail("tasks", "%s task needs a %s family" % (name, need))
        elif expression is None:
            _fail("tasks", "%s task needs a functor block" % name)
        elif not isinstance(expression, CoherentFunctor):
            _fail("tasks", "%s task needs a single functor, not a composition" % name)


def _build_tasks(block, expression, family_spec, box):
    """The task entries, after the rules that tie a task to other keys and
    blocks: grade needs an ideal, each task the blocks it reads, and a
    degree cap the points of the box."""
    for entry in block:
        name = entry["task"]
        observed = (name, entry.get("observable")) + tuple(entry.get("observables", ()))
        if "grade" in observed and "ideal" not in entry:
            _fail("tasks", "grade in task %r needs an ideal" % name)
        _check_needs(name, expression, family_spec, box)
        cap = entry.get("degree_cap")
        if cap is not None and cap >= box.fit_points():
            _fail("box", "degree_cap %d in task %r needs %d points per axis below the shell, "
                  "the box has %d" % (cap, name, cap + 1, box.fit_points()))
    return [dict(entry) for entry in block]
