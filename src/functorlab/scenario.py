"""scn/1 scenario files: JSON-compatible, versioned, hand-writable.

A scenario declares a ring, named ideals and modules, one functor
expression, a family (quotient or component), a box, and a task list.
Parsing is strict: unknown blocks, functor and task keys that are not read,
unresolved names, inhomogeneous declarations and malformed boxes are
semantic errors naming the offending block, before any computation
starts.
"""

import json
import os
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

# the keys each functor builder reads besides "builder"; the loader refuses
# any other, and list-builtins prints them
BUILDER_KEYS = {
    "hom": ("module",),
    "tensor": ("module",),
    "tor": ("module", "i"),
    "ext": ("module", "i"),
    "compose": ("parts",),
}

# the keys each task's runner reads besides "task"; the loader refuses any
# other, and list-builtins prints them
TASK_KEYS = {
    "normal_form": (),
    "stabilization": ("observable", "ideal", "identity", "assert_stable", "expect_value"),
    "fit": ("identity", "degree_cap", "assert_degree", "assert_onset", "assert_values"),
    "degree_bound": ("degree_cap", "assert_max_degree"),
    "grade": ("ideal", "identity", "expect_value", "oracle"),
    "betti_bass": ("identity", "i_max", "assert_pd", "assert_id"),
    "component_track": (
        "observables", "ideal", "identity", "assert_degree", "assert_onset",
        "assert_values", "expect_ass",
    ),
    "artin_rees": ("sub", "window", "expect"),
}

# what a task needs besides the family and box blocks every task reads
TASK_NEEDS = {
    "normal_form": ("quotient", "single functor"),
    "degree_bound": ("quotient", "single functor"),
    "artin_rees": ("quotient",),
    "component_track": ("component",),
}

TOP_KEYS = (
    "format", "label", "ring", "ideals", "modules", "functor", "family",
    "box", "tasks", "output",
)


def bundled_scenarios():
    """Names of the scenario files shipped inside the package."""
    root = os.path.join(os.path.dirname(__file__), "scenarios")
    return tuple(sorted(f for f in os.listdir(root) if f.endswith(".scn")))


def bundled_scenario_path(name):
    if not name.endswith(".scn"):
        name += ".scn"
    path = os.path.join(os.path.dirname(__file__), "scenarios", name)
    if not os.path.exists(path):
        raise ConfigurationError("no bundled scenario named %r" % name)
    return path


class Scenario:
    """Parsed and name-resolved scenario, ready for the runner."""

    __slots__ = (
        "label", "ring", "ideals", "modules", "submodules", "expression",
        "family_spec", "box", "tasks", "output_stem", "raw",
    )

    def __init__(self, label, ring, ideals, modules, submodules, expression,
                 family_spec, box, tasks, output_stem, raw):
        self.label = label
        self.ring = ring
        self.ideals = ideals
        self.modules = modules
        self.submodules = submodules
        self.expression = expression
        self.family_spec = family_spec
        self.box = box
        self.tasks = tasks
        self.output_stem = output_stem
        self.raw = raw


def _fail(block, message):
    raise ConfigurationError("%s block: %s" % (block, message))


def _require(data, block, key, types=None):
    if key not in data:
        _fail(block, "missing %r" % key)
    value = data[key]
    if types is not None and not isinstance(value, types):
        _fail(block, "%r has the wrong shape" % key)
    return value


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _int_list(block, value, what):
    if not isinstance(value, list) or not all(_is_int(v) for v in value):
        _fail(block, "%s must be a list of integers" % what)
    return tuple(value)


def load_scenario_text(text, char_override=None):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            "parse error at line %d column %d: %s" % (exc.lineno, exc.colno, exc.msg)
        )
    return build_scenario(data, char_override=char_override)


def load_scenario(path, char_override=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError("cannot read scenario %s: %s" % (path, exc))
    return load_scenario_text(text, char_override=char_override)


def build_scenario(data, char_override=None):
    if not isinstance(data, dict):
        raise ConfigurationError("scenario must be a JSON object")
    if data.get("format") != FORMAT_TAG:
        raise ConfigurationError("scenario format must be %r" % FORMAT_TAG)
    unknown = [k for k in data if k not in TOP_KEYS]
    if unknown:
        raise ConfigurationError("unknown top-level blocks: %s" % ", ".join(sorted(unknown)))
    label = data.get("label", "")

    ring = _build_ring(_require(data, "scenario", "ring", dict), char_override)
    ideals = _build_ideals(ring, data.get("ideals", {}))
    modules, submodules = _build_modules(ring, data.get("modules", {}))
    expression = None
    if "functor" in data:
        expression = _build_expression(data["functor"], modules)
    family_spec = None
    if "family" in data:
        family_spec = _build_family(data["family"], ring, ideals, modules, submodules)
    box = None
    if "box" in data:
        box = _build_box(data["box"])
        if family_spec is not None and box.r != family_spec.r:
            _fail("box", "%d coordinates for a family of %d ideals" % (box.r, family_spec.r))
    tasks = _build_tasks(data.get("tasks", []), ideals, submodules, expression, family_spec, box)
    output = data.get("output", {})
    if not isinstance(output, dict):
        _fail("output", "must be an object")
    stem = output.get("stem", label.replace(" ", "_") or "scenario")
    return Scenario(
        label, ring, ideals, modules, submodules, expression, family_spec,
        box, tasks, stem, data,
    )


def _build_ring(block, char_override):
    variables = _require(block, "ring", "variables", list)
    if not variables or not all(isinstance(v, str) for v in variables):
        _fail("ring", "variables must be a nonempty list of names")
    char = block.get("characteristic", 32003)
    if char_override is not None:
        char = char_override
    if not _is_int(char):
        _fail("ring", "characteristic must be an integer")
    weights = block.get("weights")
    if weights is not None:
        weights = _int_list("ring", weights, "weights")
    base = PolyRing(tuple(variables), char=char, weights=weights)
    rels = block.get("base_relations", [])
    if rels:
        base = quotient_ring(base, rels)
    return base


def _build_ideals(ring, block):
    if not isinstance(block, dict):
        _fail("ideals", "must be an object of named generator lists")
    out = {}
    for name, gens in block.items():
        if not isinstance(gens, list):
            _fail("ideals", "%r must be a list of polynomial strings" % name)
        try:
            out[name] = ideal(ring, [parse_poly(ring, g) for g in gens])
        except (ConfigurationError, HomogeneityError) as exc:
            _fail("ideals", "%r: %s" % (name, exc))
    return out


def _graded(name, build, *args):
    """build(*args), an inhomogeneous input refused as a modules-block error."""
    try:
        return build(*args)
    except HomogeneityError as exc:
        _fail("modules", "%r: %s" % (name, exc))


def _build_modules(ring, block):
    if not isinstance(block, dict):
        _fail("modules", "must be an object of named declarations")
    modules = {}
    submodules = {}
    for name, decl in block.items():
        if not isinstance(decl, dict) or "type" not in decl:
            _fail("modules", "%r needs a type" % name)
        kind = decl["type"]
        if kind == "free":
            twists = _int_list("modules", decl.get("twists", [0]), "%r twists" % name)
            modules[name] = FPModule.free(ring, twists)
        elif kind == "cyclic":
            gens = decl.get("polys")
            if not gens or not isinstance(gens, list):
                _fail("modules", "%r needs a nonempty polys list (use type free for the ring itself)" % name)
            modules[name] = _graded(name, FPModule.cyclic, ring, tuple(gens))
        elif kind == "presentation":
            twists = _int_list("modules", decl.get("twists", [0]), "%r twists" % name)
            cols = decl.get("columns", [])
            parsed = []
            for col in cols:
                if not isinstance(col, list) or len(col) != len(twists):
                    _fail("modules", "%r column shape does not match twists" % name)
                parsed.append(parse_vec(ring, col))
            modules[name] = _graded(name, FPModule.from_cokernel, ring, twists, parsed)
        elif kind == "submodule":
            host = decl.get("of")
            if host not in modules:
                _fail("modules", "%r refers to unknown module %r" % (name, host))
            m = modules[host]
            rows = decl.get("vectors", [])
            if not _is_list_of(rows, lambda row: isinstance(row, list) and len(row) == m.rank):
                _fail("modules", "%r vector shape does not match %r" % (name, host))
            vectors = [parse_vec(ring, row) for row in rows]
            submodules[name] = (host, _graded(name, Submodule, ring, m.rank, m.twists, vectors))
        else:
            _fail("modules", "%r has unknown type %r" % (name, kind))
    return modules, submodules


def _build_expression(block, modules):
    if not isinstance(block, dict) or "builder" not in block:
        _fail("functor", "needs a builder name")
    builder = block["builder"]
    if builder not in BUILDER_KEYS:
        _fail("functor", "unknown builder %r (have: %s)" % (builder, ", ".join(BUILDER_KEYS)))
    unknown = sorted(k for k in block if k != "builder" and k not in BUILDER_KEYS[builder])
    if unknown:
        _fail("functor", "builder %r does not read %s (it reads: %s)" % (
            builder, ", ".join(map(repr, unknown)), ", ".join(BUILDER_KEYS[builder])))
    if builder == "compose":
        parts = block.get("parts")
        if not isinstance(parts, list) or not parts:
            _fail("functor", "compose needs a nonempty list of parts")
        return Composite(*[_build_expression(p, modules) for p in parts])
    mod_name = block.get("module")
    if mod_name not in modules:
        _fail("functor", "unknown module %r" % mod_name)
    m = modules[mod_name]
    if builder == "hom":
        return functor_from_hom(m)
    if builder == "tensor":
        return functor_from_tensor(m)
    i = block.get("i")
    if not _is_int(i) or i < 0:
        _fail("functor", "builder %r needs a nonnegative integer i" % builder)
    # Ext^0 = Hom and Tor_0 = tensor
    if builder == "ext":
        return functor_from_ext(m, i) if i else functor_from_hom(m)
    return functor_from_tor(m, i) if i else functor_from_tensor(m)


def _family_ideals(block, ideals):
    names = _require(block, "family", "ideals", list)
    missing = [n for n in names if n not in ideals]
    if missing:
        _fail("family", "unknown ideals: %s" % ", ".join(missing))
    return IdealFamily([ideals[n] for n in names])


def _build_family(block, ring, ideals, modules, submodules):
    if not isinstance(block, dict):
        _fail("family", "must be an object")
    kind = block.get("kind")
    if kind == "quotient":
        fam = _family_ideals(block, ideals)
        mod_name = _require(block, "family", "module")
        if mod_name not in modules:
            _fail("family", "unknown module %r" % mod_name)
        m = modules[mod_name]
        sub = m.gens_sub()
        sub_name = block.get("sub")
        if sub_name is not None:
            if sub_name not in submodules:
                _fail("family", "unknown submodule %r" % sub_name)
            host, sub = submodules[sub_name]
            if host != mod_name:
                _fail("family", "submodule %r lives in %r, not %r" % (sub_name, host, mod_name))
        return FamilySpec.quotient(m, sub, fam)
    if kind == "component":
        fam = _family_ideals(block, ideals)
        mod_name = _require(block, "family", "module")
        if mod_name not in modules:
            _fail("family", "unknown module %r" % mod_name)
        return FamilySpec.component(modules[mod_name], fam)
    _fail("family", "kind must be 'quotient' or 'component'")


def _build_box(block):
    if not isinstance(block, dict):
        _fail("box", "must be an object")
    lo = _int_list("box", _require(block, "box", "lo"), "lo")
    hi = _int_list("box", _require(block, "box", "hi"), "hi")
    shell = block.get("shell", 1)
    if not _is_int(shell):
        _fail("box", "shell must be an integer")
    try:
        return GridBox(lo, hi, shell)
    except ContractViolation as exc:
        _fail("box", str(exc))


def _check_assert_values(name, values, box):
    """assert_values maps "n_1,...,n_r" point keys to rational values."""
    if not isinstance(values, dict):
        _fail("tasks", "assert_values in task %r must be an object" % name)
    for key, expected in values.items():
        try:
            point = [int(part) for part in key.split(",")]
        except ValueError:
            _fail("tasks", "assert_values key %r in task %r is not a point "
                  "such as \"1,2\"" % (key, name))
        if box is not None and len(point) != box.r:
            _fail("tasks", "assert_values key %r in task %r does not have %d coordinates"
                  % (key, name, box.r))
        try:
            Fraction(expected)
        except (TypeError, ValueError, ZeroDivisionError):
            _fail("tasks", "assert_values value %r in task %r is not a number"
                  % (expected, name))


def _check_point(name, key, value, box, nonnegative):
    """value is a list of integers (nonnegative when asked), one per box
    coordinate when the box is known."""
    ok = _is_list_of(value, lambda n: _is_int(n) and (n >= 0 or not nonnegative))
    if not ok or (box is not None and len(value) != box.r):
        _fail("tasks", "%s in task %r must be a list of %s%sintegers" % (
            key, name, "%d " % box.r if box is not None else "",
            "nonnegative " if nonnegative else ""))


def _check_grade_ideal(name, ideal_name, ideals):
    """grade is measured against a declared ideal, named by the task."""
    if ideal_name is None:
        _fail("tasks", "grade in task %r needs an ideal" % name)
    if not isinstance(ideal_name, str) or ideal_name not in ideals:
        _fail("tasks", "unknown ideal %r for grade in task %r (have: %s)"
              % (ideal_name, name, ", ".join(sorted(ideals))))


def _is_list_of(value, ok):
    return isinstance(value, list) and all(ok(v) for v in value)


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


def _build_tasks(block, ideals, submodules, expression, family_spec, box):
    if not isinstance(block, list):
        _fail("tasks", "must be a list")
    tasks = []
    for i, entry in enumerate(block):
        if not isinstance(entry, dict) or "task" not in entry:
            _fail("tasks", "entry %d needs a task name" % i)
        name = entry["task"]
        if name not in TASK_KEYS:
            _fail("tasks", "unknown task %r (have: %s)" % (name, ", ".join(TASK_KEYS)))
        unknown = sorted(k for k in entry if k != "task" and k not in TASK_KEYS[name])
        if unknown:
            _fail("tasks", "task %r does not read %s (it reads: %s)" % (
                name, ", ".join(map(repr, unknown)), ", ".join(TASK_KEYS[name]) or "no key"))
        obs = entry.get("observable")
        if obs is not None and obs not in OBSERVABLE_NAMES:
            _fail("tasks", "unknown observable %r in task %r" % (obs, name))
        if name == "artin_rees" and entry.get("sub") not in submodules:
            _fail("tasks", "artin_rees task needs a named submodule")
        for key in ("degree_cap", "i_max", "window", "assert_degree", "assert_max_degree",
                    "assert_pd", "assert_id"):
            if key in entry and not (_is_int(entry[key]) and entry[key] >= 0):
                _fail("tasks", "%r in task %r must be a nonnegative integer" % (key, name))
        for key in ("identity", "assert_stable", "oracle"):
            if key in entry and not isinstance(entry[key], bool):
                _fail("tasks", "%r in task %r must be true or false" % (key, name))
        if "assert_onset" in entry:
            _check_point(name, "assert_onset", entry["assert_onset"], box, nonnegative=False)
        if "expect" in entry:
            _check_point(name, "expect", entry["expect"], box, nonnegative=True)
        if "observables" in entry and not _is_list_of(
            entry["observables"], lambda o: o in OBSERVABLE_NAMES
        ):
            _fail("tasks", "observables in task %r must be a list of %s"
                  % (name, ", ".join(OBSERVABLE_NAMES)))
        if name == "grade" or obs == "grade" or "grade" in entry.get("observables", ()):
            _check_grade_ideal(name, entry.get("ideal"), ideals)
        if "expect_ass" in entry and not _is_list_of(
            entry["expect_ass"], lambda p: _is_list_of(p, lambda g: isinstance(g, str))
        ):
            _fail("tasks", "expect_ass in task %r must be a list of lists of strings" % name)
        if "assert_values" in entry:
            _check_assert_values(name, entry["assert_values"], box)
        _check_needs(name, expression, family_spec, box)
        cap = entry.get("degree_cap")
        if cap is not None and cap >= box.fit_points():
            _fail("box", "degree_cap %d in task %r needs %d points per axis below the shell, "
                  "the box has %d" % (cap, name, cap + 1, box.fit_points()))
        tasks.append(dict(entry))
    return tasks
