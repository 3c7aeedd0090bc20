"""Scenario parsing: strict validation, named-block errors, bundled files."""

import json

import pytest

from functorlab.errors import ConfigurationError
from functorlab.scenario import (
    bundled_scenario_path,
    bundled_scenarios,
    build_scenario,
    load_scenario,
    load_scenario_text,
)


def _minimal(**overrides):
    data = {
        "format": "scn/1",
        "label": "t",
        "ring": {"variables": ["x", "y"]},
        "ideals": {"m": ["x", "y"]},
        "modules": {"M": {"type": "free", "twists": [0]}},
        "family": {"kind": "quotient", "module": "M", "ideals": ["m"]},
        "box": {"lo": [1], "hi": [4], "shell": 1},
        "tasks": [{"task": "fit"}],
    }
    data.update(overrides)
    return data


def test_json_parse_error_reports_position():
    with pytest.raises(ConfigurationError, match=r"parse error at line \d+ column \d+"):
        load_scenario_text('{"format": "scn/1",\n  "label": oops}')


def test_a_document_nesting_past_the_limit_is_refused():
    functor = {"builder": "hom", "module": "M"}
    for _ in range(49):
        functor = {"builder": "compose", "parts": [functor]}
    build_scenario(_minimal(functor=functor))
    functor = {"builder": "compose", "parts": [functor]}
    with pytest.raises(ConfigurationError, match="nests deeper than 100 levels"):
        build_scenario(_minimal(functor=functor))
    # any value counts, not only compose blocks: expect_value may hold anything
    value = []
    for _ in range(98):
        value = [value]
    with pytest.raises(ConfigurationError, match="nests deeper than 100 levels"):
        build_scenario(_minimal(tasks=[{"task": "stabilization", "expect_value": value}]))


def test_format_tag_required():
    with pytest.raises(ConfigurationError, match="format"):
        build_scenario(_minimal(format="scn/0"))


def test_unknown_top_level_block_rejected():
    data = _minimal()
    data["extras"] = {}
    with pytest.raises(ConfigurationError, match="unknown top-level blocks: extras"):
        build_scenario(data)


def test_unknown_builder_names_functor_block():
    data = _minimal(functor={"builder": "coker", "module": "M"})
    with pytest.raises(ConfigurationError, match="functor block"):
        build_scenario(data)


def test_unknown_ideal_names_family_block():
    data = _minimal(family={"kind": "quotient", "module": "M", "ideals": ["nope"]})
    with pytest.raises(ConfigurationError, match="family block"):
        build_scenario(data)


def test_cyclic_module_needs_polys():
    data = _minimal(modules={"M": {"type": "cyclic"}})
    with pytest.raises(ConfigurationError, match="modules block"):
        build_scenario(data)


def test_bad_box_names_box_block():
    data = _minimal(box={"lo": [3], "hi": [1], "shell": 1})
    with pytest.raises(ConfigurationError, match="box block"):
        build_scenario(data)


def test_unknown_task_names_tasks_block():
    data = _minimal(tasks=[{"task": "summon"}])
    with pytest.raises(ConfigurationError, match="tasks block"):
        build_scenario(data)


def test_grade_task_requires_known_ideal():
    data = _minimal(tasks=[{"task": "grade", "ideal": "nope"}])
    with pytest.raises(ConfigurationError, match="tasks block"):
        build_scenario(data)


@pytest.mark.parametrize("task, named", [
    ({"task": "stabilization", "observable": "grade", "ideal": "nope"}, "'nope'"),
    ({"task": "stabilization", "observable": "grade", "ideal": ["m"]}, r"\['m'\]"),
    ({"task": "component_track", "observables": ["lambda", "grade"]}, "needs an ideal"),
    ({"task": "component_track", "observables": ["grade"], "ideal": "nope"}, "'nope'"),
    ({"task": "grade"}, "needs an ideal"),
], ids=["stabilization_unknown", "stabilization_list", "track_missing", "track_unknown",
        "grade_missing"])
def test_grade_observable_requires_known_ideal(task, named):
    # refused while parsing, before any earlier task computes
    data = _minimal(tasks=[{"task": "fit"}, task])
    with pytest.raises(ConfigurationError, match="tasks block: .*%s" % named):
        build_scenario(data)


def test_grade_observable_with_known_ideal_parses():
    task = {"task": "stabilization", "observable": "grade", "ideal": "m"}
    assert build_scenario(_minimal(tasks=[task])).tasks == [task]


@pytest.mark.parametrize("task", [
    {"task": "fit", "assert_degree": "x"},
    {"task": "fit", "assert_degree": -1},
    {"task": "fit", "assert_degree": True},
    {"task": "fit", "assert_onset": 5},
    {"task": "fit", "assert_onset": [1, 1]},
    {"task": "fit", "assert_onset": ["1"]},
    {"task": "artin_rees", "sub": "N", "expect": 5},
    {"task": "artin_rees", "sub": "N", "expect": [-1]},
    {"task": "artin_rees", "sub": "N", "expect": [1, 2]},
    {"task": "artin_rees", "sub": "N", "expect": [1.0]},
    {"task": "degree_bound", "assert_max_degree": "x"},
    {"task": "degree_bound", "assert_max_degree": 1.5},
    {"task": "degree_bound", "assert_max_degree": True},
    {"task": "degree_bound", "assert_max_degree": -1},
    {"task": "betti_bass", "assert_pd": "two", "assert_id": [1]},
    {"task": "betti_bass", "assert_pd": -1},
    {"task": "betti_bass", "assert_pd": 2.0},
    {"task": "betti_bass", "assert_id": True},
    {"task": "betti_bass", "assert_id": [1]},
], ids=["degree_string", "degree_negative", "degree_bool", "onset_int", "onset_arity",
        "onset_string", "expect_int", "expect_negative", "expect_arity", "expect_float",
        "max_degree_string", "max_degree_float", "max_degree_bool", "max_degree_negative",
        "pd_string_id_list", "pd_negative", "pd_float", "id_bool", "id_list"])
def test_fit_asserts_and_artin_rees_expect_are_checked_at_parse_time(task):
    modules = {"M": {"type": "free", "twists": [0]},
               "N": {"type": "submodule", "of": "M", "vectors": [["x"]]}}
    with pytest.raises(ConfigurationError, match="tasks block"):
        build_scenario(_minimal(modules=modules, tasks=[task]))


def test_well_formed_fit_asserts_and_expect_parse():
    modules = {"M": {"type": "free", "twists": [0]},
               "N": {"type": "submodule", "of": "M", "vectors": [["x"]]}}
    tasks = [
        {"task": "fit", "assert_degree": 0, "assert_onset": [-2]},
        {"task": "artin_rees", "sub": "N", "expect": [0]},
        {"task": "degree_bound", "assert_max_degree": 0},
        {"task": "betti_bass", "assert_pd": 2, "assert_id": 0},
    ]
    # degree_bound reads a single functor
    functor = {"builder": "hom", "module": "M"}
    scn = build_scenario(_minimal(modules=modules, functor=functor, tasks=tasks))
    assert [t["task"] for t in scn.tasks] == ["fit", "artin_rees", "degree_bound", "betti_bass"]


def test_ext_builder_requires_index():
    data = _minimal(
        modules={"M": {"type": "free", "twists": [0]}, "K": {"type": "cyclic", "polys": ["x"]}},
        functor={"builder": "ext", "module": "K"},
    )
    with pytest.raises(ConfigurationError, match="functor block"):
        build_scenario(data)


@pytest.mark.parametrize("builder", ["ext", "tor"])
def test_boolean_index_is_refused(builder):
    # true is an int to Python; read as i = 1 it would silently build Ext^1
    data = _minimal(
        modules={"M": {"type": "free", "twists": [0]}, "K": {"type": "cyclic", "polys": ["x", "y"]}},
        functor={"builder": builder, "module": "K", "i": True},
    )
    with pytest.raises(ConfigurationError, match="nonnegative integer i"):
        load_scenario_text(json.dumps(data))


@pytest.mark.parametrize("builder, twin", [("ext", "hom"), ("tor", "tensor")])
def test_index_zero_builds_hom_and_tensor(builder, twin):
    # Ext^0(k, -) = Hom(k, -) and Tor_0(k, -) = k tensor -: the socle of
    # R/(x,y)^2 has length 2, its residue field length 1
    modules = {"M": {"type": "free", "twists": [0]}, "K": {"type": "cyclic", "polys": ["x", "y"]}}
    zero = build_scenario(
        _minimal(modules=modules, functor={"builder": builder, "module": "K", "i": 0})
    )
    same = build_scenario(_minimal(modules=modules, functor={"builder": twin, "module": "K"}))
    member = zero.family_spec.member((2,))
    assert zero.expression.evaluate(member).length() == (2 if twin == "hom" else 1)
    assert zero.expression.evaluate(member).hilbert_equal(same.expression.evaluate(member))


def test_char_override_applies():
    scn = build_scenario(_minimal(), char_override=101)
    assert scn.ring.char == 101


def test_submodule_declaration_resolves():
    data = _minimal(
        modules={
            "M": {"type": "free", "twists": [0]},
            "S": {"type": "submodule", "of": "M", "vectors": [["x"]]},
        },
        tasks=[{"task": "artin_rees", "sub": "S"}],
    )
    scn = build_scenario(data)
    host, sub = scn.submodules["S"]
    assert host == "M"
    assert len(sub.gens) == 1
    assert sub.twists == scn.modules["M"].twists


def test_tensor_functor_is_not_identity():
    # regression: a mis-keyed cyclic declaration once collapsed k to R,
    # silently turning every functor into the identity
    data = _minimal(
        modules={"M": {"type": "free", "twists": [0]}, "k": {"type": "cyclic", "polys": ["x", "y"]}},
        functor={"builder": "tensor", "module": "k"},
    )
    scn = build_scenario(data)
    member = scn.family_spec.member((2,))
    out = scn.expression.evaluate(member)
    assert out.length() == 1


def test_bundled_scenarios_present_and_parse():
    names = bundled_scenarios()
    assert "hilbert_samuel_xy.scn" in names
    assert "degree_bound_fail.scn" in names
    assert "bad_box.scn" in names
    for name in names:
        if name == "bad_box.scn":
            with pytest.raises(ConfigurationError, match="box block"):
                load_scenario(bundled_scenario_path(name))
        else:
            scn = load_scenario(bundled_scenario_path(name))
            assert scn.tasks


def test_bundled_lookup_rejects_unknown_name():
    with pytest.raises(ConfigurationError, match="no bundled scenario"):
        bundled_scenario_path("missing_thing")


@pytest.mark.parametrize("name", ["./hilbert_samuel_xy", "../scenarios/hilbert_samuel_xy.scn"])
def test_bundled_lookup_rejects_a_path(name):
    with pytest.raises(ConfigurationError, match="no path separator"):
        bundled_scenario_path(name)


def test_scenario_keeps_raw_document():
    data = _minimal()
    scn = build_scenario(data)
    assert scn.raw == data
    assert json.dumps(scn.raw)
