"""End-to-end CLI runs: exit codes, artifacts, determinism, selftest."""

import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from functorlab import cache, cli, functors, multigraded, runner, stability
from functorlab.cli import main
from functorlab.scenario import BUILDER_KEYS, TASK_KEYS, bundled_scenario_path, load_scenario


@pytest.fixture(autouse=True)
def _fresh_cache():
    yield
    cache.configure()


def _run(tmp_path, scenario, *extra):
    out = tmp_path / "out"
    argv = ["run", scenario, "--out", str(out), "--no-cache"]
    argv.extend(extra)
    code = main(argv)
    return code, out


def test_flagship_scenario_exits_zero(tmp_path, capsys):
    code, out = _run(tmp_path, bundled_scenario_path("hilbert_samuel_xy"))
    assert code == 0
    text = capsys.readouterr().out
    assert "status: PASS (exit 0)" in text
    report = json.loads((out / "hilbert_samuel_xy.report.json").read_text())
    assert report["format"] == "report/1"
    assert report["status"] == "PASS"
    fit = report["tasks"][0]["fit"]
    assert fit["total_degree"] == 2
    assert fit["onset"] == [1]
    assert {tuple(c["exponents"]): (c["numerator"], c["denominator"])
            for c in fit["coefficients"]} == {(1,): (1, 2), (2,): (1, 2)}


def test_report_excludes_timings_sidecar_carries_them(tmp_path):
    code, out = _run(tmp_path, bundled_scenario_path("hilbert_samuel_xy"))
    assert code == 0
    report = (out / "hilbert_samuel_xy.report.json").read_text()
    assert "timings" not in report
    assert "seconds" not in report
    meta = json.loads((out / "hilbert_samuel_xy.run_meta.json").read_text())
    assert "timings_seconds" in meta
    assert "cache" in meta


def test_markdown_and_csv_artifacts(tmp_path):
    code, out = _run(tmp_path, bundled_scenario_path("hilbert_samuel_xy"))
    assert code == 0
    md = (out / "hilbert_samuel_xy.summary.md").read_text()
    assert "| task |" in md.replace("|task|", "| task |") or "| # | task" in md
    assert "PASS" in md
    csv = (out / "hilbert_samuel_xy.task0_fit_lambda.csv").read_text().splitlines()
    assert csv[0] == "n1,lambda"
    assert csv[1] == "1,1"
    assert csv[-1] == "12,78"


def test_forced_degree_bound_failure_exits_one(tmp_path, capsys):
    code, out = _run(tmp_path, bundled_scenario_path("degree_bound_fail"))
    assert code == 1
    text = capsys.readouterr().out
    assert "degree_bound" in text
    assert "FAIL" in text
    report = json.loads((out / "degree_bound_fail.report.json").read_text())
    assert report["status"] == "FAIL"
    assert report["exit_code"] == 1
    entry = report["tasks"][0]
    assert entry["task"] == "degree_bound"
    assert any("exceeds asserted maximum" in f for f in entry["failures"])


def test_bad_box_exits_two(tmp_path, capsys):
    code, _ = _run(tmp_path, bundled_scenario_path("bad_box"))
    assert code == 2
    assert "box block" in capsys.readouterr().err


def test_missing_scenario_file_exits_two(tmp_path, capsys):
    code, _ = _run(tmp_path, "does_not_exist_anywhere")
    assert code == 2
    assert "no bundled scenario" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["file", "under_file"])
def test_unusable_out_exits_two_before_any_task(tmp_path, capsys, monkeypatch, where):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker if where == "file" else blocker / "reports"
    ran = []
    monkeypatch.setattr(cli, "run_scenario_object", lambda scn: ran.append(scn))
    code = main(["run", "hilbert_samuel_xy", "--out", str(out), "--no-cache"])
    assert code == 2
    assert ran == []
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error: --out ") and "\n" not in err
    assert blocker.read_text() == ""


@pytest.mark.parametrize("name", [
    "hilbert_samuel_xy.report.json",
    "hilbert_samuel_xy.run_meta.json",
    "hilbert_samuel_xy.task0_fit_lambda.csv",
])
def test_artifact_name_taken_by_a_directory_exits_two_before_any_task(
    tmp_path, capsys, monkeypatch, name
):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    ran = []
    monkeypatch.setattr(cli, "run_scenario_object", lambda scn: ran.append(scn))
    code = main(["run", "hilbert_samuel_xy", "--out", str(out), "--no-cache"])
    assert code == 2
    assert ran == []
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error: --out ") and name in err and "\n" not in err
    assert [p.name for p in out.iterdir()] == [name]


def _artin_rees_doc(**task):
    return {
        "format": "scn/1",
        "label": "artin rees",
        "ring": {"variables": ["x", "y"]},
        "ideals": {"m": ["x", "y"]},
        "modules": {
            "M": {"type": "free", "twists": [0]},
            "N": {"type": "submodule", "of": "M", "vectors": [["x"]]},
        },
        "family": {"kind": "quotient", "module": "M", "ideals": ["m"]},
        "box": {"lo": [1], "hi": [5], "shell": 1},
        "tasks": [dict({"task": "artin_rees", "sub": "N", "window": 4}, **task)],
    }


def test_artin_rees_task(tmp_path):
    # N = (x) in R with I = (x, y): I^n cap (x) = x I^(n-1), so d = 1
    path = tmp_path / "ar.scn"
    path.write_text(json.dumps(_artin_rees_doc()))
    code, out = _run(tmp_path, str(path))
    assert code == 0
    entry = json.loads((out / "artin_rees.report.json").read_text())["tasks"][0]
    assert entry["status"] == "PASS"
    assert entry["d"] == [1]
    assert entry["verdict"] == "certified"
    assert entry["window_checked"] == [[1], [2], [3], [4], [5]]


def _needs(task, drop=None, **blocks):
    """Scenario mutator: a fit task, then task, with one block dropped and
    others replaced."""
    def apply(doc):
        doc["tasks"] = [{"task": "fit"}, task]
        doc.pop(drop, None)
        doc.update(blocks)
    return apply


_COMPONENT = {"kind": "component", "module": "M", "ideals": ["m"]}
_HOM = {"builder": "hom", "module": "M"}
_COMPOSE = {"builder": "compose", "parts": [_HOM, _HOM]}


def _set(path, value):
    """Scenario mutator: put value at the key path inside the document."""
    def apply(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return apply


@pytest.mark.parametrize("mutate, block", [
    (_set(("ring", "characteristic"), "32003"), "ring block"),
    (_set(("ring", "weights"), ["1", "1"]), "ring block"),
    (_set(("modules", "M", "twists"), ["0"]), "modules block"),
    (_set(("tasks",), [{"task": "fit", "degree_cap": "2"}]), "tasks block"),
    (_set(("tasks",), [{"task": "betti_bass", "i_max": "2"}]), "tasks block"),
    (_set(("tasks", 0, "window"), "4"), "tasks block"),
    (_set(("ideals", "m"), ["x + y^2"]), "ideals block"),
    (_set(("modules", "Q"), {"type": "cyclic", "polys": ["x + y^2"]}), "modules block"),
    (_set(("modules", "N", "vectors"), [["x + y^2"]]), "modules block: 'N'"),
    (_set(("modules", "N", "vectors"), 5), "modules block: 'N'"),
    (_set(("box", "lo"), [1.7]), "box block"),
    (_set(("box", "hi"), ["3"]), "box block"),
    (_set(("box", "shell"), "1"), "box block"),
    (_set(("tasks",), [{"task": "fit", "assert_values": {"a": 1}}]), "tasks block"),
    (_set(("tasks",), [{"task": "fit", "assert_values": {"1,2": 1}}]), "tasks block"),
    (_set(("tasks",), [{"task": "fit", "assert_values": {"2": "two"}}]), "tasks block"),
    (_set(("tasks", 0, "mode"), "bogus"), "tasks block"),
    (_set(("tasks",), [{"task": "normal_form", "mode": "bogus"}]), "tasks block"),
    (_set(("tasks", 0, "mode"), "certified"), "tasks block: task 'artin_rees' does not read 'mode'"),
    (_set(("tasks",), [{"task": "fit", "asert_degree": 7}]),
     "tasks block: task 'fit' does not read 'asert_degree'"),
    (_set(("tasks",), [{"task": "degree_bound", "identity": True}]),
     "tasks block: task 'degree_bound' does not read 'identity'"),
    (_set(("tasks",), [{"task": "fit", "identity": "no"}]),
     "tasks block: 'identity' in task 'fit' must be true or false"),
    (_set(("tasks",), [{"task": "stabilization", "assert_stable": "false"}]),
     "tasks block: 'assert_stable' in task 'stabilization' must be true or false"),
    (_set(("tasks",), [{"task": "grade", "ideal": "m", "oracle": 1}]),
     "tasks block: 'oracle' in task 'grade' must be true or false"),
    (_set(("functor",), {"builder": "tensor", "module": "M", "i": 3}),
     "functor block: builder 'tensor' does not read 'i'"),
    (_set(("functor",), {"builder": "hom", "module": "M", "lable": "id"}),
     "functor block: builder 'hom' does not read 'lable'"),
    (_set(("functor",), {"builder": "hom", "module": "M", "label": "id"}),
     "functor block: builder 'hom' does not read 'label'"),
    (_set(("functor",), dict(_COMPOSE, module="M")),
     "functor block: builder 'compose' does not read 'module'"),
    (_set(("functor",), dict(_COMPOSE, parts=_HOM)),
     "functor block: compose needs a nonempty list of parts"),
    (_set(("tasks",), [{"task": "component_track", "observables": 5}]), "tasks block"),
    (_set(("tasks",), [{"task": "component_track", "observables": "lambda"}]), "tasks block"),
    (_set(("tasks",), [{"task": "component_track", "expect_ass": 5}]), "tasks block"),
    (_set(("tasks", 0, "expect"), 5), "tasks block"),
    (_set(("tasks",), [{"task": "fit", "assert_onset": 5}]), "tasks block"),
    (_set(("tasks",), [{"task": "fit", "assert_degree": "x"}]), "tasks block"),
    (_set(("tasks",), [{"task": "degree_bound", "assert_max_degree": "x"}]), "tasks block"),
    (_set(("tasks",), [{"task": "degree_bound", "assert_max_degree": 1.5}]), "tasks block"),
    (_set(("tasks",), [{"task": "degree_bound", "assert_max_degree": True}]), "tasks block"),
    (_set(("tasks",), [{"task": "betti_bass", "assert_pd": "two", "assert_id": [1]}]),
     "tasks block: 'assert_pd' in task 'betti_bass' must be a nonnegative integer"),
    (_set(("tasks",), [{"task": "fit"},
                       {"task": "stabilization", "observable": "grade", "ideal": "nope"}]),
     "tasks block: unknown ideal 'nope'"),
    (_set(("tasks",), [{"task": "component_track", "observables": ["grade"]}]),
     "tasks block: grade in task 'component_track' needs an ideal"),
    (_needs({"task": "grade", "ideal": "m"}, drop="family"),
     "tasks block: fit task needs a family block"),
    (_needs({"task": "grade", "ideal": "m"}, drop="box"),
     "tasks block: fit task needs a box block"),
    (_needs({"task": "normal_form"}, family=_COMPONENT, functor=_HOM),
     "tasks block: normal_form task needs a quotient family"),
    (_needs({"task": "artin_rees", "sub": "N"}, family=_COMPONENT),
     "tasks block: artin_rees task needs a quotient family"),
    (_needs({"task": "component_track"}),
     "tasks block: component_track task needs a component family"),
    (_needs({"task": "normal_form"}),
     "tasks block: normal_form task needs a functor block"),
    (_needs({"task": "degree_bound"}, functor=_COMPOSE),
     "tasks block: degree_bound task needs a single functor, not a composition"),
    (_set(("ring", "weigths"), [1, 2]), "ring block: ring does not read 'weigths'"),
    (_set(("box", "shel"), 2), "box block: box does not read 'shel'"),
    (_set(("family", "sub_module"), "N"), "family block: family does not read 'sub_module'"),
    (_set(("modules", "M", "twist"), [1]), "modules block: module 'M' does not read 'twist'"),
    (_set(("tasks",), [{"task": "fit", "assert_values": {"1": True}}]),
     "tasks block: 'assert_values' in task 'fit' must be"),
    (_set(("tasks",), [{"task": "stabilization", "observable": None}]),
     "tasks block: 'observable' in task 'stabilization' must be one of"),
    (_set(("family", "ideals"), []), "family block: ideals must be a nonempty list"),
    (_set(("ring", "base_relations"), "xy"), "ring block: base_relations must be"),
    (_set(("ring", "base_relations"), [1]), "ring block: base_relations must be"),
    (_set(("output",), {"stem": "../escaped"}), "output block: stem must be"),
    (_set(("output",), {"stem": 5}), "output block: stem must be"),
    (_set(("label",), 5), "scenario block: label must be a string"),
], ids=["characteristic", "weights", "twists", "degree_cap", "i_max", "window",
        "inhomogeneous_ideal", "inhomogeneous_module", "inhomogeneous_submodule",
        "submodule_vectors_int",
        "box_lo_float", "box_hi_string",
        "box_shell_string", "assert_values_key", "assert_values_arity",
        "assert_values_value", "artin_rees_mode", "normal_form_mode",
        "artin_rees_certified_mode", "unknown_key_typo", "degree_bound_identity",
        "identity_string", "assert_stable_string", "oracle_int",
        "tensor_index", "builder_key_typo", "builder_label", "compose_module",
        "compose_parts_object",
        "observables_int", "observables_string", "expect_ass_int",
        "artin_rees_expect_int", "assert_onset_int", "assert_degree_string",
        "assert_max_degree_string", "assert_max_degree_float", "assert_max_degree_bool",
        "assert_pd_string",
        "grade_observable_unknown_ideal", "grade_observables_missing_ideal",
        "needs_family", "needs_box", "needs_quotient_family", "artin_rees_needs_quotient",
        "needs_component_family", "needs_functor", "needs_single_functor",
        "ring_key_typo", "box_key_typo", "family_key_typo", "module_key_typo",
        "assert_values_bool", "observable_null", "family_ideals_empty",
        "base_relations_string", "base_relations_int", "stem_escapes", "stem_int",
        "label_int"])
def test_malformed_scenario_values_exit_two(tmp_path, capsys, monkeypatch, mutate, block):
    doc = _artin_rees_doc()
    mutate(doc)
    path = tmp_path / "bad.scn"
    path.write_text(json.dumps(doc))
    ran = []
    for name, run in runner.TASK_RUNNERS.items():
        monkeypatch.setitem(
            runner.TASK_RUNNERS, name,
            lambda scn, task, run=run: ran.append(task["task"]) or run(scn, task),
        )
    code, _ = _run(tmp_path, str(path))
    assert code == 2
    assert block in capsys.readouterr().err
    assert ran == []


@pytest.mark.parametrize("output, label", [
    ({"stem": "../escaped"}, "artin rees"),
    ({"stem": "a/b"}, "artin rees"),
    ({"stem": ".."}, "artin rees"),
    ({"stem": ""}, "artin rees"),
    ({}, "../escaped"),
], ids=["parent", "subdirectory", "dot_dot", "empty", "label"])
def test_a_stem_that_is_not_a_file_name_exits_two_and_writes_nothing(
        tmp_path, capsys, output, label):
    # the artifacts are named stem + suffix inside --out, so a stem with a
    # path separator, or none at all, would write somewhere else
    doc = dict(_artin_rees_doc(), output=output, label=label)
    (tmp_path / "run").mkdir()
    path = tmp_path / "bad.scn"
    path.write_text(json.dumps(doc))
    code = main(["run", str(path), "--out", str(tmp_path / "run" / "out"), "--no-cache"])
    assert code == 2
    assert "output block: " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["bad.scn", "run"]


@pytest.mark.parametrize("gens", [
    ["x^4294967296", "y"],
    ["x^2147483648*x^2147483648", "y"],
    ["x^4294967296 + y^4294967296", "x*y"],
], ids=["term", "term_product", "binomial"])
def test_a_degree_past_the_term_order_limit_exits_two(tmp_path, capsys, gens):
    # x^(2^32) is one past the largest degree a packed term key orders
    doc = _artin_rees_doc()
    doc["ideals"]["m"] = gens
    path = tmp_path / "huge.scn"
    path.write_text(json.dumps(doc))
    code, _ = _run(tmp_path, str(path))
    assert code == 2
    assert "term order limit" in capsys.readouterr().err


def test_refused_shell_is_not_stable(tmp_path, capsys):
    # Ass of R/(x^2 - y^2)^n needs a non-monomial prime, which the lab
    # refuses at every point: a shell of refusals is not a stable value
    doc = {
        "format": "scn/1",
        "label": "refused ass",
        "ring": {"variables": ["x", "y"]},
        "ideals": {"a": ["x^2 - y^2"]},
        "modules": {"M": {"type": "free", "twists": [0]}},
        "family": {"kind": "quotient", "module": "M", "ideals": ["a"]},
        "box": {"lo": [1], "hi": [3], "shell": 1},
        "tasks": [{"task": "stabilization", "observable": "ass", "assert_stable": True}],
        "output": {"stem": "refused_ass"},
    }
    path = tmp_path / "refused.scn"
    path.write_text(json.dumps(doc))
    code, out = _run(tmp_path, str(path))
    assert code == 1
    assert "refused at shell points [2] [3]" in capsys.readouterr().out
    entry = json.loads((out / "refused_ass.report.json").read_text())["tasks"][0]
    assert entry["status"] == "FAIL"
    assert entry["verdict"]["stable"] is False
    assert entry["verdict"]["value"] is None
    assert entry["verdict"]["refused"] == [[2], [3]]
    assert all("error" in value for value in entry["table"].values())


def test_engine_error_exits_three(tmp_path, capsys):
    # identity fit over Rees strands: lengths are infinite inside the grid,
    # which the fitter refuses; the runner reports ERROR, exit 3
    doc = {
        "format": "scn/1",
        "label": "infinite fit",
        "ring": {"variables": ["x", "y"]},
        "ideals": {"m": ["x", "y"]},
        "modules": {"M": {"type": "free", "twists": [0]}},
        "family": {"kind": "component", "module": "M", "ideals": ["m"]},
        "box": {"lo": [0], "hi": [6], "shell": 1},
        "tasks": [{"task": "fit", "degree_cap": 2}],
    }
    path = tmp_path / "inf_fit.scn"
    path.write_text(json.dumps(doc))
    code, out = _run(tmp_path, str(path))
    assert code == 3
    report = json.loads((out / "infinite_fit.report.json").read_text())
    assert report["tasks"][0]["status"] == "ERROR"
    assert "infinite" in report["tasks"][0]["error"]


def test_unexpected_exception_exits_three_without_traceback(tmp_path, capsys, monkeypatch):
    def broken(scn):
        raise ZeroDivisionError("integer modulo by zero")

    monkeypatch.setattr(cli, "run_scenario_object", broken)
    code, _ = _run(tmp_path, bundled_scenario_path("hilbert_samuel_xy"))
    assert code == 3
    err = capsys.readouterr().err
    assert "computation error in run: ZeroDivisionError: integer modulo by zero" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("functor", [
    {"builder": "tensor", "module": "k"},
    {"builder": "ext", "module": "k", "i": 1},
])
def test_component_track_over_q_exits_zero(tmp_path, functor):
    # tensor and Ext push block vectors through the Hom pairing; over Q that
    # arithmetic must stay in the field (no reduction modulo the characteristic)
    doc = {
        "format": "scn/1",
        "label": "over q",
        "ring": {"characteristic": 0, "variables": ["x", "y"]},
        "ideals": {"m": ["x", "y"]},
        "modules": {
            "M": {"type": "free", "twists": [0]},
            "k": {"type": "cyclic", "polys": ["x", "y"]},
        },
        "functor": functor,
        "family": {"kind": "component", "module": "M", "ideals": ["m"]},
        "box": {"lo": [0], "hi": [5], "shell": 1},
        "tasks": [{"task": "component_track", "observables": ["lambda"]}],
    }
    path = tmp_path / "over_q.scn"
    path.write_text(json.dumps(doc))
    code, out = _run(tmp_path, str(path))
    assert code == 0
    report = json.loads((out / "over_q.report.json").read_text())
    assert report["status"] == "PASS"


@pytest.mark.parametrize("kind, variables, gens, message", [
    ("quotient", ["x", "y"], ["x", "1"], "family ideals must be proper"),
    ("component", ["x", "y"], ["x", "1"], "family ideals must be proper"),
], ids=["improper_quotient", "improper_component"])
def test_family_refusals_exit_two_before_any_task(
        tmp_path, capsys, monkeypatch, kind, variables, gens, message):
    # both family kinds refuse an improper ideal at load
    doc = {
        "format": "scn/1",
        "label": "refused family",
        "ring": {"variables": variables},
        "ideals": {"a": gens},
        "modules": {"M": {"type": "free", "twists": [0]}},
        "family": {"kind": kind, "module": "M", "ideals": ["a"]},
        "box": {"lo": [0], "hi": [4], "shell": 1},
        "tasks": [{"task": "fit" if kind == "quotient" else "component_track"}],
    }
    path = tmp_path / "refused.scn"
    path.write_text(json.dumps(doc))
    ran = []
    for name, run in runner.TASK_RUNNERS.items():
        monkeypatch.setitem(
            runner.TASK_RUNNERS, name,
            lambda scn, task, run=run: ran.append(task["task"]) or run(scn, task),
        )
    code, _ = _run(tmp_path, str(path))
    assert code == 2
    assert message in capsys.readouterr().err
    assert ran == []


def _write(tmp_path, doc):
    path = tmp_path / "scenario.scn"
    path.write_text(json.dumps(doc))
    return str(path)


def _report(out, stem):
    return json.loads((out / ("%s.report.json" % stem)).read_text())


@pytest.mark.parametrize("kind, variables, tasks", [
    ("quotient", ["x", "t1"], [{"task": "stabilization"}, {"task": "fit", "identity": True}]),
    ("component", ["x", "y1_1"], [{"task": "component_track", "observables": ["lambda"]}]),
], ids=["quotient_t1", "component_y1_1"])
def test_ring_variables_named_like_rees_bookkeeping_run(tmp_path, kind, variables, tasks):
    # the Rees algebra steps around the ring's names, so the default fit
    # caps that present it run through
    doc = {
        "format": "scn/1",
        "label": "named like rees",
        "ring": {"variables": variables},
        "ideals": {"m": variables},
        "modules": {
            "M": {"type": "free", "twists": [0]},
            "k": {"type": "cyclic", "polys": variables},
        },
        "functor": {"builder": "tensor", "module": "k"},
        "family": {"kind": kind, "module": "M", "ideals": ["m"]},
        "box": {"lo": [1], "hi": [7], "shell": 1},
        "tasks": tasks,
    }
    code, out = _run(tmp_path, _write(tmp_path, doc))
    assert code == 0
    report = _report(out, "named_like_rees")
    assert [entry["status"] for entry in report["tasks"]] == ["PASS"] * len(tasks)


def _m_adic(box, tasks):
    return {
        "format": "scn/1",
        "label": "box check",
        "ring": {"variables": ["x", "y"]},
        "ideals": {"m": ["x", "y"]},
        "modules": {"M": {"type": "free", "twists": [0]}, "N": {"type": "submodule", "of": "M",
                                                              "vectors": [["x"]]}},
        "functor": {"builder": "tensor", "module": "M"},
        "family": {"kind": "quotient", "module": "M", "ideals": ["m"]},
        "box": box,
        "tasks": tasks,
    }


@pytest.mark.parametrize("box, tasks, message", [
    ({"lo": [1, 1], "hi": [4, 4]}, [{"task": "artin_rees", "sub": "N"}, {"task": "fit"}],
     "box block: 2 coordinates for a family of 1 ideals"),
    ({"lo": [1], "hi": [5]}, [{"task": "stabilization"}, {"task": "fit", "degree_cap": 4}],
     "box block: degree_cap 4 in task 'fit' needs 5 points per axis below the shell"),
    ({"lo": [1], "hi": [5]}, [{"task": "degree_bound", "degree_cap": 5}],
     "box block: degree_cap 5 in task 'degree_bound' needs 6 points per axis"),
], ids=["box_dimension", "fit_cap", "degree_bound_cap"])
def test_box_errors_exit_two_before_any_task(tmp_path, capsys, monkeypatch, box, tasks, message):
    ran = []
    for name, run in runner.TASK_RUNNERS.items():
        monkeypatch.setitem(
            runner.TASK_RUNNERS, name,
            lambda scn, task, run=run: ran.append(task["task"]) or run(scn, task),
        )
    code, _ = _run(tmp_path, _write(tmp_path, _m_adic(box, tasks)))
    assert code == 2
    assert message in capsys.readouterr().err
    assert ran == []


@pytest.mark.parametrize("task, message", [
    ({"task": "fit"}, "default degree cap 4 needs 5 points"),
    ({"task": "betti_bass", "i_max": 1}, "default degree cap 2 needs 3 points"),
], ids=["fit", "betti_bass"])
def test_default_cap_the_box_cannot_hold_is_an_error_with_a_report(tmp_path, task, message):
    # over k[x,y]/m^n the default cap of a fit is 4 and of betti_bass 2, and
    # [1..3] with shell 1 leaves 2 points below the shell: that task ends
    # ERROR, the others run
    doc = _m_adic({"lo": [1], "hi": [3], "shell": 1}, [{"task": "stabilization"}, task])
    del doc["functor"]
    code, out = _run(tmp_path, _write(tmp_path, doc))
    assert code == 3
    tasks = _report(out, "box_check")["tasks"]
    assert [entry["status"] for entry in tasks] == ["PASS", "ERROR"]
    assert message in tasks[1]["error"]


def test_component_track_on_a_box_with_no_fitting_point_fails_with_a_report(tmp_path):
    # shell 2 on [2..3] leaves no point below the shell for the lambda fit
    doc = {
        "format": "scn/1",
        "label": "no fitting point",
        "ring": {"variables": ["x", "y"]},
        "ideals": {"m": ["x", "y"]},
        "modules": {"M": {"type": "free", "twists": [0]}},
        "family": {"kind": "component", "module": "M", "ideals": ["m"]},
        "box": {"lo": [2], "hi": [3], "shell": 2},
        "tasks": [{"task": "component_track", "observables": ["ass"]},
                  {"task": "component_track", "observables": ["lambda"]}],
    }
    code, out = _run(tmp_path, _write(tmp_path, doc))
    assert code == 1
    tasks = _report(out, "no_fitting_point")["tasks"]
    assert [entry["status"] for entry in tasks] == ["PASS", "FAIL"]
    assert "default degree cap 0 needs 1 points" in tasks[1]["notes"][0]


def test_given_degree_cap_skips_the_default(tmp_path, monkeypatch):
    # the default cap runs a functor evaluation and the Rees elimination;
    # a scenario that names its cap must not pay for them
    def refuse(scn):
        raise AssertionError("default cap computed although degree_cap is given")

    monkeypatch.setattr(runner, "_default_cap", refuse)
    code, out = _run(tmp_path, bundled_scenario_path("two_ideal_fit"))
    assert code == 0
    report = json.loads((out / "two_ideal_fit.report.json").read_text())
    assert report["tasks"][0]["degree_cap"] == 2


def test_degree_bound_task_computes_its_law_once(tmp_path, monkeypatch):
    # the default degree cap and the bound check read one dim F(M) and one
    # analytic spread
    scn_path = bundled_scenario_path("degree_bound_fail")
    counts = {"evaluate": 0, "analytic_spread": 0}
    module = load_scenario(scn_path).family_spec.module

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapped(*args):
            # the lambda table evaluates F at every member; count F(M) alone
            if name == "analytic_spread" or args[1].hilbert_equal(module):
                counts[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, wrapped)

    for owner in (functors, stability):
        counting(owner, "evaluate")
    for owner in (multigraded, stability):
        counting(owner, "analytic_spread")
    code, out = _run(tmp_path, scn_path)
    assert code == 1
    assert counts == {"evaluate": 1, "analytic_spread": 1}
    entry = json.loads((out / "degree_bound_fail.report.json").read_text())["tasks"][0]
    assert entry["bound_check"]["bound"] == 1


def test_degree_bound_fail_caches_only_the_fiber_span(tmp_path, monkeypatch):
    # the analytic spread of R(M) reads two spans over R[y]/Q: its unit
    # vectors, which are their own basis and never looked up, and the
    # fiber relations, which are looked up once and put once
    monkeypatch.setenv("FUNCTORLAB_CACHE_DIR", str(tmp_path / "cachedir"))
    out = tmp_path / "out"
    assert main(["run", bundled_scenario_path("degree_bound_fail"), "--out", str(out)]) == 1
    assert cache.active_cache().stats() == {"hits": 0, "misses": 1, "puts": 1, "corrupt": 0}
    assert len(list((tmp_path / "cachedir").glob("*/*.json"))) == 1


def _non_term_scenario(tmp_path):
    """A two-ideal fit whose ideals are not spanned by terms, so its bases go
    through the Groebner cache (a term module never does)."""
    data = {
        "format": "scn/1",
        "label": "non-term fit",
        "ring": {"characteristic": 32003, "variables": ["x", "y"]},
        "ideals": {"a": ["x^2 + y^2", "x*y"], "b": ["x + y", "y^2"]},
        "modules": {"M": {"type": "free", "twists": [0]}},
        "family": {"kind": "quotient", "module": "M", "ideals": ["a", "b"]},
        "box": {"lo": [1, 1], "hi": [4, 4], "shell": 1},
        "tasks": [{"task": "fit", "degree_cap": 2}],
        "output": {"stem": "non_term_fit"},
    }
    path = tmp_path / "non_term_fit.scn"
    path.write_text(json.dumps(data))
    return str(path)


def test_cold_and_warm_cache_reports_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("FUNCTORLAB_CACHE_DIR", str(tmp_path / "cachedir"))
    cold_dir = tmp_path / "cold"
    warm_dir = tmp_path / "warm"
    scenario = _non_term_scenario(tmp_path)
    assert main(["run", scenario, "--out", str(cold_dir)]) == 0
    cold_stats = dict(cache.active_cache().stats())
    assert main(["run", scenario, "--out", str(warm_dir)]) == 0
    warm_stats = dict(cache.active_cache().stats())
    assert cold_stats["misses"] > 0
    assert warm_stats["misses"] == 0
    assert warm_stats["hits"] > 0
    cold = (cold_dir / "non_term_fit.report.json").read_bytes()
    warm = (warm_dir / "non_term_fit.report.json").read_bytes()
    assert cold == warm


def test_unusable_cache_directory_keeps_the_run_going(tmp_path, monkeypatch):
    # the cache directory names a regular file: nothing can be read from or
    # written to it, the run completes, and the report is the same
    scenario = _non_term_scenario(tmp_path)
    _, plain = _run(tmp_path, scenario)
    blocked = tmp_path / "not_a_directory"
    blocked.write_text("")
    monkeypatch.setenv("FUNCTORLAB_CACHE_DIR", str(blocked))
    out = tmp_path / "blocked"
    assert main(["run", scenario, "--out", str(out)]) == 0
    stats = cache.active_cache().stats()
    assert stats["hits"] == 0 and stats["corrupt"] == 0
    assert stats["misses"] == stats["puts"] > 0
    assert blocked.read_text() == ""
    name = "non_term_fit.report.json"
    assert (out / name).read_bytes() == (plain / name).read_bytes()


def test_wrong_but_parseable_cache_entries_are_recomputed(tmp_path, monkeypatch):
    cache_dir = tmp_path / "cachedir"
    monkeypatch.setenv("FUNCTORLAB_CACHE_DIR", str(cache_dir))
    scenario = _non_term_scenario(tmp_path)
    assert main(["run", scenario, "--out", str(tmp_path / "cold")]) == 0
    entries = list(cache_dir.glob("*/*.json"))
    assert entries
    for path in entries:
        path.write_text("[]")
    assert main(["run", scenario, "--out", str(tmp_path / "again")]) == 0
    stats = cache.active_cache().stats()
    assert stats["corrupt"] > 0
    # recomputed entries are written back sealed
    assert all(json.loads(path.read_text())["key"] == path.stem for path in entries)
    cold = (tmp_path / "cold" / "non_term_fit.report.json").read_bytes()
    again = (tmp_path / "again" / "non_term_fit.report.json").read_bytes()
    assert json.loads(again)["status"] == "PASS"
    assert again == cold


def test_run_without_a_cache_directory_builds_no_key(tmp_path, monkeypatch):
    # a non-term scenario: with FUNCTORLAB_CACHE_DIR unset, and with
    # --no-cache, no basis is keyed, looked up or counted
    keys = []
    real_key = cache.Cache.key

    def recording_key(self, *parts):
        keys.append(parts)
        return real_key(self, *parts)
    monkeypatch.setattr(cache.Cache, "key", recording_key)
    monkeypatch.delenv("FUNCTORLAB_CACHE_DIR", raising=False)
    scenario = _non_term_scenario(tmp_path)
    for extra in ([], ["--no-cache"]):
        assert main(["run", scenario, "--out", str(tmp_path / "out")] + extra) == 0
        assert keys == []
        assert cache.active_cache().stats() == {"hits": 0, "misses": 0, "puts": 0, "corrupt": 0}


def _malformed_basis(value, i):
    """A Groebner cache payload broken in one of the ways the decoder rejects."""
    rows = [list(r) for r in value[0]] if value and value[0] else [[0, 1, 0, 1]]
    broken = [
        lambda: [["x^"]],                    # the old text format
        lambda: [[rows[0][:-1]] + rows[1:]],  # a row of the wrong length
        lambda: [[[1] + rows[0][1:]] + rows[1:]],  # component outside range(rank)
        lambda: [[[0, -1] + rows[0][2:]] + rows[1:]],  # negative exponent
        lambda: [[[0, 1.5] + rows[0][2:]] + rows[1:]],  # non-int exponent
        lambda: [[rows[0][:-1] + [0]] + rows[1:]],  # zero coefficient
        lambda: [[rows[0][:-1] + [32003]] + rows[1:]],  # outside GF(32003)
        lambda: [[]],                        # an empty vector
    ]
    return broken[i % len(broken)]()


def test_sealed_but_malformed_groebner_entries_are_recomputed(tmp_path, monkeypatch):
    cache_dir = tmp_path / "cachedir"
    monkeypatch.setenv("FUNCTORLAB_CACHE_DIR", str(cache_dir))
    scenario = _non_term_scenario(tmp_path)
    assert main(["run", scenario, "--out", str(tmp_path / "cold")]) == 0
    entries = sorted(cache_dir.glob("*/*.json"))
    assert len(entries) >= 8
    for i, path in enumerate(entries):
        value = _malformed_basis(json.loads(path.read_text())["value"], i)
        digest = hashlib.sha256(
            json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")
        ).hexdigest()
        path.write_text(json.dumps({"key": path.stem, "sha256": digest, "value": value}))
    assert main(["run", scenario, "--out", str(tmp_path / "again")]) == 0
    stats = cache.active_cache().stats()
    # every entry is rejected, read as a miss, recomputed and put back
    assert stats["corrupt"] == len(entries)
    assert stats["misses"] == stats["puts"] == len(entries)
    cold = (tmp_path / "cold" / "non_term_fit.report.json").read_bytes()
    again = (tmp_path / "again" / "non_term_fit.report.json").read_bytes()
    assert again == cold
    # the recomputed entries were put back and now read as hits
    assert main(["run", scenario, "--out", str(tmp_path / "warm")]) == 0
    stats = cache.active_cache().stats()
    assert stats["corrupt"] == 0 and stats["misses"] == 0


def test_cache_entry_with_foreign_key_or_bad_digest_is_corrupt(tmp_path):
    store = cache.Cache(directory=str(tmp_path))
    key, other = store.key("a"), store.key("b")
    store.put(key, [["x"]])
    store.put(other, [["y"]])
    path = Path(store._path(key))
    sealed = json.loads(path.read_text())
    assert sealed["key"] == key and sealed["value"] == [["x"]]
    fresh = cache.Cache(directory=str(tmp_path))
    assert fresh.get(key) == [["x"]]
    # the other entry, moved under this key
    path.write_text(Path(store._path(other)).read_text())
    assert cache.Cache(directory=str(tmp_path)).get(key) is None
    # the right key with a tampered value
    sealed["value"] = [["y"]]
    path.write_text(json.dumps(sealed))
    tampered = cache.Cache(directory=str(tmp_path))
    assert tampered.get(key) is None
    assert tampered.stats()["corrupt"] == 1


def test_module_entry_point_runs_uninstalled(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "functorlab", "run", "hilbert_samuel_xy",
         "--out", str(out), "--no-cache"],
        cwd=str(tmp_path), env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "status: PASS (exit 0)" in proc.stdout
    assert (out / "hilbert_samuel_xy.report.json").exists()


def _closed_reader_run(argv, cwd, reads_a_line):
    """Run the command line with a stdout reader that closes the pipe after
    one line, or before any; (exit code, stderr)."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    args = [sys.executable, "-m", "functorlab", *argv]
    if reads_a_line:
        proc = subprocess.Popen(args, cwd=cwd, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        return proc.wait(timeout=120), err
    # a reader that is gone before the first line: every write meets a
    # closed pipe, whatever the timing
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(args, cwd=cwd, env=env, stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("argv, reads_a_line, code", [
    (["list-builtins"], True, 0),
    (["list-builtins"], False, 0),
    (["run", "degree_bound_fail", "--out", "out", "--no-cache"], False, 1),
], ids=["list_builtins_one_line", "list_builtins_no_line", "run_keeps_its_exit_one"])
def test_a_closed_stdout_pipe_is_not_an_engine_error(tmp_path, argv, reads_a_line, code):
    got, err = _closed_reader_run(argv, str(tmp_path), reads_a_line)
    assert (got, err) == (code, "")


def test_importing_the_module_entry_point_runs_nothing():
    # tools that import every submodule (tracers, doc builders) must not
    # start the command line
    module = importlib.import_module("functorlab.__main__")
    assert module.main is main


def test_the_run_import_path_loads_no_selftest_code():
    # the selftest and its corpus load only when the selftest subcommand runs
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys, functorlab.cli\n"
        "print(sorted(m for m in ('functorlab.selftest', 'functorlab.corpus') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_char_override_flag(tmp_path):
    code, out = _run(tmp_path, bundled_scenario_path("hilbert_samuel_xy"), "--char", "101")
    assert code == 0
    report = json.loads((out / "hilbert_samuel_xy.report.json").read_text())
    assert report["status"] == "PASS"


def test_jobs_flag_is_a_usage_error(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "functorlab", "run", "hilbert_samuel_xy",
         "--out", str(out), "--jobs", "2"],
        cwd=str(tmp_path), env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "unrecognized arguments: --jobs 2" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


SUITE_NAMES = (
    "buchberger_s_vectors", "syzygy_vs_brute_kernels", "euler_characteristic", "tor_balance",
    "bass_koszul_duality", "route_equivalence", "artin_rees_certificates", "fit_exactness",
    "cache_robustness", "term_kernels", "fast_path_routes", "component_strands",
)
BASE_KINDS = ("GF(p)", "Q", "weights (1,2)", "k[x,y,z]/(y^2, xz)")


def _suite_lines(text):
    return {line.split()[0]: line for line in text.splitlines() if line.startswith(SUITE_NAMES)}


def test_selftest_green(capsys):
    assert main(["selftest"]) == 0
    text = capsys.readouterr().out
    assert "all suites green" in text
    lines = _suite_lines(text)
    assert tuple(lines) == SUITE_NAMES
    # the two suites that once ran over GF(p) alone name every base kind
    for name in ("tor_balance", "route_equivalence"):
        for kind in BASE_KINDS:
            pattern = r"(\(|; )%s: [1-9]\d*(;|\))" % re.escape(kind)
            assert re.search(pattern, lines[name]), (name, kind)


def test_selftest_fault_injection_trips(capsys):
    assert main(["selftest", "--inject-fault"]) == 1
    text = capsys.readouterr().out
    assert "first failing invariant: route_equivalence" in text
    lines = _suite_lines(text)
    assert tuple(lines) == SUITE_NAMES
    for name, line in lines.items():
        assert line.split()[1] == ("FAIL" if name == "route_equivalence" else "ok"), line


def test_selftest_reports_an_engine_error_and_runs_on(capsys, monkeypatch):
    # an engine error inside a suite fails that suite, named with the base
    # (tor_balance) or alone (fit_exactness), and the later suites still run
    from functorlab import selftest
    from functorlab.errors import ContractViolation

    def refuse(*_args, **_kwargs):
        raise ContractViolation("planted refusal")

    monkeypatch.setattr(selftest, "hom_ext_tor", refuse)
    monkeypatch.setattr(selftest, "fit_polynomial", refuse)
    assert main(["selftest"]) == 1
    text = capsys.readouterr().out
    assert "first failing invariant: tor_balance (ContractViolation: planted refusal over GF(p))" \
        in text
    lines = _suite_lines(text)
    assert tuple(lines) == SUITE_NAMES
    for name, line in lines.items():
        failed = name in ("tor_balance", "fit_exactness")
        assert line.split()[1] == ("FAIL" if failed else "ok"), line
        if failed:
            assert "ContractViolation: planted refusal" in line, line
    assert "over GF(p)" in lines["tor_balance"]


def test_list_builtins(capsys):
    assert main(["list-builtins"]) == 0
    text = capsys.readouterr().out
    for word in ("hom", "tensor", "lambda", "normal_form", "hilbert_samuel_xy.scn"):
        assert word in text
    # each builder and task line lists the keys the loader accepts for it,
    # each with its kind, as the loader's key table has them
    def expected(table):
        return {name: ", ".join("%s (%s)" % (key, kind.name) for key, kind in keys.items())
                or "-" for name, keys in table.items()}

    builders = text.split("functor builders:\n")[1].split("observables:")[0]
    listed = {line.split()[0]: line.split(None, 1)[1] for line in builders.splitlines()}
    assert listed == expected(BUILDER_KEYS)
    assert listed["ext"] == "module (module name), i (nonnegative int)"
    tasks = text.split("tasks:\n")[1].split("bundled scenarios:")[0]
    listed = {line.split()[0]: line.split(None, 1)[1] for line in tasks.splitlines()}
    assert listed == expected(TASK_KEYS)
    assert listed["normal_form"] == "-"
    assert "mode" not in text


def test_no_subcommand_prints_help(capsys):
    assert main([]) == 2
    assert "usage:" in capsys.readouterr().out


def _grade_doc(expect_value):
    # grade((y), R/(x^n)) = 1 at every n: y is a nonzerodivisor on R/(x^n)
    return {
        "format": "scn/1",
        "label": "grade",
        "ring": {"variables": ["x", "y"]},
        "ideals": {"x": ["x"], "j": ["y"]},
        "modules": {"M": {"type": "free", "twists": [0]}},
        "family": {"kind": "quotient", "module": "M", "ideals": ["x"]},
        "box": {"lo": [1], "hi": [5], "shell": 2},
        "tasks": [{"task": "grade", "ideal": "j", "oracle": True,
                   "expect_value": expect_value}],
        "output": {"stem": "grade"},
    }


def test_grade_task_with_oracle(tmp_path, capsys):
    path = tmp_path / "grade.scn"
    path.write_text(json.dumps(_grade_doc(1)))
    code, out = _run(tmp_path, str(path))
    assert code == 0
    entry = json.loads((out / "grade.report.json").read_text())["tasks"][0]
    assert entry["status"] == "PASS"
    assert entry["ideal"] == "j"
    assert entry["oracle"] == "checked"
    assert entry["table"] == {str(n): 1 for n in range(1, 6)}
    assert entry["verdict"]["stable"] is True
    assert entry["verdict"]["value"] == 1


def test_grade_task_wrong_expectation_exits_one(tmp_path, capsys):
    path = tmp_path / "grade.scn"
    path.write_text(json.dumps(_grade_doc(2)))
    code, out = _run(tmp_path, str(path))
    assert code == 1
    entry = json.loads((out / "grade.report.json").read_text())["tasks"][0]
    assert entry["status"] == "FAIL"
    assert entry["oracle"] == "checked"
    assert entry["failures"] == ["stable grade 1 != expected 2"]
