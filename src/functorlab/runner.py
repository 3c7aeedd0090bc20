"""Scenario execution: tasks in, deterministic report out.

Each task appends one result entry. Hard assertions (normal-form
validation, fit validation, the degree-bound law, Artin-Rees window
equality, explicit scenario asserts) set FAIL; unexpected engine errors
set ERROR with the operation named. Timings never enter the report body;
they ride in the meta sidecar so byte-identical reports survive reruns.
"""

import time
from fractions import Fraction

from .cache import active_cache
from .errors import CapExceeded, ConfigurationError, ContractViolation, StrategyExhausted
from .fitting import fit_polynomial
from .functors import CoherentFunctor
from .multigraded import artin_rees_exponent, artin_rees_window
from .oracles import grade_by_regular_sequence
from .stability import (
    _component_cap,
    _held,
    betti_bass_asymptotics,
    component_track,
    degree_bound_check,
    detect_stabilization,
    grade_asymptotics,
    grid_evaluate,
    normal_form,
)


ENGINE_VERSION = "0.1.0"
INF = float("inf")


def _clean(value):
    if isinstance(value, Fraction):
        return "%d/%d" % (value.numerator, value.denominator) if value.denominator != 1 \
            else str(value.numerator)
    if isinstance(value, float):
        if value == INF:
            return "inf"
        if value == -INF:
            return "-inf"
        return value
    if isinstance(value, dict):
        return {_point_key(k): _clean(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    return value


def _point_key(p):
    if isinstance(p, tuple):
        return ",".join(str(x) for x in p)
    return str(p)


def _fit_payload(fit):
    if fit is None:
        return {"status": "no polynomial fit on box"}
    return fit.as_dict()


def _task_expr(scn, task):
    if task.get("identity"):
        return None
    return scn.expression


def _default_cap(scn):
    spec = scn.family_spec
    if spec.kind == "quotient" and isinstance(scn.expression, CoherentFunctor):
        # one above the degree bound; a bound of -inf caps at 1
        bound = spec.degree_law(scn.expression)["bound"]
        return (0 if bound == -INF else int(bound)) + 1
    if spec.kind == "quotient":
        return max(0, spec.spread() - spec.r) + max(spec.module.dim(), 0) + 1
    return _component_cap(spec.family, scn.box)


def _lambda_fit(scn, task, expr):
    """(table, cap, fit): the lambda table of expr, the task's degree cap
    (its degree_cap, else the held default) and the fit under that cap."""
    obs = grid_evaluate(expr, scn.family_spec, scn.box, ("lambda",))
    table = {p: row["lambda"] for p, row in obs.items()}
    cap = task["degree_cap"] if "degree_cap" in task else _held(scn.box, _default_cap(scn))
    return table, cap, fit_polynomial(table, scn.box, cap)


def _expected_value(task):
    """The task's expect_value as a verdict value: "inf" is INF, and a
    list entry that is a list is a tuple."""
    expected = task["expect_value"]
    if isinstance(expected, list):
        return [tuple(e) if isinstance(e, list) else e for e in expected]
    return INF if expected == "inf" else expected


def _check_fit_asserts(task, fit):
    failures = []
    want_deg = task.get("assert_degree")
    if want_deg is not None and fit.total_degree != want_deg:
        failures.append("degree %d != expected %d" % (fit.total_degree, want_deg))
    want_onset = task.get("assert_onset")
    if want_onset is not None and list(fit.onset) != list(want_onset):
        failures.append("onset %r != expected %r" % (list(fit.onset), list(want_onset)))
    for key, expected in (task.get("assert_values") or {}).items():
        point = tuple(int(x) for x in str(key).split(","))
        got = fit.evaluate(point)
        if got != Fraction(expected):
            failures.append("value at %s is %s, expected %s" % (key, got, expected))
    return failures


def run_fit(scn, task):
    table, cap, fit = _lambda_fit(scn, task, _task_expr(scn, task))
    result = {
        "degree_cap": cap,
        "lambda_table": table,
        "fit": _fit_payload(fit),
    }
    if fit is None:
        return result, ["no polynomial fit validated on the box"]
    return result, _check_fit_asserts(task, fit)


def run_normal_form(scn, task):
    try:
        nf = normal_form(scn.expression, scn.family_spec, scn.box)
    except ContractViolation as exc:
        return {"error": str(exc)}, [str(exc)]
    result = {
        "c": list(nf.c),
        "d": list(nf.d),
        "validated_points": [list(p) for p in nf.validated],
        "u_generators": len(nf.u),
        "v_generators": len(nf.v.gens),
        "w_generators": len(nf.w.gens),
        "provenance": dict(nf.provenance),
        "member_lengths": {p: shaped.length() for p, shaped in nf.validated.items()},
    }
    return result, []


def run_stabilization(scn, task):
    spec, box = scn.family_spec, scn.box
    name = task.get("observable", "ass")
    expr = _task_expr(scn, task)
    grade_ideal = scn.ideals.get(task["ideal"]) if "ideal" in task else None
    obs = grid_evaluate(expr, spec, box, (name,), grade_ideal=grade_ideal)
    table = {p: row[name] for p, row in obs.items()}
    verdict = detect_stabilization(table, box)
    result = {"observable": name, "table": table, "verdict": verdict}
    failures = []
    if task.get("assert_stable") and "refused" in verdict:
        failures.append(
            "observable %s was refused at shell points %s"
            % (name, " ".join("[%s]" % _point_key(p) for p in verdict["refused"]))
        )
    elif task.get("assert_stable") and not verdict["stable"]:
        failures.append("observable %s is not constant on the shell" % name)
    if "expect_value" in task:
        expected = _expected_value(task)
        if verdict["value"] != expected:
            failures.append(
                "stable value %r != expected %r" % (verdict["value"], expected)
            )
    return result, failures


def run_degree_bound(scn, task):
    table, _cap, fit = _lambda_fit(scn, task, scn.expression)
    # the spec keeps one law for the default cap and the check
    law = scn.family_spec.degree_law(scn.expression)
    if fit is None:
        return {"fit": _fit_payload(None)}, ["no polynomial fit to bound"]
    verdict = degree_bound_check(law, fit)
    result = {"fit": _fit_payload(fit), "bound_check": verdict, "lambda_table": table}
    failures = []
    if verdict["verdict"] != "PASS":
        failures.append(
            "degree bound violated: degree %s vs bound %s"
            % (verdict["degree"], verdict["bound"])
        )
    cap_assert = task.get("assert_max_degree")
    if cap_assert is not None and fit.total_degree > cap_assert:
        failures.append(
            "fitted degree %d exceeds asserted maximum %d" % (fit.total_degree, cap_assert)
        )
    return result, failures


def run_grade(scn, task):
    spec = scn.family_spec
    grade_ideal = scn.ideals[task["ideal"]]
    expr = _task_expr(scn, task)
    rep = grade_asymptotics(grade_ideal, expr, spec, scn.box)
    result = {"table": rep["table"], "verdict": rep["verdict"], "ideal": task["ideal"]}
    failures = []
    if "expect_value" in task:
        expected = _expected_value(task)
        if rep["verdict"]["value"] != expected:
            failures.append(
                "stable grade %r != expected %r" % (rep["verdict"]["value"], expected)
            )
    if task.get("oracle"):
        polys = [v.components(1)[0] for v in grade_ideal.gens]
        for p in sorted(rep["table"]):
            brute = grade_by_regular_sequence(polys, spec.value(expr, p))
            if brute != rep["table"][p]:
                failures.append(
                    "grade oracle disagrees at %s: %s vs %s"
                    % (_point_key(p), brute, rep["table"][p])
                )
                break
        result["oracle"] = "checked"
    return result, failures


def run_betti_bass(scn, task):
    i_max = task.get("i_max", 3)
    rep = betti_bass_asymptotics(_task_expr(scn, task), scn.family_spec, scn.box, i_max)
    result = {
        "fits": {k: _fit_payload(f) for k, f in rep["fits"].items()},
        "bounds": rep["bounds"],
        "verdicts": rep["verdicts"],
    }
    failures = []
    for name, check in rep["bounds"].items():
        if check["verdict"] != "PASS":
            failures.append("%s breaks the degree bound" % name)
    for key in ("pd", "id"):
        want = task.get("assert_%s" % key)
        if want is not None and rep["verdicts"][key]["value"] != want:
            failures.append(
                "%s stable value %r != expected %r"
                % (key, rep["verdicts"][key]["value"], want)
            )
    return result, failures


def run_component_track(scn, task):
    observables = tuple(task.get("observables", ("lambda",)))
    grade_ideal = scn.ideals.get(task["ideal"]) if "ideal" in task else None
    rep = component_track(
        scn.family_spec, _task_expr(scn, task), scn.box, observables=observables,
        grade_ideal=grade_ideal,
    )
    fit = rep["fits"].get("lambda")
    result = {
        "observations": rep["observations"],
        "verdicts": rep["verdicts"],
        "fits": {
            k: (_fit_payload(f) if not isinstance(f, dict) else f)
            for k, f in rep["fits"].items()
        },
        "notes": rep["notes"],
    }
    if "lambda" in observables:
        result["lambda_table"] = {
            p: row["lambda"] for p, row in rep["observations"].items()
        }
    failures = []
    if "lambda" in observables:
        if fit is None or isinstance(fit, dict):
            failures.append("lambda fit did not validate on the strand family")
        else:
            failures.extend(_check_fit_asserts(task, fit))
    expect_ass = task.get("expect_ass")
    if expect_ass is not None:
        got = rep["verdicts"].get("ass", {}).get("value")
        want = [tuple(entry) for entry in expect_ass]
        if got != want:
            failures.append("stable Ass %r != expected %r" % (got, want))
    return result, failures


def run_artin_rees(scn, task):
    family = scn.family_spec.family
    host, sub = scn.submodules[task["sub"]]
    module = scn.modules[host]
    d = artin_rees_exponent(family, module, sub)
    window = [tuple(a + step for a in d) for step in range(task.get("window", 8) + 1)]
    bad = artin_rees_window(family, module, sub, d, window)
    checked = window if bad is None else window[: window.index(bad)]
    failures = [] if bad is None else ["Artin-Rees equality fails at %s" % _point_key(bad)]
    result = {
        "d": list(d),
        "verdict": "certified",
        "window_checked": [list(n) for n in checked],
    }
    expect = task.get("expect")
    if expect is not None and list(d) != list(expect):
        failures.append("exponent %r != expected %r" % (list(d), list(expect)))
    return result, failures


TASK_RUNNERS = {
    "fit": run_fit,
    "normal_form": run_normal_form,
    "stabilization": run_stabilization,
    "degree_bound": run_degree_bound,
    "grade": run_grade,
    "betti_bass": run_betti_bass,
    "component_track": run_component_track,
    "artin_rees": run_artin_rees,
}


def run_scenario_object(scn, jobs=1):
    """Execute every task; returns (exit_code, report_dict, meta_dict)."""
    entries = []
    timings = {}
    exit_code = 0
    start_all = time.monotonic()
    for index, task in enumerate(scn.tasks):
        name = task["task"]
        slot = "%d:%s" % (index, name)
        started = time.monotonic()
        entry = {"task": name, "options": _clean(dict(task))}
        try:
            result, failures = TASK_RUNNERS[name](scn, task)
            entry.update(_clean(result))
            if failures:
                entry["status"] = "FAIL"
                entry["failures"] = failures
                exit_code = max(exit_code, 1)
            else:
                entry["status"] = "PASS"
        except ConfigurationError:
            raise
        except (ContractViolation, CapExceeded, StrategyExhausted) as exc:
            entry["status"] = "ERROR"
            entry["error"] = "%s: %s" % (type(exc).__name__, exc)
            exit_code = max(exit_code, 3)
        timings[slot] = round(time.monotonic() - started, 6)
        entries.append(entry)
    status = "PASS" if exit_code == 0 else ("FAIL" if exit_code == 1 else "ERROR")
    report = {
        "format": "report/1",
        "engine": {"name": "functorlab", "version": ENGINE_VERSION},
        "label": scn.label,
        "scenario": scn.raw,
        "tasks": entries,
        "status": status,
        "exit_code": exit_code,
    }
    meta = {
        "timings_seconds": timings,
        "total_seconds": round(time.monotonic() - start_all, 6),
        "cache": active_cache().stats(),
        "jobs": jobs,
    }
    return exit_code, report, meta
