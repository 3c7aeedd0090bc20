"""What the benchmark harness binds to in functorlab still exists.

perfbench/tracer.py wraps functions by name and reads the first item of
reduce_vec's result; perfbench/child.py passes jobs to run_scenario_object
and counts the entries of two memo dicts. The harness's own tests are not
collected here, so a renamed or reshaped target would only show when the
benchmark runs. The tracer is loaded by path and only read.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

from functorlab import hilbert, multigraded, runner
from functorlab.groebner import buchberger, reduce_vec
from functorlab.poly import Vec, parse_poly
from functorlab.rings import PolyRing, TermOrder

TRACER = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "perfbench", "tracer.py"
)


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, attr", _tracer().TARGETS)
def test_tracer_target_resolves(module_name, attr):
    module = importlib.import_module("functorlab." + module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        target = getattr(module, cls_name).__dict__.get(method)
    else:
        target = getattr(module, attr, None)
    assert inspect.isfunction(target), "%s.%s" % (module_name, attr)


def test_memo_tables_are_dicts():
    assert isinstance(hilbert._NUMERATOR_MEMO, dict)
    assert isinstance(multigraded._REES_MEMO, dict)


def test_run_scenario_object_accepts_jobs():
    assert "jobs" in inspect.signature(runner.run_scenario_object).parameters


def test_reduce_vec_returns_remainder_first():
    ring = PolyRing(("x", "y"), char=0)
    bound = TermOrder().bind(ring, (0,))
    vecs = [Vec.from_poly(parse_poly(ring, s)) for s in ("x^2", "x*y")]
    basis = buchberger(vecs, ring=ring, rank=1, twists=(0,), bound=bound)
    result = reduce_vec(Vec.from_poly(parse_poly(ring, "x^2 + y^2")), basis, bound)
    assert isinstance(result, tuple) and len(result) == 2
    assert result[0].to_strings(1) == ["y^2"]
