"""Tracer self-check: tracing changes no report, and its counts repeat.

Runs every workload traced twice through the benchmark's own run path.
Reports must match the golden bytes (the same check as untraced runs), and
for the ``--jobs 1`` workloads every ``calls`` count must be exactly equal
between the two runs.  ``bundled`` runs grid points on two threads that
share memo tables, so whether its counts repeat is recorded, not required.
"""

import importlib
import os
import time

import pytest

import run
import tracer
import workloads

ROOT = os.path.dirname(workloads.HERE)


def _traced_twice(name):
    ctx = run.Context(ROOT, name, workloads.DEFAULT_SEED, time.monotonic() + 600)
    try:
        ctx.expected = workloads.load_expected(name)
        if ctx.wl.cache == "warm":
            ctx.prime()
        before = ctx.attempted
        runs = [ctx.timed_run(trace=True) for _ in range(2)]
        assert ctx.failed == 0, ctx.problems
        assert ctx.attempted - before == 2 * len(ctx.wl.scenarios)
    finally:
        ctx.close()
    calls = [
        ({span: rec[0] for span, rec in r["trace"]["spans"].items()}, r["trace"]["counts"])
        for r in runs
    ]
    return runs, calls


@pytest.mark.parametrize("name", ["xyz-tensor", "sweep-cold", "sweep-warm"])
def test_counts_repeat_exactly_at_one_job(name):
    runs, calls = _traced_twice(name)
    assert calls[0] == calls[1]
    spans = calls[0][0]
    assert spans["scenario.load_scenario"] == 1
    assert spans["reports.write_artifacts"] == 1
    if name == "sweep-warm":
        # every Submodule basis is read from the cache; only the routes that
        # bypass it (LiftSolver builds, the Rees elimination) run Buchberger
        assert spans["groebner.buchberger"] <= (
            spans["groebner.LiftSolver"] + spans["multigraded.rees_algebra"])
    else:
        assert spans["groebner.buchberger"] > spans["groebner.LiftSolver"]


def test_bundled_counts_at_two_jobs_are_recorded(capsys):
    _runs, calls = _traced_twice("bundled")
    same = calls[0] == calls[1]
    with capsys.disabled():
        print("\nbundled --jobs 2 traced counts repeat: %s" % same)
    assert calls[0][0]["scenario.load_scenario"] == len(workloads.BUNDLED)


def test_every_binding_is_wrapped():
    t = tracer.Tracer()
    t.install()
    try:
        groebner, invariants, stability, submodule = (
            importlib.import_module("functorlab." + name)
            for name in ("groebner", "invariants", "stability", "submodule"))
        assert submodule.buchberger.__wrapped__ is groebner.buchberger.__wrapped__
        assert submodule.reduce_vec.__wrapped__ is groebner.reduce_vec.__wrapped__
        assert stability.associated_primes.__wrapped__ is \
            invariants.associated_primes.__wrapped__
        for module, attr in tracer.TARGETS:
            obj = getattr(importlib.import_module("functorlab." + module), attr.split(".")[0])
            if "." in attr:
                obj = vars(obj)[attr.split(".")[1]]
            assert hasattr(obj, "__wrapped__"), (module, attr)
    finally:
        t.uninstall()
