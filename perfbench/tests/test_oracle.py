"""The staircase oracle against every length table of the golden reports.

The oracle builds generator exponent vectors by adding exponents directly
(no IdealFamily, no Groebner basis) and counts standard monomials, so it is
independent of the code that produced the reports.  Not timed.
"""

import json
import os

import pytest

import workloads


def _golden(workload, stem):
    path = os.path.join(workloads.golden_dir(workload), stem + ".report.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload,stem", [
    ("xyz-tensor", "xyz_tensor"),
    ("sweep-cold", "two_ideal_sweep"),
    ("bundled", "two_ideal_fit"),
])
def test_oracle_matches_golden_lambda_table(workload, stem):
    report = _golden(workload, stem)
    tables = [t["lambda_table"] for t in report["tasks"] if "lambda_table" in t]
    assert tables
    for table in tables:
        assert workloads.lambda_oracle(report) == table


def test_oracle_catches_a_wrong_length():
    report = _golden("xyz-tensor", "xyz_tensor")
    table = dict(report["tasks"][0]["lambda_table"])
    table["3"] += 1
    assert workloads.lambda_oracle(report) != table


def test_xyz_tensor_closed_form_at_n1():
    # R/(x^2, y^2, xyz, xy, z^2) has basis 1, x, y, z, xz, yz
    assert workloads.lambda_oracle(_golden("xyz-tensor", "xyz_tensor"))["1"] == 6


def test_default_seed_gives_the_bundled_ideals():
    assert workloads.sweep_ideals(workloads.DEFAULT_SEED) == (("x", "y^2"), ("x^2", "y"))


def test_every_seed_gives_two_distinct_ideals_of_the_same_shape():
    for seed in range(20):
        a, b = workloads.sweep_ideals(seed)
        assert a != b
        for ideal in (a, b):
            degrees = sorted(sum(workloads.parse_monomial(g, ["x", "y"])) for g in ideal)
            assert degrees == [1, 2]


def test_sweep_scenario_for_the_other_seed_passes_the_oracle():
    """A non-default seed has no golden report; the oracle decides."""
    import time

    import run

    ctx = run.Context(os.path.dirname(workloads.HERE), "sweep-cold", 1, time.monotonic() + 600)
    try:
        ctx.expected = workloads.load_expected("sweep-cold")
        assert not ctx.wl.golden
        ctx.wl.cache = "off"
        result = ctx.spawn()
        ctx.check(result)
        assert (ctx.attempted, ctx.failed) == (1, 0), ctx.problems
        assert "two_ideal_sweep" in ctx.reference
    finally:
        ctx.close()


def test_sweep_report_bytes_do_not_depend_on_cache_state_or_jobs():
    """Golden reports are recorded with the cache off and one job; a cold
    disk cache and then a warm one at two jobs must give the same bytes."""
    import time

    import run

    ctx = run.Context(os.path.dirname(workloads.HERE), "sweep-warm", 0, time.monotonic() + 600)
    try:
        ctx.expected = workloads.load_expected("sweep-warm")
        ctx.wl.jobs = 2
        ctx.prime()
        ctx.timed_run()
        assert (ctx.attempted, ctx.failed) == (2, 0), ctx.problems
    finally:
        ctx.close()
