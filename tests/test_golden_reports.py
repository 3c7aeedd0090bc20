"""Report-byte gate: every golden scenario gives the exit code and the
report.json bytes recorded in perfbench/golden.

Runs the bundled scenarios, the xyz-tensor reference scenario and the
two-ideal sweep in-process through the CLI with the cache off, and compares
the sha256 of each report.json with the workload's expected.json (null: no
report is written). The sweep scenario is written from
perfbench/workloads.py at its default seed, which is loaded by path. The
golden files and workloads.py are only read here; perfbench/record_golden.py
writes the golden files.
"""

import hashlib
import importlib.util
import json
import os

import pytest

from functorlab import cache, cli
from functorlab.scenario import bundled_scenario_path

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")
GOLDEN = os.path.join(PERFBENCH, "golden")


def _expected(workload):
    with open(os.path.join(GOLDEN, workload, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


CASES = [
    (stem, bundled_scenario_path(stem), want)
    for stem, want in sorted(_expected("bundled").items())
] + [
    (stem, os.path.join(PERFBENCH, "scenarios", stem + ".scn"), want)
    for stem, want in sorted(_expected("xyz-tensor").items())
]


def _assert_golden_report(stem, target, want, out, monkeypatch):
    monkeypatch.setattr(cache, "_ACTIVE", cache.active_cache())
    code = cli.main(["run", target, "--no-cache", "--out", str(out)])
    assert code == want["exit"]
    report = out / (stem + ".report.json")
    if want["sha256"] is None:
        assert not report.exists()
    else:
        assert hashlib.sha256(report.read_bytes()).hexdigest() == want["sha256"]


@pytest.mark.parametrize("stem, target, want", CASES, ids=[c[0] for c in CASES])
def test_report_bytes_match_golden(stem, target, want, tmp_path, monkeypatch):
    _assert_golden_report(stem, target, want, tmp_path, monkeypatch)


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_ideal_sweep_report_bytes_match_golden(tmp_path, monkeypatch):
    workloads = _workloads()
    target = tmp_path / "two_ideal_sweep.scn"
    target.write_text(workloads.sweep_scenario_text(workloads.DEFAULT_SEED), encoding="utf-8")
    want = _expected("sweep")["two_ideal_sweep"]
    _assert_golden_report("two_ideal_sweep", str(target), want, tmp_path, monkeypatch)
