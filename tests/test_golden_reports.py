"""Report-byte gate: every golden scenario gives the exit code and the
report.json bytes recorded in perfbench/golden.

Runs the bundled scenarios and the xyz-tensor reference scenario in-process
through the CLI with the cache off, and compares the sha256 of each
report.json with the workload's expected.json (null: no report is written).
The golden files are only read here; perfbench/record_golden.py writes them.
"""

import hashlib
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


@pytest.mark.parametrize("stem, target, want", CASES, ids=[c[0] for c in CASES])
def test_report_bytes_match_golden(stem, target, want, tmp_path, monkeypatch):
    monkeypatch.setattr(cache, "_ACTIVE", cache.active_cache())
    code = cli.main(["run", target, "--no-cache", "--out", str(tmp_path)])
    assert code == want["exit"]
    report = tmp_path / (stem + ".report.json")
    if want["sha256"] is None:
        assert not report.exists()
    else:
        assert hashlib.sha256(report.read_bytes()).hexdigest() == want["sha256"]
