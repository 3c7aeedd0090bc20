"""Command-line behaviour of run.py that needs no timed run."""

import json
import os
import shutil
import subprocess
import sys

import workloads

BENCH = workloads.HERE
ROOT = os.path.dirname(BENCH)


def test_refuses_without_package_source(tmp_path):
    """In a directory holding only the benchmark it exits non-zero, no result."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "xyz-tensor", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_matches_what_run_prints():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    empty_trace = {
        "trace": {"spans": {}, "counts": {}, "covered_s": 0.0,
                  "memo_entries": 0, "rees_memo_entries": 0},
        "scenarios": [], "disk_bytes": 0, "wall_s": 1.0,
    }
    printed = {name: unit for name, (_v, unit) in run.layer_metrics(empty_trace, empty_trace).items()}
    assert printed == {m["name"]: m["unit"] for m in bench["per_layer"]}
