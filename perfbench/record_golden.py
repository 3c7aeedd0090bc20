"""Record the golden reports that every benchmark run is checked against.

    python3 perfbench/record_golden.py

Runs each workload once at the default seed with the cache off and one job
(the plainest route), and writes ``golden/<workload>/<stem>.report.json``
plus ``expected.json`` with each scenario's exit code and report sha256.
Timed runs use other cache states and ``--jobs 2``, so their byte equality
with these files is the check that reports do not depend on either.
Re-record only when a report is meant to change, and say why.
"""

import hashlib
import json
import os
import shutil
import sys
import time

import run
import workloads


def main():
    root = os.getcwd()
    for name in ("xyz-tensor", "sweep-cold", "bundled"):
        ctx = run.Context(root, name, workloads.DEFAULT_SEED, time.monotonic() + 600)
        try:
            ctx.wl.cache, ctx.wl.jobs = "off", 1
            result = ctx.spawn()
            target = workloads.golden_dir(name)
            os.makedirs(target, exist_ok=True)
            expected = {}
            for outcome in result["scenarios"]:
                stem = outcome["stem"]
                src = os.path.join(result["out"], stem + ".report.json")
                sha = None
                if os.path.exists(src):
                    shutil.copyfile(src, os.path.join(target, stem + ".report.json"))
                    with open(src, "rb") as fh:
                        sha = hashlib.sha256(fh.read()).hexdigest()
                expected[stem] = {"exit": outcome["exit"], "sha256": sha}
            with open(os.path.join(target, "expected.json"), "w", encoding="utf-8") as fh:
                json.dump(expected, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print("%s: %s" % (name, json.dumps(expected, sort_keys=True)))
        finally:
            ctx.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
