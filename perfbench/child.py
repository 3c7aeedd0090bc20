"""One timed run of a workload in a fresh process.

Makes the public calls ``functorlab run`` makes: ``cache.configure``
before the scenarios are built, then per scenario
``runner.run_scenario_object`` and ``reports.write_artifacts``.  In the
"memory" cache mode each scenario runs on a fresh in-process cache, as one
``functorlab run`` invocation per scenario would.  Usage (run.py starts it;
the spec is JSON):

    python3 perfbench/child.py SPEC.json

The spec names the scenario files, the cache mode and directory, ``jobs``,
the output directory, whether to trace, and whether to stop after set-up.
The child writes a JSON result to ``spec["result"]``:

- ``ready``: CLOCK_MONOTONIC once the package is imported and every
  scenario is built (run.py subtracts its spawn time to get set-up time);
- ``wall_s``: first task start to last artifact written, less the time
  the speed probe ran (see ``SpeedProbe``);
- ``speed``: the probe's mean speed over the run relative to its reference
  speed (1.0 when the reference loop takes ``PROBE_REF_S``);
- ``maxrss_kb``: this process's ``ru_maxrss``;
- ``scenarios``: per scenario the exit code ``functorlab run`` would give,
  the cache statistics and the task timings from ``run_meta``;
- ``trace``: span table and counts when tracing.
"""

import json
import os
import resource
import statistics
import sys
import threading
import time

# The speed probe: a fixed pure-Python loop of dict and tuple work, short
# enough (about 1.3 ms alone, 1.8 ms between the workload's steps) to finish
# between two forced GIL switches (5 ms), run every PROBE_EVERY_S from a
# thread of the timed process, so it samples the speed of the CPU the
# workload is running on, while it runs.
PROBE_ITERATIONS = 5000
PROBE_EVERY_S = 0.05
PROBE_WINDOW_S = 1.0
# The loop's typical time in a timed run on the reference host (2.1 GHz Xeon
# vCPU, CPython 3.11), so that ``wall_s * speed`` reads in seconds of that
# host at its usual speed.
PROBE_REF_S = 1.8e-3


def _probe_loop():
    table = {}
    for i in range(PROBE_ITERATIONS):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i * 3 % 32003


class SpeedProbe:
    """Times ``_probe_loop`` every PROBE_EVERY_S while the workload runs.

    The host's speed changes for stretches of seconds (other tenants share
    its cores), by up to about 1.6x.  Times of the workload divided by the
    probe's contemporaneous slowdown no longer carry that change.
    """

    def __init__(self):
        self.samples = []  # (perf_counter at start, thread CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def start(self):
        self._thread.start()

    def stop(self):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while True:
            # thread CPU time: a sample the GIL interrupts (--jobs 2) does
            # not count the other threads' turn
            started, cpu = time.perf_counter(), time.thread_time()
            _probe_loop()
            self.samples.append((started, time.thread_time() - cpu))
            if self._stop.wait(PROBE_EVERY_S):
                return

    def busy_s(self):
        return sum(seconds for _, seconds in self.samples)

    def speed(self):
        """Mean over PROBE_WINDOW_S windows of reference time over the
        window's median probe time."""
        begin = self.samples[0][0]
        windows = {}
        for started, seconds in self.samples:
            windows.setdefault(int((started - begin) // PROBE_WINDOW_S), []).append(seconds)
        return statistics.fmean(
            PROBE_REF_S / statistics.median(times) for times in windows.values())


def _exit_code_for(exc, errors):
    if isinstance(exc, errors.ConfigurationError):
        return 2
    if isinstance(exc, errors.ContractViolation):
        return 3
    return None


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
    from functorlab import cache, errors, reports, runner, scenario

    if tracer is not None:
        tracer.install()

    def configure():
        if spec["cache"] == "off":
            return cache.configure(enabled=False)
        return cache.configure(directory=spec["cache_dir"], enabled=True)

    store = configure()
    outcomes = []
    built = []
    for stem, path in spec["scenarios"]:
        try:
            built.append((stem, scenario.load_scenario(path)))
        except (errors.ConfigurationError, errors.ContractViolation) as exc:
            outcomes.append({"stem": stem, "exit": _exit_code_for(exc, errors),
                             "error": str(exc)})
    ready = time.monotonic()
    result = {"ready": ready}
    if spec["setup_only"]:
        _write(spec["result"], result)
        return 0

    self_before = tracer.self_total() if tracer is not None else 0.0
    probe = SpeedProbe() if tracer is None else None  # spans stay probe-free
    if probe is not None:
        probe.start()
    start = time.perf_counter()
    for stem, scn in built:
        outcome = {"stem": stem}
        if spec["cache"] == "memory":
            store = configure()
        try:
            code, report, meta = runner.run_scenario_object(scn, jobs=spec["jobs"])
            reports.write_artifacts(report, meta, spec["out"], scn.output_stem)
            outcome["exit"] = code
            outcome["task_s"] = meta["timings_seconds"]
        except Exception as exc:  # noqa: BLE001 - the benchmark records and goes on
            outcome["exit"] = _exit_code_for(exc, errors)
            outcome["error"] = "%s: %s" % (type(exc).__name__, exc)
        outcome["cache"] = store.stats()
        outcomes.append(outcome)
    result["wall_s"] = time.perf_counter() - start
    if probe is not None:
        probe.stop()
        result["wall_s"] -= probe.busy_s()
        result["speed"] = probe.speed()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["scenarios"] = outcomes
    if tracer is not None:
        from functorlab import hilbert, multigraded

        result["trace"] = {
            "spans": tracer.table(),
            "counts": tracer.counts(),
            "covered_s": tracer.self_total() - self_before,
            "memo_entries": len(hilbert._NUMERATOR_MEMO),
            "rees_memo_entries": len(multigraded._REES_MEMO),
        }
    _write(spec["result"], result)
    return 0


def _write(path, result):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
