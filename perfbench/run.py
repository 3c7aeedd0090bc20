"""functorlab benchmark: timed workloads, golden reports, per-layer trace.

Run from the root of a checkout (the package is imported from ``src``):

    python3 perfbench/run.py --workload xyz-tensor --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py                      # all four workloads, a table

Every timed run is a fresh process (``child.py``) that imports the package,
builds the workload's scenarios, then runs them with the calls
``functorlab run`` makes.  The parent repeats runs for ``--seconds``,
checks every scenario's exit code and ``report.json`` bytes against the
golden reports in ``golden/`` (or, for sweep seeds without golden reports,
against the staircase oracle), and prints as its last line one JSON object:
``correct``, ``attempted`` and ``failed`` count scenario runs, and
``metrics`` holds

- with ``--trace 0``: ``wall_s`` (first task start to last artifact
  written, rescaled to the reference host speed by the speed probe that runs
  inside each timed process, see ``child.SpeedProbe``; the median over
  samples of at least ``SAMPLE_S`` seconds of consecutive runs),
  ``setup_s`` (median of spawn to package imported and scenarios built) and
  ``peak_rss_mb`` (median ``ru_maxrss``); the table also shows the
  unscaled wall time and the probe's speed, which are not metrics;
- with ``--trace 1``: the per-layer split of a traced run (see
  ``tracer.py``), medians over traced runs, each paired with an untraced
  run for ``trace.overhead_ratio``.

Exit status: 0 when every report is correct, 1 when a report or exit code
is wrong (the result line is still printed), 2 when the benchmark cannot
run at all (no package source, a child crashed or timed out, or the warm
cache missed), with no result line.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
RUN_LIMIT_S = 165.0  # a single-workload invocation ends well within 180 s
SETUP_SAMPLES = 15
# The hosts this runs on switch between a fast and a slow speed for
# stretches of 10-30 s.  Each run's wall time is rescaled by the speed the
# probe saw during it; what is left of the jumps is evened out by taking as a
# timing sample the mean of consecutive runs that together span at least this
# many seconds, and the median over those.
SAMPLE_S = 10.0

TASK_NAMES = ("fit", "stabilization", "betti_bass", "degree_bound", "normal_form",
              "component_track")

SPAN_METRICS = (
    # (span, field): the metric "<span>.<field>" from the tracer's table
    ("groebner.reduce_vec", "calls"), ("groebner.reduce_vec", "self_s"),
    ("groebner.interreduce", "calls"), ("groebner.interreduce", "incl_s"),
    ("groebner.buchberger", "calls"), ("groebner.buchberger", "self_s"),
    ("groebner.buchberger", "incl_s"), ("groebner.s_vector", "calls"),
    ("groebner.LiftSolver", "builds"), ("groebner.LiftSolver", "incl_s"),
    ("invariants.is_associated", "calls"), ("invariants.associated_primes", "incl_s"),
    ("fpmodule.free_resolution", "calls"), ("fpmodule.free_resolution", "incl_s"),
    ("fpmodule.hom_ext_tor", "calls"), ("fpmodule.hom_ext_tor", "incl_s"),
    ("fpmodule.presentation", "calls"), ("fpmodule.presentation", "incl_s"),
    ("invariants.betti_number", "incl_s"), ("invariants.bass_number", "incl_s"),
    ("invariants.projective_dimension", "incl_s"),
    ("invariants.injective_dimension", "incl_s"),
    ("submodule.groebner", "calls"), ("submodule.groebner", "incl_s"),
    ("submodule.intersect", "calls"), ("submodule.intersect", "incl_s"),
    ("submodule.minimal_generators", "calls"), ("submodule.minimal_generators", "incl_s"),
    ("hilbert.ideal_numerator", "calls"), ("hilbert.ideal_numerator", "incl_s"),
    ("multigraded.graded_component", "calls"), ("multigraded.graded_component", "incl_s"),
    ("multigraded.analytic_spread", "calls"), ("multigraded.analytic_spread", "incl_s"),
    ("multigraded.artin_rees_exponent", "calls"),
    ("multigraded.artin_rees_exponent", "incl_s"),
    ("multigraded.rees_algebra", "calls"),
    ("stability.grid_evaluate", "incl_s"), ("stability.member", "calls"),
    ("stability.member", "incl_s"), ("stability.normal_form", "incl_s"),
    ("functors.evaluate", "calls"), ("functors.evaluate", "incl_s"),
    ("fitting.fit_polynomial", "calls"), ("fitting.fit_polynomial", "incl_s"),
    ("reports.write_artifacts", "incl_s"), ("scenario.load_scenario", "incl_s"),
)
FIELD_INDEX = {"calls": 0, "builds": 0, "incl_s": 1, "self_s": 2}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def median(values):
    return statistics.median(values)


def batch_means(values, span=SAMPLE_S):
    """Means of consecutive values, each batch summing to at least span; a
    short tail joins the last batch."""
    batches, current = [], []
    for value in values:
        current.append(value)
        if sum(current) >= span:
            batches.append(current)
            current = []
    if current:
        if batches:
            batches[-1].extend(current)
        else:
            batches.append(current)
    return [statistics.fmean(batch) for batch in batches]


def dir_bytes(path):
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


class Context:
    """Per-invocation state: work directory, expectations, references."""

    def __init__(self, root, workload, seed, deadline):
        self.root = root
        self.src = os.path.join(root, "src")
        os.makedirs(os.path.join(root, ".perfbench_work"), exist_ok=True)
        self.work = tempfile.mkdtemp(dir=os.path.join(root, ".perfbench_work"))
        self.deadline = deadline
        self.wl = workloads.build(workload, seed, self.work, self.src)
        self.expected = None  # {stem: {"exit", "sha256"}}, set before checking
        self.reference = {}  # stem -> report bytes already shown correct
        self.warm_dir = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))  # only when no other run uses it
        except OSError:
            pass

    # -- child processes -------------------------------------------------

    def spawn(self, trace=False, setup_only=False, cache_dir=None):
        out = tempfile.mkdtemp(dir=self.work)
        spec = {
            "scenarios": self.wl.scenarios,
            "cache": self.wl.cache if self.wl.cache in ("off", "memory") else "dir",
            "cache_dir": cache_dir,
            "jobs": self.wl.jobs,
            "out": out,
            "trace": trace,
            "setup_only": setup_only,
            "result": os.path.join(out, "result.json"),
        }
        spec_path = os.path.join(out, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        env = dict(os.environ)
        env.pop("FUNCTORLAB_CACHE_DIR", None)
        env["PYTHONPATH"] = self.src
        env["PYTHONHASHSEED"] = "0"  # set iteration order, so counts repeat
        remaining = self.deadline - time.monotonic()
        if remaining <= 1:
            raise BenchError("out of time before starting a run")
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, spec_path], env=env, cwd=self.root,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        try:
            _, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("a run did not finish in time")
        if proc.returncode != 0:
            tail = err.decode("utf-8", "replace").strip().splitlines()[-5:]
            raise BenchError("run process failed: %s" % " | ".join(tail))
        with open(spec["result"], encoding="utf-8") as fh:
            result = json.load(fh)
        result["setup_s"] = result["ready"] - spawned
        result["out"] = out
        return result

    def timed_run(self, trace=False):
        """One timed run with its own cache state; returns the child result."""
        cache_dir = None
        if self.wl.cache == "cold":
            cache_dir = tempfile.mkdtemp(dir=self.work)  # made outside the timed span
        elif self.wl.cache == "warm":
            cache_dir = self.warm_dir
        try:
            result = self.spawn(trace=trace, cache_dir=cache_dir)
            self.check(result)
            if trace:
                result["disk_bytes"] = dir_bytes(cache_dir) if cache_dir else 0
        finally:
            if self.wl.cache == "cold":
                shutil.rmtree(cache_dir, ignore_errors=True)
        if self.wl.cache == "warm":
            for outcome in result["scenarios"]:
                stats = outcome["cache"]
                if stats["misses"] or stats["puts"] or stats["corrupt"]:
                    raise BenchError(
                        "sweep-warm refused: the primed cache was not read "
                        "cleanly (%r)" % stats)
        shutil.rmtree(result.pop("out"), ignore_errors=True)
        return result

    def prime(self):
        """Fill the warm cache once, untimed; its report must be correct too.
        Returns the priming run's wall time, which is not a metric."""
        self.warm_dir = tempfile.mkdtemp(dir=self.work)
        result = self.spawn(cache_dir=self.warm_dir)
        self.check(result)
        shutil.rmtree(result["out"], ignore_errors=True)
        return result["wall_s"]

    # -- correctness -----------------------------------------------------

    def check(self, result):
        outcomes = {o["stem"]: o for o in result["scenarios"]}
        for stem, _path in self.wl.scenarios:
            self.attempted += 1
            problem = self._problem(stem, outcomes.get(stem), result["out"])
            if problem:
                self.failed += 1
                self.problems.append("%s: %s" % (stem, problem))

    def _problem(self, stem, outcome, out):
        expected = self.expected[stem]
        if outcome is None:
            return "no outcome recorded"
        if outcome["exit"] != expected["exit"]:
            return "exit %r, expected %r (%s)" % (
                outcome["exit"], expected["exit"], outcome.get("error", ""))
        path = os.path.join(out, stem + ".report.json")
        if expected["sha256"] is None:
            return "unexpected report" if os.path.exists(path) else None
        if not os.path.exists(path):
            return "no report written"
        with open(path, "rb") as fh:
            data = fh.read()
        if self.wl.golden:
            if hashlib.sha256(data).hexdigest() != expected["sha256"]:
                return "report bytes differ from the golden report"
            return None
        if stem in self.reference:
            if data != self.reference[stem]:
                return "report bytes differ from the first run's"
            return None
        report = json.loads(data)
        table = report["tasks"][0].get("lambda_table")
        if table != workloads.lambda_oracle(report):
            return "lambda table disagrees with the staircase oracle"
        self.reference[stem] = data
        return None


def repeat(seconds, deadline, body):
    """Call body until another call would overrun seconds; at least once."""
    begin = time.monotonic()
    durations = []
    while True:
        started = time.monotonic()
        body()
        durations.append(time.monotonic() - started)
        now = time.monotonic()
        typical = median(durations)
        if now - begin + typical > seconds or now + 2 * typical > deadline:
            return


def measure(ctx, seconds):
    """End-to-end metrics, tracing off."""
    walls, raw_walls, speeds, setups, rss = [], [], [], [], []

    def body():
        result = ctx.timed_run()
        walls.append(result["wall_s"] * result["speed"])
        raw_walls.append(result["wall_s"])
        speeds.append(result["speed"])
        setups.append(result["setup_s"])
        rss.append(result["maxrss_kb"] / 1024.0)

    def probe():
        result = ctx.spawn(setup_only=True)
        setups.append(result["setup_s"])
        shutil.rmtree(result["out"], ignore_errors=True)

    # set-up samples come from every run, topped up by set-up-only runs half
    # before and half after the timed runs, so they do not share one moment
    for _ in range(SETUP_SAMPLES // 2):
        probe()
    repeat(seconds, ctx.deadline, body)
    while len(setups) < SETUP_SAMPLES:
        probe()
    return {
        "wall_s": (median(batch_means(walls)), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median(rss), "MB"),
    }, {"runs": len(walls), "unscaled_wall_s": median(batch_means(raw_walls)),
        "speed": median(speeds)}


def layer_metrics(traced, untraced):
    """Per-layer metrics of one traced run; task times come from the untraced
    run of the same pair, so they carry no tracing cost."""
    spans = traced["trace"]["spans"]
    counts = traced["trace"]["counts"]
    out = {}
    for span, field in SPAN_METRICS:
        rec = spans.get(span, [0, 0.0, 0.0])
        unit = "count" if field in ("calls", "builds") else "s"
        out["%s.%s" % (span, field)] = (rec[FIELD_INDEX[field]], unit)
    reduced = counts.get("spairs_reduced", 0)
    zero = counts.get("spairs_zero", 0)
    out["groebner.spairs_reduced"] = (reduced, "count")
    out["groebner.spairs_zero"] = (zero, "count")
    out["groebner.spairs_useful_ratio"] = (
        (reduced - zero) / reduced if reduced else 0.0, "ratio")
    totals = {"hits": 0, "misses": 0, "puts": 0, "corrupt": 0}
    tasks = {name: 0.0 for name in TASK_NAMES}
    for outcome in traced["scenarios"]:
        for key in totals:
            totals[key] += outcome.get("cache", {}).get(key, 0)
    for outcome in untraced["scenarios"]:
        for slot, seconds in outcome.get("task_s", {}).items():
            name = slot.split(":", 1)[1]
            tasks[name] = tasks.get(name, 0.0) + seconds
    for key, value in totals.items():
        out["cache.%s" % key] = (value, "count")
    lookups = totals["hits"] + totals["misses"]
    out["cache.hit_ratio"] = (totals["hits"] / lookups if lookups else 0.0, "ratio")
    out["cache.get_s"] = (spans.get("cache.get", [0, 0.0, 0.0])[1], "s")
    out["cache.put_s"] = (spans.get("cache.put", [0, 0.0, 0.0])[1], "s")
    out["cache.disk_bytes"] = (traced["disk_bytes"], "B")
    out["hilbert.memo_entries"] = (traced["trace"]["memo_entries"], "count")
    out["multigraded.rees_memo_entries"] = (traced["trace"]["rees_memo_entries"], "count")
    for name, seconds in tasks.items():
        out["runner.task_s.%s" % name] = (seconds, "s")
    out["trace.overhead_ratio"] = (traced["wall_s"] / untraced["wall_s"], "ratio")
    out["trace.covered_ratio"] = (traced["trace"]["covered_s"] / traced["wall_s"], "ratio")
    return out


def measure_layers(ctx, seconds):
    """Per-layer metrics: traced runs, each paired with an untraced one."""
    samples = []

    def body():
        untraced = ctx.timed_run()
        traced = ctx.timed_run(trace=True)
        samples.append(layer_metrics(traced, untraced))

    repeat(seconds, ctx.deadline, body)
    out = {}
    for name, (_value, unit) in samples[0].items():
        out[name] = (median(s[name][0] for s in samples), unit)
    return out, {"runs": len(samples)}


def run_workload(root, name, seed, seconds, trace, limit_s=RUN_LIMIT_S):
    ctx = Context(root, name, seed, time.monotonic() + limit_s)
    prime_s = None
    try:
        ctx.expected = workloads.load_expected(name)
        if ctx.wl.cache == "warm":
            prime_s = ctx.prime()
        else:
            probe = ctx.spawn(setup_only=True)  # compiles bytecode, untimed
            shutil.rmtree(probe["out"], ignore_errors=True)
        if trace:
            metrics, info = measure_layers(ctx, seconds)
        else:
            metrics, info = measure(ctx, seconds)
        info.update(attempted=ctx.attempted, failed=ctx.failed, problems=ctx.problems,
                    prime_s=prime_s)
        return metrics, info
    finally:
        ctx.close()


def result_line(metrics, attempted, failed):
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def print_table(name, metrics, info):
    ratio = info["failed"] / info["attempted"]
    print("== %s (%d runs; %d scenario runs)" % (name, info["runs"], info["attempted"]))
    for key, (value, unit) in metrics.items():
        print("  %-40s %14.6g %s" % (key, value, unit))
    print("  %-40s %14.6g %s" % ("scenario_fail_ratio", ratio, "ratio"))
    if "speed" in info:
        print("  %-40s %14.6g %s  (not rescaled)" % ("unscaled_wall_s", info["unscaled_wall_s"], "s"))
        print("  %-40s %14.6g %s  (probe, reference = 1)" % ("host_speed", info["speed"], "ratio"))
    if info["prime_s"] is not None:
        print("  %-40s %14.6g %s  (cache priming, untimed)" % ("prime_s", info["prime_s"], "s"))
    for problem in info["problems"]:
        print("  FAIL %s" % problem)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "functorlab", "__init__.py")):
        print("error: run from a checkout root that holds src/functorlab", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))  # for the staircase oracle
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {}
    attempted = failed = 0
    try:
        for name in names:
            metrics, info = run_workload(root, name, args.seed, args.seconds, args.trace)
            print_table(name, metrics, info)
            attempted += info["attempted"]
            failed += info["failed"]
            if args.workload != "all":
                combined = metrics
            else:
                combined.update({"%s.%s" % (name, k): v for k, v in metrics.items()})
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    sys.stdout.flush()
    print(result_line(combined, attempted, failed))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
