"""Command line entry point.

Subcommands: run (execute a scenario file and write report artifacts),
selftest (invariant corpus), list-builtins (catalog of builders,
observables, tasks, defaults). Exit codes: 0 success, 1 assertion or
verdict failure, 2 usage or parse error, 3 computation error.
"""

import argparse
import os
import sys
import traceback

from . import cache
from .errors import ConfigurationError, ContractViolation
from .reports import artifact_names, write_artifacts
from .runner import ENGINE_VERSION, run_scenario_object
from .scenario import (
    BUILDER_KEYS,
    TASK_KEYS,
    bundled_scenario_path,
    bundled_scenarios,
    load_scenario,
    names_a_path,
)
from .stability import OBSERVABLE_NAMES


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="functorlab",
        description="exact stability laboratory for coherent functors on module families",
    )
    parser.add_argument("--version", action="version", version="functorlab " + ENGINE_VERSION)
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("scenario", help="path to a scn/1 file, or a bundled scenario name")
    run_p.add_argument("--out", default=".", help="directory for report artifacts")
    run_p.add_argument("--char", type=int, default=None,
                       help="override the coefficient characteristic")
    run_p.add_argument("--no-cache", action="store_true", help="disable the computation cache")

    self_p = sub.add_parser("selftest", help="run the invariant corpus")
    self_p.add_argument("--inject-fault", action="store_true",
                        help="flip one length to demonstrate the tripwire")

    sub.add_parser("list-builtins", help="print builders, observables, tasks, defaults")
    return parser


def _prepare_out_dir(path, names):
    """Create the artifact directory and check the artifact names before any
    task runs, so an unusable --out is a usage error rather than a failure
    after the whole run."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError("--out %s is not a usable directory: %s" % (path, exc.strerror))
    if not os.access(path, os.W_OK | os.X_OK):
        raise ConfigurationError("--out %s is not writable" % path)
    for name in names:
        target = os.path.join(path, name)
        if os.path.lexists(target) and not os.path.isfile(target):
            raise ConfigurationError(
                "--out %s: artifact %s exists and is not a regular file" % (path, name)
            )


def _emit(line):
    """Print line to stdout. A reader that closes the pipe early (say,
    `functorlab list-builtins | head -3`) is not an engine error: stdout then
    points at os.devnull, so the rest of the command, and the interpreter's
    flush at exit, write nowhere, and the command ends with its own code."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_run(args):
    cache.configure(directory=os.environ.get("FUNCTORLAB_CACHE_DIR"), enabled=not args.no_cache)
    target = args.scenario
    if not names_a_path(target) and not os.path.exists(target):
        target = bundled_scenario_path(target)
    scn = load_scenario(target, char_override=args.char)
    _prepare_out_dir(args.out, artifact_names(scn.output_stem, scn.tasks))
    code, report, meta = run_scenario_object(scn)
    written = write_artifacts(report, meta, args.out, scn.output_stem)
    for path in written:
        _emit("wrote %s" % path)
    for entry in report["tasks"]:
        line = "%-16s %s" % (entry["task"], entry["status"])
        failures = entry.get("failures") or ([entry["error"]] if "error" in entry else [])
        if failures:
            line += "  (%s)" % failures[0]
        _emit(line)
    _emit("status: %s (exit %d)" % (report["status"], code))
    return code


def _keys_line(keys):
    """The keys of one builder or task, each with its kind."""
    return ", ".join("%s (%s)" % (key, kind.name) for key, kind in keys.items()) or "-"


def _cmd_list_builtins():
    _emit("functor builders:")
    for name, keys in BUILDER_KEYS.items():
        _emit("  %-8s %s" % (name, _keys_line(keys)))
    _emit("observables:")
    notes = {
        "lambda": "exact length, inf allowed outside fit windows",
        "ass": "associated primes via the strategy ladder",
        "grade": "Ext-minimum; requires a named ideal J",
        "betti": "beta_i over i <= i_max",
        "bass": "mu^i over i <= i_max",
        "pd": "projective dimension (cap-aware)",
        "id": "injective dimension (cap-aware)",
    }
    for name in OBSERVABLE_NAMES:
        _emit("  %-8s %s" % (name, notes[name]))
    _emit("tasks:")
    for name, keys in TASK_KEYS.items():
        _emit("  %-16s %s" % (name, _keys_line(keys)))
    _emit("bundled scenarios:")
    for name in bundled_scenarios():
        _emit("  %s" % name)
    _emit("defaults: characteristic 32003, order grevlex, shell 1,")
    _emit("  degree cap max{dim F(M), spread - r} + 1")
    _emit("cache: FUNCTORLAB_CACHE_DIR selects the directory; --no-cache disables")
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "selftest":
            # imported here, so a run never loads the selftest or its corpus
            from .selftest import run_selftest

            return run_selftest(inject_fault=args.inject_fault, emit=_emit)
        if args.command == "list-builtins":
            return _cmd_list_builtins()
    except ConfigurationError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print("computation error: %s" % exc, file=sys.stderr)
        return 3
    except Exception as exc:
        # the CLI boundary: an unexpected failure is an engine error (exit 3),
        # reported with the innermost frame, never as a raw traceback
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        print(
            "computation error in %s: %s: %s (at %s:%d)"
            % (args.command, type(exc).__name__, exc, os.path.basename(frame.filename), frame.lineno),
            file=sys.stderr,
        )
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
