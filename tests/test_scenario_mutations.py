"""Mutation fuzz of the scn/1 loader: every value of every bundled scenario
(and of the reference perfbench scenario), replaced in turn by a value of
the wrong kind, must end in a clean exit.

A mutant may exit 0, 1 or 2. Exit 2 writes no file. Exit 3 is allowed
only after a report was written, that is, when a task ended ERROR for a
named reason (infinite length, a box too small); an exit 3 from the loader
is a hole in the key table. No mutant writes outside --out.
"""

import copy
import json
import os
import shutil
from pathlib import Path

import pytest

from functorlab import cache
from functorlab.cli import main
from functorlab.scenario import bundled_scenario_path, bundled_scenarios

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios" / "xyz_tensor.scn"
REPLACEMENTS = ("s", 1.5, None, [], {}, -1, True, 0)


def _paths(node, prefix=()):
    """Key paths to every value below node, depth first, except the format tag."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if prefix == () and key == "format":
            continue
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _mutant(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.fixture(autouse=True)
def _fresh_cache():
    yield
    cache.configure()


@pytest.mark.parametrize("source", [bundled_scenario_path(n) for n in bundled_scenarios()]
                         + [str(REFERENCE)], ids=lambda p: os.path.basename(p)[:-4])
def test_every_mutant_exits_cleanly(tmp_path, capsys, source):
    with open(source, encoding="utf-8") as fh:
        doc = json.load(fh)
    scenario = tmp_path / "mutant.scn"
    work = tmp_path / "work"
    out = work / "out"
    holes = []
    for path in _paths(doc):
        for value in REPLACEMENTS:
            scenario.write_text(json.dumps(_mutant(doc, path, value)))
            work.mkdir()
            code = main(["run", str(scenario), "--out", str(out), "--no-cache"])
            written = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
            stray = sorted(p.name for p in work.iterdir() if p.name != "out")
            reported = any(name.endswith(".report.json") for name in written)
            if (code not in (0, 1, 2, 3) or (code == 2 and written)
                    or (code == 3 and not reported) or stray):
                holes.append("%s <- %r: exit %d, wrote %s%s" % (
                    "/".join(map(str, path)), value, code, written,
                    ", outside --out %s" % stray if stray else ""))
            shutil.rmtree(work)
    capsys.readouterr()
    assert not holes, "%d mutants:\n%s" % (len(holes), "\n".join(holes))
