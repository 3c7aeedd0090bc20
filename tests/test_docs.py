"""The README's library entry points against the package.

The "Library entry points" code block runs as written, every name it
imports from the package is public, and every public name resolves. A
public name deleted from the package fails here until the README agrees.
"""

import ast
from pathlib import Path

import functorlab

README = Path(__file__).resolve().parent.parent / "README.md"


def _entry_points_block():
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_entry_points_block_runs():
    block = _entry_points_block()
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    from_package = [
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "functorlab"
        for alias in node.names
    ]
    assert from_package, "the block imports nothing from functorlab"
    assert sorted(set(from_package) - set(functorlab.__all__)) == []
    assert all(name in namespace for name in from_package)


def test_every_public_name_resolves():
    missing = [name for name in functorlab.__all__ if not hasattr(functorlab, name)]
    assert missing == []
    assert len(set(functorlab.__all__)) == len(functorlab.__all__)


def _selftest_table():
    """{suite: cells after the name} of the README's selftest table, and its
    header cells."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(next(line for line in lines if line.startswith("| suite |")))
    header = [cell.strip() for cell in lines[start].strip("|").split("|")]
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows[cells[0].strip("`")] = cells[1:]
    return header, rows


def test_readme_selftest_table_matches_the_suites():
    # one row per suite, no other rows, and the base-kind columns marked
    # for a suite made by per_base are the kinds it runs over
    from functorlab.corpus import KINDS
    from functorlab.selftest import SUITES

    header, rows = _selftest_table()
    assert list(rows) == [name for name, _suite in SUITES]
    assert header[2:2 + len(KINDS)] == list(KINDS)
    for name, suite in SUITES:
        marked = {kind for kind, cell in zip(KINDS, rows[name][1:]) if cell == "✓"}
        if hasattr(suite, "kinds"):
            assert marked == set(KINDS) & set(suite.kinds), name
