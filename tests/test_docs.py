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
