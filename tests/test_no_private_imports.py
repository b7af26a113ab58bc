"""No ``repro`` module imports another ``repro`` module's private name.

A leading underscore means "free to change without looking for
callers"; ``from repro.x import _helper`` silently revokes that.  Share
the name publicly (see :mod:`repro.grid`) or keep a local copy.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"


def private_imports():
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "repro":
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{path.relative_to(SRC)}:{node.lineno}: {alias.name}"


def test_no_private_cross_module_imports():
    assert list(private_imports()) == []
