"""Window state has one representation in ``src/``: columns.

An open window is a ``WindowCols``, a closed one a ``WindowContents``
of the same columns.  The dict of per-key ``WindowAccumulator`` objects
they replaced -- and ``WindowCols.materialize()``, which rebuilt it at
every close -- live in ``tests/oracle`` as the reference.  A module
that defines or imports the accumulator, expands columns back into
objects, or reads a closed window's ``.by_key`` has grown the second
representation again.  Same ``ast`` walk as ``test_single_writer.py``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"
#: ``RecordBlock.materialize()`` (blocks -> records at the engine's
#: record-at-a-time door) is a different method, in core/.
WINDOW_CODE = SRC / "engines"


def second_representation(source, window_code=True):
    """Line numbers in ``source`` that bring the dict of accumulators back."""
    banned = {"WindowAccumulator", "by_key"}
    if window_code:
        banned.add("materialize")
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            named = {node.name}
        elif isinstance(node, ast.ImportFrom):
            named = {alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            named = {node.id}
        elif isinstance(node, ast.Attribute):
            named = {node.attr}
        else:
            continue
        if named & banned:
            lines.add(node.lineno)
    return sorted(lines)


def test_src_keeps_window_state_columnar():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        window_code = WINDOW_CODE in path.parents
        for line in second_representation(path.read_text(), window_code):
            found.append(f"{path.relative_to(SRC)}:{line}")
    assert found == []


def test_the_walk_sees_each_way_back():
    source = (
        "from repro.engines.operators.window import WindowAccumulator\n"  # 1
        "class WindowAccumulator:\n"                                       # 2
        "    pass\n"
        "class WindowCols:\n"
        "    def materialize(self):\n"                                     # 5
        "        return {}\n"
        "def close(cols, contents):\n"
        "    state = cols.materialize()\n"                                 # 8
        "    for key, acc in contents.by_key.items():\n"                   # 9
        "        acc.merge(WindowAccumulator())\n"                         # 10
    )
    assert second_representation(source) == [1, 2, 5, 8, 9, 10]
    assert second_representation("records = block.materialize()\n", False) == []
