"""Nothing in ``src/`` makes an array writable again.

The fold memo of ``repro.core.batch`` keys a fold by its start and the
identity of a read-only array, and trusts the result for as long as the
entry lives.  That is sound only while a read-only array stays
read-only: the generator's emitted weights (and the key catalogs) are
frozen once, and a split or shed copies what it changes.  A module that
sets ``flags.writeable = True`` (or ``flags["WRITEABLE"] = True``) or
calls ``setflags(write=True)`` could change an array under a memoised
identity.  Same ``ast`` walk as ``test_one_queue_item_kind.py``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"


def _is_false(node):
    return isinstance(node, ast.Constant) and node.value is False


def unfreezing_lines(source):
    """Line numbers in ``source`` that may make an array writable."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            if _is_false(node.value):
                continue
            for target in node.targets:
                if isinstance(target, ast.Attribute) and (
                    target.attr.lower() == "writeable"
                ):
                    lines.add(node.lineno)
                elif isinstance(target, ast.Subscript) and (
                    isinstance(target.value, ast.Attribute)
                    and target.value.attr == "flags"
                ):
                    lines.add(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr != "setflags":
                continue
            write = [kw.value for kw in node.keywords if kw.arg == "write"]
            write += node.args[:1]
            if any(not _is_false(value) for value in write):
                lines.add(node.lineno)
    return sorted(lines)


def test_no_module_makes_an_array_writable():
    found = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in unfreezing_lines(path.read_text())
    ]
    assert found == []


def test_the_walk_sees_each_way_back():
    source = (
        "def thaw(weights, flag):\n"
        "    weights.flags.writeable = True\n"            # 2
        "    weights.flags.writeable = flag\n"            # 3
        "    weights.flags['WRITEABLE'] = True\n"         # 4
        "    weights.setflags(write=True)\n"              # 5
        "    weights.setflags(True)\n"                    # 6
        "    weights.flags.writeable = False\n"
        "    weights.setflags(write=False)\n"
        "    weights.setflags(align=True)\n"
    )
    assert unfreezing_lines(source) == [2, 3, 4, 5, 6]
