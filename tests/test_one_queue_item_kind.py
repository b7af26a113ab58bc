"""A driver queue carries one item kind in ``src/``: the ``RecordBlock``.

Generators push blocks, the broker forwards blocks, the source pulls
blocks.  The record-at-a-time queue they replaced lives in
``tests/oracle/queues.py`` as the reference.  A module on the
generator -> queue -> source path that builds a ``Record``, imports
one, or asks whether an item is a ``RecordBlock`` has grown the second
item kind again.  Same ``ast`` walk as ``test_single_writer.py``.
"""

import ast
import pathlib

from repro.core.queues import DriverQueue

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"
QUEUE_PATH = (
    "core/queues.py",
    "core/broker.py",
    "core/generator.py",
    "engines/operators/source.py",
)


def second_item_kind(source):
    """Line numbers in ``source`` that bring a second item kind back."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if any(alias.name == "Record" for alias in node.names):
                lines.add(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "Record":
                lines.add(node.lineno)
            elif node.func.id == "isinstance" and any(
                isinstance(arg, ast.Name) and arg.id == "RecordBlock"
                for arg in ast.walk(node.args[1])
            ):
                lines.add(node.lineno)
    return sorted(lines)


def test_the_queue_path_speaks_blocks_only():
    found = [
        f"{name}:{line}"
        for name in QUEUE_PATH
        for line in second_item_kind((SRC / name).read_text())
    ]
    assert found == []


def test_push_and_pull_are_aliases_without_a_body():
    assert DriverQueue.push is DriverQueue.push_block
    assert DriverQueue.pull is DriverQueue.pull_blocks


def test_the_walk_sees_each_way_back():
    source = (
        "from repro.core.records import ADS, Record\n"             # 1
        "def push(queue, block):\n"
        "    queue.push(Record(key=0, value=1.0, event_time=0.0))\n"  # 3
        "    if not isinstance(block, RecordBlock):\n"             # 4
        "        pass\n"
        "    if isinstance(block, (int, RecordBlock)):\n"          # 6
        "        pass\n"
        "    return isinstance(block, list)\n"
    )
    assert second_item_kind(source) == [1, 3, 4, 6]
