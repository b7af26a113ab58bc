"""An engine is a declaration; the window pipeline is the base class's.

``StreamingEngine`` builds the window store, the backpressure mechanism
and the configuration, closes windows, and derives the conservation
ledger and the late-drop count from the store.  An engine module that
constructs a window store, asks whether its query is a join to pick
one, defines one of the hooks that became class attributes (or the
ledger), or spells out ``late_dropped_weight`` has started restating the
base again.  And the record-at-a-time fallback (``materialize_all`` ->
``_process``) lives in ``tests/oracle``: no module in ``src/`` names
either.  Same ``ast`` walk as ``test_one_queue_item_kind.py``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"
ENGINE_MODULES = (
    "engines/flink.py",
    "engines/storm.py",
    "engines/spark.py",
    "engines/ext/samza.py",
    "engines/ext/heron.py",
)
STORES = {"KeyedWindowStore", "JoinWindowStore"}
DECLARED = {
    "default_config",
    "supports_spill",
    "recommended_degradation",
    "_backpressure",
    "conservation",
}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def restated_base(source):
    """Line numbers in an engine module that restate the base."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = _name(node.func)
            if name in STORES:
                lines.add(node.lineno)
            elif name == "isinstance" and any(
                _name(arg) == "WindowedJoinQuery"
                for arg in ast.walk(node.args[1])
            ):
                lines.add(node.lineno)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in DECLARED:
                lines.add(node.lineno)
        elif isinstance(node, ast.Constant):
            if node.value == "late_dropped_weight":
                lines.add(node.lineno)
    return sorted(lines)


def record_fallback(source):
    """Line numbers that name the record-at-a-time fallback."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in ("_process", "materialize_all"):
                lines.add(node.lineno)
        elif _name(node) == "materialize_all":
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(
            alias.name == "materialize_all" for alias in node.names
        ):
            lines.add(node.lineno)
    return sorted(lines)


def test_engines_declare_only_what_differs():
    found = [
        f"{name}:{line}"
        for name in ENGINE_MODULES
        for line in restated_base((SRC / name).read_text())
    ]
    assert found == []


def test_no_record_at_a_time_fallback_in_src():
    found = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in record_fallback(path.read_text())
    ]
    assert found == []


def test_the_walks_see_each_restatement():
    engine = (
        "class E(StreamingEngine):\n"
        "    def __init__(self):\n"
        "        self._store = KeyedWindowStore(self.query.window)\n"    # 3
        "        self._j = ops.JoinWindowStore(self.query.window)\n"     # 4
        "        self.j = isinstance(self.query, WindowedJoinQuery)\n"   # 5
        "    @classmethod\n"
        "    def default_config(cls):\n"                                 # 7
        "        return None\n"
        "    def supports_spill(cls):\n"                                 # 9
        "        return True\n"
        "    def _backpressure(self):\n"                                 # 11
        "        return self.bp\n"
        "    def conservation(self):\n"                                  # 13
        "        return {'late_dropped_weight': 0.0}\n"                  # 14
        "    def recommended_degradation(cls):\n"                        # 15
        "        return isinstance(self.query, (int, q.WindowedJoinQuery))\n"  # 16
    )
    assert restated_base(engine) == [3, 4, 5, 7, 9, 11, 13, 14, 15, 16]
    fallback = (
        "from repro.core.batch import materialize_all, left_sum\n"      # 1
        "class E:\n"
        "    def _process(self, records, dt):\n"                         # 3
        "        pass\n"
        "    def _process_batch(self, blocks, dt):\n"
        "        self._process(batch.materialize_all(blocks), dt)\n"    # 6
        "def materialize_all(blocks):\n"                                 # 7
        "    return left_sum(blocks)\n"
    )
    assert record_fallback(fallback) == [1, 3, 6, 7]
