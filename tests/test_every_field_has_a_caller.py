"""Every field of the trial's config classes is set by some caller.

A field that no code outside the tests ever sets is a constant with a
constructor argument bolted on: it widens the spec's ``repr`` (and so
the search journal's fingerprint), invites range validation nobody
needs, and hides the one value the model runs at.  Such a value belongs
in a module constant beside the code that reads it.

A field counts as set when some file under ``src/`` or ``examples/``
passes it as a keyword to the class itself, to ``replace(...)``, to
``dict(...)``, or to a helper that splats its ``**kwargs`` into the
class; or names it as a string key of a dict (a literal, or a
``d["key"] = ...`` store) in a file that splats a mapping into the
class.  Tests do not count.
"""

import ast
import dataclasses
import pathlib

import pytest

from repro.core.experiment import ExperimentSpec
from repro.core.generator import GeneratorConfig
from repro.faults.checkpoint import CheckpointSpec
from repro.metrology.watchdog import WatchdogSpec

ROOT = pathlib.Path(__file__).parent.parent
TREES = (ROOT / "src" / "repro", ROOT / "examples")
CLASSES = (CheckpointSpec, WatchdogSpec, GeneratorConfig, ExperimentSpec)


def callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def splats(call: ast.Call) -> bool:
    return any(keyword.arg is None for keyword in call.keywords)


def forwarding_helpers(tree: ast.AST, name: str):
    """Functions taking ``**kwargs`` that build ``name`` from a splat."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef) or node.args.kwarg is None:
            continue
        if any(
            isinstance(inner, ast.Call)
            and callee(inner) == name
            and splats(inner)
            for inner in ast.walk(node)
        ):
            yield node.name


def set_fields(name: str):
    """Field names some non-test file passes to class ``name``."""
    trees = [
        ast.parse(path.read_text())
        for tree in TREES
        for path in sorted(tree.rglob("*.py"))
    ]
    targets = {name, "replace", "dict"}
    for tree in trees:
        targets.update(forwarding_helpers(tree, name))
    found = set()
    for tree in trees:
        calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
        for call in calls:
            if callee(call) in targets:
                found.update(k.arg for k in call.keywords if k.arg)
        if any(callee(call) == name and splats(call) for call in calls):
            found.update(dict_keys(tree))
    return found


def dict_keys(tree: ast.AST):
    """String keys of dict literals, and of ``d["key"] = ...`` stores."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys = node.keys
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            keys = [node.slice]
        else:
            continue
        for key in keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                yield key.value


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_field_has_a_caller(cls):
    fields = {field.name for field in dataclasses.fields(cls)}
    assert sorted(fields - set_fields(cls.__name__)) == []
