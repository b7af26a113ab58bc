"""Every field of the trial's config classes is set by some caller.

A field that no code outside the tests ever sets is a constant with a
constructor argument bolted on: it widens the spec's ``repr`` (and so
the search journal's fingerprint), invites range validation nobody
needs, and hides the one value the model runs at.  Such a value belongs
in a module constant beside the code that reads it.

A field counts as set when some file under ``src/``, ``examples/`` or
``benchmarks/``:

- passes it to the class itself (by keyword, or by position), to
  ``replace(...)``, to ``dict(...)``, or to a helper that splats its
  ``**kwargs`` into the class;
- names it as a string key of a dict (a literal, or a ``d["key"] = ...``
  store), or as a string in a tuple (a table such as the CLI's
  ``CLOCK_SKEW_FIELDS``), in a file that splats a mapping into the
  class.

An engine's configuration is one family: a field of any engine's
config class counts as set by a call to any of them (or to an engine's
``config_cls``), and also when two registered engines default it
differently -- then the field is the per-engine calibration.  Tests do
not count.
"""

import ast
import dataclasses
import pathlib

import pytest

import repro.engines.ext  # noqa: F401  (registers heron/samza)
from repro.autoscale.policy import AutoscaleSpec
from repro.core.experiment import ExperimentSpec
from repro.core.generator import GeneratorConfig
from repro.engines import ENGINES
from repro.faults.checkpoint import CheckpointSpec
from repro.metrology.watchdog import WatchdogSpec
from repro.obs.context import ObsSpec
from repro.recovery.degradation import DegradationPolicy
from repro.sim.clock import ClockSkewSpec
from repro.sim.cluster import ClusterSpec
from repro.workloads.disorder import DisorderSpec
from repro.workloads.queries import WindowSpec

ROOT = pathlib.Path(__file__).parent.parent
TREES = (ROOT / "src" / "repro", ROOT / "examples", ROOT / "benchmarks")
CLASSES = (
    CheckpointSpec,
    WatchdogSpec,
    GeneratorConfig,
    ExperimentSpec,
    ClusterSpec,
    ObsSpec,
    AutoscaleSpec,
    DegradationPolicy,
    DisorderSpec,
    WindowSpec,
    ClockSkewSpec,
)
ENGINE_CONFIGS = sorted(
    {engine.config_cls for engine in ENGINES.values()},
    key=lambda cls: cls.__name__,
)


def callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def splats(call: ast.Call) -> bool:
    return any(keyword.arg is None for keyword in call.keywords)


def forwarding_helpers(tree: ast.AST, names):
    """Functions taking ``**kwargs`` that build one of ``names`` from a
    splat."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef) or node.args.kwarg is None:
            continue
        if any(
            isinstance(inner, ast.Call)
            and callee(inner) in names
            and splats(inner)
            for inner in ast.walk(node)
        ):
            yield node.name


def set_fields(cls, names=None):
    """Field names some non-test file passes to class ``cls`` (or, when
    given, to any of the constructors ``names``)."""
    names = set(names or {cls.__name__})
    order = [field.name for field in dataclasses.fields(cls)]
    trees = [
        ast.parse(path.read_text())
        for tree in TREES
        for path in sorted(tree.rglob("*.py"))
    ]
    targets = names | {"replace", "dict"}
    for tree in trees:
        targets.update(forwarding_helpers(tree, names))
    found = set()
    for tree in trees:
        calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
        for call in calls:
            if callee(call) in targets:
                found.update(k.arg for k in call.keywords if k.arg)
            if callee(call) in names and not any(
                isinstance(arg, ast.Starred) for arg in call.args
            ):
                found.update(order[: len(call.args)])
        if any(callee(call) in names and splats(call) for call in calls):
            found.update(table_strings(tree))
    return found


def table_strings(tree: ast.AST):
    """String keys of dict literals and of ``d["key"] = ...`` stores,
    and the strings of tuple literals."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys = node.keys
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            keys = [node.slice]
        elif isinstance(node, ast.Tuple):
            keys = node.elts
        else:
            continue
        for key in keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                yield key.value


def per_engine_fields(cls):
    """Fields of ``cls`` that two registered engines default differently."""
    varied = set()
    for field in dataclasses.fields(cls):
        defaults = {
            repr(getattr(engine.config_cls(), field.name))
            for engine in ENGINES.values()
            if hasattr(engine.config_cls(), field.name)
        }
        if len(defaults) > 1:
            varied.add(field.name)
    return varied


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_field_has_a_caller(cls):
    fields = {field.name for field in dataclasses.fields(cls)}
    assert sorted(fields - set_fields(cls)) == []


@pytest.mark.parametrize(
    "cls", ENGINE_CONFIGS, ids=lambda cls: cls.__name__
)
def test_every_engine_knob_has_a_caller_or_differs(cls):
    constructors = {config.__name__ for config in ENGINE_CONFIGS}
    constructors.add("config_cls")
    fields = {field.name for field in dataclasses.fields(cls)}
    unset = fields - set_fields(cls, constructors) - per_engine_fields(cls)
    assert sorted(unset) == []
