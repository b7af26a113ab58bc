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

The same holds one level down, for the defaulted parameters of every
public function and method under ``src/``.  A parameter counts as
passed when the calls to it from those files feed it more than one
value: by keyword, by position, or through a ``*`` / ``**`` splat
(which counts as any value).  A call that leaves it out feeds the
default; a call that passes an upper-case module constant or a literal
feeds that one value, so a parameter every caller sets to the same
literal is single-valued too.  Entry points, callbacks, presentation knobs and workload
shapes are on the commented :data:`FREE_PARAMETERS` list.
"""

import ast
import dataclasses
import pathlib

import pytest

import repro.engines.ext  # noqa: F401  (registers heron/samza)
from repro.autoscale.policy import AutoscaleSpec
from repro.autoscale.scorecard import ElasticityConfig
from repro.core.experiment import ExperimentSpec
from repro.core.generator import GeneratorConfig
from repro.engines import ENGINES
from repro.faults.checkpoint import CheckpointSpec
from repro.metrology.watchdog import WatchdogSpec
from repro.obs.context import ObsSpec
from repro.recovery.chaos import ChaosConfig, ChaosPolicy
from repro.recovery.degradation import DegradationPolicy
from repro.recoverybench.scorecard import RecoverConfig
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
    ChaosConfig,
    ChaosPolicy,
    ElasticityConfig,
    RecoverConfig,
)
#: Fields no caller sets but a benchmark reads: the perf benchmark counts
#: the elasticity grid's cells as engines x policies x profiles.
READ_BY_BENCHMARK = {"ElasticityConfig": {"profiles"}}
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
    read = READ_BY_BENCHMARK.get(cls.__name__, set())
    assert sorted(fields - set_fields(cls) - read) == []


@pytest.mark.parametrize(
    "cls", ENGINE_CONFIGS, ids=lambda cls: cls.__name__
)
def test_every_engine_knob_has_a_caller_or_differs(cls):
    constructors = {config.__name__ for config in ENGINE_CONFIGS}
    constructors.add("config_cls")
    fields = {field.name for field in dataclasses.fields(cls)}
    unset = fields - set_fields(cls, constructors) - per_engine_fields(cls)
    assert sorted(unset) == []


# -- defaulted parameters ---------------------------------------------------

#: Defaulted parameters that may keep one value: ``module::callable:param``.
FREE_PARAMETERS = {
    # Entry points and callbacks: a user, a test or the CLI's shared grid
    # body (``run_grid_command`` calls its ``run`` argument) passes them.
    "cli.py::main:argv",
    "core/experiment.py::run_experiment_with_watchdog:run",
    "core/experiment.py::run_experiment_with_watchdog:driver_hook",
    "core/experiment.py::run_experiment_with_watchdog:sleep",
    "recovery/chaos.py::run_chaos:progress",
    "autoscale/scorecard.py::run_elasticity:progress",
    "recoverybench/scorecard.py::run_recovery_bench:progress",
    "recoverybench/scorecard.py::run_recovery_bench:journal",
    "recoverybench/scorecard.py::run_recovery_bench:workers",
    # Presentation: how a report is drawn, not what it says.
    "analysis/ascii_plots.py::render_series:width",
    "analysis/ascii_plots.py::render_series:height",
    "analysis/ascii_plots.py::render_obs_dashboard:width",
    "analysis/ascii_plots.py::render_obs_dashboard:max_traces",
    "core/report.py::shape_check:detail",
    # Workload shapes: a key distribution's own parameter, printed in
    # its repr and compared by value.
    "workloads/keys.py::NormalKeys.__init__:spread_fraction",
    "workloads/keys.py::ZipfKeys.__init__:exponent",
    "workloads/keys.py::SingleKey.__init__:key",
}

SRC = ROOT / "src" / "repro"


def public_callables():
    """``(qualified name, function node, self offset, names called by)``
    for every public module-level function and every ``__init__`` or
    public method of a public module-level class under ``src/``."""
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node in ast.parse(path.read_text()).body:
            if not isinstance(
                node, (ast.FunctionDef, ast.ClassDef)
            ) or node.name.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                yield f"{module}::{node.name}", node, 0, {node.name}
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if not isinstance(item, ast.FunctionDef) or (
                    item.name.startswith("_") and item.name != "__init__"
                ):
                    continue
                static = any(
                    getattr(d, "id", "") == "staticmethod"
                    for d in item.decorator_list
                )
                names = (
                    subclass_names(node.name)
                    if item.name == "__init__"
                    else {item.name}
                )
                yield (
                    f"{module}::{node.name}.{item.name}",
                    item,
                    0 if static else 1,
                    names,
                )


def defaulted_parameters(fn: ast.FunctionDef):
    """``(name, position or None, default)`` for each defaulted
    parameter of ``fn`` (private ones, ``_name``, excluded)."""
    args = fn.args
    positional = args.posonlyargs + args.args
    tail = positional[len(positional) - len(args.defaults):]
    for arg, default in zip(tail, args.defaults):
        if not arg.arg.startswith("_"):
            yield arg.arg, positional.index(arg), default
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None and not arg.arg.startswith("_"):
            yield arg.arg, None, default


def name_of(node: ast.expr) -> str:
    return getattr(node, "id", getattr(node, "attr", ""))


CALLER_TREES = [
    ast.parse(path.read_text())
    for tree in TREES
    for path in sorted(tree.rglob("*.py"))
]
BASES = {
    node.name: {name_of(base) for base in node.bases}
    for tree in CALLER_TREES
    for node in ast.walk(tree)
    if isinstance(node, ast.ClassDef)
}


def subclass_names(name: str):
    """``name`` and every class that derives from it, transitively."""
    names = {name}
    while True:
        more = {cls for cls, bases in BASES.items() if bases & names} - names
        if not more:
            return names
        names |= more


def aliases(tree: ast.AST):
    """``name -> {callables}`` for ``name = f`` and ``name = f if c else
    g`` bindings, so ``name(...)`` calls ``f`` (and ``g``)."""
    bound = {}
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            continue
        value = node.value
        options = (
            [value.body, value.orelse]
            if isinstance(value, ast.IfExp)
            else [value]
        )
        if all(isinstance(option, ast.Name) for option in options):
            bound[node.targets[0].id] = {option.id for option in options}
    return bound


def named_calls():
    """``(name called, call)`` for every call under the caller trees.
    ``cls(...)`` inside a class calls that class, ``super().__init__``
    its bases, ``partial(f, ...)`` calls ``f``, and a local alias of a
    callable calls what it is bound to."""
    for tree in CALLER_TREES:
        bound = aliases(tree)
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for call in ast.walk(cls):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if getattr(func, "id", "") == "cls":
                    yield cls.name, call
                elif getattr(func, "attr", "") == "__init__" and (
                    isinstance(func.value, ast.Call)
                    and callee(func.value) == "super"
                ):
                    for base in cls.bases:
                        yield name_of(base), call
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            if callee(call) == "partial" and call.args:
                yield name_of(call.args[0]), ast.Call(
                    func=call.args[0],
                    args=call.args[1:],
                    keywords=call.keywords,
                )
            else:
                yield callee(call), call
                for name in bound.get(getattr(call.func, "id", ""), ()):
                    yield name, call


def is_literal(node: ast.expr) -> bool:
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def single_valued_parameters():
    """Every defaulted parameter of a public callable that no call under
    ``src/``, ``examples/`` or ``benchmarks/`` feeds two values: each
    call leaves it at its default or passes one module constant or one
    literal."""
    calls = list(named_calls())
    for qualname, fn, offset, names in public_callables():
        params = list(defaulted_parameters(fn))
        fed = {name: {} for name, _position, _default in params}
        splatted = set()
        for name, call in calls:
            if name not in names:
                continue
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            keywords = {k.arg: k.value for k in call.keywords}
            for param, position, default in params:
                if None in keywords or (starred and position is not None):
                    splatted.add(param)
                    continue
                index = -1 if position is None else position - offset
                if 0 <= index < len(call.args):
                    value = call.args[index]
                else:
                    value = keywords.get(param, default)
                fed[param][ast.dump(value)] = value
        for param, _position, default in params:
            values = list(fed[param].values())
            if param not in splatted and len(values) < 2 and all(
                ast.dump(value) == ast.dump(default)
                or (isinstance(value, ast.Name) and value.id.isupper())
                or is_literal(value)
                for value in values
            ):
                yield f"{qualname}:{param}"


def test_every_parameter_has_a_caller():
    unpassed = set(single_valued_parameters())
    assert sorted(unpassed - FREE_PARAMETERS) == []
    # An allow-list entry whose parameter gained a second value or went
    # away is stale.
    assert sorted(FREE_PARAMETERS - unpassed) == []
