"""The engine control plane has one writer: ``repro.engines.control``.

The worker pool, the pause clock, capacity derating, the checkpoint
frontier and the ledgers live on ``engine.control``; every other module
reads them (or calls a :class:`~repro.engines.control.ControlPlane`
method).  A module that assigns ``something.control.x = ...`` -- or
mutates a container it reached through ``.control`` -- has grown a
second writer, which is how five copies of "suspend processing" came
about.  Same ``ast`` walk as ``test_no_private_imports.py``.
"""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"
WRITER = pathlib.Path("engines") / "control.py"

MUTATORS = {
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "remove", "discard", "clear",
}

#: The plane fields and handlers ``StreamingEngine`` used to carry.
RETIRED = re.compile(
    r"_paused_until|_ramp_from_s|_partition_until|_slow_events"
    r"|_gray_abandoned|_active_workers|_dead_workers|_standbys_available"
    r"|_provisioning|_retiring|_migration_until|_rescale_busy_until"
    r"|_pause_for_|_pause_total\b|_ckpt_ingested_weight|_last_checkpoint_s"
    r"|_apply_(crash|restart|slow|partition|disconnect|flap|degrade|asympart)"
)


def _below_control(node):
    """Is ``node`` an attribute/item reached *through* a control plane
    (``x.control.a``, ``control.a[k]``, ``x.control.a.b``)?"""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
        if isinstance(node, ast.Attribute) and node.attr == "control":
            return True
        if isinstance(node, ast.Name) and node.id == "control":
            return True
    return False


def _targets(node):
    if isinstance(node, ast.Assign):
        stack = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        stack = [node.target]
    elif isinstance(node, ast.Delete):
        stack = list(node.targets)
    else:
        return
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        elif isinstance(target, ast.Starred):
            stack.append(target.value)
        else:
            yield target


def control_writes(source):
    """Line numbers in ``source`` that write control-plane state."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if any(_below_control(target) for target in _targets(node)):
            lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS
            and _below_control(node.func)
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_the_control_module_writes_control_state():
    found = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC) != WRITER
        for line in control_writes(path.read_text())
    ]
    assert found == []


def test_the_engine_class_carries_no_plane_fields():
    base = (SRC / "engines" / "base.py").read_text()
    assert RETIRED.findall(base) == []


def test_the_walk_catches_hand_made_violations():
    violations = {
        # the GC pause assigning the clock instead of asking for a pause
        "self.control.paused_until = now + pause": [1],
        "self.control.pause_total_s[cause] += pause": [1],
        "control = self.control\ncontrol.active -= 1": [2],
        "a, engine.control.spares = 1, 0": [1],
        "engine.control.derates.append((until, 0.5))": [1],
        "self.engine.control.abandoned.add(node)": [1],
        "del engine.control.fault_log[:]": [1],
    }
    for source, lines in violations.items():
        assert control_writes(source) == lines, source
    allowed = [
        "self.control = ControlPlane(self, checkpoint, reschedule)",
        "self.control.pause(seconds, PauseCause.JVM)",
        "self.fault_log = control.fault_log",
        "active = float(self.control.active)",
        "entry = self.control.scale_in(nodes, reason, detect_s)",
        "self.controller.rate = 1.0",
    ]
    for source in allowed:
        assert control_writes(source) == [], source
    assert RETIRED.findall("self._paused_until = now + pause")
