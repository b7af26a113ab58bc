"""Recovery & degradation subsystem: the self-healing side of the SUT.

PR 2 injects faults; this package decides what the simulated engines do
about them.  Leaf policy modules (importable from anywhere, including
``engines.base``):

- :mod:`repro.recovery.reschedule` -- standby pools and operator
  rescheduling: one planning function per event kind, each a function
  of the reschedule mode (``none`` / ``spread`` / ``standby``);
- :mod:`repro.recovery.degradation` -- load shedding and admission
  ramps (:class:`~repro.recovery.degradation.DegradationPolicy`).

The seeded chaos soak harness behind ``repro chaos``,
:mod:`repro.recovery.chaos`, sits above the core experiment stack and
must be imported directly (not re-exported here, to keep the engine
layer free of import cycles).
"""

from repro.recovery.degradation import (
    SHED_MODES,
    SHED_NEWEST,
    SHED_NONE,
    SHED_OLDEST,
    DegradationPolicy,
)
from repro.recovery.reschedule import (
    MODE_NONE,
    MODE_SPREAD,
    MODE_STANDBY,
    RESCHEDULE_MODES,
    ReschedulePlan,
)

__all__ = [
    "DegradationPolicy",
    "ReschedulePlan",
    "RESCHEDULE_MODES",
    "SHED_MODES",
    "MODE_NONE",
    "MODE_SPREAD",
    "MODE_STANDBY",
    "SHED_NONE",
    "SHED_OLDEST",
    "SHED_NEWEST",
]
