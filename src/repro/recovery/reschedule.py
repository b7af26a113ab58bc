"""Operator rescheduling after node faults: standby pools and spreading.

PR 2's fault layer *injects* faults; the engine reaction it modelled is
the one real deployment nobody runs in production: a NodeCrash removes
capacity forever and killing the last worker aborts the trial.  Real
Flink/Storm/Spark clusters run with spare slots: the resource manager
reschedules the dead node's operator slots onto a **standby** node (a
hot spare that runs no operators until promoted) or **spreads** them
over the survivors.  Vogel et al. (arXiv:2404.06203) show the recovery
*strategy* -- where work lands and what state has to move -- dominates
post-fault latency, so it must be a benchmark knob, not a hardcoded
behaviour.

The reschedule **mode** is that knob (``ExperimentSpec.reschedule``,
``--reschedule``); the standby pool is the cluster's
(``ExperimentSpec.standby``, ``--standby``).  Given a crash,
:func:`plan_crash` produces a :class:`ReschedulePlan`:

- how many standbys are promoted (capacity returns once migration
  completes);
- whether the remaining dead slots spread over survivors (the job keeps
  running at reduced capacity) or the mode gives up (``none``: the
  legacy behaviour, where losing the last worker is fatal);
- the **state-migration pause**: the dead nodes' share of operator
  state (``state_bytes * lost_fraction``) pulled over the receiving
  nodes' NICs at :data:`MIGRATION_NIC_FRACTION` of line rate.  This is
  the *slot placement* cost, additional to the engine's
  checkpoint-derived recovery pause (which models state
  *reconstruction*, not placement).

Transient faults are planned too: a :class:`~repro.faults.schedule.
SlowNode` that outlasts the failure detector
(:data:`~repro.faults.checkpoint.DETECTION_TIMEOUT_S`) is masked by
promoting a standby in place of the straggler; one that clears before
the detector fires must **not** trigger a migration (moving state for a
blip costs more than riding it out).  Network partitions never migrate:
no node is at fault, so there is nothing to reschedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.faults.checkpoint import DETECTION_TIMEOUT_S
from repro.sim.cluster import NIC_BYTES_PER_S

#: Legacy behaviour: no standbys are promoted and nothing is spread --
#: capacity is simply gone; losing every worker fails the trial.
MODE_NONE = "none"
#: Survivors absorb the dead node's slots after a state migration.
MODE_SPREAD = "spread"
#: Standbys are promoted first; leftover slots spread over survivors.
MODE_STANDBY = "standby"

RESCHEDULE_MODES = (MODE_NONE, MODE_SPREAD, MODE_STANDBY)


@dataclass(frozen=True)
class ReschedulePlan:
    """The decision for one crash (or detected straggler)."""

    promoted: int
    """Standby nodes promoted into the dead nodes' slots."""
    survivors: int
    """Active workers remaining after the crash (excluding standbys
    still warming up through their migration)."""
    migrated_bytes: float
    """Operator-state bytes that must move to the new slot owners."""
    migration_pause_s: float
    """Extra processing outage while the migrated state is in flight."""
    fatal: bool
    """True when no placement exists: no survivors and no standbys."""

    def __post_init__(self) -> None:
        if self.promoted < 0 or self.survivors < 0:
            raise ValueError(
                "promoted and survivors must be >= 0, got "
                f"({self.promoted}, {self.survivors})"
            )
        if self.migrated_bytes < 0 or self.migration_pause_s < 0:
            raise ValueError(
                "migrated_bytes and migration_pause_s must be >= 0, got "
                f"({self.migrated_bytes}, {self.migration_pause_s})"
            )
        if not self.fatal and self.survivors + self.promoted < 1:
            # The invariant every caller relies on: a non-fatal plan
            # always leaves at least one worker holding the job.  An
            # autoscaler asking to drain the last active node must be
            # rejected here, not discovered as a dead cluster later.
            raise ValueError(
                "non-fatal plan must keep >= 1 worker "
                f"(promoted={self.promoted}, survivors={self.survivors})"
            )

    @property
    def restored(self) -> int:
        """Workers active once the migration completes."""
        return self.survivors + self.promoted


#: Fraction of the receiving nodes' NIC bandwidth available to a state
#: migration (the rest keeps serving ingest).
MIGRATION_NIC_FRACTION = 0.8


def resolve_mode(mode: Optional[str], standby: int) -> str:
    """The mode a trial runs under: ``mode`` when one is given, else
    standby promotion when ``standby`` spares exist and ``none``
    otherwise -- with no spares the legacy behaviour, where
    capacity lost to a crash stays lost and killing the last worker is
    fatal."""
    if mode is None:
        return MODE_STANDBY if standby > 0 else MODE_NONE
    if mode not in RESCHEDULE_MODES:
        raise ValueError(
            f"reschedule must be one of {RESCHEDULE_MODES}, got {mode!r}"
        )
    return mode


def migration_pause_s(migrated_bytes: float, receivers: int) -> float:
    """Time to move ``migrated_bytes`` onto ``receivers`` nodes' NICs."""
    if migrated_bytes <= 0 or receivers <= 0:
        return 0.0
    bandwidth = receivers * NIC_BYTES_PER_S * MIGRATION_NIC_FRACTION
    return migrated_bytes / bandwidth


def plan_crash(
    mode: str,
    *,
    kill: int,
    active: int,
    standbys_left: int,
    state_bytes: float,
) -> ReschedulePlan:
    """Place the slots of ``kill`` dead workers (out of ``active``)."""
    if kill <= 0 or active <= 0:
        raise ValueError(f"need kill > 0 and active > 0, got ({kill}, {active})")
    kill = min(kill, active)
    survivors = active - kill
    promoted = 0
    if mode == MODE_STANDBY:
        promoted = min(kill, max(0, standbys_left))
    if survivors + promoted <= 0:
        # No placement target exists; the job is unrecoverable.
        return ReschedulePlan(
            promoted=0,
            survivors=0,
            migrated_bytes=0.0,
            migration_pause_s=0.0,
            fatal=True,
        )
    if mode == MODE_NONE:
        # Legacy semantics: survivors keep their own slots, the dead
        # slots are implicitly absorbed at zero modelled cost.
        return ReschedulePlan(
            promoted=0,
            survivors=survivors,
            migrated_bytes=0.0,
            migration_pause_s=0.0,
            fatal=survivors <= 0,
        )
    migrated = max(0.0, state_bytes) * (kill / active)
    pause = migration_pause_s(migrated, survivors + promoted)
    return ReschedulePlan(
        promoted=promoted,
        survivors=survivors,
        migrated_bytes=migrated,
        migration_pause_s=pause,
        fatal=False,
    )


def plan_scale_in(
    *,
    remove: int,
    active: int,
    state_bytes: float,
) -> ReschedulePlan:
    """Plan a *voluntary* departure of ``remove`` workers.

    Unlike :func:`plan_crash` the victims are healthy: their keyed
    state is drained onto the survivors over the NIC before the slots
    are released, so nothing is exposed to the delivery ledger by the
    plan itself (engines may still replay or drop in-flight work per
    their own rescale semantics).  Removing the last worker is a caller
    error, never a fatal plan -- an autoscaler has no business emptying
    the cluster.  Every mode drains the same way, so none is asked for.
    """
    if remove <= 0:
        raise ValueError(f"remove must be > 0, got {remove}")
    if remove >= active:
        raise ValueError(
            f"scale-in may not remove the last worker "
            f"(remove={remove}, active={active})"
        )
    survivors = active - remove
    migrated = max(0.0, state_bytes) * (remove / active)
    pause = migration_pause_s(migrated, survivors)
    return ReschedulePlan(
        promoted=0,
        survivors=survivors,
        migrated_bytes=migrated,
        migration_pause_s=pause,
        fatal=False,
    )


def plan_straggler(
    mode: str,
    *,
    nodes: int,
    duration_s: float,
    standbys_left: int,
    state_bytes: float,
    active: int,
) -> ReschedulePlan:
    """Decide whether to replace ``nodes`` stragglers with standbys.

    A straggler is only ever migrated away from when (1) the mode is
    ``standby``, (2) the degradation outlasts the failure detector --
    below :data:`~repro.faults.checkpoint.DETECTION_TIMEOUT_S` the
    fault clears before anyone notices -- and (3) a standby is
    available.  The plan's ``promoted`` count says how many stragglers
    get replaced; ``migration_pause_s`` is when their capacity is clean
    again (measured from detection, not injection).
    """
    no_migration = ReschedulePlan(
        promoted=0,
        survivors=active,
        migrated_bytes=0.0,
        migration_pause_s=0.0,
        fatal=False,
    )
    if mode != MODE_STANDBY:
        return no_migration
    # Strictly shorter than the timeout clears before detection; a
    # fault lasting *exactly* DETECTION_TIMEOUT_S is detected at the
    # instant it ends and still triggers the migration (the old ``<=``
    # silently dropped that boundary case).
    if duration_s < DETECTION_TIMEOUT_S:
        return no_migration
    promoted = min(nodes, max(0, standbys_left))
    if promoted <= 0 or active <= 0:
        return no_migration
    migrated = max(0.0, state_bytes) * (promoted / active)
    pause = migration_pause_s(migrated, promoted)
    return ReschedulePlan(
        promoted=promoted,
        survivors=active,
        migrated_bytes=migrated,
        migration_pause_s=pause,
        fatal=False,
    )


def plan_suspect(
    mode: str,
    *,
    active: int,
    standbys_left: int,
    state_bytes: float,
) -> ReschedulePlan:
    """Plan the eviction of one *suspected* (but possibly healthy)
    worker, on a failure detector's verdict (:mod:`repro.detect`).

    This is the seam that makes detector quality cost real time: the
    scheduler cannot tell a true conviction from a false positive, so
    either way the suspect's partitions are moved -- onto a promoted
    standby when one is available, else spread over the survivors
    (shrinking capacity by one worker).  The migration pause is the
    same NIC-bounded transfer used by crashes and rescales; a
    *spurious* verdict therefore bills the full pause for nothing.
    Returns a no-op plan (``promoted == 0`` and ``survivors ==
    active``) when the mode has nowhere to put the suspect's slots:
    under ``none``, or in spread mode with no survivor left to absorb
    them.
    """
    if active <= 0:
        raise ValueError(f"active must be > 0, got {active}")
    refuse = ReschedulePlan(
        promoted=0,
        survivors=active,
        migrated_bytes=0.0,
        migration_pause_s=0.0,
        fatal=False,
    )
    if mode == MODE_NONE:
        return refuse
    promoted = 0
    if mode == MODE_STANDBY:
        promoted = min(1, max(0, standbys_left))
    survivors = active - 1
    receivers = survivors + promoted
    if receivers <= 0:
        # Evicting the last worker with no spare would kill the job on
        # a suspicion; the mode declines instead.
        return refuse
    migrated = max(0.0, state_bytes) * (1.0 / active)
    pause = migration_pause_s(migrated, receivers)
    return ReschedulePlan(
        promoted=promoted,
        survivors=survivors,
        migrated_bytes=migrated,
        migration_pause_s=pause,
        fatal=False,
    )
