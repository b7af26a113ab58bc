"""Observability wiring: spec -> context -> report.

:class:`ObsSpec` is the user-facing switch (part of
:class:`~repro.core.experiment.ExperimentSpec`, settable from the CLI
via ``--trace-sample-rate`` / ``--metrics-interval``).
:class:`ObsContext` is the live per-trial object threaded through the
driver, engine, and operators; it owns the
:class:`~repro.obs.registry.MetricsRegistry`, the
:class:`~repro.obs.trace.TraceSampler`, and the
:class:`~repro.obs.trace.TraceLog`.

Everything downstream treats the context as optional: ``obs`` is
``None`` when observability is off, and the sampler is ``None`` when
only metrics are on, so the per-event cost of a disabled feature is
one attribute load and an ``is None`` branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TraceLog, TraceSampler


@dataclass(frozen=True)
class ObsSpec:
    """What to observe during a trial.

    ``trace_sample_rate`` is 1-in-N over generator cohorts; 0 disables
    tracing.  ``metrics_interval_s`` is the registry sampling period.
    Trace memory and the JSON payload are bounded by
    :data:`~repro.obs.trace.MAX_TRACES` and
    :data:`~repro.obs.trace.MAX_EXPORT`.
    """

    trace_sample_rate: int = 0
    metrics_interval_s: float = 1.0

    def __post_init__(self) -> None:
        if self.trace_sample_rate < 0:
            raise ValueError(
                f"trace_sample_rate must be >= 0, "
                f"got {self.trace_sample_rate}"
            )
        if self.metrics_interval_s <= 0:
            raise ValueError(
                f"metrics_interval_s must be positive, "
                f"got {self.metrics_interval_s}"
            )

    @property
    def tracing_enabled(self) -> bool:
        return self.trace_sample_rate > 0


class ObsContext:
    """Live observability state for one trial."""

    def __init__(self, spec: ObsSpec) -> None:
        self.spec = spec
        self.registry = MetricsRegistry(interval_s=spec.metrics_interval_s)
        self.trace_log = TraceLog()
        self.sampler: Optional[TraceSampler] = (
            TraceSampler(spec.trace_sample_rate, self.trace_log)
            if spec.tracing_enabled
            else None
        )

    @classmethod
    def build(cls, sim: Any, spec: Optional[ObsSpec]) -> Optional["ObsContext"]:
        """Create and install a context, or None when obs is off."""
        if spec is None:
            return None
        ctx = cls(spec)
        ctx.registry.install(sim)
        return ctx

    def add_event(self, kind: str, at_time: float, **fields: Any) -> None:
        """Post a timeline event (fault injected, recovery milestone)."""
        self.trace_log.add_event(kind, at_time, **fields)

    def finalize(self) -> "ObsReport":
        """Trial teardown: annotate traces with timeline events and
        freeze into a report."""
        self.trace_log.annotate()
        return ObsReport(
            spec=self.spec, registry=self.registry, trace_log=self.trace_log
        )


@dataclass
class ObsReport:
    """The frozen observability outcome of one trial (rides on
    :class:`~repro.core.driver.TrialResult`)."""

    spec: ObsSpec
    registry: MetricsRegistry
    trace_log: TraceLog

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_sample_rate": self.spec.trace_sample_rate,
            "metrics_interval_s": self.spec.metrics_interval_s,
            "metrics": self.registry.to_dict(),
            "tracing": self.trace_log.to_dict(),
        }
