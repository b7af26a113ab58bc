#!/usr/bin/env python3
"""Plug a custom engine into the benchmark framework.

The paper's future work asks for "a generic interface that users can
plug into any stream data processing system".  This example declares a
toy engine -- "Pipey", an idealised pipelined engine with a fixed
per-event cost -- against the
:class:`~repro.engines.base.StreamingEngine` interface and benchmarks it
with the *unchanged* driver, alongside Flink.

An engine is a declaration: the base class owns the window pipeline
(store, close, emit, sink), credit-based backpressure and the
conservation ledger, so Pipey states only what differs -- its config
defaults, its registered cost model and when a closed window's results leave.

Everything the driver does (rate-controlled generation, queueing,
event-time latency at the sink, sustainability judgement) applies to
the custom engine automatically: the framework never looks inside the
SUT.

Run:  python examples/custom_engine.py
"""

from dataclasses import dataclass

from repro import ExperimentSpec, run_experiment
from repro.engines import ENGINES
from repro.engines.base import EngineConfig, StreamingEngine
from repro.engines.calibration import (
    AGGREGATION,
    CostModel,
    register_cost_model,
)
from repro.workloads import WindowSpec, WindowedAggregationQuery


@dataclass(frozen=True)
class PipeyConfig(EngineConfig):
    """An idealised, pause-free JVM."""

    gc_rate_per_s: float = 0.0


# The engine's characterisation, registered for the query it runs (the
# built-in engines register theirs in repro.engines.calibration).
register_cost_model(
    CostModel(
        engine="pipey",
        query_kind=AGGREGATION,
        pipeline_cost_us=50.0,   # 2 workers -> 32e6/50 = 0.64 M/s
        keyed_cost_us=2.0,
        bulk_emit_cost_us=0.0,
        scaling_efficiency={2: 1.0, 4: 0.95, 8: 0.9},
    )
)


class PipeyEngine(StreamingEngine):
    """A minimal pipelined engine: incremental windows, no frills."""

    name = "pipey"
    config_cls = PipeyConfig

    def _emit_delay(self, closed) -> float:
        # Results leave one unloaded pipeline delay after the close.
        return self.config.pipeline_delay_s


def benchmark(engine: str, duration_s: float = 120.0):
    """One 0.3 M events/s aggregation trial of ``engine``."""
    return run_experiment(
        ExperimentSpec(
            engine=engine,
            query=WindowedAggregationQuery(window=WindowSpec(8.0, 4.0)),
            workers=2,
            profile=0.3e6,
            duration_s=duration_s,
            seed=9,
            monitor_resources=False,
        )
    )


def main() -> None:
    # Register the custom engine under its name, then benchmark it with
    # the standard spec/runner -- no framework changes needed.
    ENGINES["pipey"] = PipeyEngine
    for engine in ("pipey", "flink"):
        print(benchmark(engine).describe())


if __name__ == "__main__":
    main()
