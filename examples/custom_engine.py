#!/usr/bin/env python3
"""Plug a custom engine into the benchmark framework.

The paper's future work asks for "a generic interface that users can
plug into any stream data processing system".  This example implements
a toy engine -- "Pipey", an idealised pipelined engine with a fixed
per-event cost and perfect credit-based backpressure -- against the
:class:`~repro.engines.base.StreamingEngine` interface and benchmarks it
with the *unchanged* driver, alongside Flink.

Everything the driver does (rate-controlled generation, queueing,
event-time latency at the sink, sustainability judgement) applies to
the custom engine automatically: the framework never looks inside the
SUT.

Run:  python examples/custom_engine.py
"""

from typing import List

from repro import ExperimentSpec, run_experiment
from repro.core.records import Record
from repro.engines import ENGINES
from repro.engines.backpressure import BackpressureMechanism, CreditBased
from repro.engines.base import EngineConfig, StreamingEngine
from repro.engines.calibration import CostModel
from repro.engines.operators.aggregate import aggregation_outputs
from repro.engines.operators.window import KeyedWindowStore
from repro.workloads import WindowSpec, WindowedAggregationQuery


class PipeyEngine(StreamingEngine):
    """A minimal pipelined engine: incremental windows, no frills."""

    name = "pipey"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._backpressure_mechanism = CreditBased()
        self._store = KeyedWindowStore(self.query.window)

    def _resolve_cost_model(self) -> CostModel:
        # The built-in engines look their characterisation up in the
        # calibration registry; a custom engine supplies its own.
        return CostModel(
            engine="pipey",
            query_kind=self.query.kind,
            pipeline_cost_us=50.0,   # 2 workers -> 32e6/50 = 0.64 M/s
            keyed_cost_us=2.0,
            bulk_emit_cost_us=0.0,
            scaling_efficiency={2: 1.0, 4: 0.95, 8: 0.9},
        )

    @classmethod
    def default_config(cls) -> EngineConfig:
        return EngineConfig(gc_rate_per_s=0.0)  # an idealised, pause-free JVM

    def _backpressure(self) -> BackpressureMechanism:
        return self._backpressure_mechanism

    def _process(self, records: List[Record], dt: float) -> None:
        # The simple hook: one Record at a time.  The fast hook is
        # _process_batch(blocks, dt) with self._store.add_block(block).
        for record in records:
            self._store.add(record)

    def _on_tick_end(self, dt: float) -> None:
        assert self.source is not None and self.sink is not None
        for index in self._store.ready_indices(self.source.watermark):
            contents = self._store.close(index)
            emit_time = self.sim.now + self.config.pipeline_delay_s
            outputs = aggregation_outputs(contents, emit_time)
            if outputs:
                self.sim.schedule(
                    self.config.pipeline_delay_s, self.sink.emit, outputs, 48.0
                )


def main() -> None:
    # Register the custom engine under its name, then benchmark it with
    # the standard spec/runner -- no framework changes needed.
    ENGINES["pipey"] = PipeyEngine

    query = WindowedAggregationQuery(window=WindowSpec(8.0, 4.0))
    for engine in ("pipey", "flink"):
        result = run_experiment(
            ExperimentSpec(
                engine=engine,
                query=query,
                workers=2,
                profile=0.3e6,
                duration_s=120.0,
                seed=9,
                monitor_resources=False,
            )
        )
        print(result.describe())


if __name__ == "__main__":
    main()
