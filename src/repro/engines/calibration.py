"""Cost model and calibration constants for the engine simulations.

A performance model needs numbers.  This module is the *only* place
where the paper's published measurements are used to fit constants; the
rest of the codebase treats the values below as a hardware/software
characterisation, and all benchmark results (tables, figures,
sustainable-throughput numbers) are *measured* by running the framework
against the simulated engines -- never copied from this file.

The model decomposes per-event work into

- ``pipeline_cost_us``: core-microseconds per event for the freely
  parallelisable stages (deserialisation, source, shuffle, ack-ing);
- ``keyed_cost_us``: core-microseconds per event for the keyed window
  stage, which in Flink and Storm runs on the single slot owning the
  key's key-group (this term produces the paper's Experiment 4 result
  that single-key workloads do not scale);
- ``bulk_emit_cost_us``: core-microseconds per *stored* event paid when
  a window is evaluated in bulk at close time (Storm's window operator,
  Flink's windowed join probe).  Zero for incremental aggregation.
- ``scaling_efficiency``: cluster-size-dependent efficiency relative to
  linear scaling of core count (coordination, shuffle fan-out, stragglers).

How the constants were fitted (all from the paper's tables):

- total per-event cost at 2 workers = 2 * 16 cores * 1e6 us /
  sustainable_throughput(2-node); e.g. Storm aggregation:
  32e6 / 0.40e6 = 80 us/event (Table I).
- scaling_efficiency(n) = observed_throughput(n) / (linear projection
  from the 2-node cost); e.g. Storm 8-node: 0.99 / (0.40 * 4) = 0.619.
- keyed_cost_us = 1e6 / single-slot throughput under single-key skew
  (Experiment 4): Flink 1e6/0.48e6 = 2.08 us, Storm 1e6/0.20e6 = 5 us.
- Flink's CPU capacity at 2 workers is set marginally above the network
  bound (1.25 M/s vs 1.202 M/s) because the paper reports Flink at the
  network limit for every cluster size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

from repro.sim.cluster import ClusterSpec

AGGREGATION = "aggregation"
JOIN = "join"
QUERY_KINDS = (AGGREGATION, JOIN)


def _interp_efficiency(table: Mapping[int, float], workers: int) -> float:
    """Piecewise-linear interpolation of a {workers: efficiency} table.

    Extrapolation is clamped to the boundary values: efficiency is a
    bounded physical quantity and the calibration points (2, 4, 8) cover
    the paper's sweep.
    """
    if workers in table:
        return table[workers]
    points = sorted(table.items())
    if workers <= points[0][0]:
        return points[0][1]
    if workers >= points[-1][0]:
        return points[-1][1]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 <= workers <= x1:
            frac = (workers - x0) / (x1 - x0)
            return y0 + frac * (y1 - y0)
    raise AssertionError("unreachable")  # pragma: no cover


@dataclass(frozen=True)
class CostModel:
    """Per-event cost characterisation of one engine for one query kind."""

    engine: str
    query_kind: str
    pipeline_cost_us: float
    keyed_cost_us: float
    bulk_emit_cost_us: float
    scaling_efficiency: Mapping[int, float]
    keyed_stage_parallel: bool = False
    """True when the keyed stage spreads over all slots even under skew
    (Spark's tree-aggregate / tree-reduce communication pattern)."""
    skew_capacity_factor: float = 1.0
    """Multiplier on total capacity under extreme skew for engines with a
    parallel keyed stage (tree-aggregation has coordination overhead)."""
    state_bytes_per_event: float = 64.0
    """Operator-state bytes per buffered event (drives Experiment 3)."""

    @property
    def total_cost_us(self) -> float:
        return self.pipeline_cost_us + self.keyed_cost_us

    def efficiency(self, workers: int) -> float:
        return _interp_efficiency(self.scaling_efficiency, workers)

    def cpu_capacity_events_per_s(self, cluster: ClusterSpec) -> float:
        """Steady-state CPU-bound ingest capacity of a deployment."""
        budget_us = cluster.worker_cores * 1e6 * self.efficiency(cluster.workers)
        return budget_us / self.total_cost_us

    def keyed_slot_capacity_events_per_s(self) -> float:
        """Events/s one slot's core can push through the keyed stage.

        Under single-key skew this caps the whole deployment for engines
        whose keyed stage is not parallel (Flink, Storm) -- Experiment 4.
        """
        if self.keyed_cost_us <= 0:
            return float("inf")
        return 1e6 / self.keyed_cost_us

    def skew_capacity_events_per_s(
        self, cluster: ClusterSpec, hot_fraction: float
    ) -> float:
        """Capacity when ``hot_fraction`` of events hit the hottest key."""
        base = self.cpu_capacity_events_per_s(cluster)
        if self.keyed_stage_parallel:
            # Tree-aggregate spreads the hot key across slots; skew only
            # costs coordination overhead.
            if hot_fraction >= 0.5:
                return base * self.skew_capacity_factor
            return base
        slot = self.keyed_slot_capacity_events_per_s()
        if hot_fraction <= 0:
            return base
        return min(base, slot / hot_fraction)

    def bulk_emit_delay_s(
        self, stored_weight: float, cluster: ClusterSpec
    ) -> float:
        """Time to evaluate a window of ``stored_weight`` events in bulk."""
        if self.bulk_emit_cost_us <= 0 or stored_weight <= 0:
            return 0.0
        budget_us_per_s = (
            cluster.worker_cores * 1e6 * self.efficiency(cluster.workers)
        )
        return stored_weight * self.bulk_emit_cost_us / budget_us_per_s


# ---------------------------------------------------------------------------
# Calibrated models.  Sources for every constant are given inline.
# ---------------------------------------------------------------------------

_MODELS: Dict[Tuple[str, str], CostModel] = {}


def register_cost_model(model: CostModel) -> None:
    """Register the performance characterisation of an engine.

    Part of the pluggable-SUT interface: an engine with
    ``name="myengine"`` becomes benchmarkable once a model is registered
    for each query kind it supports.  The built-in models below, and
    the extension engines' models, are registered the same way.
    """
    _MODELS[(model.engine, model.query_kind)] = model


# --- Storm -----------------------------------------------------------------
# Table I: 0.40 / 0.69 / 0.99 M/s => cost(2) = 32e6/0.40e6 = 80 us.
# eff(4) = 0.69/0.80 = 0.8625; eff(8) = 0.99/1.60 = 0.61875.
# Experiment 4: 0.20 M/s single-key => keyed = 5 us; pipeline = 75 us.
# Window results are produced in bulk at window close (Section VI,
# Experiment 4 discussion: "one implementation of window reduce operator
# can output the results continuously, while another can chose to perform
# so in bulk") -- bulk cost tuned to yield Table II's ~1.4 s 2-node avg.
# Storm buffers whole tuples in window state with no spill-to-disk
# (Experiment 3: "Otherwise, we encountered memory exceptions").
register_cost_model(
    CostModel(
        engine="storm",
        query_kind=AGGREGATION,
        pipeline_cost_us=75.0,
        keyed_cost_us=5.0,
        bulk_emit_cost_us=14.0,
        scaling_efficiency={2: 1.0, 4: 0.8625, 8: 0.61875},
        state_bytes_per_event=640.0,
    )
)

# Storm has no built-in windowed join; the paper implemented a naive join
# measuring 0.14 M/s and 2.3 s average latency on 2 nodes, with memory
# issues and topology stalls on larger clusters (Experiment 2).
# cost(2) = 32e6/0.14e6 = 228.6 us.  The naive join buffers both input
# windows fully (very heavy per-event state).
register_cost_model(
    CostModel(
        engine="storm",
        query_kind=JOIN,
        pipeline_cost_us=212.0,
        keyed_cost_us=16.6,
        bulk_emit_cost_us=90.0,
        scaling_efficiency={2: 1.0, 4: 0.85, 8: 0.60},
        state_bytes_per_event=560.0,
    )
)

# --- Spark -----------------------------------------------------------------
# Table I: 0.38 / 0.64 / 0.91 M/s => cost(2) = 32e6/0.38e6 = 84.2 us.
# eff(4) = 0.64/0.76 = 0.842; eff(8) = 0.91/1.52 = 0.599.
# Keyed stage uses tree-reduce/tree-aggregate => parallel under skew
# (Experiment 4: Spark sustains 0.53 M/s at 4 nodes on a single key,
# 0.53/0.64 = 0.83 of its unskewed capacity).
# Mini-batch jobs evaluate windows from batch-level partial aggregates;
# there is no per-window bulk pass (costs are inside the batch job).
register_cost_model(
    CostModel(
        engine="spark",
        query_kind=AGGREGATION,
        pipeline_cost_us=80.2,
        keyed_cost_us=4.0,
        bulk_emit_cost_us=0.0,
        scaling_efficiency={2: 1.0, 4: 0.842, 8: 0.599},
        keyed_stage_parallel=True,
        skew_capacity_factor=0.83,
        state_bytes_per_event=200.0,
    )
)

# Table III: 0.36 / 0.63 / 0.94 M/s => cost(2) = 32e6/0.36e6 = 88.9 us.
# eff(4) = 0.63/0.72 = 0.875; eff(8) = 0.94/1.44 = 0.653.
# Under skew the join "exhibits very high latencies" but survives --
# memory pressure is modelled through the heavier per-event state.
register_cost_model(
    CostModel(
        engine="spark",
        query_kind=JOIN,
        pipeline_cost_us=82.9,
        keyed_cost_us=6.0,
        bulk_emit_cost_us=0.0,
        scaling_efficiency={2: 1.0, 4: 0.875, 8: 0.653},
        keyed_stage_parallel=True,
        skew_capacity_factor=0.55,
        state_bytes_per_event=420.0,
    )
)

# --- Flink -----------------------------------------------------------------
# Table I reports 1.2 M/s at every size, network-bound from 4 nodes; the
# 2-node CPU capacity is set just above the wire limit:
# cost(2) = 32e6/1.25e6 = 25.6 us.
# Experiment 4: 0.48 M/s single-key => keyed = 1e6/0.48e6 = 2.083 us.
# Aggregates are computed on the fly (incremental) => no bulk pass and
# tiny per-event state (per-key accumulators only).
register_cost_model(
    CostModel(
        engine="flink",
        query_kind=AGGREGATION,
        pipeline_cost_us=23.5,
        keyed_cost_us=2.083,
        bulk_emit_cost_us=0.0,
        scaling_efficiency={2: 1.0, 4: 0.90, 8: 0.80},
        state_bytes_per_event=2.0,
    )
)

# Table III: 0.85 / 1.12 / 1.19 M/s; 8-node is network-bound (larger
# result traffic), so CPU efficiencies are fitted at 2 and 4 nodes:
# cost(2) = 32e6/0.85e6 = 37.6 us; eff(4) = 1.12/1.70 = 0.659.
# The windowed join evaluates at window close (hash-probe over the
# window) => bulk cost, fitted to Table IV's ~4.3 s 2-node average.
# Join state buffers both windows (Experiment 4: under single-key skew
# "Flink often becomes unresponsive" -- single-slot keyed stage plus
# state blow-up).
register_cost_model(
    CostModel(
        engine="flink",
        query_kind=JOIN,
        pipeline_cost_us=29.6,
        keyed_cost_us=8.0,
        bulk_emit_cost_us=18.0,
        scaling_efficiency={2: 1.0, 4: 0.659, 8: 0.50},
        state_bytes_per_event=180.0,
    )
)


def cost_model_for(engine: str, query_kind: str) -> CostModel:
    """The calibrated cost model for (engine, query kind)."""
    key = (engine.lower(), query_kind)
    try:
        return _MODELS[key]
    except KeyError:
        raise ValueError(
            f"no cost model for engine={engine!r}, query_kind={query_kind!r}; "
            f"have {sorted(_MODELS)}"
        ) from None


def registered_models() -> Dict[Tuple[str, str], CostModel]:
    """A copy of the calibration registry (for tests and docs)."""
    return dict(_MODELS)
