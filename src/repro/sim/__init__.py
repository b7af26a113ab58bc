"""Discrete-event simulation substrate.

This subpackage provides the deterministic simulation machinery on which the
benchmark framework and the engine models run:

- :mod:`repro.sim.simulator` -- the event-heap simulator (clock, scheduling,
  periodic processes).
- :mod:`repro.sim.rng` -- named, seeded random-number streams so that every
  component draws from an independent, reproducible source.
- :mod:`repro.sim.cluster` -- the paper's testbed (16-core / 16 GB /
  1 Gb/s nodes, dedicated master, equal numbers of worker and driver
  nodes) and the cluster size of a trial.
- :mod:`repro.sim.network` -- the data-plane model (per-node NICs plus a
  shared generator-to-SUT segment) whose saturation produces the paper's
  observed ~1.2 M events/s network bound.
- :mod:`repro.sim.resources` -- CPU-load and network-usage sampling used to
  regenerate the paper's Figure 10.
- :mod:`repro.sim.failures` -- the failure vocabulary (connection drops,
  out-of-memory, topology stalls) used by the failure rules of Section VI-A.
"""

from repro.sim.cluster import ClusterSpec
from repro.sim.failures import (
    ConnectionDropped,
    OutOfMemory,
    SutFailure,
    TopologyStalled,
)
from repro.sim.network import DataPlane
from repro.sim.resources import ResourceMonitor, ResourceSample
from repro.sim.rng import RngRegistry
from repro.sim.simulator import EventHandle, PeriodicProcess, Simulator

__all__ = [
    "ClusterSpec",
    "ConnectionDropped",
    "DataPlane",
    "EventHandle",
    "OutOfMemory",
    "PeriodicProcess",
    "ResourceMonitor",
    "ResourceSample",
    "RngRegistry",
    "Simulator",
    "SutFailure",
    "TopologyStalled",
]
