"""Extension engines (NOT evaluated in the ICDE'18 paper).

The paper's future work names further systems to plug into the generic
interface: "such as Apache Samza, Heron, and Apache Apex".  This
subpackage provides two of them as *speculative* models:

- :mod:`repro.engines.ext.heron` -- Twitter Heron: Storm-API-compatible
  with a redesigned, mature backpressure and lower per-tuple overhead.
- :mod:`repro.engines.ext.samza` -- Apache Samza: per-partition
  processing over a replicated log with RocksDB state.

Unlike the Storm/Spark/Flink models, their cost constants are NOT fitted
to published measurements from the paper -- they are plausible
extrapolations documented inline, provided to demonstrate (and test)
the pluggable-SUT interface at scale.  Importing this package registers
both engines and their cost models.
"""

from repro.engines import ENGINES
from repro.engines.ext.heron import HeronEngine
from repro.engines.ext.samza import SamzaEngine

ENGINES.setdefault("heron", HeronEngine)
ENGINES.setdefault("samza", SamzaEngine)

__all__ = ["HeronEngine", "SamzaEngine"]
