"""The oracle tier: the record-at-a-time reference, kept out of ``src/``.

Production has one engine data path (blocks of cohorts, columnar
stores).  The per-record code it replaced -- and which generated
``tests/golden/conformance.json`` -- lives here as a test oracle:

- :mod:`tests.oracle.stores` -- dict-of-accumulator window / join /
  batch-partial stores and partial merger, the ``WindowAccumulator``
  they are made of and the dict-shaped closed window;
- :mod:`tests.oracle.engines` -- the five engines on those stores and
  their per-record ``_process`` loops, swapped into ``repro.engines.
  ENGINES`` by :func:`oracle_engines`; its ``_RecordAtATime`` mixin and
  ``materialize_all`` are the record-at-a-time fallback that
  production's base class no longer carries;
- :mod:`tests.oracle.kernels` -- ``SourceSet.pull``, the per-key dense
  emit loop, the per-cohort ``TraceSampler.maybe_trace`` and the
  dict-walking output builders, compared at unit level;
- :mod:`tests.oracle.queues` -- ``RecordQueue``, the record-at-a-time
  driver queue (one ``Record`` per cohort) the first two kernels run on
  and ``tests/core/test_queue_blocks.py`` compares the block queue
  with;
- :mod:`tests.oracle.search` -- the cold bisection of
  ``find_sustainable_throughput``, which production now aims
  (``test_aimed_search.py``).

Whole-trial comparisons (production vs oracle, exact) are in
``tests/engines/test_vector_identity.py``,
``tests/detect/test_determinism.py`` and
``tests/integration/test_conformance.py``.
"""

from tests.oracle.engines import ORACLE_ENGINES, oracle_engines

__all__ = ["ORACLE_ENGINES", "oracle_engines"]
