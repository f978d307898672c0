"""Reference implementations the differential suites test against.

Each module here is a slow, obviously-correct version of something the
production package does one faster way.  Only tests and benchmarks
import this package; no module elsewhere in :mod:`repro` does
(``tests/test_oracles_boundary.py`` checks that).

* :mod:`repro.oracles.orb_json` — the tagged-JSON codec that
  :mod:`repro.orb.wire` must match value for value.
* :mod:`repro.oracles.lattice` — the quadratic-rescan builder that
  :class:`repro.core.lattice.RegionLattice` must match node for node.
* :mod:`repro.oracles.semantic` — the rebuild-everything semantic
  engine whose event stream
  :class:`repro.reasoning.incremental.SemanticTriggerEngine` must
  match, and :func:`~repro.oracles.semantic.missed_transitions`.
* :mod:`repro.oracles.scans` — the linear scans behind the query-side
  indexes: shortest paths, point and rectangle location, region
  overlap and subscription matching.
"""
