"""Reference implementations the differential suites test against.

Each module here is a slow, obviously-correct version of something the
production package does one faster way.  Only tests and benchmarks
import this package; no module elsewhere in :mod:`repro` does
(``tests/test_oracles_boundary.py`` checks that).

* :mod:`repro.oracles.orb_json` — the tagged-JSON codec that
  :mod:`repro.orb.wire` must match value for value.
"""
