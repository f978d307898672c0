"""Per-layer span ledger for the traced benchmark run.

Spans are recorded from outside the program: :meth:`Ledger.wrap`
replaces a public method on a live instance with a timing wrapper.
Each thread keeps its own stack, so a span's *self time* is its
duration minus the time its direct child spans cover, also inside the
pipeline's worker threads.  Spans are aggregated per name in memory
(calls, total, self) and reduced to layer metrics when the run ends.

A span's name is ``<layer>.<call>``; the layers are the program's
packages on the reading path (``spatialdb``, ``service``, ``core``,
``reasoning``, ``storage``, ``pipeline``, ``shard``, ``orb``).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List

LAYERS = ("spatialdb", "service", "core", "reasoning", "storage",
          "pipeline", "shard", "orb")

# On office (one thread) the layers' self times must cover the traced
# closed loop's wall time to within this share; the rest is the
# driver's own loop.
ACCOUNTING_TOLERANCE = 0.10


class Ledger:
    """Aggregated spans: name -> [calls, total_ns, self_ns]."""

    def __init__(self) -> None:
        self.active = False
        self.wall_s = 0.0  # timed phases covered while active
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: List[Dict[str, List[int]]] = []

    def _state(self):
        local = self._local
        table = getattr(local, "table", None)
        if table is None:
            table = local.table = {}
            local.stack = []
            with self._lock:
                self._tables.append(table)
        return table, local.stack

    def wrap(self, owner: Any, attribute: str, name: str) -> None:
        """Time every call of ``owner.attribute`` as span ``name``."""
        inner: Callable[..., Any] = getattr(owner, attribute)
        ledger = self
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not ledger.active:
                return inner(*args, **kwargs)
            table, stack = ledger._state()
            stack.append(0)
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                entry = table.get(name)
                if entry is None:
                    entry = table[name] = [0, 0, 0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - children

        setattr(owner, attribute, traced)

    def spans(self) -> Dict[str, List[int]]:
        merged: Dict[str, List[int]] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, total, own) in list(table.items()):
                entry = merged.setdefault(name, [0, 0, 0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
        return merged

    def calls(self, name: str) -> int:
        return self.spans().get(name, [0, 0, 0])[0]

    def total_ms(self, name: str) -> float:
        return self.spans().get(name, [0, 0, 0])[1] / 1e6

    def self_ms(self, *names: str) -> float:
        spans = self.spans()
        return sum(spans.get(name, [0, 0, 0])[2] for name in names) / 1e6

    def layer_self_ms(self, layer: str) -> float:
        prefix = layer + "."
        return sum(entry[2] for name, entry in self.spans().items()
                   if name.startswith(prefix)) / 1e6

    def table(self) -> str:
        """The ledger as aligned text, heaviest self time first."""
        rows = sorted(self.spans().items(), key=lambda kv: -kv[1][2])
        lines = [f"{'span':<34}{'calls':>10}{'total_ms':>12}{'self_ms':>12}"]
        for name, (calls, total, own) in rows:
            lines.append(f"{name:<34}{calls:>10}{total / 1e6:>12.1f}"
                         f"{own / 1e6:>12.1f}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Instrumentation of live instances (public methods only, except the
# write-ahead log object, which the durability manager keeps private)
# ----------------------------------------------------------------------

def instrument_service(ledger: Ledger, service) -> None:
    """Spans for the spatial DB, service, fusion core, reasoning and
    (when a journal is attached) storage layers."""
    db = service.db
    wrap = ledger.wrap
    wrap(db, "insert_reading", "spatialdb.insert_reading")
    wrap(db, "readings_for", "spatialdb.readings_for")
    wrap(service, "locate", "service.locate")
    wrap(service, "objects_in_region", "service.objects_in_region")
    wrap(service, "fusion_result", "service.fusion_result")
    wrap(service, "fuse_readings", "service.fuse_readings")
    wrap(service, "normalized_readings", "service.normalized_readings")
    wrap(service, "apply_fusion_result", "service.apply_fusion_result")
    wrap(service.subscriptions, "evaluate", "service.evaluate")
    for trigger in db.sensor_readings.triggers():
        wrap(trigger, "action", "service.trigger_action")
    wrap(service.engine, "fuse", "core.fuse")
    wrap(service.engine, "point_estimate", "core.point_estimate")
    wrap(service.relations, "proximity", "reasoning.proximity")
    if service.semantic is not None:
        wrap(service.semantic, "on_update", "reasoning.on_update")
    journal = db.journal
    if journal is not None:
        wrap(journal, "prepare_insert", "storage.prepare_insert")
        wrap(journal, "log_prepared_insert", "storage.log_insert")
        wrap(journal._wal, "sync", "storage.wal_sync")


def instrument_pipeline(ledger: Ledger, pipeline) -> None:
    ledger.wrap(pipeline, "submit", "pipeline.submit")
    ledger.wrap(pipeline, "drain", "pipeline.drain")


def instrument_router(ledger: Ledger, router) -> None:
    """Router-side spans; shard processes report through stats()."""
    wrap = ledger.wrap
    wrap(router, "submit", "shard.submit")
    wrap(router, "drain", "shard.drain")
    wrap(router, "locate", "shard.locate")
    wrap(router, "objects_in_region", "shard.objects_in_region")
    for index in range(router.num_shards):
        wrap(router.proxy(index), "submit_batch", "orb.submit_batch")


# ----------------------------------------------------------------------
# Reduction to the per-layer metrics named in BENCHMARK.json
# ----------------------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(ledger: Ledger, surface: Dict[str, float],
                  measure) -> Dict[str, float]:
    """Span totals plus ``stats()`` counters, reduced to metric values.

    ``surface`` holds the counters :mod:`workloads` summed from the
    program's stats surfaces over the traced rounds.
    """
    s = surface.get
    hits, misses = s("surface.cache_hits", 0), s("surface.cache_misses", 0)
    fuse_calls = ledger.calls("core.fuse")
    pruned, refined = s("surface.region_pruned", 0), \
        s("surface.region_refined", 0)
    evaluated = ledger.calls("service.evaluate") or \
        s("surface.subs_evaluated", 0)
    rpc_batches = s("surface.rpc_batches", 0)
    metrics: Dict[str, float] = {
        "spatialdb.insert_ms": ledger.self_ms("spatialdb.insert_reading"),
        "spatialdb.readings_for_ms":
            ledger.self_ms("spatialdb.readings_for"),
        "spatialdb.trigger_candidates": s("surface.trigger_candidates", 0),
        "spatialdb.trigger_skipped": s("surface.trigger_skipped", 0),
        "spatialdb.rows": s("surface.rows", 0),
        "service.fusion_result_calls": ledger.calls("service.fusion_result"),
        "service.fusion_result_ms": ledger.self_ms("service.fusion_result"),
        "service.cache_hit_ratio": _ratio(hits, hits + misses),
        "service.apply_ms": ledger.self_ms("service.apply_fusion_result"),
        "service.subs_evaluated": evaluated,
        "service.subs_pruned": s("surface.subs_pruned", 0),
        "service.region_pruned_ratio": _ratio(pruned, pruned + refined),
        "service.locate_unknown_share": _ratio(measure.unknown,
                                               measure.locates),
        "service.notifications": measure.notifications,
        "core.fuse_calls": fuse_calls,
        "core.fuse_ms": ledger.self_ms("core.fuse"),
        "core.full_builds": s("surface.full_builds", 0),
        "core.incremental_share": _ratio(
            s("surface.incremental_reuses", 0),
            fuse_calls or (s("surface.full_builds", 0)
                           + s("surface.incremental_reuses", 0))),
        "reasoning.semantic_evaluated": s("surface.semantic_evaluated", 0),
        "reasoning.semantic_pruned": s("surface.semantic_pruned", 0),
        "reasoning.on_update_ms": ledger.self_ms("reasoning.on_update"),
        "storage.wal_records": s("surface.wal_records", 0),
        "storage.wal_bytes": s("surface.wal_bytes", 0),
        "storage.log_ms": ledger.self_ms("storage.prepare_insert",
                                         "storage.log_insert"),
        "storage.sync_calls": ledger.calls("storage.wal_sync"),
        "storage.sync_ms": ledger.self_ms("storage.wal_sync"),
        "storage.snapshots": s("surface.snapshots", 0),
        "pipeline.batches": s("surface.batches", 0),
        "pipeline.readings_per_batch": _ratio(s("surface.fused", 0),
                                              s("surface.batches", 0)),
        "pipeline.submit_blocked_ms": ledger.total_ms("pipeline.submit"),
        "pipeline.drain_ms": ledger.total_ms("pipeline.drain"),
        "pipeline.retries": s("surface.retries", 0),
        "pipeline.dead_lettered": s("surface.dead_lettered", 0),
        "shard.rpc_batches": rpc_batches,
        "shard.readings_per_rpc": _ratio(s("surface.forwarded", 0),
                                         rpc_batches),
        "shard.queue_peak": s("surface.queue_peak", 0),
        "shard.flush_ms": ledger.total_ms("orb.submit_batch"),
        "shard.skew": _ratio(s("surface.skew_sum", 0),
                             s("surface.skew_rounds", 0)),
        "shard.fanout_queries": s("surface.fanout_queries", 0),
        "shard.targeted_queries": s("surface.targeted_queries", 0),
        "shard.peak_rss_mb": s("surface.shard_peak_rss_mb", 0),
        "orb.inflight_max": s("surface.inflight_max", 0),
    }
    accounted = 0.0
    for layer in LAYERS:
        own = ledger.layer_self_ms(layer)
        metrics[f"{layer}.self_ms"] = own
        accounted += own
    metrics["trace.accounted_share"] = _ratio(accounted,
                                              ledger.wall_s * 1000.0)
    return metrics
