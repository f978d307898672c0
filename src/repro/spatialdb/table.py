"""Typed in-memory tables with insert/update/delete triggers.

The paper keeps its world model and sensor readings in PostgreSQL
tables and relies on *database triggers* for location notifications
(Section 5.3).  This module supplies the table abstraction: a schema
of typed columns, rows stored as dicts, simple predicate queries, and
row-level triggers fired on mutation — exactly the machinery the
trigger-response benchmark (Figure 9) exercises.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import QueryError, SchemaError
from repro.geometry import Rect
from repro.spatialdb.rtree import RTree

Row = Dict[str, Any]
Predicate = Callable[[Row], bool]
TriggerAction = Callable[[Row], None]


@dataclass(frozen=True)
class Column:
    """One column of a table schema.

    ``kind`` is a Python type used for validation; ``nullable`` allows
    ``None``.  Geometry columns use ``object`` since they hold any of
    the geometry classes.
    """

    name: str
    kind: type
    nullable: bool = False

    def validate(self, value: Any) -> None:
        if value is None:
            if not self.nullable:
                raise SchemaError(f"column {self.name!r} is not nullable")
            return
        if self.kind is float and isinstance(value, int):
            return  # ints are acceptable floats
        if not isinstance(value, self.kind):
            raise SchemaError(
                f"column {self.name!r} expects {self.kind.__name__}, "
                f"got {type(value).__name__}"
            )


class Schema:
    """An ordered set of columns with an optional primary key."""

    def __init__(self, columns: Sequence[Column],
                 primary_key: Optional[Sequence[str]] = None) -> None:
        self.columns = list(columns)
        self._by_name = {c.name: c for c in self.columns}
        self._names = frozenset(self._by_name)
        self._checks = [(c.name, c.kind, c) for c in self.columns]
        if len(self._by_name) != len(self.columns):
            raise SchemaError("duplicate column names")
        self.primary_key = tuple(primary_key or ())
        for key in self.primary_key:
            if key not in self._by_name:
                raise SchemaError(f"primary key column {key!r} not in schema")

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def validate_row(self, row: Row) -> None:
        if row.keys() != self._names:
            unknown = set(row) - self._names
            if unknown:
                raise SchemaError(f"unknown columns: {sorted(unknown)}")
        for name, kind, column in self._checks:
            # Exact-type values pass without a call; anything else
            # (None, ints as floats, subclasses, errors) takes the
            # column's own check.
            value = row.get(name)
            if type(value) is not kind:
                column.validate(value)

    def key_of(self, row: Row) -> Tuple[Any, ...]:
        return tuple([row[k] for k in self.primary_key])


@dataclass
class Trigger:
    """A row-level trigger: fire ``action`` when ``event`` happens and
    ``condition`` holds on the affected row.

    ``region`` is an optional dispatch hint for insert triggers on a
    table with spatial dispatch enabled (see
    :meth:`Table.enable_spatial_triggers`): when set, the trigger is
    only *probed* for rows whose rect column intersects ``region``.
    ``condition`` stays authoritative — the hint must therefore be
    conservative (any row the condition could accept intersects
    ``region``); a trigger whose hinted region is disjoint from the
    row's rect would have had its condition return ``False`` anyway.
    """

    trigger_id: str
    event: str  # 'insert' | 'update' | 'delete'
    condition: Predicate
    action: TriggerAction
    enabled: bool = True
    region: Optional[Rect] = None

    _VALID_EVENTS = ("insert", "update", "delete")

    def __post_init__(self) -> None:
        if self.event not in self._VALID_EVENTS:
            raise QueryError(f"invalid trigger event {self.event!r}")



def _synchronized(method):
    """Run a Table method under the table's re-entrant lock."""
    import functools

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)
    return wrapper


class Table:
    """An in-memory table with schema validation and triggers.

    Rows are stored as plain dicts.  An internal monotonically
    increasing rowid orders rows by insertion, giving deterministic
    query results.

    Thread safety: all operations take the table's re-entrant lock, so
    remote queries served on ORB transport threads can run concurrently
    with adapter ingest.  Triggers fire while the lock is held (they
    may re-enter the table from the same thread), matching database
    row-trigger semantics.
    """

    def __init__(self, name: str, schema: Schema) -> None:
        self.name = name
        self.schema = schema
        self._rows: Dict[int, Row] = {}
        self._rowid = itertools.count(1)
        self._pk_index: Dict[Tuple[Any, ...], int] = {}
        self._triggers: Dict[str, Trigger] = {}
        # Secondary hash indexes: column -> value -> set of rowids.
        self._indexes: Dict[str, Dict[Any, set]] = {}
        self._lock = threading.RLock()
        # Bumped on every mutation; caches key derived state on it.
        self.version = 0
        # Spatial trigger dispatch (enable_spatial_triggers): inserts
        # probe an R-tree of trigger regions instead of evaluating
        # every trigger's condition.  Firing order is preserved via a
        # per-trigger registration sequence number.
        self._spatial_column: Optional[str] = None
        self._trigger_rtree: Optional[RTree] = None
        self._spatial_trigger_ids: set = set()
        self._plain_insert_triggers: Dict[str, Trigger] = {}
        self._trigger_seq: Dict[str, int] = {}
        self._trigger_counter = itertools.count(1)
        self.trigger_probes = 0
        self.trigger_candidates = 0
        self.trigger_skipped = 0

    def __len__(self) -> int:
        return len(self._rows)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, row: Row, fire_triggers: bool = True) -> int:
        """Insert a row; returns its rowid.  Fires insert triggers.

        ``fire_triggers=False`` suppresses them for writers that run
        their own evaluation pass afterwards (the ingestion pipeline
        evaluates subscriptions once per fused batch, not per insert).
        """
        return self.insert_many([dict(row)], fire_triggers)[0]

    @_synchronized
    def insert_many(self, rows: Sequence[Row], fire_triggers: bool = True,
                    landed: Optional[Callable[[], None]] = None
                    ) -> List[int]:
        """Insert rows in order under one lock hold; returns rowids.

        Every row passes the schema and primary-key checks (duplicates
        within ``rows`` included) before any of them lands, so a bad
        row leaves the table untouched.  The dicts are stored as given:
        the caller hands them over and must not mutate them afterwards.
        ``landed`` runs under the table lock once every row is stored
        and before any insert trigger fires, so a caller can publish
        state derived from the rows atomically with them.  Triggers
        then fire per row, in order.
        """
        schema = self.schema
        primary_key = schema.primary_key
        keys: List[Tuple[Any, ...]] = []
        seen: set = set()
        for row in rows:
            schema.validate_row(row)
            if primary_key:
                key = schema.key_of(row)
                if key in self._pk_index or key in seen:
                    raise SchemaError(
                        f"duplicate primary key {key!r} in table "
                        f"{self.name!r}")
                keys.append(key)
                seen.add(key)
        rowids = []
        for index, row in enumerate(rows):
            rowid = next(self._rowid)
            self._rows[rowid] = row
            if primary_key:
                self._pk_index[keys[index]] = rowid
            for column, column_index in self._indexes.items():
                column_index.setdefault(row.get(column), set()).add(rowid)
            rowids.append(rowid)
        self.version += len(rows)
        if landed is not None:
            landed()
        if fire_triggers:
            for row in rows:
                self._fire("insert", row)
        return rowids

    @_synchronized
    def update(self, where: Predicate, changes: Row) -> int:
        """Update matching rows; returns the count.  Fires update triggers."""
        count = 0
        for rowid, row in list(self._rows.items()):
            if not where(row):
                continue
            updated = dict(row)
            updated.update(changes)
            self.schema.validate_row(updated)
            if self.schema.primary_key:
                old_key = self.schema.key_of(row)
                new_key = self.schema.key_of(updated)
                if new_key != old_key:
                    if new_key in self._pk_index:
                        raise SchemaError(
                            f"update collides on primary key {new_key!r}")
                    del self._pk_index[old_key]
                    self._pk_index[new_key] = rowid
            for column, index in self._indexes.items():
                old_value = row.get(column)
                new_value = updated.get(column)
                if old_value != new_value:
                    index.get(old_value, set()).discard(rowid)
                    index.setdefault(new_value, set()).add(rowid)
            self._rows[rowid] = updated
            count += 1
            self.version += 1
            self._fire("update", updated)
        return count

    @_synchronized
    def delete(self, where: Predicate,
               landed: Optional[Callable[[List[Row]], None]] = None
               ) -> int:
        """Delete matching rows; returns the count.  Fires delete triggers.

        ``landed`` gets the deleted rows under the table lock once they
        are gone and before any delete trigger fires — the delete
        counterpart of :meth:`insert_many`'s hook.
        """
        doomed = [(rowid, row) for rowid, row in self._rows.items()
                  if where(row)]
        for rowid, row in doomed:
            del self._rows[rowid]
            if self.schema.primary_key:
                self._pk_index.pop(self.schema.key_of(row), None)
            for column, index in self._indexes.items():
                index.get(row.get(column), set()).discard(rowid)
        if doomed:
            self.version += len(doomed)
            if landed is not None:
                landed([row for _, row in doomed])
        for _, row in doomed:
            self._fire("delete", row)
        return len(doomed)

    @_synchronized
    def clear(self) -> None:
        """Remove all rows without firing triggers."""
        self._rows.clear()
        self._pk_index.clear()
        for index in self._indexes.values():
            index.clear()
        self.version += 1

    # ------------------------------------------------------------------
    # Secondary indexes
    # ------------------------------------------------------------------

    @_synchronized
    def create_index(self, column: str) -> None:
        """Create (and backfill) a hash index on an equality column.

        ``select_eq`` on an indexed column becomes O(matching rows)
        instead of a full scan — the sensor-readings table indexes
        ``mobile_object_id`` so per-object fusion does not scan
        everyone's readings.
        """
        if column not in self.schema.column_names:
            raise QueryError(f"unknown column {column!r}")
        if column in self._indexes:
            return  # idempotent
        index: Dict[Any, set] = {}
        for rowid, row in self._rows.items():
            index.setdefault(row.get(column), set()).add(rowid)
        self._indexes[column] = index

    def has_index(self, column: str) -> bool:
        return column in self._indexes

    @_synchronized
    def index_keys(self, column: str) -> List[Any]:
        """Distinct values of an indexed column over the live rows.

        O(distinct values) — the index's empty buckets (values whose
        rows were all deleted) are skipped, so the result is exactly
        ``sorted({row[column] for row in select()})``.
        """
        index = self._indexes.get(column)
        if index is None:
            raise QueryError(f"column {column!r} is not indexed")
        return sorted(value for value, rowids in index.items() if rowids)

    @_synchronized
    def select_eq(self, column: str, value: Any,
                  where: Optional[Predicate] = None) -> List[Row]:
        """Rows with ``row[column] == value`` (index-accelerated)."""
        index = self._indexes.get(column)
        if index is None:
            return self.select(
                lambda row: row.get(column) == value
                and (where is None or where(row)))
        rowids = sorted(index.get(value, ()))
        out = []
        for rowid in rowids:
            row = self._rows.get(rowid)
            if row is None:
                continue
            if where is None or where(row):
                out.append(dict(row))
        return out

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @_synchronized
    def select(self, where: Optional[Predicate] = None,
               order_by: Optional[str] = None,
               limit: Optional[int] = None) -> List[Row]:
        """Rows matching ``where``, copied so callers cannot mutate state."""
        rows = [dict(row) for _, row in sorted(self._rows.items())
                if where is None or where(row)]
        if order_by is not None:
            if order_by not in self.schema.column_names:
                raise QueryError(f"unknown order_by column {order_by!r}")
            rows.sort(key=lambda r: r[order_by])
        if limit is not None:
            rows = rows[:limit]
        return rows

    @_synchronized
    def select_one(self, where: Predicate) -> Optional[Row]:
        """The first matching row, or ``None``."""
        for _, row in sorted(self._rows.items()):
            if where(row):
                return dict(row)
        return None

    @_synchronized
    def get(self, *key: Any) -> Optional[Row]:
        """Primary-key lookup."""
        if not self.schema.primary_key:
            raise QueryError(f"table {self.name!r} has no primary key")
        rowid = self._pk_index.get(tuple(key))
        return dict(self._rows[rowid]) if rowid is not None else None

    @_synchronized
    def count(self, where: Optional[Predicate] = None) -> int:
        if where is None:
            return len(self._rows)
        return sum(1 for row in self._rows.values() if where(row))

    @staticmethod
    def equals(**criteria: Any) -> Predicate:
        """A predicate matching rows whose columns equal the criteria.

        >>> where = Table.equals(sensor_type="RF")
        """
        def predicate(row: Row) -> bool:
            return all(row.get(k) == v for k, v in criteria.items())
        return predicate

    # ------------------------------------------------------------------
    # Triggers
    # ------------------------------------------------------------------

    @_synchronized
    def enable_spatial_triggers(self, column: str) -> None:
        """Dispatch insert triggers through an R-tree of their regions.

        ``column`` names the :class:`Rect` column probed against each
        trigger's ``region`` hint.  An insert then evaluates only the
        triggers whose region intersects the new row's rectangle (plus
        every region-less trigger), instead of all of them — the
        coarse-filter-then-refine pattern applied to trigger dispatch.
        Idempotent; re-enabling with the same column is a no-op.
        """
        if column not in self.schema.column_names:
            raise QueryError(f"unknown column {column!r}")
        if self._spatial_column == column:
            return
        self._spatial_column = column
        self._rebuild_trigger_index()

    def _rebuild_trigger_index(self) -> None:
        self._trigger_rtree = RTree()
        self._spatial_trigger_ids.clear()
        self._plain_insert_triggers.clear()
        for trigger in self._triggers.values():
            self._classify_trigger(trigger)

    def _classify_trigger(self, trigger: Trigger) -> None:
        if trigger.event != "insert":
            return
        if (self._spatial_column is not None
                and self._trigger_rtree is not None
                and trigger.region is not None):
            self._trigger_rtree.insert(trigger.region, trigger.trigger_id)
            self._spatial_trigger_ids.add(trigger.trigger_id)
        else:
            self._plain_insert_triggers[trigger.trigger_id] = trigger

    @_synchronized
    def create_trigger(self, trigger: Trigger) -> None:
        if trigger.trigger_id in self._triggers:
            raise QueryError(f"duplicate trigger {trigger.trigger_id!r}")
        self._triggers[trigger.trigger_id] = trigger
        self._trigger_seq[trigger.trigger_id] = next(self._trigger_counter)
        self._classify_trigger(trigger)

    @_synchronized
    def drop_trigger(self, trigger_id: str) -> bool:
        trigger = self._triggers.pop(trigger_id, None)
        if trigger is None:
            return False
        self._trigger_seq.pop(trigger_id, None)
        self._plain_insert_triggers.pop(trigger_id, None)
        if trigger_id in self._spatial_trigger_ids:
            self._spatial_trigger_ids.discard(trigger_id)
            assert self._trigger_rtree is not None
            assert trigger.region is not None
            self._trigger_rtree.delete(
                trigger.region, lambda value: value == trigger_id)
        return True

    def trigger_count(self) -> int:
        return len(self._triggers)

    def triggers(self) -> List[Trigger]:
        return list(self._triggers.values())

    def trigger_dispatch_stats(self) -> Dict[str, int]:
        """Indexed-dispatch effectiveness counters."""
        with self._lock:
            return {
                "probes": self.trigger_probes,
                "candidates": self.trigger_candidates,
                "skipped": self.trigger_skipped,
                "spatial_triggers": len(self._spatial_trigger_ids),
            }

    def _fire(self, event: str, row: Row) -> None:
        if (event == "insert" and self._spatial_trigger_ids
                and self._spatial_column is not None):
            rect = row.get(self._spatial_column)
            if isinstance(rect, Rect):
                self._fire_indexed(row, rect)
                return
        self._fire_scan(event, row)

    def _fire_indexed(self, row: Row, rect: Rect) -> None:
        """Insert-trigger dispatch through the region R-tree.

        Produces exactly the firings of :meth:`_fire_scan`: the
        R-tree returns every spatial trigger whose region intersects
        the row's rect (a pruned trigger's condition is False by the
        conservative-hint contract), conditions are still evaluated,
        and candidates fire in registration order.
        """
        assert self._trigger_rtree is not None
        candidates = list(self._plain_insert_triggers.values())
        hits = self._trigger_rtree.search(rect)
        for trigger_id in hits:
            trigger = self._triggers.get(trigger_id)
            if trigger is not None:
                candidates.append(trigger)
        candidates.sort(key=lambda t: self._trigger_seq[t.trigger_id])
        self.trigger_probes += 1
        self.trigger_candidates += len(candidates)
        self.trigger_skipped += len(self._spatial_trigger_ids) - len(hits)
        for trigger in candidates:
            if trigger.enabled and trigger.condition(row):
                trigger.action(dict(row))

    def _fire_scan(self, event: str, row: Row) -> None:
        """The linear scan over every trigger: the dispatch for
        non-spatial triggers and for tables without
        :meth:`enable_spatial_triggers`, and the baseline the indexed
        dispatch is tested and timed against."""
        for trigger in list(self._triggers.values()):
            if trigger.enabled and trigger.event == event:
                if trigger.condition(row):
                    trigger.action(dict(row))
