"""The durability manager: WAL + snapshots + retention compaction.

One :class:`DurabilityManager` owns a WAL directory for one spatial
database::

    <wal_dir>/wal.log                 append-only mutation log
    <wal_dir>/snapshot-<seq>.json     periodic full-state snapshots
    <wal_dir>/archive.jsonl           compaction's expired-reading archive

It attaches to the database as its *journal*: every mutation at the
spatial-DB seam appends a logical record durably **before** the
mutation is applied (the spool-and-replay idiom), so
:func:`repro.storage.recovery.recover` can rebuild a
fingerprint-identical database from the directory alone.  The Location
Service logs its trigger/subscription registry through the same
journal, making push-mode state durable too.

Durability modes:

* ``DurabilityMode.OFF``      — no manager attached; the database's
  code path is bit-identical to the undurable build.
* ``DurabilityMode.BUFFERED`` — group-committed WAL (a deferred fsync
  every :data:`GROUP_COMMIT_INTERVAL` records, run off the ingest
  lock); a kill loses nothing, a power loss may cost the un-synced
  window, which :meth:`stats` reports as ``unsynced``.
* ``DurabilityMode.STRICT``   — fsync on every append call: once per
  record for registry operations, once per backlog for inserts, always
  before any of the backlog's rows are applied.

Retention compaction (:meth:`compact`) cuts a snapshot, appends every
reading deleted since the previous compaction to the archive, then
truncates the WAL to an empty successor segment that continues the
sequence numbering — the snapshot's ``last_seq`` tells replay where
the log now begins.
"""

from __future__ import annotations

import json
import os
import threading
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import SimulatedCrash, StorageError
from repro.storage import records as rec
from repro.storage.snapshot import capture_state, snapshot_name, write_snapshot
from repro.storage.wal import FSYNC_ALWAYS, FSYNC_NEVER, WriteAheadLog

WAL_NAME = "wal.log"
ARCHIVE_NAME = "archive.jsonl"

# BUFFERED mode's group-commit window: the un-synced record count that
# triggers a deferred fsync (a kill loses nothing either way; a power
# loss may cost up to this window, reported as stats()["unsynced"]).
GROUP_COMMIT_INTERVAL = 512

# Kill points the manager itself exposes to fault plans (the WAL adds
# "append" and "fsync").
POINT_SNAPSHOT = "snapshot"
POINT_COMPACT = "compact"

FaultHook = Callable[[str, int], None]


class DurabilityMode(str, Enum):
    """How hard the spatial database tries to survive a crash."""

    OFF = "off"
    BUFFERED = "buffered"
    STRICT = "strict"

    @property
    def fsync_policy(self) -> str:
        if self is DurabilityMode.STRICT:
            return FSYNC_ALWAYS
        # BUFFERED's group commit is driven by the manager
        # (:meth:`DurabilityManager.commit_if_due`), not by the WAL:
        # the fsync (~0.2ms) then runs after the database has released
        # its ingest lock, so it never stalls concurrent inserters
        # (benchmarks/test_wal_overhead.py).
        return FSYNC_NEVER


class DurabilityManager:
    """Journal for one :class:`~repro.spatialdb.SpatialDatabase`.

    Args:
        db: the database to make durable; ``attach`` wires the hooks.
        wal_dir: directory owning the WAL, snapshots and archive.
        mode: ``BUFFERED`` (group commit) or ``STRICT`` (fsync-always);
            ``OFF`` is expressed by *not* constructing a manager.
        snapshot_interval: cut a snapshot automatically once this many
            records have been appended since the last one (checked at
            :meth:`sync` / :meth:`maybe_snapshot` — never mid-append);
            ``None`` disables automatic snapshots.
        fault_hook: kill-point hook ``(point, seq)`` — normally
            installed via ``FaultPlan.attach_durability``.
    """

    def __init__(self, db, wal_dir: str,
                 mode: DurabilityMode = DurabilityMode.BUFFERED,
                 snapshot_interval: Optional[int] = None,
                 fault_hook: Optional[FaultHook] = None) -> None:
        if mode is DurabilityMode.OFF:
            raise StorageError(
                "DurabilityMode.OFF means no manager: simply do not "
                "attach one")
        self.db = db
        self.mode = mode
        self.wal_dir = str(wal_dir)
        os.makedirs(self.wal_dir, exist_ok=True)
        self.fault_hook = fault_hook
        self._lock = threading.RLock()
        # Durable push-mode registry: logical trigger/subscription
        # records currently live, snapshotted alongside table state.
        self._registry: List[Dict[str, Any]] = []
        # Readings deleted (expired/purged) since the last compaction,
        # waiting to be archived.
        self._archive_buffer: List[Dict[str, Any]] = []
        self.crashed = False
        self.snapshots_written = 0
        self.compactions = 0
        self.archived_rows = 0
        self._records_since_snapshot = 0
        # Advisory count of appends since the last group commit; kept
        # manager-side (unlocked) so commit_if_due never has to take
        # the WAL lock just to discover nothing is due.
        self._uncommitted = 0
        self._snapshot_interval = snapshot_interval
        self._wal = WriteAheadLog(
            os.path.join(self.wal_dir, WAL_NAME),
            fsync_policy=mode.fsync_policy,
            fault_hook=self._wal_hook)

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------

    def attach(self) -> "DurabilityManager":
        """Wire this manager into the database as its journal.

        Cuts a baseline snapshot of the current state first (the world
        model never travels through the WAL, so recovery needs at
        least one snapshot to rebuild it).
        """
        if self.db.journal is not None:
            raise StorageError("database already has a journal attached")
        if not any(name.startswith("snapshot-")
                   for name in os.listdir(self.wal_dir)):
            self.snapshot()
        self.db.attach_journal(self)
        return self

    def detach(self) -> None:
        if self.db.journal is self:
            self.db.attach_journal(None)

    def attach_fault_plan(self, plan) -> "DurabilityManager":
        """Install a :class:`repro.faults.FaultPlan`'s WAL kill points."""
        injectors = plan.wal_injectors()
        if injectors:
            def hook(point: str, seq: int) -> None:
                for injector in injectors:
                    injector.check(point, seq)
            self.fault_hook = hook
        return self

    def _wal_hook(self, point: str, seq: int) -> None:
        hook = self.fault_hook
        if hook is not None:
            try:
                hook(point, seq)
            except SimulatedCrash:
                self.crashed = True
                raise

    # ------------------------------------------------------------------
    # The journal surface (called by SpatialDatabase / LocationService)
    # ------------------------------------------------------------------

    def log(self, op: Dict[str, Any]) -> int:
        """Durably append one logical operation; returns its seq.

        Raises if the WAL cannot take the record — the caller must NOT
        apply the mutation in that case (write-ahead contract).
        """
        seq = self._wal.append(rec.encode_op(op))
        self._uncommitted += 1
        with self._lock:
            self._records_since_snapshot += 1
            self._apply_registry(op)
        return seq

    # Typed wrappers so callers at the spatial-DB seam never touch the
    # wire codec directly.

    def log_register_sensor(self, sensor_id: str, sensor_type: str,
                            confidence: float, time_to_live: float,
                            spec) -> int:
        return self.log({
            "op": rec.OP_REGISTER_SENSOR,
            "sensor_id": sensor_id,
            "sensor_type": sensor_type,
            "confidence": float(confidence),
            "time_to_live": float(time_to_live),
            "spec": rec.encode_spec(spec),
        })

    # Pre-encode an insert outside the database's ingest lock.  The
    # database calls this per reading before taking its lock, then
    # hands the heads back through :meth:`log_prepared_insert` once
    # the state-dependent ``reading_id`` and ``moving`` are known —
    # keeping the in-lock encode cost near zero.  A bare staticmethod
    # alias so the hot path pays no wrapper frame.
    prepare_insert = staticmethod(rec.encode_insert)

    def log_prepared_insert(self, parts: Sequence[bytes], first_id: int,
                            moving: Sequence[bool]) -> int:
        """Durably append a backlog of pre-encoded inserts.

        One record per reading, with ids consecutive from
        ``first_id``: each carries the allocated ``reading_id`` and the
        computed ``moving`` flag, so replay restores the row verbatim
        rather than re-deriving state-dependent values.  This is the
        hot journal call — one per backlog, under the database's
        ingest lock — so it skips the registry dispatch (inserts never
        touch it) and writes through one
        :meth:`WriteAheadLog.append_many`.  Returns the first seq; a
        kill at record k raises with ``landed = k``.
        """
        assemble = rec.assemble_insert_op
        seq = self._wal.append_many([
            assemble(part, first_id + index, flag)
            for index, (part, flag) in enumerate(zip(parts, moving))])
        # Advisory interval counters, deliberately not under the
        # manager lock: a lost racy increment merely defers an
        # automatic snapshot or group commit by one backlog, and the
        # WAL append above already serialized this call's ordering.
        self._records_since_snapshot += len(parts)
        self._uncommitted += len(parts)
        return seq

    def log_expire(self, object_id: str, sensor_id: Optional[str],
                   reading_ids: List[int]) -> int:
        return self.log({
            "op": rec.OP_EXPIRE,
            "object_id": object_id,
            "sensor_id": sensor_id,
            "reading_ids": sorted(reading_ids),
        })

    def log_purge(self, now: float, reading_ids: List[int]) -> int:
        return self.log({
            "op": rec.OP_PURGE,
            "now": float(now),
            "reading_ids": sorted(reading_ids),
        })

    def log_create_trigger(self, trigger_id: str, region,
                           object_id: Optional[str]) -> int:
        return self.log({
            "op": rec.OP_CREATE_TRIGGER,
            "trigger_id": trigger_id,
            "region": rec.encode_rect(region),
            "object_id": object_id,
        })

    def log_drop_trigger(self, trigger_id: str) -> int:
        return self.log({"op": rec.OP_DROP_TRIGGER,
                         "trigger_id": trigger_id})

    def log_subscribe(self, record: Dict[str, Any]) -> int:
        return self.log(dict(record, op=rec.OP_SUBSCRIBE))

    def log_subscribe_proximity(self, record: Dict[str, Any]) -> int:
        return self.log(dict(record, op=rec.OP_SUBSCRIBE_PROXIMITY))

    def log_unsubscribe(self, subscription_id: str) -> int:
        return self.log({"op": rec.OP_UNSUBSCRIBE,
                         "subscription_id": subscription_id})

    def _apply_registry(self, op: Dict[str, Any]) -> None:
        name = op["op"]
        if name in (rec.OP_SUBSCRIBE, rec.OP_SUBSCRIBE_PROXIMITY,
                    rec.OP_CREATE_TRIGGER):
            self._registry.append(dict(op))
        elif name == rec.OP_UNSUBSCRIBE:
            sid = op["subscription_id"]
            self._registry = [
                r for r in self._registry
                if r.get("subscription_id") != sid]
        elif name == rec.OP_DROP_TRIGGER:
            tid = op["trigger_id"]
            self._registry = [
                r for r in self._registry
                if not (r["op"] == rec.OP_CREATE_TRIGGER
                        and r["trigger_id"] == tid)]

    def note_deleted(self, rows: List[Dict[str, Any]]) -> None:
        """Buffer expired/purged readings for the compaction archive."""
        if not rows:
            return
        with self._lock:
            for row in rows:
                self._archive_buffer.append(rec.encode_reading_row(row))

    def sync(self) -> None:
        """Group-commit the WAL (pipeline drain/stop call this)."""
        if not self.crashed:
            self._uncommitted = 0
            self._wal.sync()

    def commit_if_due(self) -> None:
        """Group-commit once the un-synced window reaches the interval.

        The database calls this *after* releasing its ingest lock, so
        the fsync serializes only appenders on the WAL's own lock —
        never the whole ingest path.  The due check reads the advisory
        manager-side counter rather than the WAL's locked accounting;
        a racy miss just rolls the commit into the next call.  No-op
        under STRICT (every append already fsynced) and after a
        simulated crash.
        """
        if self._uncommitted >= GROUP_COMMIT_INTERVAL and \
                not self.crashed:
            self._uncommitted = 0
            self._wal.sync()

    # ------------------------------------------------------------------
    # Snapshots and retention compaction
    # ------------------------------------------------------------------

    def registry(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [dict(r) for r in self._registry]

    def snapshot(self) -> str:
        """Cut a full-state snapshot at the current WAL position."""
        if self.crashed:
            raise StorageError("durability manager crashed; recover first")
        with self._lock:
            last_seq = self._wal.last_seq
            self._wal.sync()
            hook = self.fault_hook
            if hook is not None:
                try:
                    hook(POINT_SNAPSHOT, last_seq)
                except SimulatedCrash:
                    self.crashed = True
                    # A kill mid-snapshot: leave a torn document behind
                    # (recovery must skip it and fall back).
                    torn = os.path.join(self.wal_dir,
                                        snapshot_name(last_seq))
                    with open(torn, "w", encoding="utf-8") as handle:
                        handle.write('{"format": "middlewhere-snapsho')
                    raise
            state = capture_state(self.db, self.registry())
            path = write_snapshot(self.wal_dir, state, last_seq)
            self.snapshots_written += 1
            self._records_since_snapshot = 0
            return path

    def maybe_snapshot(self) -> Optional[str]:
        """Cut a snapshot if the automatic interval has elapsed."""
        if self.crashed or self._snapshot_interval is None:
            return None
        with self._lock:
            due = self._records_since_snapshot >= self._snapshot_interval
        return self.snapshot() if due else None

    def compact(self) -> str:
        """Snapshot, archive deleted readings, truncate the WAL.

        After compaction the log contains no records — everything up
        to the snapshot's ``last_seq`` is in the snapshot, readings
        that expired out of the table live on in ``archive.jsonl``,
        and the successor segment continues the sequence numbering.
        """
        path = self.snapshot()
        with self._lock:
            buffered, self._archive_buffer = self._archive_buffer, []
        if buffered:
            archive = os.path.join(self.wal_dir, ARCHIVE_NAME)
            with open(archive, "a", encoding="utf-8") as handle:
                for row in buffered:
                    handle.write(json.dumps(row, sort_keys=True,
                                            separators=(",", ":")))
                    handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
            self.archived_rows += len(buffered)
        last_seq = self._wal.last_seq
        hook = self.fault_hook
        if hook is not None:
            try:
                hook(POINT_COMPACT, last_seq)
            except SimulatedCrash:
                # A kill between snapshot and truncation: the WAL still
                # holds records the snapshot already covers — replay
                # skips them by seq, so recovery stays exact.
                self.crashed = True
                raise
        self._wal.close()
        wal_path = os.path.join(self.wal_dir, WAL_NAME)
        open(wal_path, "wb").close()
        self._wal = WriteAheadLog(
            wal_path, fsync_policy=self.mode.fsync_policy,
            start_seq=last_seq + 1, fault_hook=self._wal_hook)
        # Re-seed the support MBRs off the live rows: compaction is the
        # retention boundary, so the grow-only union restarts from the
        # tightest sound bound (see ISSUE satellite on pruning parity).
        self.db.rebuild_reading_support()
        self.compactions += 1
        return path

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Durability counters, including the crash-window exposure."""
        return {
            "appended": self._wal.appended_count(),
            "last_seq": self._wal.last_seq,
            "synced_seq": self._wal.synced_seq,
            "unsynced": self._wal.unsynced_count(),
            "snapshots": self.snapshots_written,
            "compactions": self.compactions,
            "archived_rows": self.archived_rows,
            "registry_size": len(self._registry),
            "crashed": int(self.crashed),
        }

    def close(self) -> None:
        self.detach()
        if not self.crashed:
            self._wal.close()
