"""Crash recovery: snapshot restore + WAL replay.

:func:`recover` rebuilds a spatial database from a WAL directory
alone: load the newest snapshot that verifies, restore its table
state, then replay every WAL record with ``seq`` greater than the
snapshot's ``last_seq``.  Replay is *logical* — each record is one
operation from :mod:`repro.storage.records` applied through the same
database mutators the live system used — and insert records carry the
fully materialized row (allocated reading id, computed ``moving``
flag), so the recovered table is fingerprint-identical to the
pre-crash survivor, not merely equivalent.

A torn tail on the log (a kill mid-append) is stepped over; interior
corruption raises :class:`~repro.errors.WalCorruptionError` because a
silently reordered history would be worse than a loud failure.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import StorageError
from repro.storage import records as rec
from repro.storage.manager import WAL_NAME
from repro.storage.snapshot import load_latest_snapshot, restore_state
from repro.storage.wal import scan_wal


@dataclass
class RecoveredState:
    """What :func:`recover` hands back.

    ``registry`` holds the durable trigger/subscription records that
    were live at the crash; :meth:`subscriptions` and :meth:`triggers`
    split it.  ``replayed`` counts WAL records applied on top of the
    snapshot; ``torn_bytes`` is the size of the discarded torn tail
    (non-zero exactly when the crash hit mid-append).
    """

    db: Any
    registry: List[Dict[str, Any]] = field(default_factory=list)
    snapshot_seq: int = 0
    last_seq: int = 0
    replayed: int = 0
    torn_bytes: int = 0

    def subscriptions(self) -> List[Dict[str, Any]]:
        return [r for r in self.registry
                if r["op"] in (rec.OP_SUBSCRIBE, rec.OP_SUBSCRIBE_PROXIMITY)]

    def triggers(self) -> List[Dict[str, Any]]:
        return [r for r in self.registry
                if r["op"] == rec.OP_CREATE_TRIGGER]


def recover(wal_dir: str) -> RecoveredState:
    """Rebuild a database from a WAL directory.

    Needs at least one readable snapshot (the manager cuts a baseline
    one at attach time, so any directory it ever managed has one —
    the world model does not travel through the WAL).
    """
    from repro.model.serialize import world_from_dict
    from repro.spatialdb import SpatialDatabase

    wal_dir = str(wal_dir)
    loaded = load_latest_snapshot(wal_dir)
    if loaded is None:
        raise StorageError(
            f"{wal_dir} has no readable snapshot; cannot rebuild the "
            f"world model from the WAL alone")
    snapshot_seq, state = loaded
    db = SpatialDatabase(world_from_dict(state["world"]))
    registry = restore_state(db, state)

    wal_path = os.path.join(wal_dir, WAL_NAME)
    replayed = 0
    torn_bytes = 0
    last_seq = snapshot_seq
    if os.path.exists(wal_path):
        scan = scan_wal(wal_path)
        torn_bytes = scan.torn_bytes
        for seq, payload in scan.records:
            if seq <= snapshot_seq:
                continue  # already inside the snapshot
            apply_op(db, rec.decode_op(payload), registry)
            replayed += 1
            last_seq = seq
    # Re-derive the pruning metadata from what actually survived:
    # replay applied deletes too, so the tightest sound support bound
    # is the union over the live rows.
    db.rebuild_reading_support()
    return RecoveredState(db=db, registry=registry,
                          snapshot_seq=snapshot_seq, last_seq=last_seq,
                          replayed=replayed, torn_bytes=torn_bytes)


def apply_op(db, op: Dict[str, Any],
             registry: Optional[List[Dict[str, Any]]] = None) -> None:
    """Apply one logical WAL operation to a journal-less database."""
    if db.journal is not None:
        raise StorageError(
            "replay requires a journal-less database (re-logging the "
            "log would double history)")
    name = op["op"]
    if name == rec.OP_REGISTER_SENSOR:
        db.register_sensor(
            sensor_id=op["sensor_id"],
            sensor_type=op["sensor_type"],
            confidence=op["confidence"],
            time_to_live=op["time_to_live"],
            spec=rec.decode_spec(op["spec"]),
        )
    elif name == rec.OP_INSERT_READING:
        db.apply_logged_insert(op["row"])
    elif name in (rec.OP_EXPIRE, rec.OP_PURGE):
        # Deletes are logged with the exact doomed ids, so replay never
        # re-evaluates a time/TTL predicate whose answer could depend
        # on how live threads interleaved around the delete.
        db.delete_reading_ids(op["reading_ids"])
    elif name == rec.OP_CREATE_TRIGGER:
        _registry_apply(registry, op)
    elif name in (rec.OP_SUBSCRIBE, rec.OP_SUBSCRIBE_PROXIMITY):
        _registry_apply(registry, op)
    elif name == rec.OP_DROP_TRIGGER:
        if registry is not None:
            registry[:] = [r for r in registry
                           if not (r["op"] == rec.OP_CREATE_TRIGGER and
                                   r["trigger_id"] == op["trigger_id"])]
    elif name == rec.OP_UNSUBSCRIBE:
        if registry is not None:
            registry[:] = [
                r for r in registry
                if r.get("subscription_id") != op["subscription_id"]]
    else:  # pragma: no cover - encode_op already validates names
        raise StorageError(f"unknown WAL operation {name!r}")


def _registry_apply(registry: Optional[List[Dict[str, Any]]],
                    op: Dict[str, Any]) -> None:
    if registry is not None:
        registry.append(dict(op))


def readings_fingerprint(db) -> str:
    """A deterministic digest of the sensor-readings table.

    Two databases agree on this hash iff they hold exactly the same
    rows (ids, geometry, flags — ``repr`` keeps float identity) —
    the chaos suite's survivor-vs-recovered oracle.
    """
    # Imported here: OpenSSL's _hashlib would otherwise add ~3 MiB to
    # every process that imports the package.
    import hashlib
    lines = []
    for row in sorted(db.sensor_readings.select(),
                      key=lambda r: r["reading_id"]):
        lines.append("|".join(
            f"{key}={row[key]!r}" for key in sorted(row)))
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()
