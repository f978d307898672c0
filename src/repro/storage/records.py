"""Logical mutation records and their write-ahead log encoding.

Every mutation at the spatial-database seam — reading inserts, forced
expiry, TTL purges, sensor registration, trigger and subscription
create/drop — is captured as one *logical operation* and encoded to a
compact, deterministic payload for the write-ahead log.  Replaying the
operations in log order against a fresh database reconstructs the
exact table state (see :mod:`repro.storage.recovery`).

Reading inserts — the only op on the ingestion hot path — have one
packed form: the reading's ORB wire bytes
(:func:`repro.orb.wire.pack_reading`) plus the ``(moving,
reading_id)`` fields the database assigns.  Its numbers are doubles,
so an int coordinate replays as a float — which is how the database
stores it.  Every other op is JSON, which round-trips ``Rect``,
``Point``, ``SensorSpec`` (including its temporal degradation
function) and the plain scalars.  Payload bytes are deterministic —
``sort_keys`` + fixed separators for JSON — so the same operation
always produces the same record, which the chaos suite's
byte-identity oracles rely on.  :func:`decode_op` dispatches on the
first byte (JSON ops always start with ``{``).
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Optional

from repro.core import Reading, SensorSpec
from repro.core.tdf import ConstantTDF, ExponentialTDF, LinearTDF, StepTDF
from repro.errors import OrbError, StorageError
from repro.geometry import Point, Rect
from repro.orb import wire

# Operation names (the "op" key of every record).
OP_REGISTER_SENSOR = "register_sensor"
OP_INSERT_READING = "insert_reading"
OP_EXPIRE = "expire_object_readings"
OP_PURGE = "purge_expired"
OP_CREATE_TRIGGER = "create_trigger"
OP_DROP_TRIGGER = "drop_trigger"
OP_SUBSCRIBE = "subscribe"
OP_UNSUBSCRIBE = "unsubscribe"
OP_SUBSCRIBE_PROXIMITY = "subscribe_proximity"

# Every op but the insert, which has its packed form (below).
JSON_OPS = (
    OP_REGISTER_SENSOR,
    OP_EXPIRE,
    OP_PURGE,
    OP_CREATE_TRIGGER,
    OP_DROP_TRIGGER,
    OP_SUBSCRIBE,
    OP_UNSUBSCRIBE,
    OP_SUBSCRIBE_PROXIMITY,
)


# ----------------------------------------------------------------------
# Geometry
# ----------------------------------------------------------------------

def encode_rect(rect: Optional[Rect]) -> Optional[List[float]]:
    if rect is None:
        return None
    return [rect.min_x, rect.min_y, rect.max_x, rect.max_y]


def decode_rect(data: Optional[List[float]]) -> Optional[Rect]:
    return None if data is None else Rect(*data)


def encode_point(p: Optional[Point]) -> Optional[List[float]]:
    return None if p is None else [p.x, p.y, p.z]


def decode_point(data: Optional[List[float]]) -> Optional[Point]:
    return None if data is None else Point(*data)


# ----------------------------------------------------------------------
# Sensor specs (with their tdf)
# ----------------------------------------------------------------------

def encode_tdf(tdf: Any) -> Dict[str, Any]:
    if isinstance(tdf, ConstantTDF):
        return {"kind": "constant"}
    if isinstance(tdf, LinearTDF):
        return {"kind": "linear", "zero_at": tdf.zero_at}
    if isinstance(tdf, ExponentialTDF):
        return {"kind": "exponential", "half_life": tdf.half_life}
    if isinstance(tdf, StepTDF):
        return {"kind": "step", "steps": [list(s) for s in tdf.steps]}
    raise StorageError(
        f"tdf {type(tdf).__name__} is not WAL-serializable")


def decode_tdf(data: Dict[str, Any]) -> Any:
    kind = data.get("kind")
    if kind == "constant":
        return ConstantTDF()
    if kind == "linear":
        return LinearTDF(data["zero_at"])
    if kind == "exponential":
        return ExponentialTDF(data["half_life"])
    if kind == "step":
        return StepTDF([tuple(s) for s in data["steps"]])
    raise StorageError(f"unknown tdf kind {kind!r}")


def encode_spec(spec: Optional[SensorSpec]) -> Optional[Dict[str, Any]]:
    if spec is None:
        return None
    if not isinstance(spec, SensorSpec):
        raise StorageError(
            f"sensor spec {type(spec).__name__} is not WAL-serializable")
    return {
        "sensor_type": spec.sensor_type,
        "carry_probability": spec.carry_probability,
        "detection_probability": spec.detection_probability,
        "misident_probability": spec.misident_probability,
        "z_area_scaled": spec.z_area_scaled,
        "resolution": spec.resolution,
        "time_to_live": spec.time_to_live,
        "tdf": encode_tdf(spec.tdf),
    }


def decode_spec(data: Optional[Dict[str, Any]]) -> Optional[SensorSpec]:
    if data is None:
        return None
    return SensorSpec(
        sensor_type=data["sensor_type"],
        carry_probability=data["carry_probability"],
        detection_probability=data["detection_probability"],
        misident_probability=data["misident_probability"],
        z_area_scaled=data["z_area_scaled"],
        resolution=data["resolution"],
        time_to_live=data["time_to_live"],
        tdf=decode_tdf(data["tdf"]),
    )


# ----------------------------------------------------------------------
# Sensor-reading rows
# ----------------------------------------------------------------------

def encode_reading_row(row: Dict[str, Any]) -> Dict[str, Any]:
    """A sensor-readings table row as plain JSON values."""
    out = dict(row)
    out["rect"] = encode_rect(row["rect"])
    out["location"] = encode_point(row.get("location"))
    return out


def decode_reading_row(data: Dict[str, Any]) -> Dict[str, Any]:
    out = dict(data)
    out["rect"] = decode_rect(data["rect"])
    out["location"] = decode_point(data.get("location"))
    return out


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------

def encode_op(op: Dict[str, Any]) -> bytes:
    """One logical operation to deterministic JSON bytes."""
    name = op.get("op")
    if name not in JSON_OPS:
        raise StorageError(f"unknown WAL operation {name!r}")
    return json.dumps(op, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


# ----------------------------------------------------------------------
# Insert records
# ----------------------------------------------------------------------
#
# An insert record is the reading exactly as the ORB wire carries it —
# its type code (the record's magic byte; JSON ops always start with
# '{'), then the body :func:`repro.orb.wire.pack_reading` returns —
# followed by the (moving, reading_id) tail.

_INSERT_MAGIC = bytes((wire.CODE_READING,))
# moving, reading_id — the in-lock fields, appended by assemble.
_INSERT_TAIL = struct.Struct(">BQ")


def encode_insert(reading: Reading) -> bytes:
    """Pre-encode an insert record up to its state-dependent fields.

    ``reading_id`` and ``moving`` are only known inside the database's
    ingest lock, but they are the *only* row fields that are — so the
    reading is packed up front, outside the lock, and
    :func:`assemble_insert_op` appends the two values.  Shrinking the
    in-lock encode to a single small struct pack keeps the ingest lock
    short for the pipeline's fusion thread and the concurrent
    synchronous writers (benchmarks/test_wal_overhead.py).

    A reading the wire would refuse (a non-finite or oddly-typed field,
    a string holding a lone surrogate) raises
    :class:`~repro.errors.StorageError`.
    """
    try:
        return _INSERT_MAGIC + wire.pack_reading(reading)
    except (OrbError, UnicodeEncodeError) as exc:
        raise StorageError(f"reading is not WAL-serializable: {exc}") \
            from exc


def assemble_insert_op(head: bytes, reading_id: int,
                       moving: bool) -> bytes:
    """Append the in-lock fields to a pre-encoded insert record."""
    return head + _INSERT_TAIL.pack(moving, reading_id)


def _decode_insert(payload: bytes) -> Dict[str, Any]:
    try:
        reading, end = wire.unpack_reading(payload, 1)
        moving, reading_id = _INSERT_TAIL.unpack_from(payload, end)
    except (OrbError, struct.error, UnicodeDecodeError) as exc:
        raise StorageError(f"undecodable insert record: {exc}") from exc
    if end + _INSERT_TAIL.size != len(payload):
        raise StorageError(
            f"insert record has {len(payload)} bytes, "
            f"expected {end + _INSERT_TAIL.size}")
    return {
        "op": OP_INSERT_READING,
        "row": {
            "reading_id": reading_id,
            "sensor_id": reading.sensor_id,
            "glob_prefix": reading.glob_prefix,
            "sensor_type": reading.sensor_type,
            "mobile_object_id": reading.object_id,
            "location": reading.location,
            "detection_radius": reading.detection_radius,
            "rect": reading.rect,
            "detection_time": reading.detection_time,
            "moving": bool(moving),
        },
    }


def decode_op(payload: bytes) -> Dict[str, Any]:
    """One WAL record back to its operation; an insert's ``row`` is
    ready for :meth:`~repro.spatialdb.SpatialDatabase.apply_logged_insert`."""
    if payload[:1] == _INSERT_MAGIC:
        return _decode_insert(bytes(payload))
    try:
        op = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise StorageError(f"undecodable WAL payload: {exc}") from exc
    if not isinstance(op, dict) or op.get("op") not in JSON_OPS:
        raise StorageError(f"malformed WAL operation: {op!r}")
    return op
