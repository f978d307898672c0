"""Logical mutation records and their wire codec.

Every mutation at the spatial-database seam — reading inserts, forced
expiry, TTL purges, sensor registration, trigger and subscription
create/drop — is captured as one *logical operation* dict and encoded
to a compact, deterministic JSON payload for the write-ahead log.
Replaying the operations in log order against a fresh database
reconstructs the exact table state (see
:mod:`repro.storage.recovery`).

The codec round-trips every value the spatial schemas carry: ``Rect``,
``Point``, ``SensorSpec`` (including its temporal degradation
function) and the plain scalars.  Payload bytes are deterministic —
``sort_keys`` + fixed separators — so the same operation always
produces the same record, which the chaos suite's byte-identity
oracles rely on.

One exception to "everything is JSON": the ``insert_reading`` op —
the only one on the ingestion hot path — also has a packed binary
wire form (magic byte ``0x01``; JSON ops always start with ``{``)
that the pipeline's journaled inserts use.  It is equally
deterministic and :func:`decode_op` transparently dispatches between
the two, so replay never cares which form a record took.
"""

from __future__ import annotations

import json
import struct
from json.encoder import encode_basestring_ascii as _escape
from typing import Any, Dict, List, Optional, Tuple

from repro.core import SensorSpec
from repro.core.tdf import ConstantTDF, ExponentialTDF, LinearTDF, StepTDF
from repro.errors import StorageError
from repro.geometry import Point, Rect

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

ALL_OPS = (
    OP_REGISTER_SENSOR,
    OP_INSERT_READING,
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
    if name not in ALL_OPS:
        raise StorageError(f"unknown WAL operation {name!r}")
    return json.dumps(op, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


# ----------------------------------------------------------------------
# Hot-path insert wire form
# ----------------------------------------------------------------------
#
# The pipeline journals one insert record per fused reading, so this
# op — alone — gets a packed binary wire form alongside the JSON one:
# a magic first byte (JSON ops always start with '{'), the nine
# numeric fields as IEEE doubles, then the four strings
# length-prefixed.  struct-packing doubles skips the dominant cost of
# the JSON form (repr() of every float) and roughly halves the payload
# the checksum and the write syscalls see.  ``decode_op`` dispatches
# on the first byte, so both forms replay identically.
#
# The binary form requires every numeric to be a genuine float (struct
# '<d' would silently turn the JSON form's ints into 1.0-style floats
# and break fingerprint identity) — ``encode_insert_parts`` falls back
# to the JSON form otherwise.

_BIN_INSERT_MAGIC = 0x01
# magic, detection_radius, detection_time, has_location, location xyz,
# rect (min_x, min_y, max_x, max_y), then the four string lengths.
_BIN_HEAD = struct.Struct("<BddB3d4d4H")
# moving, reading_id — the in-lock fields, spliced on by assemble.
_BIN_TAIL = struct.Struct("<BQ")

_ZERO3 = (0.0, 0.0, 0.0)


def encode_insert_parts(sensor_id: str, glob_prefix: str,
                        sensor_type: str, mobile_object_id: str,
                        location: Optional[Point],
                        detection_radius: float, rect: Rect,
                        detection_time: float) -> Tuple[bytes, bytes]:
    """Pre-encode an insert record around its state-dependent fields.

    ``reading_id`` and ``moving`` are only known inside the database's
    ingest lock, but they are the *only* row fields that are — so the
    rest of the payload is encoded up front, outside the lock, and
    :func:`assemble_insert_op` splices the two values in.  Shrinking
    the in-lock encode to a single small struct pack keeps the ingest
    lock short for the pipeline's fusion thread and the concurrent
    synchronous writers (benchmarks/test_wal_overhead.py).

    Returns an opaque ``(kind, head)``-style parts tuple for
    :func:`assemble_insert_op`.
    """
    mnx, mny, mxx, mxy = rect.min_x, rect.min_y, rect.max_x, rect.max_y
    loc = _ZERO3 if location is None else (location.x, location.y,
                                           location.z)
    if (type(detection_radius) is float and type(detection_time) is float
            and type(mnx) is float and type(mny) is float
            and type(mxx) is float and type(mxy) is float
            and type(loc[0]) is float and type(loc[1]) is float
            and type(loc[2]) is float):
        s1 = sensor_id.encode("utf-8")
        s2 = glob_prefix.encode("utf-8")
        s3 = sensor_type.encode("utf-8")
        s4 = mobile_object_id.encode("utf-8")
        if max(len(s1), len(s2), len(s3), len(s4)) < 0x10000:
            head = _BIN_HEAD.pack(
                _BIN_INSERT_MAGIC, detection_radius, detection_time,
                0 if location is None else 1, loc[0], loc[1], loc[2],
                mnx, mny, mxx, mxy,
                len(s1), len(s2), len(s3), len(s4)) + s1 + s2 + s3 + s4
            return (b"", head)
    # JSON fallback: int-typed coordinates or oversized strings.
    # repr() is json.dumps' rendering of an int or a finite float.
    num = repr
    if location is None:
        loc_json = "null"
    else:
        loc_json = f"[{num(location.x)},{num(location.y)},{num(location.z)}]"
    json_head = (
        '{"op":"insert_reading","row":{'
        f'"detection_radius":{num(detection_radius)},'
        f'"detection_time":{num(detection_time)},'
        f'"glob_prefix":{_escape(glob_prefix)},'
        f'"location":{loc_json},'
        f'"mobile_object_id":{_escape(mobile_object_id)},'
        '"moving":').encode("utf-8")
    json_tail = (
        f',"rect":[{num(mnx)},{num(mny)},'
        f'{num(mxx)},{num(mxy)}],'
        f'"sensor_id":{_escape(sensor_id)},'
        f'"sensor_type":{_escape(sensor_type)}'
        "}}").encode("utf-8")
    return (json_head, json_tail)


def assemble_insert_op(parts: Tuple[bytes, bytes], reading_id: int,
                       moving: bool) -> bytes:
    """Splice the in-lock fields into a pre-encoded insert record."""
    head, tail = parts
    if not head:  # binary form: tail is the packed head block
        return tail + _BIN_TAIL.pack(1 if moving else 0, reading_id)
    return (head + (b"true" if moving else b"false")
            + b',"reading_id":%d' % reading_id + tail)


def _decode_binary_insert(payload: bytes) -> Dict[str, Any]:
    try:
        (_, radius, dtime, has_loc, lx, ly, lz, mnx, mny, mxx, mxy,
         n1, n2, n3, n4) = _BIN_HEAD.unpack_from(payload, 0)
        offset = _BIN_HEAD.size
        strings = []
        for length in (n1, n2, n3, n4):
            strings.append(
                payload[offset:offset + length].decode("utf-8"))
            offset += length
        moving, reading_id = _BIN_TAIL.unpack_from(payload, offset)
        if offset + _BIN_TAIL.size != len(payload):
            raise StorageError(
                f"binary insert record has {len(payload)} bytes, "
                f"expected {offset + _BIN_TAIL.size}")
    except (struct.error, UnicodeDecodeError) as exc:
        raise StorageError(
            f"undecodable binary insert record: {exc}") from exc
    sensor_id, glob_prefix, sensor_type, mobile_object_id = strings
    return {
        "op": OP_INSERT_READING,
        "row": {
            "reading_id": reading_id,
            "sensor_id": sensor_id,
            "glob_prefix": glob_prefix,
            "sensor_type": sensor_type,
            "mobile_object_id": mobile_object_id,
            "location": None if not has_loc else [lx, ly, lz],
            "detection_radius": radius,
            "rect": [mnx, mny, mxx, mxy],
            "detection_time": dtime,
            "moving": bool(moving),
        },
    }


def decode_op(payload: bytes) -> Dict[str, Any]:
    if payload[:1] == b"\x01":  # hot-path binary insert form
        return _decode_binary_insert(bytes(payload))
    try:
        op = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise StorageError(f"undecodable WAL payload: {exc}") from exc
    if not isinstance(op, dict) or op.get("op") not in ALL_OPS:
        raise StorageError(f"malformed WAL operation: {op!r}")
    return op
