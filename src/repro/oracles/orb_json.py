"""Tagged-JSON ORB codec: the reference the binary wire codec matches.

The ORB marshals with :mod:`repro.orb.wire` alone.  This codec is the
oracle of ``tests/test_orb_codec_differential.py``: JSON with tagged
extension types, so the library's value objects (rectangles, points,
GLOBs, location estimates, pipeline readings) survive a round-trip,
and for every message both codecs accept
``wire.loads(wire.dumps(x)) == loads(dumps(x))``.  It is strict in the
same ways as the wire codec: unknown types, non-string and reserved
dict keys and non-finite floats raise :class:`~repro.errors.OrbError`.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Tuple

from repro.core.classify import ProbabilityBucket
from repro.core.estimate import LocationEstimate
from repro.core.reading import Reading
from repro.errors import OrbError
from repro.geometry import Point, Polygon, Rect, Segment
from repro.model import Glob

_TYPE_KEY = "__type__"

Encoder = Callable[[Any], Dict[str, Any]]
Decoder = Callable[[Dict[str, Any]], Any]

_ENCODERS: Dict[type, Tuple[str, Encoder]] = {}
_DECODERS: Dict[str, Decoder] = {}


def register_type(name: str, cls: type, encoder: Encoder,
                  decoder: Decoder) -> None:
    """Register a value type with the codec (idempotent per name)."""
    _ENCODERS[cls] = (name, encoder)
    _DECODERS[name] = decoder


def _encode_value(value: Any) -> Any:
    # Registered types first: a str-subclassing enum must hit its
    # encoder, not the bare-string fast path.
    registered = _ENCODERS.get(type(value))
    if registered is not None:
        name, encoder = registered
        payload = {k: _encode_value(v) for k, v in encoder(value).items()}
        payload[_TYPE_KEY] = name
        return payload
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_encode_value(v) for v in value]
    if isinstance(value, dict):
        out: Dict[str, Any] = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise OrbError(f"non-string dict key {key!r} on the wire")
            if key == _TYPE_KEY:
                raise OrbError(f"dict key {_TYPE_KEY!r} is reserved")
            out[key] = _encode_value(item)
        return out
    raise OrbError(f"cannot serialize {type(value).__name__}")


def _decode_value(value: Any) -> Any:
    if isinstance(value, list):
        return [_decode_value(v) for v in value]
    if isinstance(value, dict):
        name = value.get(_TYPE_KEY)
        if name is None:
            return {k: _decode_value(v) for k, v in value.items()}
        decoder = _DECODERS.get(name)
        if decoder is None:
            raise OrbError(f"unknown wire type {name!r}")
        payload = {k: _decode_value(v) for k, v in value.items()
                   if k != _TYPE_KEY}
        return decoder(payload)
    return value


def dumps(message: Any) -> bytes:
    """Serialize a message to UTF-8 JSON bytes.

    ``allow_nan=False``: the stdlib default would emit the
    non-standard ``NaN``/``Infinity`` tokens, which no strict JSON
    parser accepts — a silent break of the codec's language-neutral
    contract.  Non-finite floats are rejected at encode time instead.
    """
    try:
        return json.dumps(_encode_value(message), allow_nan=False,
                          separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise OrbError(f"serialization failed: {exc}") from exc


def loads(data: bytes) -> Any:
    """Deserialize UTF-8 JSON bytes back into a message."""
    try:
        return _decode_value(json.loads(data.decode("utf-8")))
    except (ValueError, UnicodeDecodeError) as exc:
        raise OrbError(f"deserialization failed: {exc}") from exc


# ----------------------------------------------------------------------
# Built-in value types
# ----------------------------------------------------------------------

register_type(
    "Point", Point,
    lambda p: {"x": p.x, "y": p.y, "z": p.z},
    lambda d: Point(d["x"], d["y"], d.get("z", 0.0)),
)

register_type(
    "Rect", Rect,
    lambda r: {"min_x": r.min_x, "min_y": r.min_y,
               "max_x": r.max_x, "max_y": r.max_y},
    lambda d: Rect(d["min_x"], d["min_y"], d["max_x"], d["max_y"]),
)

register_type(
    "Segment", Segment,
    lambda s: {"start": s.start, "end": s.end},
    lambda d: Segment(d["start"], d["end"]),
)

register_type(
    "Polygon", Polygon,
    lambda p: {"vertices": list(p.vertices)},
    lambda d: Polygon(d["vertices"]),
)

register_type(
    "Glob", Glob,
    lambda g: {"text": g.format()},
    lambda d: Glob.parse(d["text"]),
)

register_type(
    "ProbabilityBucket", ProbabilityBucket,
    lambda b: {"value": b.value},
    lambda d: ProbabilityBucket(d["value"]),
)

register_type(
    "LocationEstimate", LocationEstimate,
    lambda e: {
        "object_id": e.object_id,
        "rect": e.rect,
        "probability": e.probability,
        "bucket": e.bucket,
        "time": e.time,
        "sources": list(e.sources),
        "moving": e.moving,
        "symbolic": e.symbolic,
        "posterior": e.posterior,
    },
    lambda d: LocationEstimate(
        object_id=d["object_id"],
        rect=d["rect"],
        probability=d["probability"],
        bucket=d["bucket"],
        time=d["time"],
        sources=tuple(d.get("sources", ())),
        moving=d.get("moving", False),
        symbolic=d.get("symbolic"),
        posterior=d.get("posterior", 0.0),
    ),
)

register_type(
    "Reading", Reading,
    lambda r: {
        "sensor_id": r.sensor_id,
        "glob_prefix": r.glob_prefix,
        "sensor_type": r.sensor_type,
        "object_id": r.object_id,
        "rect": r.rect,
        "detection_time": r.detection_time,
        "location": r.location,
        "detection_radius": r.detection_radius,
    },
    lambda d: Reading(
        sensor_id=d["sensor_id"],
        glob_prefix=d["glob_prefix"],
        sensor_type=d["sensor_type"],
        object_id=d["object_id"],
        rect=d["rect"],
        detection_time=d["detection_time"],
        location=d.get("location"),
        detection_radius=d.get("detection_radius", 0.0),
    ),
)
