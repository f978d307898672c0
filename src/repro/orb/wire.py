"""The object request broker's wire codec.

CORBA marshals each IDL type one way; so does this broker.  Every
message on either transport is this struct-packed binary format:

* the JSON value model (``None``, bools, ints, floats, strings,
  lists, string-keyed dicts), and
* *packed* value types — :class:`~repro.geometry.Point`,
  :class:`~repro.geometry.Rect`, :class:`~repro.geometry.Segment`,
  :class:`~repro.geometry.Polygon`, :class:`~repro.model.Glob`,
  :class:`~repro.core.classify.ProbabilityBucket`,
  :class:`~repro.core.estimate.LocationEstimate` (and, once
  :mod:`repro.pipeline` is imported, ``PipelineReading``) — each with
  a fixed type code and a hand-written ``struct`` body.

Values the codec cannot pack raise :class:`~repro.errors.OrbError` in
the sender: unknown types (nothing is pickled), subclasses of the
primitives, packed types with oddly-typed fields, non-finite floats
(`NaN` on the wire is a silent interop break) and non-string or
reserved dict keys.  The tagged-JSON codec in
:mod:`repro.oracles.orb_json` is the reference it is tested against:
``loads(dumps(x)) == orb_json.loads(orb_json.dumps(x))`` for every
message both accept.
"""

from __future__ import annotations

import math
import struct
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.classify import ProbabilityBucket
from repro.core.estimate import LocationEstimate
from repro.errors import OrbError
from repro.geometry import Point, Polygon, Rect, Segment
from repro.model import Glob

# ----------------------------------------------------------------------
# Tags
# ----------------------------------------------------------------------

_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT64 = 0x03
_T_BIGINT = 0x04
_T_FLOAT = 0x05
_T_STR = 0x06
_T_LIST = 0x07
_T_DICT = 0x08

# Packed value-type codes are assigned explicitly at registration so
# they never depend on import order — both peers must agree on them.
CODE_POINT = 0x10
CODE_RECT = 0x11
CODE_SEGMENT = 0x12
CODE_POLYGON = 0x13
CODE_GLOB = 0x14
CODE_BUCKET = 0x15
CODE_ESTIMATE = 0x16
CODE_READING = 0x17

_U8 = struct.Struct(">B")
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_F64x3 = struct.Struct(">3d")
_F64x4 = struct.Struct(">4d")
_F64x6 = struct.Struct(">6d")
# LocationEstimate's fixed probability/bucket/time block, packed and
# unpacked as one struct on the codec hot path.
# Estimate head: rect (4 doubles) + probability + bucket + time, in
# one pack — byte-identical to the fields packed one struct at a time.
_EST_HEAD = struct.Struct(">5dBd")

# Rejected as a dict key, as by the JSON oracle that tags its value
# types with it, so both codecs accept exactly the same messages.
_RESERVED_KEY = "__type__"

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


class BinaryUnsupported(Exception):
    """Raised by :func:`fast_marshal` when a message needs the full
    ``loads(dumps(m))`` round-trip.

    Internal to the ORB: the in-process transport catches it and takes
    the round-trip, which either succeeds or raises the canonical
    :class:`~repro.errors.OrbError`.  It never escapes to callers.
    """


Packer = Callable[[Any, bytearray], None]
Unpacker = Callable[["_Reader"], Any]

_PACKERS: Dict[type, Tuple[int, Packer]] = {}
_UNPACKERS: Dict[int, Unpacker] = {}
_IMMUTABLE: Dict[type, bool] = {}
# Decode dispatch: tag byte -> handler.  Primitive tags are installed
# below (after _Reader exists); register_packed adds packed codes.
_DECODE_BY_TAG: List[Optional[Unpacker]] = [None] * 256


def register_packed(code: int, cls: type, packer: Packer,
                    unpacker: Unpacker, immutable: bool = True) -> None:
    """Register a struct-packed codec for a value type.

    ``code`` is the type's fixed wire tag (>= 0x10); it is part of the
    protocol and must be identical on every peer.  ``immutable``
    declares that instances are deeply immutable, which lets the
    in-process transport pass them by reference instead of
    round-tripping them through :func:`dumps`/:func:`loads`.
    """
    if code < 0x10 or code > 0xFF:
        raise OrbError(f"packed type code {code:#x} out of range")
    existing = _UNPACKERS.get(code)
    if existing is not None and _PACKERS.get(cls, (None,))[0] != code:
        raise OrbError(f"packed type code {code:#x} already registered")
    _PACKERS[cls] = (code, packer)
    _UNPACKERS[code] = unpacker
    _DECODE_BY_TAG[code] = unpacker
    _IMMUTABLE[cls] = immutable


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def _write_str(out: bytearray, text: str) -> None:
    data = text.encode("utf-8")
    out += _U32.pack(len(data))
    out += data


def _encode_int(value: int, out: bytearray) -> None:
    if _INT64_MIN <= value <= _INT64_MAX:
        out.append(_T_INT64)
        out += _I64.pack(value)
    else:
        out.append(_T_BIGINT)
        _write_str(out, str(value))


def _encode_float(value: float, out: bytearray) -> None:
    if not math.isfinite(value):
        raise OrbError(f"non-finite float {value!r} on the wire")
    out.append(_T_FLOAT)
    out += _F64.pack(value)


def _encode_str(value: str, out: bytearray) -> None:
    out.append(_T_STR)
    _write_str(out, value)


def _encode_list(value: Any, out: bytearray) -> None:
    out.append(_T_LIST)
    out += _U32.pack(len(value))
    for item in value:
        _encode_value(item, out)


def _encode_dict(value: Dict[str, Any], out: bytearray) -> None:
    out.append(_T_DICT)
    out += _U32.pack(len(value))
    for key, item in value.items():
        if not isinstance(key, str):
            raise OrbError(f"non-string dict key {key!r} on the wire")
        if key == _RESERVED_KEY:
            raise OrbError(f"dict key {_RESERVED_KEY!r} is reserved")
        _write_str(out, key)
        _encode_value(item, out)


_ENCODE_BY_TYPE: Dict[type, Packer] = {
    type(None): lambda value, out: out.append(_T_NONE),
    bool: lambda value, out: out.append(_T_TRUE if value else _T_FALSE),
    int: _encode_int,
    float: _encode_float,
    str: _encode_str,
    list: _encode_list,
    tuple: _encode_list,
    dict: _encode_dict,
}


def _encode_value(value: Any, out: bytearray) -> None:
    # Packed types first: a str-subclassing enum must hit its packer,
    # not the bare-string branch.  Exact-type dispatch means subclasses
    # of the primitives miss both tables and are rejected below.
    tp = type(value)
    packed = _PACKERS.get(tp)
    if packed is not None:
        code, packer = packed
        out.append(code)
        packer(value, out)
        return
    handler = _ENCODE_BY_TYPE.get(tp)
    if handler is not None:
        handler(value, out)
        return
    raise OrbError(f"cannot serialize {tp.__name__}")


def dumps(message: Any) -> bytes:
    """Serialize a message to binary wire bytes.

    Raises :class:`~repro.errors.OrbError` for any value the codec
    cannot pack.
    """
    out = bytearray()
    try:
        _encode_value(message, out)
    except UnicodeEncodeError as exc:  # a lone surrogate in a string
        raise OrbError(f"cannot encode: {exc}") from exc
    return bytes(out)


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


class _Reader:
    """A cursor over the wire bytes.

    Fixed-width fields are read in place with ``unpack_from`` — no
    intermediate slices on the decode hot path."""

    __slots__ = ("data", "size", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.size = len(data)
        self.pos = 0

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if end > self.size:
            raise OrbError("truncated binary frame")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def unpack(self, layout: struct.Struct) -> Tuple[Any, ...]:
        pos = self.pos
        end = pos + layout.size
        if end > self.size:
            raise OrbError("truncated binary frame")
        self.pos = end
        return layout.unpack_from(self.data, pos)

    def u8(self) -> int:
        pos = self.pos
        if pos >= self.size:
            raise OrbError("truncated binary frame")
        self.pos = pos + 1
        return self.data[pos]

    def u32(self) -> int:
        pos = self.pos
        end = pos + 4
        if end > self.size:
            raise OrbError("truncated binary frame")
        self.pos = end
        return _U32.unpack_from(self.data, pos)[0]

    def f64(self) -> float:
        pos = self.pos
        end = pos + 8
        if end > self.size:
            raise OrbError("truncated binary frame")
        self.pos = end
        return _F64.unpack_from(self.data, pos)[0]

    def str_(self) -> str:
        pos = self.pos
        end = pos + 4
        if end > self.size:
            raise OrbError("truncated binary frame")
        end_str = end + _U32.unpack_from(self.data, pos)[0]
        if end_str > self.size:
            raise OrbError("truncated binary frame")
        self.pos = end_str
        return self.data[end:end_str].decode("utf-8")


def _decode_list(reader: _Reader) -> List[Any]:
    return [_decode_value(reader) for _ in range(reader.u32())]


def _decode_dict(reader: _Reader) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for _ in range(reader.u32()):
        key = reader.str_()
        out[key] = _decode_value(reader)
    return out


_DECODE_BY_TAG[_T_NONE] = lambda reader: None
_DECODE_BY_TAG[_T_TRUE] = lambda reader: True
_DECODE_BY_TAG[_T_FALSE] = lambda reader: False
_DECODE_BY_TAG[_T_INT64] = lambda reader: reader.unpack(_I64)[0]
_DECODE_BY_TAG[_T_BIGINT] = lambda reader: int(reader.str_())
_DECODE_BY_TAG[_T_FLOAT] = _Reader.f64
_DECODE_BY_TAG[_T_STR] = _Reader.str_
_DECODE_BY_TAG[_T_LIST] = _decode_list
_DECODE_BY_TAG[_T_DICT] = _decode_dict


def _decode_value(reader: _Reader) -> Any:
    tag = reader.u8()
    handler = _DECODE_BY_TAG[tag]
    if handler is None:
        raise OrbError(f"unknown binary wire tag {tag:#x}")
    return handler(reader)


def loads(data: bytes) -> Any:
    """Deserialize binary wire bytes back into a message."""
    reader = _Reader(data)
    try:
        message = _decode_value(reader)
    except (struct.error, UnicodeDecodeError, ValueError, IndexError) as exc:
        raise OrbError(f"undecodable wire message: {exc}") from exc
    if reader.pos != len(data):
        raise OrbError("trailing bytes after binary message")
    return message


# ----------------------------------------------------------------------
# In-process fast-path marshal
# ----------------------------------------------------------------------


def fast_marshal(value: Any) -> Any:
    """Marshal a value across an in-process boundary without bytes.

    Observably identical to ``loads(dumps(value))`` for the values it
    accepts: scalars pass through, tuples become fresh lists,
    lists/dicts are rebuilt (so a servant mutating its copy cannot
    reach the caller's), and deeply-immutable packed value types pass
    by reference once their packer has checked their fields (an
    oddly-typed one raises :class:`~repro.errors.OrbError` here, as
    :func:`dumps` would, and so does a string holding a lone
    surrogate).  Anything else — including non-finite floats and
    reserved dict keys, whose canonical errors :func:`dumps` owns —
    raises :class:`BinaryUnsupported` so the caller falls back to the
    full round-trip.
    """
    try:
        return _fast_marshal(value)
    except UnicodeEncodeError as exc:  # a lone surrogate in a string
        raise OrbError(f"cannot encode: {exc}") from exc


def _fast_marshal(value: Any) -> Any:
    tp = type(value)
    if tp is str:
        if not value.isascii():
            value.encode("utf-8")  # refuses lone surrogates
        return value
    if value is None or tp is bool or tp is int:
        return value
    if tp is float:
        if not math.isfinite(value):
            raise BinaryUnsupported("non-finite float")
        return value
    if tp is list or tp is tuple:
        return [_fast_marshal(item) for item in value]
    if tp is dict:
        out = {}
        for key, item in value.items():
            if type(key) is not str or key == _RESERVED_KEY:
                raise BinaryUnsupported("bad dict key")
            if not key.isascii():
                key.encode("utf-8")
            out[key] = _fast_marshal(item)
        return out
    if _IMMUTABLE.get(tp, False):
        _PACKERS[tp][1](value, bytearray())  # field checks only
        return value
    raise BinaryUnsupported(tp.__name__)


# ----------------------------------------------------------------------
# Packed built-in value types
# ----------------------------------------------------------------------

_BUCKETS: Tuple[ProbabilityBucket, ...] = tuple(ProbabilityBucket)
_BUCKET_INDEX: Dict[ProbabilityBucket, int] = {
    bucket: index for index, bucket in enumerate(_BUCKETS)}


def _require(condition: bool) -> None:
    """Packers guard field types: an oddly-typed instance is refused
    in the sender instead of being coerced onto the wire."""
    if not condition:
        raise OrbError(
            "cannot serialize a value-type field of that type or value")


def _num(value: Any) -> float:
    _require(isinstance(value, (int, float))
             and math.isfinite(value))
    return value


def _pack_point(point: Point, out: bytearray) -> None:
    out += _F64x3.pack(_num(point.x), _num(point.y), _num(point.z))


def _unpack_point(reader: _Reader) -> Point:
    x, y, z = reader.unpack(_F64x3)
    return Point(x, y, z)


_NUM_TYPES = (float, int)


def _pack_rect(rect: Rect, out: bytearray) -> None:
    a, b, c, d = rect.min_x, rect.min_y, rect.max_x, rect.max_y
    # Fast path for plain finite numbers; anything odd (bool, numeric
    # subclasses, non-finite) re-checks field by field.
    if (type(a) in _NUM_TYPES and type(b) in _NUM_TYPES
            and type(c) in _NUM_TYPES and type(d) in _NUM_TYPES
            and math.isfinite(a) and math.isfinite(b)
            and math.isfinite(c) and math.isfinite(d)):
        out += _F64x4.pack(a, b, c, d)
    else:
        out += _F64x4.pack(_num(a), _num(b), _num(c), _num(d))


def _unpack_rect(reader: _Reader) -> Rect:
    min_x, min_y, max_x, max_y = reader.unpack(_F64x4)
    return Rect(min_x, min_y, max_x, max_y)


def _pack_segment(segment: Segment, out: bytearray) -> None:
    start, end = segment.start, segment.end
    _require(type(start) is Point and type(end) is Point)
    out += _F64x6.pack(_num(start.x), _num(start.y), _num(start.z),
                       _num(end.x), _num(end.y), _num(end.z))


def _unpack_segment(reader: _Reader) -> Segment:
    sx, sy, sz, ex, ey, ez = reader.unpack(_F64x6)
    return Segment(Point(sx, sy, sz), Point(ex, ey, ez))


def _pack_polygon(polygon: Polygon, out: bytearray) -> None:
    vertices = polygon.vertices
    out += _U32.pack(len(vertices))
    for vertex in vertices:
        _require(type(vertex) is Point)
        out += _F64x3.pack(_num(vertex.x), _num(vertex.y), _num(vertex.z))


def _unpack_polygon(reader: _Reader) -> Polygon:
    count = reader.u32()
    return Polygon([_unpack_point(reader) for _ in range(count)])


def _pack_glob(glob: Glob, out: bytearray) -> None:
    _write_str(out, glob.format())


def _unpack_glob(reader: _Reader) -> Glob:
    return Glob.parse(reader.str_())


def _pack_bucket(bucket: ProbabilityBucket, out: bytearray) -> None:
    out += _U8.pack(_BUCKET_INDEX[bucket])


def _unpack_bucket(reader: _Reader) -> ProbabilityBucket:
    index = reader.u8()
    if index >= len(_BUCKETS):
        raise OrbError(f"unknown probability bucket index {index}")
    return _BUCKETS[index]


def _pack_estimate(estimate: LocationEstimate, out: bytearray) -> None:
    _require(type(estimate.object_id) is str
             and type(estimate.rect) is Rect
             and type(estimate.bucket) is ProbabilityBucket
             and isinstance(estimate.moving, bool)
             and isinstance(estimate.sources, (list, tuple)))
    data = estimate.object_id.encode("utf-8")
    out += _U32.pack(len(data))
    out += data
    rect = estimate.rect
    a, b, c, d = rect.min_x, rect.min_y, rect.max_x, rect.max_y
    probability, when = estimate.probability, estimate.time
    # One struct pack covers rect + probability + bucket + time; the
    # bytes are identical to packing them separately (">4d" + ">dBd").
    if not (type(a) in _NUM_TYPES and type(b) in _NUM_TYPES
            and type(c) in _NUM_TYPES and type(d) in _NUM_TYPES
            and type(probability) in _NUM_TYPES
            and type(when) in _NUM_TYPES
            and math.isfinite(a) and math.isfinite(b)
            and math.isfinite(c) and math.isfinite(d)
            and math.isfinite(probability) and math.isfinite(when)):
        a, b, c, d = _num(a), _num(b), _num(c), _num(d)
        probability, when = _num(probability), _num(when)
    out += _EST_HEAD.pack(a, b, c, d, probability,
                          _BUCKET_INDEX[estimate.bucket], when)
    sources = estimate.sources
    out += _U32.pack(len(sources))
    for source in sources:
        _require(type(source) is str)
        data = source.encode("utf-8")
        out += _U32.pack(len(data))
        out += data
    out.append(1 if estimate.moving else 0)
    symbolic = estimate.symbolic
    if symbolic is None:
        out.append(0)
    else:
        _require(type(symbolic) is str)
        out.append(1)
        data = symbolic.encode("utf-8")
        out += _U32.pack(len(data))
        out += data
    posterior = estimate.posterior
    if type(posterior) in _NUM_TYPES and math.isfinite(posterior):
        out += _F64.pack(posterior)
    else:
        out += _F64.pack(_num(posterior))


def _unpack_estimate(reader: _Reader) -> LocationEstimate:
    object_id = reader.str_()
    (min_x, min_y, max_x, max_y, probability, bucket_index,
     time) = reader.unpack(_EST_HEAD)
    if bucket_index >= len(_BUCKETS):
        raise OrbError(f"unknown probability bucket index {bucket_index}")
    sources = tuple(reader.str_() for _ in range(reader.u32()))
    moving = reader.u8() != 0
    symbolic = reader.str_() if reader.u8() else None
    posterior = reader.f64()
    return LocationEstimate(
        object_id, Rect(min_x, min_y, max_x, max_y), probability,
        _BUCKETS[bucket_index], time, sources, moving, symbolic,
        posterior)


register_packed(CODE_POINT, Point, _pack_point, _unpack_point)
register_packed(CODE_RECT, Rect, _pack_rect, _unpack_rect)
register_packed(CODE_SEGMENT, Segment, _pack_segment, _unpack_segment)
register_packed(CODE_POLYGON, Polygon, _pack_polygon, _unpack_polygon)
register_packed(CODE_GLOB, Glob, _pack_glob, _unpack_glob)
register_packed(CODE_BUCKET, ProbabilityBucket, _pack_bucket,
                _unpack_bucket)
register_packed(CODE_ESTIMATE, LocationEstimate, _pack_estimate,
                _unpack_estimate)
