"""Differential suite: binary wire codec vs tagged JSON.

The binary codec's contract is value-for-value identity with the JSON
codec: for every message both accept,
``wire.loads(wire.dumps(x)) == serialization.loads(serialization.dumps(x))``.
Randomized messages over the full JSON value model and every
registered wire type pin that here, plus the fallback rules (a
registered-but-unpacked type raises :class:`BinaryUnsupported`, never
a wrong answer) and the per-message JSON fallback on a live connection.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classify import ProbabilityBucket
from repro.core.estimate import LocationEstimate
from repro.errors import OrbError
from repro.geometry import Point, Polygon, Rect, Segment
from repro.model import Glob
from repro.orb import Orb, serialization, wire
from repro.orb.transport import TcpServer, TcpTransport
from repro.pipeline import PipelineReading

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
# Wire strings: the JSON codec reserves the __type__ dict key, but any
# text is fine as a value.
texts = st.text(max_size=40)

points = st.builds(Point, coord, coord, coord)


@st.composite
def rects(draw):
    x1, x2 = sorted((draw(coord), draw(coord)))
    y1, y2 = sorted((draw(coord), draw(coord)))
    return Rect(x1, y1, x2, y2)


@st.composite
def segments(draw):
    start = draw(points)
    dx = draw(st.floats(min_value=0.25, max_value=100.0))
    dy = draw(st.floats(min_value=-100.0, max_value=100.0))
    return Segment(start, Point(start.x + dx, start.y + dy, start.z))


@st.composite
def polygons(draw):
    # Regular polygons are never degenerate or collinear.
    cx = draw(st.floats(min_value=-1e4, max_value=1e4))
    cy = draw(st.floats(min_value=-1e4, max_value=1e4))
    sides = draw(st.integers(min_value=3, max_value=8))
    radius = draw(st.floats(min_value=1.0, max_value=100.0))
    return Polygon([
        Point(cx + radius * math.cos(2 * math.pi * i / sides),
              cy + radius * math.sin(2 * math.pi * i / sides))
        for i in range(sides)])

glob_atom = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABC0123456789", min_size=1,
    max_size=8)
# GLOB coordinate leaves render as plain decimals (no exponents), so
# stick to dyadic values that repr() cleanly: n/8 is exact in binary.
glob_coord = st.integers(min_value=-80000, max_value=80000) \
    .map(lambda n: n / 8.0)
glob_points = st.lists(
    st.builds(Point, glob_coord, glob_coord, glob_coord),
    min_size=1, max_size=3).map(tuple)
globs = st.builds(
    lambda path, coords: Glob(tuple(path), coords),
    st.lists(glob_atom, min_size=1, max_size=4),
    st.one_of(st.none(), glob_points))

buckets = st.sampled_from(list(ProbabilityBucket))

estimates = st.builds(
    LocationEstimate,
    object_id=texts,
    rect=rects(),
    probability=st.floats(min_value=0.0, max_value=1.0),
    bucket=buckets,
    time=coord,
    sources=st.lists(texts, max_size=4).map(tuple),
    moving=st.booleans(),
    symbolic=st.one_of(st.none(), texts),
    posterior=st.floats(min_value=0.0, max_value=1.0),
)

readings = st.builds(
    PipelineReading,
    sensor_id=texts,
    glob_prefix=texts,
    sensor_type=texts,
    object_id=texts,
    rect=rects(),
    detection_time=coord,
    location=st.one_of(st.none(), points),
    detection_radius=st.floats(min_value=0.0, max_value=100.0),
)

wire_values = st.sampled_from([points, rects(), segments(), polygons(),
                               globs, buckets, estimates, readings])

scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    finite, texts)

leaves = st.one_of(scalars, points, rects(), segments(), polygons(),
                   globs, buckets, estimates, readings)

dict_keys = texts.filter(lambda k: k != "__type__")

messages = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(dict_keys, children, max_size=5),
    ),
    max_leaves=12,
)


def json_roundtrip(message):
    return serialization.loads(serialization.dumps(message))


def binary_roundtrip(message):
    return wire.loads(wire.dumps(message))


# ----------------------------------------------------------------------
# Differential identity
# ----------------------------------------------------------------------


class TestDifferentialIdentity:
    @settings(max_examples=300, deadline=None)
    @given(messages)
    def test_binary_equals_json_on_random_messages(self, message):
        assert binary_roundtrip(message) == json_roundtrip(message)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_registered_wire_type(self, data):
        value = data.draw(data.draw(wire_values))
        via_binary = binary_roundtrip(value)
        via_json = json_roundtrip(value)
        assert via_binary == via_json
        assert type(via_binary) is type(via_json)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(readings, max_size=8))
    def test_submit_batch_request_shape(self, batch):
        request = {"object": "shard", "method": "submit_batch",
                   "args": [batch], "kwargs": {}}
        assert binary_roundtrip(request) == json_roundtrip(request)

    def test_int_float_equality_contract(self):
        # Packed bodies store numbers as f64; the contract is value
        # equality, which Python's numeric tower guarantees.
        rect = Rect(0, 1, 2, 3)
        assert binary_roundtrip(rect) == json_roundtrip(rect)

    def test_bigint_survives(self):
        huge = 2 ** 200
        assert binary_roundtrip(huge) == json_roundtrip(huge) == huge
        assert binary_roundtrip(-huge) == -huge


# ----------------------------------------------------------------------
# Fallback rules
# ----------------------------------------------------------------------


class _Opaque:
    pass


class TestFallbackRules:
    def test_registered_but_unpacked_type_falls_back(self):
        class OnlyJson:
            def __init__(self, n):
                self.n = n

            def __eq__(self, other):
                return isinstance(other, OnlyJson) and other.n == self.n

        serialization.register_type(
            "OnlyJsonDiffTest", OnlyJson,
            lambda v: {"n": v.n}, lambda d: OnlyJson(d["n"]))
        value = OnlyJson(7)
        with pytest.raises(wire.BinaryUnsupported):
            wire.dumps(value)
        assert json_roundtrip(value) == value  # the fallback lane works

    def test_primitive_subclass_falls_back(self):
        class MyInt(int):
            pass

        with pytest.raises(wire.BinaryUnsupported):
            wire.dumps({"n": MyInt(3)})

    def test_unknown_type_raises_same_as_json(self):
        with pytest.raises(OrbError):
            wire.dumps(_Opaque())
        with pytest.raises(OrbError):
            serialization.dumps(_Opaque())

    def test_non_finite_floats_rejected_by_both(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(OrbError):
                wire.dumps({"x": bad})
            with pytest.raises(OrbError):
                serialization.dumps({"x": bad})

    def test_reserved_key_rejected_by_both(self):
        for codec_dumps in (wire.dumps, serialization.dumps):
            with pytest.raises(OrbError):
                codec_dumps({"__type__": "sneaky"})

    def test_non_string_key_rejected_by_both(self):
        for codec_dumps in (wire.dumps, serialization.dumps):
            with pytest.raises(OrbError):
                codec_dumps({3: "x"})

    def test_trailing_bytes_rejected(self):
        with pytest.raises(OrbError):
            wire.loads(wire.dumps([1, 2]) + b"\x00")

    def test_unknown_tag_rejected(self):
        with pytest.raises(OrbError):
            wire.loads(b"\xfe")


# ----------------------------------------------------------------------
# Per-message fallback on the wire
# ----------------------------------------------------------------------


class EchoServant:
    def echo(self, value):
        return value


def _serve():
    orb = Orb("fallback-server")
    orb.register("echo", EchoServant())
    server = TcpServer(orb.adapter.dispatch).start()
    return orb, server


class TestMixedCodecFleet:
    def test_binary_connection_falls_back_per_message(self):
        """A message the binary codec cannot pack still crosses the
        connection (as a tagged-JSON frame)."""
        class JsonOnly:
            def __init__(self, n):
                self.n = n

            def __eq__(self, other):
                return isinstance(other, JsonOnly) and other.n == self.n

        serialization.register_type(
            "JsonOnlyInteropTest", JsonOnly,
            lambda v: {"n": v.n}, lambda d: JsonOnly(d["n"]))
        orb, server = _serve()
        host, port = server.address
        transport = TcpTransport(host, port)
        try:
            response = transport.invoke({
                "object": "echo", "method": "echo",
                "args": [JsonOnly(42)], "kwargs": {}})
            assert response["result"] == JsonOnly(42)
        finally:
            transport.close()
            server.stop()
            orb.shutdown()
