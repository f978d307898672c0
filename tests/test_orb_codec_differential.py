"""Differential suite: the ORB's wire codec vs the tagged-JSON oracle.

The wire codec's contract is value-for-value identity with the JSON
oracle (:mod:`repro.oracles.orb_json`): for every message both accept,
``wire.loads(wire.dumps(x)) == orb_json.loads(orb_json.dumps(x))``.
Randomized messages over the full JSON value model and every
registered wire type pin that here, plus the rejection rules (values
the codec cannot pack raise :class:`OrbError` in the sender, on both
transports) and the in-process fast marshal, which must equal the
wire round-trip and raise exactly where it raises.
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
from repro.oracles import orb_json
from repro.orb import Orb, wire
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
    return orb_json.loads(orb_json.dumps(message))


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
# Rejection rules
# ----------------------------------------------------------------------


class _Opaque:
    pass


class _MyInt(int):
    pass


def _odd_estimate():
    """A LocationEstimate whose bucket is a plain str, not a
    ProbabilityBucket: the packer refuses it."""
    return LocationEstimate(
        object_id="tom", rect=Rect(0, 0, 1, 1), probability=0.9,
        bucket="HIGH", time=1.0)


class TestFallbackRules:
    def test_primitive_subclass_rejected(self):
        with pytest.raises(OrbError):
            wire.dumps({"n": _MyInt(3)})

    def test_oddly_typed_packed_field_rejected(self):
        with pytest.raises(OrbError):
            wire.dumps({"estimate": _odd_estimate()})

    def test_unknown_type_raises_same_as_json(self):
        with pytest.raises(OrbError):
            wire.dumps(_Opaque())
        with pytest.raises(OrbError):
            orb_json.dumps(_Opaque())

    def test_non_finite_floats_rejected_by_both(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(OrbError):
                wire.dumps({"x": bad})
            with pytest.raises(OrbError):
                orb_json.dumps({"x": bad})

    def test_reserved_key_rejected_by_both(self):
        for codec_dumps in (wire.dumps, orb_json.dumps):
            with pytest.raises(OrbError):
                codec_dumps({"__type__": "sneaky"})

    def test_non_string_key_rejected_by_both(self):
        for codec_dumps in (wire.dumps, orb_json.dumps):
            with pytest.raises(OrbError):
                codec_dumps({3: "x"})

    def test_trailing_bytes_rejected(self):
        with pytest.raises(OrbError):
            wire.loads(wire.dumps([1, 2]) + b"\x00")

    def test_unknown_tag_rejected(self):
        with pytest.raises(OrbError):
            wire.loads(b"\xfe")


# ----------------------------------------------------------------------
# In-process fast marshal
# ----------------------------------------------------------------------


def _outcome(marshal, message):
    """``("ok", value)`` or ``("raises", None)`` for one marshal path."""
    try:
        return "ok", marshal(message)
    except (OrbError, wire.BinaryUnsupported):
        return "raises", None


unmarshalable = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.just({"__type__": "sneaky"}),
    st.dictionaries(st.integers(), scalars, min_size=1, max_size=2),
    st.builds(_Opaque),
    st.builds(_MyInt, st.integers()),
    st.just(_odd_estimate()),
    # Lone surrogates cannot be UTF-8 encoded, as a value or a key.
    st.just("a\udc80b"),
    st.just({"\ud800": 1}),
)


class TestInProcMarshal:
    """``fast_marshal`` is the in-process transport's shortcut past
    the bytes: it must return what the wire round-trip returns, and
    refuse (so the transport's round-trip raises) exactly what the
    wire refuses."""

    @settings(max_examples=300, deadline=None)
    @given(messages)
    def test_fast_marshal_equals_wire_roundtrip(self, message):
        assert wire.fast_marshal(message) == binary_roundtrip(message)

    @settings(max_examples=200, deadline=None)
    @given(st.recursive(
        st.one_of(unmarshalable, leaves),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(dict_keys, children, max_size=4)),
        max_leaves=6))
    def test_both_paths_raise_for_the_same_inputs(self, message):
        fast = _outcome(wire.fast_marshal, message)
        slow = _outcome(binary_roundtrip, message)
        assert fast[0] == slow[0]
        if fast[0] == "ok":
            assert fast[1] == slow[1]


# ----------------------------------------------------------------------
# Rejection on both transports
# ----------------------------------------------------------------------


class EchoServant:
    def echo(self, value):
        return value


@pytest.fixture(params=["inproc", "tcp"])
def echo_proxy(request):
    server = Orb("echo-server")
    server.register("echo", EchoServant())
    client = server
    if request.param == "tcp":
        host, port = server.listen()
        client = Orb("echo-client")
        reference = f"tcp://{host}:{port}/echo"
    else:
        reference = "inproc://echo"
    try:
        yield client.resolve(reference)
    finally:
        client.shutdown()
        server.shutdown()


class TestOddlyTypedValuesRejected:
    """What the wire codec cannot pack fails in the caller, with
    :class:`OrbError`, whichever transport carries the call."""

    @pytest.mark.parametrize(
        "value",
        [_odd_estimate(), _MyInt(3), "a\udc80b", {"k\ud800": 1}],
        ids=["str-bucket-estimate", "int-subclass", "lone-surrogate",
             "lone-surrogate-key"])
    def test_proxy_call_raises(self, echo_proxy, value):
        with pytest.raises(OrbError):
            echo_proxy.echo(value)
        # The failed call leaves the proxy usable.
        assert echo_proxy.echo(3) == 3
