"""Ablation A4: ORB transport cost — in-process vs TCP, serial vs piped.

The paper runs everything over Orbacus; our ORB offers an in-process
path and a real TCP path.  The TCP path speaks one multiplexed framing
with the packed binary codec, and can carry one request at a time or
a pipelined batch on its one connection.  This ablation prices the
distribution boundary for the middleware's hottest call, locate(),
along each of those lanes.

The TCP rows measure against a *separate server process* — the shape
the shard fleet actually deploys — so the client and server do not
share a GIL and the numbers reflect real socket round-trips rather
than two threads fighting over one interpreter.

Results go to benchmarks/results/ablation_orb.txt.  Three CI gates ride
along: ``test_perf_smoke_orb_codec`` (the wire codec >= 2.5x the
tagged-JSON oracle, ``repro.oracles.orb_json``, on the locate()
response shape), ``test_perf_smoke_orb_batch_codec`` (>= 3.0x on a
1024-reading ``submit_batch`` request, the shard fleet's ingest frame)
and ``test_perf_smoke_orb_transport`` (pipelined locate() >= 1.5x over
serial calls on the same connection).
"""

from __future__ import annotations

import multiprocessing
import statistics
import time

import pytest

from _support import write_result
from repro.core import Reading
from repro.geometry import Point, Rect
from repro.oracles import orb_json
from repro.orb import Orb, wire
from repro.orb.transport import TcpTransport
from repro.sensors import UbisenseAdapter
from repro.service import LocationService, publish_service
from repro.sim import SimClock, siebel_floor
from repro.spatialdb import SpatialDatabase

LOCATE_REQUEST = {"object": "location-service", "method": "locate",
                  "args": ["alice"], "kwargs": {}}
PIPELINE_WIDTH = 32
BATCH_READINGS = 1024


def build_rig():
    world = siebel_floor()
    db = SpatialDatabase(world)
    clock = SimClock()
    orb = Orb("server")
    service = LocationService(db, orb=orb, clock=clock)
    adapter = UbisenseAdapter("Ubi-1", "SC/3", frame="").attach(db)
    adapter.tag_sighting("alice", Point(150, 20), 0.0)
    clock.advance(1.0)
    reference, _ = publish_service(service, orb)
    return orb, service, reference


def server_main(conn):
    """Benchmark server process entry point (multiprocessing spawn
    target, so it must live at module scope)."""
    orb, _service, _reference = build_rig()
    _host, port = orb.listen()
    conn.send(port)
    try:
        conn.recv()  # parent closing its end is the stop signal
    except EOFError:
        pass
    orb.shutdown()


def spawn_server():
    """Start a locate() server in its own process; returns
    (process, control pipe, port)."""
    ctx = multiprocessing.get_context("spawn")
    parent_conn, child_conn = ctx.Pipe()
    proc = ctx.Process(target=server_main, args=(child_conn,), daemon=True)
    proc.start()
    child_conn.close()
    port = parent_conn.recv()
    return proc, parent_conn, port


def _measure(fn, rounds):
    fn()  # warm
    start = time.perf_counter()
    for _ in range(rounds):
        fn()
    return (time.perf_counter() - start) / rounds * 1e6


def test_locate_direct_call(benchmark):
    """Baseline: the bare in-process API, no broker at all."""
    _, service, _ = build_rig()
    result = benchmark(lambda: service.locate("alice"))
    assert result.symbolic == "SC/3/3105"


def test_locate_inproc_orb(benchmark):
    """Through the broker with the in-process transport (copy-safe
    fast marshal, no socket)."""
    orb, _, reference = build_rig()
    proxy = orb.resolve(reference)
    result = benchmark(lambda: proxy.locate("alice"))
    assert result.symbolic == "SC/3/3105"


def test_locate_tcp_orb(benchmark):
    """Through a real socket, as a Gaia application would call it."""
    orb, _, _ = build_rig()
    orb.listen()
    reference = orb.reference_for("location-service")
    client = Orb("client")
    proxy = client.resolve(reference)
    try:
        result = benchmark(lambda: proxy.locate("alice"))
        assert result.symbolic == "SC/3/3105"
    finally:
        client.shutdown()
        orb.shutdown()


def test_transport_cost_table(benchmark, results_dir):
    orb, service, reference = build_rig()
    inproc_proxy = orb.resolve(reference)
    rounds = 200

    proc, pipe, port = spawn_server()
    transport = TcpTransport("127.0.0.1", port)
    batch = [LOCATE_REQUEST] * PIPELINE_WIDTH
    trials = 3  # best-of, interleaved: lane ratios survive load spikes
    try:
        direct = min(_measure(lambda: service.locate("alice"), rounds)
                     for _ in range(trials))
        inproc = min(
            _measure(lambda: inproc_proxy.locate("alice"), rounds)
            for _ in range(trials))
        serial, piped = float("inf"), float("inf")
        for _ in range(trials):
            serial = min(serial, _measure(
                lambda: transport.invoke(LOCATE_REQUEST), rounds))
            piped = min(piped, _measure(
                lambda: transport.invoke_many(batch),
                max(1, rounds // 8)) / PIPELINE_WIDTH)
        assert transport.transport_stats()["opened"] == 1
    finally:
        transport.close()
        pipe.close()
        proc.join(timeout=10)
        orb.shutdown()

    improvement = serial / piped
    batch_ratio, batch_binary_us, batch_json_us = _codec_ratio(
        _submit_batch_request(), rounds=3)
    lines = [
        "Ablation A4: locate() cost by call path (us/call)",
        "(TCP rows run against a separate server process)",
        "",
        f"{'direct python':>26}: {direct:>9.1f}",
        f"{'inproc orb':>26}: {inproc:>9.1f} "
        f"({inproc / direct:.2f}x direct)",
        f"{'tcp orb (serial)':>26}: {serial:>9.1f} "
        f"({serial / direct:.2f}x direct)",
        f"{'tcp orb (piped%d)' % PIPELINE_WIDTH:>26}: "
        f"{piped:>9.1f} ({piped / direct:.2f}x direct)",
        "",
        f"pipelined vs serial: {improvement:.2f}x "
        "(acceptance floor: 2x)",
        "",
        f"submit_batch({BATCH_READINGS} readings) round-trip: binary "
        f"{batch_binary_us / 1000:.2f} ms, json oracle "
        f"{batch_json_us / 1000:.2f} ms, {batch_ratio:.2f}x "
        "(gate floor: 3.0x)",
    ]
    # The broker's in-process lane must cost at most 2.5x the bare
    # call (it used to cost 5.9x before the fast marshal), and
    # pipelining must improve the TCP lane at least 2x end to end.
    assert inproc <= direct * 2.5
    assert improvement >= 2.0
    write_result(results_dir, "ablation_orb", lines)
    benchmark(lambda: service.locate("alice"))


def _locate_response():
    """A real locate() response envelope, captured from the rig."""
    _, service, _ = build_rig()
    return {"result": service.locate("alice")}


def _submit_batch_request():
    """A shard ingest frame: one ``submit_batch`` of fleet-shaped
    readings, half of them carrying a point location."""
    readings = [
        Reading(
            sensor_id=f"Ubi-{i % 7}", glob_prefix="SC/3",
            sensor_type="Ubisense", object_id=f"person-{i % 60}",
            rect=Rect(i * 0.1, 1.0, i * 0.1 + 2.0, 3.0),
            detection_time=float(i),
            location=Point(i * 0.1 + 1.0, 2.0) if i % 2 else None,
            detection_radius=0.5)
        for i in range(BATCH_READINGS)]
    return {"object": "shard-0", "method": "submit_batch",
            "args": [readings], "kwargs": {}}


def _codec_ratio(message, rounds, pairs=9):
    """JSON-oracle over binary round-trip time for ``message``: the
    median of ``pairs`` interleaved lap ratios, plus each lane's median
    microseconds per round-trip.

    The lanes alternate lap by lap, so drift on a shared runner lands
    on both sides of each pair instead of between the two lanes."""
    assert wire.loads(wire.dumps(message)) == message

    def lap(dumps, loads):
        start = time.perf_counter()
        for _ in range(rounds):
            loads(dumps(message))
        return time.perf_counter() - start

    lap(wire.dumps, wire.loads)  # warm both lanes
    lap(orb_json.dumps, orb_json.loads)
    laps = []
    for _ in range(pairs):
        binary = lap(wire.dumps, wire.loads)
        laps.append((binary, lap(orb_json.dumps, orb_json.loads)))
    ratio = statistics.median(json_ / binary for binary, json_ in laps)
    binary_us = statistics.median(b for b, _ in laps) / rounds * 1e6
    json_us = statistics.median(j for _, j in laps) / rounds * 1e6
    return ratio, binary_us, json_us


def test_perf_smoke_orb_codec():
    """CI gate: the binary codec holds >= 2.5x over the JSON oracle on
    the locate() response shape (encode+decode, median of 9
    interleaved pairs)."""
    pairs = 9
    ratio, binary_us, json_us = _codec_ratio(_locate_response(),
                                             rounds=2000, pairs=pairs)
    assert ratio >= 2.5, (
        f"binary codec only {ratio:.2f}x the JSON path (median of "
        f"{pairs} interleaved pairs; binary {binary_us:.1f}us, "
        f"json {json_us:.1f}us per round-trip)")


def test_perf_smoke_orb_batch_codec():
    """CI gate: the binary codec holds >= 3.0x over the JSON oracle on
    a 1024-reading ``submit_batch`` request (encode+decode, median of 9
    interleaved pairs) — the frame every shard ingest RPC carries."""
    pairs = 9
    ratio, binary_us, json_us = _codec_ratio(_submit_batch_request(),
                                             rounds=3, pairs=pairs)
    assert ratio >= 3.0, (
        f"binary codec only {ratio:.2f}x the JSON path on a "
        f"{BATCH_READINGS}-reading submit_batch (median of {pairs} "
        f"interleaved pairs; binary {binary_us / 1000:.2f}ms, json "
        f"{json_us / 1000:.2f}ms per round-trip)")


def test_perf_smoke_orb_transport():
    """CI gate: pipelined locate() beats serial calls on the same
    connection against an out-of-process server (best-of-3 per lane,
    interleaved).

    The committed table shows >= 2x; the gate floor is 1.5x because on
    a single-core runner the two lanes share the core with the server,
    and the residual per-call cost is locate() itself — a regression
    that re-introduces per-request round-trips into the pipelined path
    lands well below 1.5x, which is what this gate exists to catch."""
    proc, pipe, port = spawn_server()
    transport = TcpTransport("127.0.0.1", port)
    batch = [LOCATE_REQUEST] * PIPELINE_WIDTH
    rounds = 150
    serial, piped = float("inf"), float("inf")
    try:
        for _ in range(3):
            serial = min(serial, _measure(
                lambda: transport.invoke(LOCATE_REQUEST), rounds))
            piped = min(piped, _measure(
                lambda: transport.invoke_many(batch),
                max(1, rounds // 8)) / PIPELINE_WIDTH)
    finally:
        transport.close()
        pipe.close()
        proc.join(timeout=10)
    improvement = serial / piped
    assert improvement >= 1.5, (
        f"pipelined locate() only {improvement:.2f}x serial calls "
        f"(serial {serial:.1f}us, piped {piped:.1f}us per call)")
