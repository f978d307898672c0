"""Unit tests for the write-ahead log and the record codec.

Covers the framing contract (length-prefixed, checksummed,
monotonically sequenced records), all three fsync policies, torn-tail
tolerance versus interior-corruption loudness, a real SIGKILL after
a buffered append, and the logical operation codec the spatial-DB
seam logs through.
"""

import dataclasses
import gc
import json
import math
import os
import signal
import struct
import subprocess
import sys
import warnings
import zlib

import pytest

import repro
from repro.core import Reading, SensorSpec
from repro.errors import SimulatedCrash, StorageError, WalCorruptionError
from repro.geometry import Point, Rect
from repro.orb import wire
from repro.sensors import UbisenseAdapter
from repro.sim import siebel_floor
from repro.spatialdb import SpatialDatabase
from repro.storage import (
    WriteAheadLog,
    readings_fingerprint,
    recover,
    scan_wal,
)
from repro.storage import records as rec

_HEADER = struct.Struct("<QII")


def _wal(tmp_path, **kwargs):
    return WriteAheadLog(str(tmp_path / "wal.log"), **kwargs)


class TestFraming:
    def test_append_scan_round_trip(self, tmp_path):
        wal = _wal(tmp_path, fsync_policy="always")
        payloads = [b"alpha", b"", b"\x00\xffbinary\x01", b"omega" * 100]
        seqs = [wal.append(p) for p in payloads]
        wal.close()
        scan = scan_wal(wal.path)
        assert scan.torn_bytes == 0
        assert [s for s, _ in scan.records] == seqs == [1, 2, 3, 4]
        assert [p for _, p in scan.records] == payloads

    def test_seq_is_contiguous_and_survives_reopen(self, tmp_path):
        wal = _wal(tmp_path, fsync_policy="always")
        wal.append(b"one")
        wal.append(b"two")
        wal.close()
        reopened = _wal(tmp_path, fsync_policy="always")
        assert reopened.append(b"three") == 3
        reopened.close()
        assert [s for s, _ in scan_wal(reopened.path).records] == [1, 2, 3]

    def test_start_seq_continues_numbering_after_compaction(self, tmp_path):
        wal = _wal(tmp_path, fsync_policy="always", start_seq=41)
        assert wal.append(b"first-after-compaction") == 41
        wal.close()

    def test_payload_must_be_bytes(self, tmp_path):
        wal = _wal(tmp_path)
        with pytest.raises(StorageError):
            wal.append("not bytes")
        wal.close()

    def test_append_after_close_raises(self, tmp_path):
        wal = _wal(tmp_path)
        wal.close()
        with pytest.raises(StorageError):
            wal.append(b"late")

    def test_scan_empty_file(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"")
        scan = scan_wal(str(path))
        assert scan.records == [] and scan.torn_bytes == 0
        assert scan.last_seq == 0


class TestFsyncPolicies:
    def test_always_leaves_no_unsynced_window(self, tmp_path):
        wal = _wal(tmp_path, fsync_policy="always")
        for i in range(5):
            wal.append(b"r%d" % i)
            assert wal.unsynced_count() == 0
            assert wal.synced_seq == wal.last_seq
        wal.close()

    def test_never_syncs_only_on_request(self, tmp_path):
        wal = _wal(tmp_path, fsync_policy="never")
        for i in range(10):
            wal.append(b"x")
        assert wal.unsynced_count() == 10
        wal.sync()
        assert wal.unsynced_count() == 0
        wal.close()

    @pytest.mark.parametrize("policy", ["sometimes", "batch:", "batch:0",
                                        "batch:-3", "batch:3", ""])
    def test_unknown_policy_rejected(self, tmp_path, policy):
        with pytest.raises(StorageError):
            _wal(tmp_path, fsync_policy=policy)


class TestAppendMany:
    """One lock hold and one write per batch, same bytes as appends."""

    PAYLOADS = [b"alpha", b"", b"\x00\xffbinary", b"omega" * 50]

    def test_bytes_match_one_append_each(self, tmp_path):
        single = WriteAheadLog(str(tmp_path / "single.log"),
                               fsync_policy="never")
        for payload in self.PAYLOADS:
            single.append(payload)
        single.close()
        batched = WriteAheadLog(str(tmp_path / "batched.log"),
                                fsync_policy="never")
        assert batched.append_many(self.PAYLOADS) == 1
        assert batched.append_many([b"tail"]) == 5
        batched.close()
        with open(single.path, "rb") as a, open(batched.path, "rb") as b:
            assert b.read() == a.read() + _HEADER.pack(
                5, 4, zlib.crc32(b"tail")) + b"tail"

    def test_always_fsyncs_once_per_call(self, tmp_path, monkeypatch):
        wal = _wal(tmp_path, fsync_policy="always")
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: (synced.append(fd), real_fsync(fd)))
        wal.append_many(self.PAYLOADS)
        assert len(synced) == 1
        assert wal.synced_seq == wal.last_seq == len(self.PAYLOADS)
        wal.close()

    @pytest.mark.parametrize("point", ["append", "fsync"])
    def test_kill_at_record_k(self, tmp_path, point):
        def hook(at, seq):
            if at == point and seq == 3:
                raise SimulatedCrash(f"kill at {at} {seq}")

        wal = _wal(tmp_path, fsync_policy="always", fault_hook=hook)
        with pytest.raises(SimulatedCrash) as caught:
            wal.append_many(self.PAYLOADS)
        assert caught.value.landed == 2
        assert wal.closed
        scan = scan_wal(wal.path)
        whole = 2 if point == "append" else 3
        assert [payload for _, payload in scan.records] == \
            self.PAYLOADS[:whole]
        assert (scan.torn_bytes > 0) == (point == "append")

    @pytest.mark.parametrize("point", ["append", "fsync"])
    def test_kill_leaves_no_open_handle(self, tmp_path, point):
        """A simulated kill closes the segment file, as a real one
        would: nothing is left for the garbage collector to warn
        about."""
        def hook(at, seq):
            if at == point and seq == 3:
                raise SimulatedCrash(f"kill at {at} {seq}")

        def crash():
            wal = _wal(tmp_path, fsync_policy="always", fault_hook=hook)
            try:
                wal.append_many(self.PAYLOADS)
            except SimulatedCrash:
                pass
            assert wal.closed

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            crash()
            gc.collect()
        # Other tests' garbage may be collected here too; only this
        # test's segment counts.
        leaked = [str(w.message) for w in caught
                  if issubclass(w.category, ResourceWarning)
                  and str(tmp_path) in str(w.message)]
        assert leaked == []


class TestTornTail:
    def _write_then_tear(self, tmp_path, torn: bytes) -> str:
        wal = _wal(tmp_path, fsync_policy="always")
        wal.append(b"intact-1")
        wal.append(b"intact-2")
        wal.close()
        with open(wal.path, "ab") as handle:
            handle.write(torn)
        return wal.path

    def test_torn_header_is_dropped(self, tmp_path):
        path = self._write_then_tear(tmp_path, b"\x03\x00")
        scan = scan_wal(path)
        assert [s for s, _ in scan.records] == [1, 2]
        assert scan.torn_bytes == 2

    def test_torn_payload_is_dropped(self, tmp_path):
        torn = _HEADER.pack(3, 100, 0) + b"only-ten-b"
        path = self._write_then_tear(tmp_path, torn)
        scan = scan_wal(path)
        assert [s for s, _ in scan.records] == [1, 2]
        assert scan.torn_bytes == len(torn)

    def test_checksum_torn_tail_is_dropped(self, tmp_path):
        body = b"garbled-payload"
        torn = _HEADER.pack(3, len(body), 12345) + body
        path = self._write_then_tear(tmp_path, torn)
        scan = scan_wal(path)
        assert [s for s, _ in scan.records] == [1, 2]
        assert scan.torn_bytes == len(torn)

    def test_reopen_truncates_torn_tail_before_appending(self, tmp_path):
        path = self._write_then_tear(tmp_path, b"\x99" * 7)
        wal = WriteAheadLog(path, fsync_policy="always")
        assert wal.append(b"intact-3") == 3
        wal.close()
        scan = scan_wal(path)
        assert [s for s, _ in scan.records] == [1, 2, 3]
        assert scan.torn_bytes == 0

    def test_interior_corruption_is_loud(self, tmp_path):
        wal = _wal(tmp_path, fsync_policy="always")
        wal.append(b"first-record")
        wal.append(b"second-record")
        wal.close()
        with open(wal.path, "r+b") as handle:
            handle.seek(_HEADER.size + 2)  # inside record 1's payload
            handle.write(b"\xff")
        with pytest.raises(WalCorruptionError):
            scan_wal(wal.path)

    def test_non_contiguous_seq_is_loud(self, tmp_path):
        path = str(tmp_path / "wal.log")
        import zlib
        with open(path, "wb") as handle:
            for seq in (1, 5):
                body = b"r%d" % seq
                handle.write(_HEADER.pack(seq, len(body),
                                          zlib.crc32(body)) + body)
        with pytest.raises(WalCorruptionError):
            scan_wal(path)


class TestRecordCodec:
    def test_rect_round_trip(self):
        r = Rect(1.5, -2.0, 30.25, 4.0)
        assert rec.decode_rect(rec.encode_rect(r)) == r

    def test_point_round_trip(self):
        p = Point(1.0, 2.0, 3.5)
        out = rec.decode_point(rec.encode_point(p))
        assert (out.x, out.y, out.z) == (1.0, 2.0, 3.5)

    def test_spec_round_trip(self):
        spec = SensorSpec(sensor_type="Ubisense", carry_probability=0.9,
                          detection_probability=0.95,
                          misident_probability=0.05, z_area_scaled=True,
                          resolution=0.5, time_to_live=3.0)
        twin = rec.decode_spec(rec.encode_spec(spec))
        assert twin == spec

    def test_none_spec_round_trip(self):
        assert rec.decode_spec(rec.encode_spec(None)) is None

    def test_reading_row_round_trip(self):
        row = {
            "reading_id": 7,
            "sensor_id": "Ubi-18",
            "glob_prefix": "CS/Floor3",
            "sensor_type": "Ubisense",
            "mobile_object_id": "alice",
            "location": Point(10.0, 20.0, 0.0),
            "detection_radius": 1.5,
            "rect": Rect(9.0, 19.0, 11.0, 21.0),
            "detection_time": 42.0,
            "moving": True,
        }
        assert rec.decode_reading_row(rec.encode_reading_row(row)) == row

    def test_reading_row_without_location(self):
        row = {
            "reading_id": 8,
            "sensor_id": "RF-12",
            "glob_prefix": "CS/Floor3",
            "sensor_type": "RF",
            "mobile_object_id": "bob",
            "location": None,
            "detection_radius": 0.0,
            "rect": Rect(0.0, 0.0, 5.0, 5.0),
            "detection_time": 1.0,
            "moving": False,
        }
        assert rec.decode_reading_row(rec.encode_reading_row(row)) == row

    def test_op_envelope_round_trip(self):
        op = {"op": rec.OP_PURGE, "now": 9.0, "reading_ids": [1, 2, 3]}
        assert rec.decode_op(rec.encode_op(op)) == op

    def test_op_encoding_is_deterministic(self):
        a = {"op": rec.OP_EXPIRE, "object_id": "alice",
             "sensor_id": None, "reading_ids": [4, 9]}
        b = {"reading_ids": [4, 9], "sensor_id": None,
             "object_id": "alice", "op": rec.OP_EXPIRE}
        assert rec.encode_op(a) == rec.encode_op(b)

    def test_unknown_op_rejected(self):
        with pytest.raises(StorageError):
            rec.encode_op({"op": "truncate-table"})

class TestInsertFastPath:
    """The one insert record form: a reading's wire bytes plus the
    ``(moving, reading_id)`` tail, built by ``encode_insert`` outside
    the ingest lock and ``assemble_insert_op`` inside it."""

    READING = Reading(
        sensor_id="Ubi-18", glob_prefix="CS/Floor3",
        sensor_type="Ubisense", object_id="alice éè",
        rect=Rect(9.0, -21.5, 11.5, -19.5), detection_time=42.125,
        location=Point(10.25, -20.5, 0.75), detection_radius=1.5)

    ROW = {
        "reading_id": 41,
        "sensor_id": "Ubi-18",
        "glob_prefix": "CS/Floor3",
        "sensor_type": "Ubisense",
        "mobile_object_id": "alice éè",
        "location": Point(10.25, -20.5, 0.75),
        "detection_radius": 1.5,
        "rect": Rect(9.0, -21.5, 11.5, -19.5),
        "detection_time": 42.125,
        "moving": True,
    }

    @classmethod
    def _payload(cls, reading=None, reading_id=41, moving=True):
        return bytes(rec.assemble_insert_op(
            rec.encode_insert(reading or cls.READING), reading_id, moving))

    def test_all_float_row_takes_binary_form(self):
        payload = self._payload()
        wire_bytes = wire.dumps(self.READING)
        assert payload[0] == wire.CODE_READING  # never '{'
        assert payload.startswith(wire_bytes)
        assert payload[len(wire_bytes):] == struct.pack(">BQ", 1, 41)

    def test_binary_form_replays_identically(self):
        decoded = rec.decode_op(self._payload())
        assert decoded == {"op": rec.OP_INSERT_READING, "row": self.ROW}

    def test_binary_form_without_location(self):
        reading = dataclasses.replace(self.READING, location=None)
        decoded = rec.decode_op(self._payload(reading, moving=False))
        assert decoded["row"] == dict(self.ROW, location=None,
                                      moving=False)

    def test_negative_zero_survives_the_packed_form(self):
        reading = dataclasses.replace(
            self.READING, detection_time=-0.0,
            rect=Rect(-0.0, 0.0, 1.0, 1.0), location=None)
        row = rec.decode_op(self._payload(reading))["row"]
        assert math.copysign(1.0, row["detection_time"]) == -1.0
        assert math.copysign(1.0, row["rect"].min_x) == -1.0

    def test_int_coordinates_pack_as_doubles(self):
        # Ints are packed as the doubles the database stores them as:
        # the record is the all-float reading's record, and it replays
        # floats.
        ints = dataclasses.replace(
            self.READING, rect=Rect(9, -22, 12, -19), detection_time=42,
            location=Point(10, -20, 0), detection_radius=2)
        floats = dataclasses.replace(
            self.READING, rect=Rect(9.0, -22.0, 12.0, -19.0),
            detection_time=42.0, location=Point(10.0, -20.0, 0.0),
            detection_radius=2.0)
        assert self._payload(ints) == self._payload(floats)
        row = rec.decode_op(self._payload(ints))["row"]
        rect, location = row["rect"], row["location"]
        assert {type(value) for value in (
            rect.min_x, rect.min_y, rect.max_x, rect.max_y, location.x,
            location.y, location.z, row["detection_time"],
            row["detection_radius"])} == {float}

    @pytest.mark.parametrize("field,value", [
        ("detection_time", float("nan")),
        ("detection_radius", float("inf")),
        ("rect", Rect(0.0, 0.0, float("inf"), 1.0)),
        ("location", Point(True, 2.0)),
        ("sensor_id", 7),
        ("object_id", "a\udc80b"),
    ])
    def test_unpackable_reading_refused(self, field, value):
        reading = dataclasses.replace(self.READING, **{field: value})
        with pytest.raises(StorageError):
            rec.encode_insert(reading)

    def test_insert_has_no_json_form(self):
        op = {"op": rec.OP_INSERT_READING,
              "row": rec.encode_reading_row(self.ROW)}
        with pytest.raises(StorageError):
            rec.encode_op(op)
        with pytest.raises(StorageError):
            rec.decode_op(json.dumps(op).encode("utf-8"))

    def test_binary_encoding_is_deterministic(self):
        assert self._payload() == self._payload()

    def test_truncated_binary_record_rejected(self):
        payload = self._payload()
        for cut in range(1, len(payload)):
            with pytest.raises(StorageError):
                rec.decode_op(payload[:cut])

    def test_binary_record_with_trailing_garbage_rejected(self):
        payload = self._payload()
        with pytest.raises(StorageError):
            rec.decode_op(payload + b"\x00")


SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

# Five readings through a buffered journal, then SIGKILL: no close, no
# sync, no interpreter shutdown to flush anything on the way out.
_KILLED_WRITER = f"""
import os, signal, sys
sys.path.insert(0, {SRC!r})
from repro.core import Reading
from repro.geometry import Rect
from repro.sensors import UbisenseAdapter
from repro.sim import siebel_floor
from repro.spatialdb import SpatialDatabase
from repro.storage import DurabilityManager, DurabilityMode
db = SpatialDatabase(siebel_floor())
DurabilityManager(db, sys.argv[1], mode=DurabilityMode.BUFFERED).attach()
UbisenseAdapter("Ubi-1", "SC/3", frame="").attach(db)
db.insert_readings(
    [Reading("Ubi-1", "SC/3", "Ubisense", "alice",
             Rect(149.0 + i, 19.0, 151.0 + i, 21.0), float(i))
     for i in range(5)])
os.kill(os.getpid(), signal.SIGKILL)
"""


class TestKilledProcess:
    def test_sigkill_keeps_every_acknowledged_buffered_record(
            self, tmp_path):
        """A kill loses nothing in buffered mode: every record an
        ``append_many`` acknowledged reached the kernel, so recovery
        rebuilds exactly the rows the killed process had inserted."""
        wal_dir = str(tmp_path / "wal")
        killed = subprocess.run(
            [sys.executable, "-c", _KILLED_WRITER, wal_dir],
            capture_output=True, text=True, timeout=120)
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        survivor = SpatialDatabase(siebel_floor())
        UbisenseAdapter("Ubi-1", "SC/3", frame="").attach(survivor)
        survivor.insert_readings(
            [Reading("Ubi-1", "SC/3", "Ubisense", "alice",
                     Rect(149.0 + i, 19.0, 151.0 + i, 21.0), float(i))
             for i in range(5)])
        recovered = recover(wal_dir)
        assert recovered.torn_bytes == 0
        assert len(recovered.db.sensor_readings) == 5
        assert readings_fingerprint(recovered.db) == \
            readings_fingerprint(survivor)
