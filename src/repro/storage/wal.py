"""The append-only write-ahead log.

Record framing::

    [seq: u64le][length: u32le][crc32(payload): u32le][payload bytes]

``seq`` is a monotonically increasing record number that survives
compaction (a fresh segment continues the numbering), so snapshots can
say "everything up to seq N is already applied" and replay skips the
prefix.  The scanner tolerates a *torn tail* — a record cut short by a
kill mid-append — by stopping cleanly at the first incomplete or
checksum-failing record at the end of the file; corruption *before*
the tail raises :class:`~repro.errors.WalCorruptionError` instead,
because silently dropping interior history would un-order replay.

Fsync policies (all deterministic — no wall-clock batching):

* ``always`` — fsync at the end of every append call (the STRICT
  durability mode; an :meth:`~WriteAheadLog.append_many` batch is one
  call).
* ``never``  — fsync only on :meth:`sync` / :meth:`close` (the
  BUFFERED mode, whose manager drives the group commit through
  :meth:`sync`; the un-synced window is the crash exposure the stats
  report).

Under every policy an append call hands its bytes to the kernel before
it returns, so a killed process loses no acknowledged record; the
policy only decides what a power loss can cost.

The log is thread-safe: the pipeline and synchronous writers append
concurrently, and the append lock is what serializes WAL order.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from dataclasses import dataclass
from typing import Callable, List, NoReturn, Optional, Sequence, Tuple

from repro.errors import SimulatedCrash, StorageError, WalCorruptionError

_HEADER = struct.Struct("<QII")  # seq, payload length, crc32

FSYNC_ALWAYS = "always"
FSYNC_NEVER = "never"

# Fault-hook kill points (see repro.faults.WalCrashInjector).
POINT_APPEND = "append"
POINT_FSYNC = "fsync"

FaultHook = Callable[[str, int], None]


def _parse_policy(policy: str) -> bool:
    """Policy string to whether every append call fsyncs."""
    if policy == FSYNC_ALWAYS:
        return True
    if policy == FSYNC_NEVER:
        return False
    raise StorageError(
        f"unknown fsync policy {policy!r}; expected 'always' or 'never'")


class WriteAheadLog:
    """One append-only segment file with checksummed records.

    Args:
        path: the segment file (created if missing, appended if not).
        fsync_policy: ``always`` / ``never``.
        start_seq: first sequence number to assign when the file is
            empty (compaction hands the successor segment the old
            log's next seq so numbering never restarts).
        fault_hook: optional kill-point hook ``(point, seq)``; raising
            :class:`~repro.errors.SimulatedCrash` at ``append`` leaves
            a torn partial record on disk, at ``fsync`` it leaves the
            record written but the group commit unacknowledged.
    """

    def __init__(self, path: str, fsync_policy: str = FSYNC_ALWAYS,
                 start_seq: int = 1,
                 fault_hook: Optional[FaultHook] = None) -> None:
        self.path = str(path)
        self._sync_each_append = _parse_policy(fsync_policy)
        self.fsync_policy = fsync_policy
        self.fault_hook = fault_hook
        self._lock = threading.Lock()
        existing = scan_wal(self.path) if os.path.exists(self.path) else None
        if existing is not None and existing.torn_bytes:
            # Repair a torn tail before appending: new records written
            # after torn bytes would read as interior corruption.
            size = os.path.getsize(self.path) - existing.torn_bytes
            with open(self.path, "r+b") as handle:
                handle.truncate(size)
        if existing is not None and existing.records:
            self._next_seq = existing.records[-1][0] + 1
        else:
            self._next_seq = start_seq
        self._file = open(self.path, "ab")
        self._appended = 0
        self._synced_seq = self._next_seq - 1
        self._last_seq = self._next_seq - 1
        self._closed = False

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def append(self, payload: bytes) -> int:
        """Durably append one record; returns its sequence number.

        Under ``never`` the record sits in the un-synced window until
        an explicit :meth:`sync`; the window size is what
        :meth:`unsynced_count` reports.
        """
        return self.append_many((payload,))

    def append_many(self, payloads: Sequence[bytes]) -> int:
        """Append one record per payload; returns the first's seq.

        The records are byte-identical to one :meth:`append` per
        payload, but take one lock hold and one ``write``.  The kill
        points still fire per record, in order: a kill at record ``k``
        (0-based) leaves records before it whole, record ``k`` torn
        (``append``) or whole but unacknowledged (``fsync``), nothing
        after it, and the raised crash carries ``landed = k``.  Under
        ``always`` the whole call is fsynced once, after its last
        record.
        """
        for payload in payloads:
            if not isinstance(payload, (bytes, bytearray)):
                raise StorageError("WAL payloads must be bytes")
        with self._lock:
            if self._closed:
                raise StorageError(f"WAL {self.path} is closed")
            first = self._next_seq
            hook = self.fault_hook
            chunks: List[bytes] = []
            for index, payload in enumerate(payloads):
                seq = first + index
                header = _HEADER.pack(seq, len(payload), zlib.crc32(payload))
                if hook is not None:
                    try:
                        hook(POINT_APPEND, seq)
                    except SimulatedCrash as exc:
                        # A kill mid-append: some prefix of the record
                        # made it to disk.  Leave the torn bytes for
                        # the scanner to step over, then die.
                        record = header + payload
                        chunks.append(record[:max(1, len(record) // 2)])
                        self._written(index)
                        self._die(chunks, index, exc)
                chunks.append(header)
                chunks.append(payload)
                if hook is not None:
                    try:
                        hook(POINT_FSYNC, seq)
                    except SimulatedCrash as exc:
                        # A kill between write and group commit: the
                        # bytes are on disk (a kill does not drop the
                        # page cache) but the commit was never
                        # acknowledged.
                        self._written(index + 1)
                        self._die(chunks, index, exc)
            self._file.write(b"".join(chunks))
            # Hand the bytes to the kernel before acknowledging: a
            # killed process loses its user-space buffer, not the page
            # cache, so after this only a power loss can cost them.
            self._file.flush()
            self._written(len(payloads))
            if self._sync_each_append:
                self._sync_locked()
            return first

    def _written(self, count: int) -> None:
        self._next_seq += count
        self._last_seq = self._next_seq - 1
        self._appended += count

    def _die(self, chunks: List[bytes], landed: int,
             exc: SimulatedCrash) -> NoReturn:
        """Leave what a killed call wrote on disk, close, re-raise.

        The handle is closed without an fsync: a kill drops nothing
        from the page cache, but it does not group-commit either."""
        self._file.write(b"".join(chunks))
        self._file.flush()
        self._file.close()
        self._closed = True
        exc.landed = landed
        raise exc

    def _sync_locked(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())
        self._synced_seq = self._last_seq

    def sync(self) -> None:
        """Force a group commit of every appended record."""
        with self._lock:
            if not self._closed:
                self._sync_locked()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._sync_locked()
            self._file.close()
            self._closed = True

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest appended record (0 = none)."""
        with self._lock:
            return self._last_seq

    @property
    def synced_seq(self) -> int:
        """Newest record covered by an fsync."""
        with self._lock:
            return self._synced_seq

    def unsynced_count(self) -> int:
        """Records appended but not yet group-committed — the crash
        window a power loss (not a mere kill) could cost."""
        with self._lock:
            return self._last_seq - self._synced_seq

    def appended_count(self) -> int:
        with self._lock:
            return self._appended

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed


@dataclass
class WalScan:
    """Everything a replay needs from one segment file.

    ``records`` holds ``(seq, payload)`` in file order; ``torn_bytes``
    counts trailing bytes discarded as an incomplete final record.
    """

    records: List[Tuple[int, bytes]]
    torn_bytes: int

    @property
    def last_seq(self) -> int:
        return self.records[-1][0] if self.records else 0


def scan_wal(path: str) -> WalScan:
    """Read every complete, checksum-valid record of a segment.

    A short or checksum-failing record at the end of the file is the
    torn tail of a crash and is silently dropped; the same defect
    followed by *more* readable data is interior corruption and raises
    :class:`~repro.errors.WalCorruptionError`.
    """
    records: List[Tuple[int, bytes]] = []
    with open(path, "rb") as handle:
        data = handle.read()
    offset = 0
    size = len(data)
    while offset < size:
        if offset + _HEADER.size > size:
            break  # torn header
        seq, length, crc = _HEADER.unpack_from(data, offset)
        body_start = offset + _HEADER.size
        if body_start + length > size:
            break  # torn payload
        payload = data[body_start:body_start + length]
        if zlib.crc32(payload) != crc:
            if body_start + length < size:
                raise WalCorruptionError(
                    f"checksum mismatch at offset {offset} of {path} "
                    f"(seq {seq}) with readable data after it")
            break  # checksum-torn tail
        if records and seq != records[-1][0] + 1:
            raise WalCorruptionError(
                f"non-contiguous seq {seq} after {records[-1][0]} "
                f"in {path}")
        records.append((seq, payload))
        offset = body_start + length
    return WalScan(records=records, torn_bytes=size - offset)
