"""The write-ahead log: framed, checksummed, fsync-batched appends.

Record framing (all integers big-endian)::

    +-------+----------+---------+----------------------+
    | magic | length   | crc32   | payload              |
    | 2 B   | 4 B      | 4 B     | <length> bytes       |
    +-------+----------+---------+----------------------+

The payload is the canonical JSON of ``{"sequence": n, "op": <op doc>}``
(:func:`repro.ingest.ops.encode_op`); sequences are globally monotonic
over the ingest directory's lifetime and survive WAL truncation at
checkpoints.  The CRC covers the payload; the length field is implicitly
validated by the CRC (a corrupted length yields a CRC mismatch or runs
past the committed region, both detected).

**The commit point is the sidecar marker**, not the log file: appends go
to ``wal.log`` with a flush (visible, not durable); :meth:`commit`
fsyncs the log and then atomically replaces ``wal.commit.json`` naming
the committed byte offset, record count and next sequence.  Bytes past
the marker's offset are by definition a torn tail — recovery quarantines
and truncates them without ceremony.  Damage *inside* the committed
prefix is real corruption and surfaces as the typed
:class:`~repro.errors.WALCorruptionError` (the damaged bytes are
quarantined first, never deleted).

Fault sites: :data:`~repro.core.resilience.SITE_WAL_APPEND` fires before
each record write (``short_write`` mode leaves a genuinely torn record),
:data:`~repro.core.resilience.SITE_WAL_FSYNC` before the commit fsync,
and :data:`~repro.core.resilience.SITE_WAL_REPLAY` on every committed
record read (``corrupt`` mode models rot in committed bytes).

A WAL whose append or commit raised mid-write is *poisoned*: the bytes
on "disk" no longer match the writer's bookkeeping, so every further
mutation raises until the directory goes through recovery — exactly
what a crashed process would be forced into.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.core import resilience, trace
from repro.errors import IngestError, InjectedFaultError, WALCorruptionError
from repro.ingest.layout import IngestLayout, PathLike
from repro.ingest.ops import IngestOp, encode_op
from repro.store.atomic import (
    atomic_write_json,
    canonical_json_bytes,
    quarantine_path,
)

MAGIC = b"WL"
_HEADER = struct.Struct(">2sII")
HEADER_SIZE = _HEADER.size  # 10 bytes
FORMAT_VERSION = 1


def encode_record(sequence: int, op: IngestOp) -> bytes:
    """One framed record: header + canonical-JSON payload."""
    payload = canonical_json_bytes({"sequence": sequence, "op": encode_op(op)})
    return _HEADER.pack(MAGIC, len(payload), zlib.crc32(payload)) + payload


def decode_record(frame: bytes) -> Tuple[int, Dict[str, Any]]:
    """Parse one full frame back to ``(sequence, op document)``.

    Raises :class:`~repro.errors.WALCorruptionError` on any framing or
    checksum violation — a flipped bit anywhere in the frame fails
    either the magic, the length bound, or the CRC.
    """
    import json

    if len(frame) < HEADER_SIZE:
        raise WALCorruptionError(
            f"record frame of {len(frame)} bytes is shorter than the "
            f"{HEADER_SIZE}-byte header"
        )
    magic, length, crc = _HEADER.unpack_from(frame)
    if magic != MAGIC:
        raise WALCorruptionError(f"bad record magic {magic!r}")
    payload = frame[HEADER_SIZE : HEADER_SIZE + length]
    if len(payload) != length or len(frame) != HEADER_SIZE + length:
        raise WALCorruptionError(
            f"record frame carries {len(frame) - HEADER_SIZE} payload "
            f"bytes, header promises {length}"
        )
    if zlib.crc32(payload) != crc:
        raise WALCorruptionError("record payload fails its CRC")
    try:
        document = json.loads(payload.decode("utf-8"))
        return int(document["sequence"]), document["op"]
    except WALCorruptionError:
        raise
    except Exception as error:
        raise WALCorruptionError(
            f"record payload is not a WAL document: {error!r}"
        ) from error


class WriteAheadLog:
    """One directory's append-only ingest log plus its commit marker."""

    def __init__(self, root: PathLike, fsync: bool = True):
        self.layout = IngestLayout(root)
        os.makedirs(self.layout.root, exist_ok=True)
        self.fsync = fsync
        self._handle = None
        self._poisoned = False
        marker = self._read_marker()
        self.committed_offset: int = marker["offset"]
        self.committed_records: int = marker["records"]
        self.next_sequence: int = marker["next_sequence"]
        self._end_offset = self._log_size()
        self._pending_records = 0

    # -- marker ------------------------------------------------------------
    def _read_marker(self) -> Dict[str, int]:
        import json

        path = self.layout.wal_commit_path
        if not os.path.exists(path):
            return {"offset": 0, "records": 0, "next_sequence": 1}
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
            version = document.get("format")
            if version == FORMAT_VERSION:
                return {
                    "offset": int(document["offset"]),
                    "records": int(document["records"]),
                    "next_sequence": int(document["next_sequence"]),
                }
        except Exception as error:
            raise IngestError(
                f"WAL commit marker {path!r} unreadable: {error!r}",
                path=path,
            ) from error
        raise IngestError(
            f"WAL commit marker carries format {version!r}; this build "
            f"reads version {FORMAT_VERSION}",
            path=path,
        )

    def _write_marker(self) -> None:
        atomic_write_json(
            self.layout.wal_commit_path,
            {
                "format": FORMAT_VERSION,
                "offset": self.committed_offset,
                "records": self.committed_records,
                "next_sequence": self.next_sequence,
            },
            fsync=self.fsync,
        )

    def _log_size(self) -> int:
        try:
            return os.path.getsize(self.layout.wal_log_path)
        except OSError:
            return 0

    def _ensure_handle(self):
        if self._handle is None:
            self._handle = open(self.layout.wal_log_path, "ab")
        return self._handle

    def _guard(self) -> None:
        if self._poisoned:
            raise IngestError(
                "this WAL failed mid-write and must be recovered before "
                "further appends",
                path=self.layout.wal_log_path,
            )

    # -- introspection -------------------------------------------------------
    @property
    def uncommitted_records(self) -> int:
        return self._pending_records

    @property
    def last_committed_sequence(self) -> int:
        """Sequence of the newest durable record (0 when none)."""
        return self.next_sequence - self._pending_records - 1

    # -- append / commit ------------------------------------------------------
    def append(self, op: IngestOp) -> int:
        """Frame and write one record; returns its sequence.

        Appended records are *visible* (flushed) but not *durable* —
        durability is :meth:`commit`'s contract.  An injected raise
        fires before any byte lands; an injected short write flushes a
        strict prefix of the frame and then dies, leaving a real torn
        record for recovery to truncate.
        """
        self._guard()
        sequence = self.next_sequence
        frame = encode_record(sequence, op)
        try:
            resilience.fault(resilience.SITE_WAL_APPEND)
            handle = self._ensure_handle()
            cut = resilience.fault_short_write(
                resilience.SITE_WAL_APPEND, frame
            )
            if cut is not None:
                handle.write(cut)
                handle.flush()
                raise InjectedFaultError(
                    f"short write: {len(cut)} of {len(frame)} bytes at "
                    f"{resilience.SITE_WAL_APPEND!r}",
                    site=resilience.SITE_WAL_APPEND,
                )
            handle.write(frame)
            handle.flush()
        except Exception:
            self._poisoned = True
            raise
        self.next_sequence += 1
        self._pending_records += 1
        self._end_offset += len(frame)
        trace.METRICS.count(trace.WAL_RECORD_APPENDED)
        return sequence

    def commit(self) -> None:
        """Make every appended record durable and advance the marker.

        Durability order is the crash-safety argument: the log is
        fsynced *before* the marker atomically replaces — so the marker
        never names bytes that could still be lost, and a crash between
        the two steps merely leaves durable bytes uncommitted (a tail
        recovery truncates).
        """
        self._guard()
        if self._pending_records == 0 and os.path.exists(
            self.layout.wal_commit_path
        ):
            return
        try:
            if self._handle is not None:
                self._handle.flush()
                resilience.fault(resilience.SITE_WAL_FSYNC)
                if self.fsync:
                    os.fsync(self._handle.fileno())
            self.committed_offset = self._end_offset
            self.committed_records += self._pending_records
            self._write_marker()
        except Exception:
            self._poisoned = True
            raise
        self._pending_records = 0
        trace.METRICS.count(trace.WAL_COMMITTED)

    def reset(self) -> None:
        """Empty the log after a checkpoint folded its committed prefix.

        Marker first, then truncate: a crash between the two leaves log
        bytes beyond committed offset 0, which recovery treats as a torn
        tail and quarantines — those records are already folded into the
        checkpoint, so no committed state is lost either way.
        """
        self._guard()
        if self._pending_records:
            raise IngestError(
                f"cannot reset a WAL with {self._pending_records} "
                "uncommitted records; commit first",
                path=self.layout.wal_log_path,
            )
        self.committed_offset = 0
        self.committed_records = 0
        try:
            self._write_marker()
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            with open(self.layout.wal_log_path, "wb"):
                pass
        except Exception:
            self._poisoned = True
            raise
        self._end_offset = 0

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- recovery-side reads ----------------------------------------------
    def truncate_tail(self) -> Optional[str]:
        """Quarantine and drop every byte past the commit point.

        Returns the quarantine path when a tail existed (``None``
        otherwise).  Idempotent: a second call finds nothing to do.  A
        log *shorter* than the committed offset means committed bytes
        vanished — that is corruption, not a tail.
        """
        size = self._log_size()
        if size < self.committed_offset:
            raise WALCorruptionError(
                f"log holds {size} bytes but {self.committed_offset} "
                "are committed; committed bytes are missing",
                path=self.layout.wal_log_path,
                offset=size,
            )
        if size == self.committed_offset:
            return None
        self.close()
        with open(self.layout.wal_log_path, "rb") as handle:
            handle.seek(self.committed_offset)
            tail = handle.read()
        destination = quarantine_path(
            self.layout.quarantine_dir,
            f"wal-tail-{self.committed_offset}.bin",
        )
        with open(destination, "wb") as handle:
            handle.write(tail)
        with open(self.layout.wal_log_path, "r+b") as handle:
            handle.truncate(self.committed_offset)
        self._end_offset = self.committed_offset
        trace.METRICS.count(trace.WAL_TAIL_TRUNCATED)
        return destination

    def committed(self) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """Iterate ``(sequence, op document)`` over the committed prefix.

        Every record passes the replay fault site (a raise models a
        crash mid-replay; ``corrupt`` rots the committed bytes).  Any
        framing or CRC violation inside the prefix quarantines the
        damaged region and raises
        :class:`~repro.errors.WALCorruptionError`.
        """
        if self.committed_offset == 0:
            return
        with open(self.layout.wal_log_path, "rb") as handle:
            data = handle.read(self.committed_offset)
        if len(data) < self.committed_offset:
            raise WALCorruptionError(
                f"log holds {len(data)} bytes but "
                f"{self.committed_offset} are committed",
                path=self.layout.wal_log_path,
                offset=len(data),
            )
        offset = 0
        record = 0
        while offset < len(data):
            resilience.fault(resilience.SITE_WAL_REPLAY)
            try:
                if offset + HEADER_SIZE > len(data):
                    raise WALCorruptionError(
                        "committed prefix ends inside a record header"
                    )
                header = data[offset : offset + HEADER_SIZE]
                __, length, __ = _HEADER.unpack(header)
                end = offset + HEADER_SIZE + length
                if end > len(data):
                    raise WALCorruptionError(
                        "committed prefix ends inside a record payload"
                    )
                frame = resilience.fault_value(
                    resilience.SITE_WAL_REPLAY, data[offset:end]
                )
                sequence, op_document = decode_record(bytes(frame))
            except WALCorruptionError as error:
                destination = self._quarantine_region(data, offset, record)
                trace.METRICS.count(trace.WAL_RECORD_QUARANTINED)
                raise WALCorruptionError(
                    f"committed record {record} at byte {offset} is "
                    f"damaged ({error}); bytes preserved at "
                    f"{destination!r}",
                    path=self.layout.wal_log_path,
                    offset=offset,
                    record=record,
                    quarantined=(destination,),
                ) from error
            trace.METRICS.count(trace.WAL_RECORD_REPLAYED)
            yield sequence, op_document
            offset = end
            record += 1

    def _quarantine_region(
        self, data: bytes, offset: int, record: int
    ) -> str:
        destination = quarantine_path(
            self.layout.quarantine_dir,
            f"wal-record-{record}-at-{offset}.bin",
        )
        with open(destination, "wb") as handle:
            handle.write(data[offset:])
        return destination
