"""Crash-safe streaming ingestion (DESIGN.md §15).

The append-oriented mutation path of the corpus: a write-ahead log with
a strict commit point (:mod:`repro.ingest.wal`), typed operations whose
apply path is shared between live ingest and recovery
(:mod:`repro.ingest.ops`), checkpoints that are snapshots of the
:mod:`repro.store` under ``base/`` carrying the WAL watermark, and
replay of the committed records above that watermark, which
reconstructs exactly the committed prefix (:mod:`repro.ingest.recover`).
The front door is :class:`~repro.ingest.ingester.Ingester` /
:func:`initialise`.
"""

from repro.ingest.ingester import Ingester, initialise
from repro.ingest.layout import IngestLayout
from repro.ingest.ops import (
    AddAnnotations,
    AddVideo,
    AppendSegments,
    IngestOp,
    apply,
    decode_op,
    encode_op,
    validate,
)
from repro.ingest.recover import RecoveredState, recover
from repro.ingest.wal import WriteAheadLog, decode_record, encode_record

__all__ = [
    "AddAnnotations",
    "AddVideo",
    "AppendSegments",
    "IngestLayout",
    "IngestOp",
    "Ingester",
    "RecoveredState",
    "WriteAheadLog",
    "apply",
    "decode_op",
    "decode_record",
    "encode_op",
    "encode_record",
    "initialise",
    "recover",
    "validate",
]
