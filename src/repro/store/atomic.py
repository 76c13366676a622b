"""Atomic, fsynced, checksummed file writes (DESIGN.md §9).

The one write protocol every durable artifact in the repository goes
through: serialize to bytes, write a sibling temp file, fsync it, then
``os.replace`` onto the final name — so a reader never observes a
half-written file, only the old content or the new.  A crash (or an
injected fault) at any step leaves at worst an orphaned ``*.tmp`` next
to an untouched original.

The two disk fault sites of the write path live here:
:data:`~repro.core.resilience.SITE_STORE_WRITE` fires before the temp
file is written and :data:`~repro.core.resilience.SITE_STORE_FSYNC`
before it is made durable, which is how the crash-recovery suite aims a
failure at every step of a snapshot save.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Tuple, Union

from repro.core import resilience
from repro.errors import ReproError, StoreWriteError

PathLike = Union[str, "os.PathLike[str]"]


def sha256_hex(data: bytes) -> str:
    """Hex SHA-256 digest of a byte string."""
    return hashlib.sha256(data).hexdigest()


def canonical_json_bytes(payload: Any) -> bytes:
    """The canonical serialized form a manifest digest is computed over.

    Sorted keys and a fixed indent make the byte stream a pure function
    of the payload, so digests are reproducible across runs and
    platforms.
    """
    return (json.dumps(payload, indent=1, sort_keys=True) + "\n").encode(
        "utf-8"
    )


def fsync_directory(path: PathLike) -> None:
    """Flush a directory's entry table (best-effort off POSIX)."""
    try:
        descriptor = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:
        return  # platforms without directory descriptors
    try:
        os.fsync(descriptor)
    except OSError:
        pass
    finally:
        os.close(descriptor)


def atomic_write_bytes(
    path: PathLike, data: bytes, fsync: bool = True
) -> Tuple[str, int]:
    """Write ``data`` to ``path`` atomically; return ``(sha256, size)``.

    Protocol: temp file + flush + fsync + rename, then a directory
    fsync so the rename itself is durable.  A failure part-way leaves
    ``path`` untouched (the temp file stays behind as evidence of the
    torn write; ``Store.repair`` sweeps it into quarantine).  OS
    failures surface as the typed
    :class:`~repro.errors.StoreWriteError`; injected faults propagate
    as themselves.
    """
    target = os.fspath(path)
    temp = target + ".tmp"
    try:
        resilience.fault(resilience.SITE_STORE_WRITE)
        with open(temp, "wb") as handle:
            handle.write(data)
            handle.flush()
            if fsync:
                resilience.fault(resilience.SITE_STORE_FSYNC)
                os.fsync(handle.fileno())
        os.replace(temp, target)
        if fsync:
            fsync_directory(os.path.dirname(target) or ".")
    except ReproError:
        raise
    except OSError as error:
        raise StoreWriteError(
            f"atomic write of {target!r} failed: {error}", path=target
        ) from error
    return sha256_hex(data), len(data)


def atomic_write_json(
    path: PathLike, payload: Any, fsync: bool = True
) -> Tuple[str, int]:
    """Serialize ``payload`` canonically and write it atomically."""
    return atomic_write_bytes(path, canonical_json_bytes(payload), fsync=fsync)


def quarantine_path(directory: PathLike, name: str) -> str:
    """A fresh path for ``name`` under ``directory``, created if absent.

    ``name`` itself when free, else ``name.1``, ``name.2``, … — damaged
    bytes moved aside never overwrite earlier evidence.
    """
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    base = os.path.join(directory, name)
    target = base
    suffix = 0
    while os.path.exists(target):
        suffix += 1
        target = f"{base}.{suffix}"
    return target
