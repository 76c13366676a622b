"""Exception hierarchy for the ``repro`` package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch one base class.  Sub-systems add
their own subclasses (e.g. the HTL parser raises :class:`HTLSyntaxError`,
the SQL baseline raises :class:`SQLExecutionError`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the ``repro`` library."""


class InvalidIntervalError(ReproError, ValueError):
    """An interval was constructed with ``begin > end`` or a non-positive id."""


class InvalidSimilarityError(ReproError, ValueError):
    """A similarity value violates ``0 <= actual <= maximum``."""


class SimilarityListInvariantError(ReproError, ValueError):
    """A similarity list violates sortedness/disjointness/shared-max invariants."""


class HTLError(ReproError):
    """Base class for errors concerning the HTL language."""


class HTLSyntaxError(HTLError, ValueError):
    """The HTL query text could not be parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (at line {line}, column {column})"
        super().__init__(message)


class HTLTypeError(HTLError, TypeError):
    """A formula is structurally ill-typed (e.g. unbound variable use)."""


class UnsupportedFormulaError(HTLError):
    """The formula falls outside the class the chosen algorithm supports.

    The paper's retrieval methods cover the *extended conjunctive* subclass
    of HTL; formulas outside it (negated temporal subformulas, temporal
    operators under non-prefix existential quantifiers, ...) are rejected
    with this error rather than silently mis-evaluated.
    """


class ModelError(ReproError):
    """Base class for errors in the hierarchical video model."""


class HierarchyError(ModelError, ValueError):
    """The video hierarchy is malformed (uneven leaf depth, empty levels...)."""


class UnknownLevelError(ModelError, KeyError):
    """A level name or number does not exist in the video hierarchy."""


class MetadataError(ModelError, ValueError):
    """Segment metadata is malformed (bad confidence, duplicate object...)."""


class SQLError(ReproError):
    """Base class for failures of the SQL baseline (:mod:`repro.sqlbaseline`)."""


class SQLExecutionError(SQLError, RuntimeError):
    """SQLite rejected or failed a statement of a translated script.

    ``statement`` is the failing SQL text; the original
    :class:`sqlite3.Error` is the ``__cause__``.
    """

    def __init__(self, message: str, statement: str = ""):
        self.statement = statement
        if statement:
            message = f"{message} (in statement: {statement})"
        super().__init__(message)


class WorkloadError(ReproError, ValueError):
    """A workload generator was given inconsistent parameters."""


class SignatureError(ReproError, ValueError):
    """A content-signature operation failed (:mod:`repro.pictures.signature`).

    Raised for unresolved ``looks_like`` clip references at evaluation
    time, for clips/segments whose signature vectors are degenerate or
    dimensionally incompatible, and for query-by-example requests naming
    segments with no attached signature.
    """


class ResilienceError(ReproError):
    """Base class for the fault-tolerance layer (:mod:`repro.core.resilience`)."""


class BudgetExceededError(ResilienceError, TimeoutError):
    """A query overran its :class:`~repro.core.resilience.QueryBudget`.

    ``site`` names the cooperative checkpoint that noticed the overrun
    (one of the stage names in :mod:`repro.core.trace`, or a caller
    supplied label), ``steps`` is the cooperative step count consumed so
    far, and ``elapsed_ms`` the wall-clock milliseconds since the budget
    started (0 when the budget has no deadline).
    """

    def __init__(
        self,
        message: str,
        site: str = "",
        steps: int = 0,
        elapsed_ms: float = 0.0,
    ):
        self.site = site
        self.steps = steps
        self.elapsed_ms = elapsed_ms
        if site:
            message = f"{message} (at {site!r})"
        super().__init__(message)


class InjectedFaultError(ResilienceError):
    """A deterministic fault raised by :mod:`repro.testing.faults`.

    ``site`` names the registered fault site that fired; ``sequence`` is
    the 1-based index of this fault within its injector's run, so chaos
    tests can assert exactly which trigger produced an observed failure.
    """

    def __init__(self, message: str, site: str = "", sequence: int = 0):
        self.site = site
        self.sequence = sequence
        super().__init__(message)


class ServeError(ReproError):
    """Base class for the concurrent retrieval service (:mod:`repro.serve`)."""


class ServeRejected(ServeError):
    """A request was refused admission, or shed after admission.

    Raised by :meth:`repro.serve.RetrievalServer.submit` when admission
    control refuses the request outright (queue full, estimated backlog
    past the class deadline, server closing), and by
    :meth:`repro.serve.ServeResult.raise_for_status` for a request that
    was admitted and later shed under pressure.

    ``retry_after_ms`` is the server's hint for when capacity is likely
    to exist again — a well-behaved client backs off at least that long.
    ``reason`` is a stable machine-readable tag (``queue-full``,
    ``backlog``, ``shed``, ``closing``).
    """

    def __init__(
        self,
        message: str,
        retry_after_ms: float = 0.0,
        reason: str = "",
        sla: str = "",
    ):
        self.retry_after_ms = retry_after_ms
        self.reason = reason
        self.sla = sla
        super().__init__(message)


class StoreError(ReproError):
    """Base class for the crash-safe on-disk store (:mod:`repro.store`).

    ``path`` points at the store root (or the specific file) the failure
    concerns, when known.
    """

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(message)


class StoreWriteError(StoreError):
    """A snapshot write failed before the manifest commit point.

    The store on disk is untouched by a failed save: the previous
    manifest still names the previous intact snapshot, and only
    unreferenced partial files (cleaned by ``repair``) remain from the
    aborted one.
    """


class StoreCorruptionError(StoreError):
    """No intact snapshot could be loaded (truncation, bit rot, torn write).

    ``artifact`` names the damaged artifact (``<snapshot-id>/<file>``)
    first detected; ``quarantined`` lists where load moved the damaged
    files — they are preserved, never deleted.
    """

    def __init__(
        self,
        message: str,
        path: str = "",
        artifact: str = "",
        quarantined: tuple = (),
    ):
        self.artifact = artifact
        self.quarantined = tuple(quarantined)
        super().__init__(message, path=path)


class StoreVersionError(StoreError):
    """The on-disk store carries a format version this build cannot read."""


class IngestError(ReproError):
    """Base class for the streaming-ingest layer (:mod:`repro.ingest`).

    Raised for structural problems of an ingest directory (a missing,
    malformed or foreign-format WAL commit marker; a snapshot fallback
    the WAL no longer covers; a damaged format-1 delta chain under
    migration), for operations rejected before they reach the WAL
    (unknown video, a non-flat hierarchy, an annotation past the segment
    range), and as the base of :class:`WALCorruptionError`.  ``path`` points at the
    ingest root (or the specific file) the failure concerns, when known.
    """

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(message)


class WALCorruptionError(IngestError):
    """A committed WAL record failed its CRC or framing check.

    Damage *past* the commit point is a torn tail — recovery quarantines
    and truncates it silently.  Damage *inside* the committed prefix is
    real corruption: the recovered state could no longer equal the
    committed prefix, so recovery quarantines the damaged bytes (never
    deletes) and raises this.  ``offset`` is the byte offset of the
    damaged record in the log; ``record`` its 0-based record number;
    ``quarantined`` where the damaged bytes were preserved.
    """

    def __init__(
        self,
        message: str,
        path: str = "",
        offset: int = 0,
        record: int = 0,
        quarantined: tuple = (),
    ):
        self.offset = offset
        self.record = record
        self.quarantined = tuple(quarantined)
        super().__init__(message, path=path)


class ShardError(StoreError):
    """A sharded-corpus operation failed (:mod:`repro.shard`).

    Raised for structural problems of a shard layout — a malformed or
    missing ``SHARDS.json``, overlapping video ownership, an unknown
    shard id — and, in strict mode, for a shard that could not be
    loaded at query time (the original load failure is chained as
    ``__cause__``).  ``shard`` names the offending shard when known.
    """

    def __init__(self, message: str, path: str = "", shard: str = ""):
        self.shard = shard
        super().__init__(message, path=path)
