"""Exception hierarchy shared by the engine substrate and the IVM compiler.

Every error raised by this package derives from :class:`ReproError`, so
applications can catch a single base class.  The sub-classes mirror the
stages of query processing: lexing/parsing, binding (name/type resolution),
catalog lookups, constraint enforcement, execution, and IVM compilation.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ParserError(ReproError):
    """Raised when SQL text cannot be tokenized or parsed.

    Carries the offending position so callers (and the extension
    fall-back-parser machinery) can report or recover from it.
    """

    def __init__(self, message: str, position: int = -1, line: int = -1) -> None:
        super().__init__(message)
        self.position = position
        self.line = line


class BinderError(ReproError):
    """Raised when names or types in a parsed statement cannot be resolved."""


class CatalogError(ReproError):
    """Raised for missing/duplicate tables, views, or indexes."""


class TypeError_(ReproError):
    """Raised when a value cannot be coerced to the required SQL type."""


class ConstraintError(ReproError):
    """Raised on primary-key or not-null violations."""


class ExecutionError(ReproError):
    """Raised when a bound plan fails at runtime (e.g. division by zero)."""


class IVMError(ReproError):
    """Raised when a view definition cannot be incrementally maintained."""


class WALError(ReproError):
    """Raised for corrupt write-ahead-log records (CRC mismatch, bad
    magic, non-monotone LSNs).  Torn tails are *not* errors — a partial
    final record is the expected shape of a crash and is truncated."""


class RecoveryError(ReproError):
    """Raised when replay-on-restart cannot reconstruct a consistent
    engine state (e.g. WAL records with no covering checkpoint)."""


class BackpressureError(ReproError):
    """Raised by the ingest queue when admission control rejects a delta
    batch: the ``shed`` policy raises on overflow, and the ``block``
    policy raises after waiting ``queue_block_timeout`` seconds without
    the drainer relieving the queue.  The base-table mutation that
    produced the batch has already been applied (capture runs in AFTER
    triggers); the watching views are flagged for full recompute so they
    converge despite the dropped capture."""


class FaultInjectedError(ReproError):
    """An artificial failure raised by the deterministic fault-injection
    layer (:mod:`repro.core.faults`).  ``site`` names the injection
    point."""

    def __init__(self, site: str, detail: str = "") -> None:
        message = f"injected fault at {site}"
        if detail:
            message = f"{message} ({detail})"
        super().__init__(message)
        self.site = site


class UnsupportedError(IVMError):
    """Raised for SQL constructs outside the compiler's supported surface."""


class DependencyCycleError(IVMError):
    """Raised at CREATE MATERIALIZED VIEW time when a view definition
    would close a cycle in the view dependency DAG (including the
    degenerate self-reference).  ``cycle`` carries the offending path as
    a tuple of view names, first == last."""

    def __init__(self, message: str, cycle: tuple = ()) -> None:
        super().__init__(message)
        self.cycle = tuple(cycle)
