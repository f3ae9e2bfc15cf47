"""Compiler switches.

The paper (Figure 1): "Users can specify the expected optimization
strategies through flags" and §2: "choosing one is controlled manually
using compiler switches".  These are those switches.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.errors import IVMError

# Backpressure policies accepted by CompilerFlags.queue_policy.
QUEUE_POLICIES = ("block", "shed", "coalesce")


class MaterializationStrategy(enum.Enum):
    """How ΔV is folded into the materialized table V (paper §2).

    The paper enumerates: "replacing the materialized table with a UNION
    and regrouping, or through a full-outer-join, or maintaining it with a
    left-join with an UPSERT".
    """

    LEFT_JOIN_UPSERT = "left_join_upsert"
    UNION_REGROUP = "union_regroup"
    FULL_OUTER_JOIN = "full_outer_join"


class PropagationMode(enum.Enum):
    """When propagation runs (paper §3: eagerly on each change, or lazily
    when the view is queried).  BATCH defers until ``batch_size`` base-table
    changes accumulate — the recency/amortization trade-off from §1."""

    EAGER = "eager"
    LAZY = "lazy"
    BATCH = "batch"


@dataclass
class CompilerFlags:
    """All knobs accepted by :class:`~repro.core.compiler.OpenIVMCompiler`.

    Every field, at a glance (defaults in parentheses; the "knobs"
    section of ``docs/batching.md`` discusses when to turn each one):

    ============================ ======================================
    field                        what it controls
    ============================ ======================================
    ``dialect``                  target SQL dialect of the emitted
                                 scripts (``"duckdb"``)
    ``strategy``                 step-2 materialization strategy
                                 (``LEFT_JOIN_UPSERT``)
    ``mode``                     when propagation runs — eager / lazy /
                                 batch (``LAZY``)
    ``batch_size``               deferred-changes threshold for
                                 ``PropagationMode.BATCH`` (64)
    ``batch_kernels``            the native-vs-SQL switch: run each
                                 step the vectorized kernels cover
                                 natively (join views on the upsert
                                 strategy as one fused refresh step),
                                 the rest on the compiled SQL (True)
    ``ingest_queue``             put the bounded async ingestion queue
                                 in front of the capture path: DML
                                 enqueues delta batches, the refresher
                                 drains on batch-size / deadline /
                                 watermark triggers (False)
    ``queue_capacity``           queue bound, in delta rows (4096)
    ``queue_policy``             overflow behaviour — ``block`` (writer
                                 waits / drains inline), ``shed``
                                 (reject with BackpressureError +
                                 recompute self-heal), ``coalesce``
                                 (cancel opposite-sign rows in place)
                                 (``block``)
    ``queue_high_watermark``     queue fill fraction that requests a
                                 drain before capacity is hit (0.8)
    ``queue_low_watermark``      fill fraction blocked writers wait for
                                 (0.5)
    ``queue_deadline``           seconds the oldest queued batch may
                                 wait before a drain+refresh is forced;
                                 0 disables the deadline trigger (0.0)
    ``queue_block_timeout``      seconds a blocked writer waits for the
                                 drainer before raising
                                 BackpressureError (5.0)
    ``queue_async``              drain on a background refresher thread
                                 instead of piggybacking on the next
                                 statement (False)
    ``degradation_heal_after``   clean refreshes at a demoted rung
                                 before the ladder heals one rung (3)
    ``fault_plan``               deterministic fault-injection schedule
                                 (:class:`~repro.core.faults.FaultPlan`)
                                 consulted at the named sites; None
                                 disables injection (None)
    ``durability``               write captured deltas to a write-ahead
                                 log and allow checkpoints + replay-on-
                                 restart (False; needs a
                                 ``durability_dir`` at load time)
    ``wal_sync``                 fsync the WAL after every append
                                 (False — off in CI and benches)
    ``checkpoint_every``         take a checkpoint automatically every
                                 N refreshes; 0 disables the periodic
                                 trigger (checkpoints still happen at
                                 CREATE MATERIALIZED VIEW and on
                                 demand) (0)
    ``multiplicity_column``      name of the boolean multiplicity
                                 column (the paper's spelling)
    ``hidden_count``             maintain a hidden COUNT(*) liveness
                                 column even when not forced (False)
    ``delta_prefix``             delta-table name prefix (``delta_``)
    ``hidden_prefix``            hidden-column name prefix
                                 (``_duckdb_ivm_``)
    ``emit_key_index``           emit an explicit unique key index in
                                 addition to the PRIMARY KEY (None:
                                 follow the dialect default)
    ============================ ======================================
    """

    # Target SQL dialect for emitted scripts ("duckdb" or "postgres").
    dialect: str = "duckdb"
    # ΔV application strategy for aggregate views.
    strategy: MaterializationStrategy = MaterializationStrategy.LEFT_JOIN_UPSERT
    # Eager / lazy / batched refresh (used by the extension module).
    mode: PropagationMode = PropagationMode.LAZY
    # Batch size for PropagationMode.BATCH.
    batch_size: int = 64
    # The one native-vs-SQL switch.  On, propagation runs on the
    # vectorized Z-set batch kernels (ART-indexed join state for step 1,
    # the per-strategy step-2 fold, the extrema state for step 2b, exact
    # liveness deletes for step 3, in-memory truncation for step 4);
    # join views on LEFT_JOIN_UPSERT run steps 1-4 as one fused refresh
    # step (core/fused.py).  Selection is *per step*: steps whose shape
    # the kernels don't cover fall back to SQL individually.  Off runs
    # the compiled SQL only.  The emitted scripts always contain the
    # portable SQL either way.
    batch_kernels: bool = True
    # Put the bounded ingestion queue (core/runtime.py) in front of the
    # delta-capture path: the AFTER triggers enqueue batches instead of
    # writing WAL + ΔT directly, and the refresher drains on batch-size,
    # deadline, and high-watermark triggers.  Off keeps the synchronous
    # capture path untouched.
    ingest_queue: bool = False
    # Queue bound, counted in delta rows across all queued batches.
    queue_capacity: int = 4096
    # What an enqueue that would exceed the capacity does: "block" makes
    # the writer wait for the drainer (or drain inline when no
    # background refresher runs), "shed" rejects the batch with a typed
    # BackpressureError and flags the watching views for recompute
    # self-heal, "coalesce" cancels opposite-sign rows already queued
    # (insert + delete of the same row annihilate) and only then falls
    # back to blocking.
    queue_policy: str = "block"
    # Fill fraction at which the queue requests a drain (the admission
    # path flags it; the next pump or the background refresher drains).
    queue_high_watermark: float = 0.8
    # Fill fraction a blocked writer waits for before re-admitting.
    queue_low_watermark: float = 0.5
    # Deadline trigger: seconds the oldest queued batch may sit before a
    # drain + refresh is forced on the next pump.  0 disables.
    queue_deadline: float = 0.0
    # How long a blocked writer waits for the drainer before giving up
    # with BackpressureError (prevents deadlock when the drainer died).
    queue_block_timeout: float = 5.0
    # Drain on a dedicated background refresher thread (deadline ticks
    # fire without waiting for the next statement).  Off drains
    # synchronously on the statement path — deterministic, the default.
    queue_async: bool = False
    # Degradation ladder: after this many consecutive clean refreshes at
    # a demoted rung, heal one rung back toward the full plan.
    degradation_heal_after: int = 3
    # Deterministic fault-injection schedule (core/faults.FaultPlan),
    # consulted at wal.append / checkpoint.write / fused.fold /
    # queue.enqueue.  None disables injection.  Runtime-only: never
    # serialized into checkpoints.
    fault_plan: Any = None
    # Durability: log every captured delta batch to an append-only WAL
    # (storage/wal.py) before it reaches ΔT, checkpoint view columns and
    # incremental states (storage/checkpoint.py), and support
    # Connection.recover(path) replay.  Requires a durability directory
    # to be passed to load_ivm; without one the flag is inert.
    durability: bool = False
    # fsync the WAL file after every append.  Off trades the tail of the
    # log on an OS crash for append speed (process crashes lose nothing
    # either way); CI and benchmarks run with it off.
    wal_sync: bool = False
    # Take a checkpoint automatically after every N refresh rounds
    # (0 = never; checkpoints are still written at CREATE MATERIALIZED
    # VIEW time and by IVMExtension.checkpoint()).
    checkpoint_every: int = 0
    # Name of the boolean multiplicity column (paper's spelling).
    multiplicity_column: str = "_duckdb_ivm_multiplicity"
    # Maintain a hidden COUNT(*) column for exact group liveness.  The
    # paper's Listing 2 instead deletes rows whose SUM is 0; that form is
    # kept when this flag is False.  MIN/MAX/AVG and non-aggregate views
    # force it on because they need exact liveness.
    hidden_count: bool = False
    # Prefix for delta tables (paper uses delta_<table>).
    delta_prefix: str = "delta_"
    # Prefix for internal (hidden) columns.
    hidden_prefix: str = "_duckdb_ivm_"
    # Emit an explicit unique index statement on the view keys in addition
    # to the PRIMARY KEY (PostgreSQL upserts want a named unique index).
    emit_key_index: bool | None = None  # None: follow the dialect default

    def __post_init__(self) -> None:
        """Reject nonsensical knob values up front, with the knob named —
        plan construction would otherwise fail (or silently misbehave)
        several layers down."""
        if self.batch_size < 1:
            raise IVMError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.checkpoint_every < 0:
            raise IVMError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.queue_policy not in QUEUE_POLICIES:
            raise IVMError(
                f"queue_policy must be one of {QUEUE_POLICIES}, got "
                f"{self.queue_policy!r}"
            )
        if self.queue_capacity < 1:
            raise IVMError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if not 0.0 < self.queue_low_watermark <= self.queue_high_watermark <= 1.0:
            raise IVMError(
                "queue watermarks must satisfy 0 < low <= high <= 1, got "
                f"low={self.queue_low_watermark} "
                f"high={self.queue_high_watermark}"
            )
        if self.queue_deadline < 0:
            raise IVMError(
                f"queue_deadline must be >= 0, got {self.queue_deadline}"
            )
        if self.queue_block_timeout <= 0:
            raise IVMError(
                "queue_block_timeout must be > 0, got "
                f"{self.queue_block_timeout}"
            )
        if self.degradation_heal_after < 1:
            raise IVMError(
                "degradation_heal_after must be >= 1, got "
                f"{self.degradation_heal_after}"
            )

    def hidden_count_column(self) -> str:
        return f"{self.hidden_prefix}count"

    def delta_table(self, table: str) -> str:
        return f"{self.delta_prefix}{table}"

    def cascade_delta_table(self, view: str) -> str:
        """Feed table an upstream view's stored-row deltas land in.

        Distinct from ``delta_table(view)``, which is the view's *own*
        ΔV staging table; the ``__out`` suffix keeps the two namespaces
        apart.  One feed per upstream view, shared by all dependents —
        mirroring how base tables share one ΔT across watchers."""
        return f"{self.delta_prefix}{view}__out"
