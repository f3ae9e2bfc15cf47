"""Propagation-pipeline assembly: the paper's post-processing steps 1–4.

    (1) Insertion in ΔV of the tuples resulting from querying ΔT.
    (2) Insertion or update in V of the newly-inserted tuples in ΔV,
        removing the multiplicity column.
    (3) Deletion of the invalid rows in V, e.g. the ones with SUM or COUNT
        equal to 0, or false multiplicity without aggregate.
    (4) Deletion from ΔT and ΔV after applying the changes.

Step 1 comes from the DBSP rewrite (:mod:`repro.core.rewrite`), step 2
from the selected materialization strategy
(:mod:`repro.core.strategies`); this module adds steps 3 and 4,
assembles the labelled statement list, and pairs it with the typed
:class:`NativeStep` pipeline (:mod:`repro.core.batched`) that executes
individual steps on the vectorized Z-set kernels.  Selection is per
step: each native step declares the statement labels it replaces, and
:func:`run_pipeline` interleaves native execution with the remaining
SQL, so one view can run steps 1–2 natively and 3–4 in SQL (or any
other mix).  The SQL statement list is always complete — it is the
stored artifact and the portable row-at-a-time fallback.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Protocol

from repro.sql.dialect import Dialect
from repro.core import duckast as d
from repro.core.batched import build_native_steps
from repro.core.fused import per_step
from repro.core.model import MVModel
from repro.core.rewrite import build_delta_view_insert
from repro.core.strategies import apply_strategy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.connection import Connection

Statement = tuple[str, str]

STEP1_LABEL = "step1: compute delta view from delta tables"


class NativeStep(Protocol):
    """One natively-executed stage of the propagation pipeline.

    Implementations live in :mod:`repro.core.batched` (steps 1–4 over the
    vectorized Z-set kernels) and :mod:`repro.core.fused` (all four as
    one step, for join views).  A step is matched to the compiled SQL by
    label: every statement whose label starts with ``step_prefix`` is
    replaced by one ``run()`` call at the position of the first match
    (recorded in ``replaces`` at plan-assembly time).
    """

    name: str  # "step1" … "step4" or "fused", for status reporting
    step_prefix: str  # label prefix of the SQL statements it subsumes
    replaces: frozenset  # exact labels replaced, set by the plan builder
    # True when the step must scan the base tables (initial state builds);
    # the HTAP pipeline excludes such steps because its bases live on the
    # attached OLTP side.
    requires_base_tables: bool

    def initialize(self, connection: "Connection") -> None:
        """One-time state construction at CREATE MATERIALIZED VIEW time."""

    def run(self, connection: "Connection") -> int:
        """Execute the step; returns a row count for diagnostics."""


@dataclass
class RefreshStats:
    """Per-view refresh counters, collected by :func:`run_pipeline` and
    the extension's refresh loop.

    ``last_*`` fields describe the most recent refresh round; totals
    accumulate across rounds.  ``last_rows_moved`` sums the row counts
    reported by the pipeline stages (native ``run()`` returns, SQL
    rowcounts) — a work measure, not a view-size delta.
    ``last_step_seconds`` holds each stage's wall time under its step
    name; a fused join refresh (:mod:`repro.core.fused`) is one stage
    there, and ``last_phase_seconds`` breaks it down into its
    ``fused.step1`` / ``fused.fold`` / ``fused.merge`` phases.
    """

    refreshes: int = 0
    last_wall_seconds: float = 0.0
    total_wall_seconds: float = 0.0
    last_step_seconds: dict = field(default_factory=dict)
    last_phase_seconds: dict = field(default_factory=dict)
    last_rows_in: int = 0
    last_rows_moved: int = 0
    # Robustness-runtime audit trail: structured events (degradation
    # ladder demote/heal, refresh failures, recompute fallbacks, shed
    # batches) appended by the extension, newest last, capped at
    # ``event_history``; ``degradation_rung`` mirrors the view ladder's
    # current rung; ``queue`` is the ingest queue's counter snapshot
    # (shared by every view of a connection; None when the queue is off).
    events: list = field(default_factory=list)
    event_history: int = 64
    degradation_rung: int = 0
    queue: dict | None = None
    # Cascade (view-over-view) observability: the view's depth in the
    # dependency DAG (0 = reads base tables only) and how many times an
    # upstream demote/recompute/failure invalidated this view and forced
    # it to recompute.
    dag_depth: int = 0
    upstream_invalidations: int = 0

    def begin_round(self) -> None:
        self.last_step_seconds = {}
        self.last_phase_seconds = {}
        self.last_rows_moved = 0

    def add_step(
        self,
        name: str,
        seconds: float,
        rows: int = 0,
        phases: dict | None = None,
    ) -> None:
        """Record one pipeline stage; ``phases`` (a native step's
        ``last_phase_seconds``) land as ``<name>.<phase>`` entries."""
        self.last_step_seconds[name] = (
            self.last_step_seconds.get(name, 0.0) + seconds
        )
        self.last_rows_moved += int(rows)
        for phase, phase_seconds in (phases or {}).items():
            key = f"{name}.{phase}"
            self.last_phase_seconds[key] = (
                self.last_phase_seconds.get(key, 0.0) + phase_seconds
            )

    def finish_round(self, wall_seconds: float, rows_in: int) -> None:
        self.refreshes += 1
        self.last_wall_seconds = wall_seconds
        self.total_wall_seconds += wall_seconds
        self.last_rows_in = int(rows_in)

    def record_event(self, kind: str, **detail) -> dict:
        """Append one structured robustness event (``demote``, ``heal``,
        ``refresh_failure``, ``recompute``, ``capture_failure``, ...) and
        return it.  The log is bounded at ``event_history`` entries."""
        event = {"kind": kind, "refresh_round": self.refreshes}
        event.update(detail)
        self.events.append(event)
        del self.events[: -self.event_history]
        return event

    def events_of(self, kind: str) -> list[dict]:
        """The recorded events of one kind, oldest first."""
        return [event for event in self.events if event["kind"] == kind]

    def snapshot(self) -> dict:
        """A JSON-shaped copy (what the benchmarks emit)."""
        return {
            "refreshes": self.refreshes,
            "last_wall_seconds": self.last_wall_seconds,
            "total_wall_seconds": self.total_wall_seconds,
            "last_step_seconds": dict(self.last_step_seconds),
            "last_phase_seconds": dict(self.last_phase_seconds),
            "last_rows_in": self.last_rows_in,
            "last_rows_moved": self.last_rows_moved,
            "events": [dict(event) for event in self.events],
            "degradation_rung": self.degradation_rung,
            "queue": None if self.queue is None else dict(self.queue),
            "dag_depth": self.dag_depth,
            "upstream_invalidations": self.upstream_invalidations,
        }


@dataclass
class PropagationPlan:
    """An executable propagation plan: the labelled SQL script plus the
    native steps covering whatever subset of it the kernels support.

    Runners (:func:`run_pipeline`) execute each native step in place of
    the SQL statements it replaces; the SQL statement list is always
    complete, so the stored scripts stay portable and the SQL path
    remains available as the row-at-a-time baseline
    (``CompilerFlags.batch_kernels = False``).
    """

    statements: list[Statement]
    native_steps: list[NativeStep] = field(default_factory=list)


def build_propagation_plan(
    model: MVModel, dialect: Dialect, catalog=None
) -> PropagationPlan:
    """The propagation plan: SQL script + per-step native pipeline.

    Native steps are attempted only when the compiler flags ask for batch
    kernels and a catalog is available to resolve column ordinals; any
    step whose shape the kernels don't cover silently keeps its SQL form
    (per-step fallback), and unsupported views keep the pure-SQL plan.
    """
    statements = build_propagation(model, dialect)
    native_steps: list[NativeStep] = []
    if catalog is not None and model.flags.batch_kernels:
        labels = [label for label, _ in statements]
        built = build_native_steps(model, catalog, dialect)
        # A fused step's inner per-step objects get their labels too: the
        # HTAP pipeline runs them unfused.
        for step in built + per_step(built):
            step.replaces = frozenset(
                label for label in labels
                if label.startswith(step.step_prefix)
            )
        native_steps = [step for step in built if step.replaces]
    return PropagationPlan(statements=statements, native_steps=native_steps)


def run_pipeline(
    connection: "Connection",
    statements,
    native_steps: list[NativeStep],
    execute: Callable,
    skip_label: Callable[[str], bool] | None = None,
    stats: RefreshStats | None = None,
) -> None:
    """Run a propagation plan with per-step native/SQL selection.

    Walks the labelled statements in script order; a statement whose
    label a native step claims is replaced by that step's ``run()`` (once,
    at the first claimed label — later labels of the same step are
    consumed silently), everything else goes through ``execute``.  Both
    the extension and the HTAP pipeline refresh through here, so the two
    runners cannot drift on step ordering.

    With ``stats``, each stage's wall time and reported row count are
    recorded under the step name (native) or the label's step prefix
    (SQL), along with a native step's ``last_phase_seconds`` breakdown.
    """
    by_label: dict[str, NativeStep] = {}
    for step in native_steps:
        for label in step.replaces:
            by_label[label] = step
    ran: set[int] = set()
    for label, statement in statements:
        if skip_label is not None and skip_label(label):
            continue
        step = by_label.get(label)
        if step is None:
            started = time.perf_counter()
            result = execute(statement)
            if stats is not None:
                rows = getattr(result, "rowcount", 0) or 0
                stats.add_step(
                    label.split(":", 1)[0],
                    time.perf_counter() - started,
                    rows,
                )
        elif id(step) not in ran:
            ran.add(id(step))
            started = time.perf_counter()
            rows = step.run(connection)
            if stats is not None:
                stats.add_step(
                    step.name,
                    time.perf_counter() - started,
                    rows or 0,
                    getattr(step, "last_phase_seconds", None),
                )


def build_propagation(model: MVModel, dialect: Dialect) -> list[Statement]:
    """The full propagation script, in execution order, labelled by step."""
    statements: list[Statement] = [
        (STEP1_LABEL, build_delta_view_insert(model, dialect)),
    ]
    statements.extend(apply_strategy(model, dialect))
    invalid = _delete_invalid_rows(model, dialect)
    if invalid is not None:
        statements.append(("step3: delete invalid rows from view", invalid))
    for table in model.analysis.tables:
        delta_name = model.source_delta_table(table)
        statements.append(
            (f"step4: clear delta table {delta_name}",
             _clear(delta_name, dialect))
        )
    statements.append(
        ("step4: clear delta view", _clear(model.delta_view_table, dialect))
    )
    return statements


def _delete_invalid_rows(model: MVModel, dialect: Dialect) -> str | None:
    """Step 3 — remove groups that no longer exist.

    With a liveness count (hidden COUNT(*) or a visible COUNT(*) column)
    the test is exact: ``count <= 0``.  Otherwise the paper's form is
    emitted — delete rows whose visible SUMs are all zero (Listing 2:
    ``DELETE FROM query_groups WHERE total_value = 0``), accepting the
    paper's known imprecision for groups whose values genuinely sum to 0.
    """
    quoted = dialect.quote_identifier
    liveness = model.liveness_column()
    if liveness is not None:
        return (
            f"DELETE FROM {quoted(model.mv_table)} "
            f"WHERE {quoted(liveness.name)} <= 0"
        )
    sums = model.paper_sum_columns()
    if not sums:
        return None
    predicate = " AND ".join(f"{quoted(c.name)} = 0" for c in sums)
    return f"DELETE FROM {quoted(model.mv_table)} WHERE {predicate}"


def clear_deltas(model: MVModel, dialect: Dialect) -> list[str]:
    """Step 4 — empty ΔT for every source table, then ΔV."""
    statements = [
        _clear(model.source_delta_table(table), dialect)
        for table in model.analysis.tables
    ]
    statements.append(_clear(model.delta_view_table, dialect))
    return statements


def _clear(table: str, dialect: Dialect) -> str:
    quoted = dialect.quote_identifier
    if dialect.truncate_style == "truncate":
        return f"TRUNCATE {quoted(table)}"
    return f"DELETE FROM {quoted(table)}"
