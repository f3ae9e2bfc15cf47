"""The fused refresh: a join view's steps 1–4 folded into one native step.

The per-step pipeline of :mod:`repro.core.batched` stages ΔV through its
table: step 1 writes the per-group partial aggregates, step 2 reads them
back and upserts, step 3 re-tests the touched keys and deletes, and
step 4 truncates.  For join views on the LEFT_JOIN_UPSERT strategy whose
steps are all native, :class:`FusedRefresh` replaces the whole script
with one ``run()`` (its ``step_prefix`` ``"step"`` claims every
statement label, so ``run_pipeline`` needs no extra plumbing) and runs
it in three phases on the calling thread:

1. **step1** — the captured ΔT batches go through the join state
   (:meth:`~repro.zset.incremental.IndexedJoinState.apply`, which probes
   once per distinct join key), the WHERE filter and the computed
   columns, and are aggregated per sign into an in-memory ΔV batch —
   never staged through the ΔV table (the equivalence contract in
   :mod:`repro.core.batched` already lets transient ΔV contents differ).
2. **fold** (steps 2 / 2b / 3) — the liveness counters and extrema
   states integrate step 1's source-level feeds, ΔV is merged with the
   stored rows (reads only), retraction-touched MIN/MAX columns take
   their extremum from the extrema state, and groups whose liveness
   dropped to zero become deletions instead of upserts (the per-step
   pipeline upserts the dead row and deletes it one step later — same
   final view).
3. **merge** — the upserts and deletes are applied in one pass, then
   the ΔV staging table is truncated.

The phase wall times land in ``last_phase_seconds`` and from there in
:class:`~repro.core.propagate.RefreshStats`.  The step composes the
already-built per-step objects: their specs and states drive the fused
execution, and the HTAP pipeline — whose base tables live on the OLTP
side, where the join state cannot be seeded — runs them unfused
(``steps``).  Views outside the supported shape keep the per-step
pipeline (``try_build_fused_refresh`` returns None), exactly like every
other native-step fallback.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.batched import (
    BatchedDeltaStep,
    NativeLivenessStep,
    NativeRescanStep,
    NativeUpsertStep,
)
from repro.core.model import MVModel
from repro.zset.batch import ZSetBatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.connection import Connection


def per_step(native_steps: list) -> list:
    """``native_steps`` with every fused step expanded into the per-step
    pipeline it was composed from."""
    out: list = []
    for step in native_steps:
        out.extend(step.steps if isinstance(step, FusedRefresh) else [step])
    return out


def try_build_fused_refresh(
    model: MVModel, steps: list
) -> "FusedRefresh | None":
    """A :class:`FusedRefresh` composed from the per-step pipeline, or
    None when the view shape is outside the fused surface.

    Requirements: a native join step 1, the upsert step 2 (the only
    strategy whose fold is a per-key merge rather than a table rebuild),
    a non-paper-mode step 3, and — for MIN/MAX views — the native step
    2b (the fold repairs retractions from the extrema state, so the SQL
    rescan must not be needed).
    """
    by_name = {step.name: step for step in steps}
    step1 = by_name.get("step1")
    step2 = by_name.get("step2")
    step2b = by_name.get("step2b")
    step3 = by_name.get("step3")
    if not isinstance(step1, BatchedDeltaStep) or not step1.is_join:
        return None
    if not isinstance(step2, NativeUpsertStep):
        return None
    if (
        not isinstance(step3, NativeLivenessStep)
        or step3.paper_predicate is not None
    ):
        return None
    if model.minmax_columns() and not isinstance(step2b, NativeRescanStep):
        return None
    return FusedRefresh(
        model=model,
        step1=step1,
        step2=step2,
        step3=step3,
        step2b=step2b,
        steps=list(steps),
    )


@dataclass
class FusedRefresh:
    """Steps 1–4 of one join view as a single native step."""

    name = "fused"
    # Claims every "stepN:..." label of the compiled script, replacing
    # the whole SQL program with one run() call.
    step_prefix = "step"
    # Seeds the join/extrema/liveness states from base-table scans.
    requires_base_tables = True

    model: MVModel
    step1: BatchedDeltaStep
    step2: NativeUpsertStep
    step3: NativeLivenessStep
    step2b: NativeRescanStep | None = None
    # The per-step pipeline this step fuses, for runners that cannot
    # run the fused form (the HTAP pipeline).
    steps: list = field(default_factory=list)
    replaces: frozenset = frozenset()
    # Wall seconds of the last round's phases: step1 / fold / merge.
    last_phase_seconds: dict = field(default_factory=dict)

    @property
    def last_rows_in(self) -> int:
        """ΔT rows consumed by the last round."""
        return self.step1.last_rows_in

    def initialize(self, connection: "Connection") -> None:
        self.step1.initialize(connection)
        if self.step2b is not None:
            self.step2b.initialize(connection)
        self.step3.initialize(connection)

    def run(self, connection: "Connection") -> int:
        phases: dict[str, float] = {}
        started = time.perf_counter()
        parts = self.step1.delta_view_parts(connection)
        phases["step1"] = time.perf_counter() - started

        started = time.perf_counter()
        plan = getattr(self.model.flags, "fault_plan", None)
        if plan is not None:
            # Fires after step 1 has integrated the round into the join
            # state: a failure here leaves the states ahead of the view,
            # which only the recompute self-heal can repair.
            plan.check("fused.fold", view=self.model.view_name)
        upserts, dead = self._fold(connection, parts)
        phases["fold"] = time.perf_counter() - started

        started = time.perf_counter()
        written = 0
        if upserts:
            written += connection.upsert_rows(self.step2.mv_table, upserts)
        if dead:
            written += connection.delete_keys(self.step2.mv_table, dead)
        connection.truncate_table(self.model.delta_view_table)
        phases["merge"] = time.perf_counter() - started
        self.last_phase_seconds = phases
        return written

    def _fold(
        self, connection: "Connection", parts: list[ZSetBatch]
    ) -> tuple[list[tuple], list[tuple]]:
        """Fold one round's ΔV into merged view rows (no writes):
        ``(rows to upsert, keys to delete)``.

        Every group key step 1 fed to the liveness counters or the
        extrema state also has a ΔV entry this round, so folding the ΔV
        keys covers every group the feeds touched."""
        s2, s3, s2b = self.step2, self.step3, self.step2b
        dead_from_counters: set = set()
        if s3.counters is not None:
            dead_from_counters = set(s3.apply_pending())
        touched: set = set()
        if s2b is not None:
            touched = set(s2b.integrate_pending())
        if not parts:
            return [], []
        delta_view = parts[0]
        for part in parts[1:]:
            delta_view = delta_view + part
        keys, merged = s2.merge(connection, delta_view)
        liveness_ordinal = s3.liveness_ordinal
        rows: list[tuple] = []
        dead: list[tuple] = []
        for key, row in zip(keys, merged):
            if liveness_ordinal is not None:
                count = row[liveness_ordinal]
                if count is not None and count <= 0:
                    dead.append(key)
                    continue
            elif key in dead_from_counters:
                dead.append(key)
                continue
            if key in touched:
                row = s2b.repaired(key, row) or row
            rows.append(row)
        return rows, dead
