"""The cross-system orchestrator (paper Figure 3).

Wiring: the OLTP system (PostgreSQL stand-in) holds the base tables and
captures changes into its delta tables via triggers.  The OLAP system
(DuckDB stand-in) attaches the OLTP catalog — "the data stored on
PostgreSQL is accessed via the DuckDB integration with PostgreSQL" — and
hosts the materialized view.  A refresh:

1. drains each OLTP delta table into the OLAP-local mirror ΔT,
2. runs the compiled propagation script on the OLAP side, with base-table
   scans re-pointed at the attached OLTP catalog (the bases have already
   been updated by the transactional workload),
3. clears the local mirrors (step 4 of the script).

The same compiled output drives both the single-system extension and this
pipeline — that is the paper's portability claim in action.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.compiler import CompiledView, OpenIVMCompiler
from repro.core.flags import CompilerFlags
from repro.core.fused import per_step
from repro.core.propagate import NativeStep, run_pipeline
from repro.engine.connection import Connection
from repro.engine.result import Result
from repro.errors import IVMError
from repro.htap.oltp import OLTPSystem
from repro.sql import ast
from repro.sql.parser import parse_one

OLTP_ALIAS = "oltp"


@dataclass
class _PipelineView:
    compiled: CompiledView
    # Propagation statements as ASTs with base tables re-pointed at the
    # attached OLTP catalog; executed directly on the OLAP connection.
    propagation: list[tuple[str, ast.Statement]] = field(default_factory=list)
    # Native pipeline steps that run OLAP-locally (everything except the
    # steps needing base-table scans, which live on the OLTP side).
    native_steps: list[NativeStep] = field(default_factory=list)


class CrossSystemPipeline:
    """HTAP pipeline: OLTP deltas → compiled SQL → OLAP materialized view."""

    def __init__(
        self,
        oltp: OLTPSystem | None = None,
        olap: Connection | None = None,
        flags: CompilerFlags | None = None,
    ) -> None:
        self.oltp = oltp or OLTPSystem()
        self.olap = olap or Connection(dialect="duckdb")
        self.flags = flags or CompilerFlags()
        self.olap.attach(OLTP_ALIAS, self.oltp.connection)
        self._views: dict[str, _PipelineView] = {}

    # -- setup ---------------------------------------------------------------

    def create_materialized_view(self, create_view_sql: str) -> CompiledView:
        """Compile against the OLTP schema; host the view on the OLAP side."""
        compiler = OpenIVMCompiler(self.oltp.connection.catalog, self.flags)
        compiled = compiler.compile(create_view_sql)
        if compiled.name.lower() in self._views:
            raise IVMError(f"materialized view {compiled.name!r} already exists")

        # OLTP side: delta capture (the user-configured triggers).
        for base_table in compiled.delta_tables:
            self.oltp.install_capture(base_table)

        # OLAP side: mirror delta tables, the mv table, delta-view table,
        # metadata — the compiled DDL runs verbatim.
        for sql in compiled.ddl:
            self.olap.execute(sql)

        # Initial population scans the base tables through the attachment.
        populate = parse_one(compiled.populate)
        assert isinstance(populate, ast.Insert) and populate.query is not None
        populate.query = self._repoint(populate.query, compiled)
        self.olap.execute_statement(populate)

        view = _PipelineView(compiled=compiled)
        for label, sql in compiled.propagation:
            statement = parse_one(sql)
            self._repoint_statement(statement, compiled)
            view.propagation.append((label, statement))
        # Native steps run against OLAP-local tables only (ΔT mirrors, ΔV,
        # the mv table); steps that must scan the base tables — the join
        # state build, the liveness-counter seeding — stay on the SQL path
        # because the bases live behind the OLTP attachment.  A fused
        # join refresh seeds its states from the bases as a whole, so it
        # runs here as the per-step pipeline it was composed from.
        for step in per_step(compiled.native_steps):
            if step.requires_base_tables:
                continue
            step.initialize(self.olap)
            view.native_steps.append(step)
        for step in view.native_steps:
            # A kept step 1 must not feed deltas to a step that was
            # dropped (nothing would ever consume them): the exact
            # liveness counters and the MIN/MAX extrema state both ride
            # on step 1's source-level view of the batch.
            for attr in ("liveness_step", "extrema_step"):
                linked = getattr(step, attr, None)
                if linked is not None and linked not in view.native_steps:
                    setattr(step, attr, None)
        self._views[compiled.name.lower()] = view
        return compiled

    # -- refresh -----------------------------------------------------------------

    def refresh(self, name: str) -> int:
        """Propagate pending OLTP changes into the view; returns the number
        of delta rows transferred."""
        view = self._view(name)
        transferred = 0
        for base_table, delta_table in view.compiled.delta_tables.items():
            rows = self.oltp.drain_delta(base_table)
            transferred += len(rows)
            self.olap.table(delta_table).insert_batch(rows, coerce=False)
        run_pipeline(
            self.olap,
            view.propagation,
            view.native_steps,
            execute=self.olap.execute_statement,
        )
        return transferred

    def pending_changes(self, name: str) -> int:
        view = self._view(name)
        return sum(
            self.oltp.pending_delta_count(base)
            for base in view.compiled.delta_tables
        )

    # -- queries -------------------------------------------------------------------

    def query(self, sql: str, parameters: Sequence[Any] = (),
              refresh: bool = True) -> Result:
        """Run an analytical query on the OLAP side.

        With ``refresh=True`` (the demo's lazy behaviour), every registered
        view with pending OLTP changes is refreshed first.
        """
        if refresh:
            for name, view in self._views.items():
                if self.pending_changes(name):
                    self.refresh(name)
        return self.olap.execute(sql, parameters)

    def views(self) -> list[str]:
        return sorted(self._views)

    def compiled(self, name: str) -> CompiledView:
        return self._view(name).compiled

    # -- internals ---------------------------------------------------------------

    def _view(self, name: str) -> _PipelineView:
        try:
            return self._views[name.lower()]
        except KeyError:
            raise IVMError(f"materialized view {name!r} does not exist") from None

    def _repoint_statement(self, statement: ast.Statement, compiled: CompiledView) -> None:
        """Re-point base-table scans inside a propagation statement."""
        if isinstance(statement, ast.Insert) and statement.query is not None:
            statement.query = self._repoint(statement.query, compiled)
        elif isinstance(statement, ast.CreateTable) and statement.as_query is not None:
            statement.as_query = self._repoint(statement.as_query, compiled)
        # DELETE statements touch only local tables; nothing to re-point.

    def _repoint(self, select: ast.Select, compiled: CompiledView) -> ast.Select:
        """Qualify references to OLTP base tables with the attach alias."""
        base_names = {name.lower() for name in compiled.delta_tables}
        select = copy.deepcopy(select)

        def visit_select(node: ast.Select) -> None:
            for cte in node.ctes:
                visit_select(cte.query)
            if node.from_clause is not None:
                node.from_clause = visit_ref(node.from_clause)
            for _, right in node.set_ops:
                visit_select(right)

        def visit_ref(ref: ast.TableRef) -> ast.TableRef:
            if isinstance(ref, ast.BaseTableRef):
                if ref.schema is None and ref.name.lower() in base_names:
                    return ast.BaseTableRef(
                        name=ref.name,
                        alias=ref.alias or ref.name,
                        schema=OLTP_ALIAS,
                    )
                return ref
            if isinstance(ref, ast.SubqueryRef):
                visit_select(ref.query)
                return ref
            if isinstance(ref, ast.JoinRef):
                ref.left = visit_ref(ref.left)
                ref.right = visit_ref(ref.right)
                return ref
            return ref

        visit_select(select)
        return select
