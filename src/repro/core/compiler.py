"""The OpenIVM compiler: view definition in, SQL scripts out.

This is the paper's Figure 1: "a SQL-to-SQL compiler wrapped around
DuckDB" — it links the embedded engine as a library for parsing, binding
and planning, and emits plain SQL that any system speaking the target
dialect can run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.errors import IVMError
from repro.sql import ast
from repro.sql.dialect import Dialect, dialect_by_name
from repro.sql.parser import parse_one, parse_script
from repro.sql.render import render_select
from repro.core.analyze import ViewAnalysis, ViewClass, analyze_view
from repro.core.ddl import (
    delta_table_ddl,
    delta_view_table_ddl,
    key_index_ddl,
    matview_table_ddl,
    metadata_ddl,
    metadata_insert,
)
from repro.core.flags import CompilerFlags
from repro.core.model import MVModel, build_model
from repro.core.propagate import build_propagation_plan, clear_deltas
from repro.core import duckast as d
from repro.core.strategies import recompute_item

import copy


@dataclass
class CompiledView:
    """Everything the compiler produces for one materialized view."""

    name: str
    view_class: ViewClass
    model: MVModel
    dialect: Dialect
    view_sql: str
    # CREATE statements: delta tables, mv table, delta-view table,
    # optional key index, metadata table + row.
    ddl: list[str] = field(default_factory=list)
    # Initial load of the materialized table from the base tables.
    populate: str = ""
    # The propagation script — the paper's steps 1–4, labelled.
    propagation: list[tuple[str, str]] = field(default_factory=list)
    # Native vectorized pipeline steps (empty when batch_kernels is off);
    # each covers the SQL statements it replaces, per step, and the SQL
    # in ``propagation`` is always complete regardless.
    native_steps: list = field(default_factory=list)

    @property
    def delta_tables(self) -> dict[str, str]:
        """source table → delta table the view reads it through (the
        shared base ΔT, or the upstream cascade feed for view sources)."""
        return {
            t.name: self.model.source_delta_table(t)
            for t in self.model.analysis.tables
        }

    @property
    def view_sources(self) -> list[str]:
        """Names of sources that are themselves materialized views."""
        return [t.name for t in self.model.analysis.tables if t.is_view]

    @property
    def delta_view_table(self) -> str:
        return self.model.delta_view_table

    def propagation_sql(self) -> list[str]:
        return [sql for _, sql in self.propagation]

    def setup_sql(self) -> list[str]:
        return list(self.ddl) + [self.populate]

    def script(self) -> str:
        """The full compiled output as one annotated SQL script.

        This is what the extension stores on disk: "We store the SQL
        scripts that propagate the contents of the delta tables to the
        materialized view table on the disk to allow future inspection
        and usage."
        """
        lines = [
            f"-- OpenIVM compiled output for materialized view {self.name!r}",
            f"-- class={self.view_class.value} "
            f"strategy={self.model.flags.strategy.value} "
            f"dialect={self.dialect.name}",
            "",
            "-- setup: delta tables, materialized table, metadata",
        ]
        for statement in self.ddl:
            lines.append(statement + ";")
        lines.append("")
        lines.append("-- initial population")
        lines.append(self.populate + ";")
        lines.append("")
        lines.append("-- propagation script (run after base-table changes)")
        for label, statement in self.propagation:
            lines.append(f"-- {label}")
            lines.append(statement + ";")
        return "\n".join(lines)


class OpenIVMCompiler:
    """Compile ``CREATE MATERIALIZED VIEW`` definitions into IVM SQL."""

    def __init__(
        self,
        catalog: Catalog,
        flags: CompilerFlags | None = None,
        known_views: set[str] | None = None,
    ) -> None:
        self.catalog = catalog
        self.flags = flags or CompilerFlags()
        # Lower-cased names of already-materialized views: sources found
        # here compile against the upstream's cascade feed instead of a
        # base ΔT.
        self.known_views = {v.lower() for v in (known_views or set())}

    @classmethod
    def from_schema(
        cls, schema_sql: str, flags: CompilerFlags | None = None
    ) -> "OpenIVMCompiler":
        """Build a compiler from DDL text (paper: "takes in input a
        database schema and view definition")."""
        from repro.engine.connection import Connection

        scratch = Connection()
        scratch.execute(schema_sql)
        return cls(scratch.catalog, flags)

    def compile(self, create_view_sql: str) -> CompiledView:
        """Compile a full ``CREATE MATERIALIZED VIEW name AS SELECT ...``."""
        statement = parse_one(create_view_sql, allow_materialized=True)
        if not isinstance(statement, ast.CreateView):
            raise IVMError("expected a CREATE MATERIALIZED VIEW statement")
        return self.compile_query(statement.name, statement.query)

    def compile_query(self, name: str, query: ast.Select) -> CompiledView:
        dialect = dialect_by_name(self.flags.dialect)
        analysis = analyze_view(name, query, self.catalog)
        analysis.sql = render_select(query, dialect)
        for source in analysis.tables:
            if source.name.lower() in self.known_views:
                source.is_view = True
        model = build_model(analysis, self.flags)

        ddl: list[str] = [metadata_ddl(dialect)]
        for source in analysis.tables:
            ddl.append(
                delta_table_ddl(
                    model,
                    self.catalog.table(source.name),
                    dialect,
                    name=model.source_delta_table(source),
                )
            )
        ddl.append(matview_table_ddl(model, dialect))
        ddl.append(delta_view_table_ddl(model, dialect))
        emit_index = self.flags.emit_key_index
        if emit_index is None:
            emit_index = dialect.emit_key_index
        if emit_index:
            ddl.append(key_index_ddl(model, dialect))
        ddl.append(metadata_insert(model, analysis.sql, dialect))

        populate = self._populate_sql(model, dialect)
        plan = build_propagation_plan(model, dialect, self.catalog)
        return CompiledView(
            name=name,
            view_class=analysis.view_class,
            model=model,
            dialect=dialect,
            view_sql=analysis.sql,
            ddl=ddl,
            populate=populate,
            propagation=plan.statements,
            native_steps=plan.native_steps,
        )

    # -- initial population ------------------------------------------------

    def _populate_sql(self, model: MVModel, dialect: Dialect) -> str:
        """INSERT INTO mv SELECT <full state> FROM base tables.

        Projection/join views group by all visible columns to fill the
        hidden bag count; aggregate views group by their keys and compute
        every visible and hidden aggregate.
        """
        analysis = model.analysis
        items = [recompute_item(column) for column in model.columns]
        group_by = [copy.deepcopy(k.expr) for k in model.key_columns()]
        select = d.select(
            items=items,
            from_clause=copy.deepcopy(analysis.query.from_clause),
            where=copy.deepcopy(analysis.where),
            group_by=group_by,
        )
        quoted = dialect.quote_identifier
        return f"INSERT INTO {quoted(model.mv_table)} {d.emit(select, dialect)}"
