"""View-definition analysis and classification.

The compiler front half: bind the view query with the engine's planner
(the paper: "first, it generates the logical plan for Q using the DuckDB
planner"), then classify it into one of the maintainable shapes and pull
out the pieces the rewrite needs — base tables, filter, join condition,
group keys, aggregates, projected expressions, and the output schema.

Supported surface (and what the paper supports):

* PROJECTION — single-table SELECT of scalar expressions with optional
  WHERE (paper: "projections, filters").
* AGGREGATION — single-table GROUP BY with SUM/COUNT (paper) and
  MIN/MAX/AVG (the paper's announced extensions).
* JOIN / JOIN_AGGREGATION — two-table INNER equi-join versions of the
  above (the paper's in-progress JOIN support).

Anything else raises :class:`~repro.errors.UnsupportedError` with a
message saying why, so callers can fall back to full recomputation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.datatypes.types import DataType
from repro.errors import UnsupportedError
from repro.planner.binder import Binder
from repro.planner.expressions import AggregateCall, BoundColumn, BoundExpression
from repro.planner.logical import (
    LogicalAggregate,
    LogicalFilter,
    LogicalGet,
    LogicalJoin,
    LogicalOperator,
    LogicalProject,
)
from repro.sql import ast

if TYPE_CHECKING:
    from repro.catalog.catalog import Catalog


class ViewClass(enum.Enum):
    PROJECTION = "projection"
    AGGREGATION = "aggregation"
    JOIN = "join"
    JOIN_AGGREGATION = "join_aggregation"

    @property
    def has_aggregates(self) -> bool:
        return self in (ViewClass.AGGREGATION, ViewClass.JOIN_AGGREGATION)

    @property
    def has_join(self) -> bool:
        return self in (ViewClass.JOIN, ViewClass.JOIN_AGGREGATION)


@dataclass
class SourceTable:
    """One source feeding the view: a base table, or another
    materialized view, in which case ``is_view`` is set and deltas arrive through the
    upstream view's cascade feed instead of a base ΔT."""

    name: str
    alias: str
    is_view: bool = False


@dataclass
class KeyColumn:
    """A view output column that is a group key (or, for projection views,
    any projected column — projection rows are keyed by all columns)."""

    name: str
    type: DataType
    expr: ast.Expression  # source-level expression (references table aliases)


@dataclass
class AggregateColumn:
    """A view output column computed by an aggregate."""

    name: str
    type: DataType
    function: str  # SUM / COUNT / MIN / MAX / AVG
    argument: ast.Expression | None  # None for COUNT(*)


@dataclass
class ViewAnalysis:
    """Everything the rewrite and DDL generation need about one view."""

    view_name: str
    view_class: ViewClass
    query: ast.Select
    plan: LogicalOperator
    tables: list[SourceTable]
    where: ast.Expression | None
    join_condition: ast.Expression | None
    keys: list[KeyColumn]
    aggregates: list[AggregateColumn]
    sql: str = ""
    # Base tables read only by uncorrelated IN-subqueries in WHERE.  DML
    # against them never produces ΔT rows for this view, so the
    # extension watches them separately to invalidate the pinned
    # subquery snapshot.
    subquery_tables: list[str] = field(default_factory=list)

    @property
    def single_table(self) -> bool:
        return len(self.tables) == 1

    def output_names(self) -> list[str]:
        return [k.name for k in self.keys] + [a.name for a in self.aggregates]


def analyze_view(
    view_name: str, query: ast.Select, catalog: "Catalog"
) -> ViewAnalysis:
    """Classify ``query`` and extract the maintainable structure."""
    _reject_unsupported_query_shape(query)
    binder = Binder(catalog)
    plan = binder.bind_select(query)

    tables, where_bound, join_bound, agg_node, project = _destructure(plan)
    source_tables = [SourceTable(t.table, t.alias) for t in tables]
    single = len(source_tables) == 1

    # Expression ASTs are taken from the parse tree (they reference the
    # original table aliases); the bound plan tells us which select item is
    # a key and which an aggregate.
    items = query.items
    if any(isinstance(item.expr, ast.Star) for item in items):
        raise UnsupportedError(
            "SELECT * in a materialized view is not supported; list columns"
        )

    keys: list[KeyColumn] = []
    aggregates: list[AggregateColumn] = []
    names_seen: set[str] = set()

    if agg_node is not None:
        group_count = len(agg_node.groups)
        if not isinstance(project, LogicalProject):
            raise UnsupportedError("unexpected plan shape above aggregation")
        if len(project.expressions) != len(items):
            raise UnsupportedError("unexpected select-list arity")
        matched_groups: set[int] = set()
        for item, bound, out in zip(items, project.expressions, project.output_columns):
            if not isinstance(bound, BoundColumn):
                raise UnsupportedError(
                    "expressions combining aggregates (e.g. SUM(x)+1) are "
                    "not maintainable; materialize the plain aggregate"
                )
            name = _unique_name(out.name, names_seen)
            if bound.index < group_count:
                keys.append(KeyColumn(name=name, type=bound.type, expr=item.expr))
                matched_groups.add(bound.index)
            else:
                call = agg_node.aggregates[bound.index - group_count]
                if call.distinct:
                    raise UnsupportedError(
                        "DISTINCT aggregates are not incrementally maintainable"
                    )
                fn_item = item.expr
                if not isinstance(fn_item, ast.FunctionCall):
                    raise UnsupportedError("unexpected aggregate select item")
                argument = None
                if fn_item.args and not isinstance(fn_item.args[0], ast.Star):
                    argument = fn_item.args[0]
                aggregates.append(
                    AggregateColumn(
                        name=name,
                        type=call.result_type,
                        function=call.function,
                        argument=argument,
                    )
                )
        if len(matched_groups) != group_count:
            raise UnsupportedError(
                "every GROUP BY expression must appear in the select list"
            )
        if not aggregates:
            raise UnsupportedError(
                "GROUP BY without aggregates: materialize SELECT DISTINCT instead"
            )
        view_class = ViewClass.AGGREGATION if single else ViewClass.JOIN_AGGREGATION
    else:
        if not isinstance(project, LogicalProject):
            raise UnsupportedError("unexpected plan shape for projection view")
        for item, bound, out in zip(items, project.expressions, project.output_columns):
            name = _unique_name(out.name, names_seen)
            keys.append(KeyColumn(name=name, type=bound.type, expr=item.expr))
        view_class = ViewClass.PROJECTION if single else ViewClass.JOIN

    join_ast = None
    if not single:
        join_ast = _join_condition_ast(query)
    subquery_tables = _subquery_source_tables(query.where)
    return ViewAnalysis(
        view_name=view_name,
        view_class=view_class,
        query=query,
        plan=plan,
        tables=source_tables,
        where=query.where,
        join_condition=join_ast,
        keys=keys,
        aggregates=aggregates,
        subquery_tables=subquery_tables,
    )


# ---------------------------------------------------------------------------
# Plan destructuring
# ---------------------------------------------------------------------------


def _destructure(plan: LogicalOperator):
    """Peel Project [Filter] [Aggregate] [Filter] (Get | Join(Get, Get))."""
    project = plan
    if not isinstance(project, LogicalProject):
        raise UnsupportedError(
            f"view plan must be a projection at the top, got {type(plan).__name__}"
        )
    node = project.child
    agg_node = None
    if isinstance(node, LogicalFilter) and isinstance(node.child, LogicalAggregate):
        raise UnsupportedError("HAVING clauses are not supported in views")
    if isinstance(node, LogicalAggregate):
        agg_node = node
        node = node.child
    where_bound = None
    if isinstance(node, LogicalFilter):
        where_bound = node.predicate
        node = node.child
    join_bound = None
    if isinstance(node, LogicalJoin):
        if node.join_type != "INNER":
            raise UnsupportedError(
                f"{node.join_type} joins in views are not supported (INNER only)"
            )
        left, right = node.left, node.right
        if not isinstance(left, LogicalGet) or not isinstance(right, LogicalGet):
            raise UnsupportedError(
                "views may join at most two base tables (no nested joins "
                "or subqueries)"
            )
        if left.database or right.database:
            raise UnsupportedError(
                "views over attached (remote) tables must be compiled on "
                "the hosting system"
            )
        join_bound = node.condition
        return [left, right], where_bound, join_bound, agg_node, project
    if isinstance(node, LogicalGet):
        if node.database:
            raise UnsupportedError(
                "views over attached (remote) tables must be compiled on "
                "the hosting system"
            )
        return [node], where_bound, join_bound, agg_node, project
    raise UnsupportedError(
        f"unsupported view source {type(node).__name__}; views read base "
        "tables directly"
    )


def _reject_unsupported_query_shape(query: ast.Select) -> None:
    if query.ctes:
        raise UnsupportedError("CTEs in materialized views are not supported")
    if query.set_ops:
        raise UnsupportedError("set operations in views are not supported")
    if query.order_by or query.limit is not None or query.offset is not None:
        raise UnsupportedError(
            "ORDER BY / LIMIT in a materialized view is not meaningful"
        )
    if query.distinct:
        raise UnsupportedError(
            "SELECT DISTINCT views are not supported; use GROUP BY"
        )
    if query.having is not None:
        raise UnsupportedError("HAVING clauses are not supported in views")
    if query.where is not None:
        # The one supported subquery shape is an uncorrelated
        # ``col [NOT] IN (SELECT ...)`` — parsed as an InList whose sole
        # item is a ScalarSubquery.  The binder binds its SELECT in a
        # fresh scope, so correlation is impossible by construction.
        allowed: set[int] = set()
        for node in ast.walk_expression(query.where):
            if (
                isinstance(node, ast.InList)
                and len(node.items) == 1
                and isinstance(node.items[0], ast.ScalarSubquery)
            ):
                allowed.add(id(node.items[0]))
        for node in ast.walk_expression(query.where):
            if isinstance(node, ast.Exists):
                raise UnsupportedError(
                    "EXISTS subqueries in view WHERE are not supported"
                )
            if isinstance(node, ast.ScalarSubquery) and id(node) not in allowed:
                raise UnsupportedError(
                    "subqueries in view WHERE are only supported as "
                    "[NOT] IN (SELECT ...)"
                )


def _subquery_source_tables(where: ast.Expression | None) -> list[str]:
    """Names of the tables read by IN-subqueries in ``where`` (deduped,
    in first-appearance order)."""
    if where is None:
        return []
    names: list[str] = []
    seen: set[str] = set()

    def collect_from(ref: ast.TableRef | None) -> None:
        if ref is None:
            return
        if isinstance(ref, ast.BaseTableRef):
            if ref.name.lower() not in seen:
                seen.add(ref.name.lower())
                names.append(ref.name)
        elif isinstance(ref, ast.JoinRef):
            collect_from(ref.left)
            collect_from(ref.right)

    for node in ast.walk_expression(where):
        if isinstance(node, ast.ScalarSubquery):
            collect_from(node.query.from_clause)
    return names


def _join_condition_ast(query: ast.Select) -> ast.Expression | None:
    ref = query.from_clause
    if isinstance(ref, ast.JoinRef):
        if ref.using:
            clauses: list[ast.Expression] = []
            left_alias = _ref_alias(ref.left)
            right_alias = _ref_alias(ref.right)
            for name in ref.using:
                clauses.append(
                    ast.BinaryOp(
                        op="=",
                        left=ast.ColumnRef(name=name, table=left_alias),
                        right=ast.ColumnRef(name=name, table=right_alias),
                    )
                )
            merged = clauses[0]
            for clause in clauses[1:]:
                merged = ast.BinaryOp(op="AND", left=merged, right=clause)
            return merged
        return ref.condition
    return None


def _ref_alias(ref: ast.TableRef) -> str | None:
    if isinstance(ref, ast.BaseTableRef):
        return ref.effective_alias
    return None


def _unique_name(name: str, seen: set[str]) -> str:
    candidate = name
    counter = 1
    while candidate.lower() in seen:
        candidate = f"{name}_{counter}"
        counter += 1
    seen.add(candidate.lower())
    return candidate
