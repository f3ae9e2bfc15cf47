"""Materialization strategies: how ΔV is folded into V (step 2).

Paper §2: "one can think of various relational strategies or custom
operators to incorporate changes in a materialized aggregation: replacing
the materialized table with a UNION and regrouping, or through a
full-outer-join, or maintaining it with a left-join with an UPSERT ...
choosing one is controlled manually using compiler switches."

All three are implemented here over the unified :class:`MVModel` (additive
columns combine by signed summation; MIN/MAX insert paths use LEAST/
GREATEST with a rescan for deletions; AVG is derived from its hidden
sum/count companions).

Note on Listing 2: the paper's generated upsert selects the *view-side*
group key (``query_groups.group_index``), which is NULL for groups that
did not previously exist.  We emit the delta-side key instead (never NULL
for a delta group) — the one functional correction relative to the
listing, recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import copy

from repro.datatypes.types import DOUBLE
from repro.errors import IVMError
from repro.sql import ast
from repro.sql.dialect import Dialect
from repro.core import duckast as d
from repro.core.flags import MaterializationStrategy
from repro.core.model import ColumnRole, MVColumn, MVModel

_TOUCHED_ALIAS = "_duckdb_ivm_touched"

# Step-2 statement labels.  The propagation pipeline matches native steps
# to SQL statements by label prefix, so these are the contract between
# this module's emission and the native kernels in repro.core.batched
# (note "step2:" is deliberately not a prefix of "step2b:").
STEP2_UPSERT_LABEL = "step2: upsert delta into view"
STEP2B_RESCAN_LABEL = "step2b: rescan MIN/MAX groups touched by deletions"

def delta_column_plan(model: MVModel) -> list[tuple[MVColumn, str]]:
    """How each delta-view column participates in ΔV folding.

    Returns ``(column, kind)`` pairs with kind ∈ {"key", "additive",
    "min", "max"}.  This single spec is consumed twice: by the SQL signed
    collapse below (``_signed_cte_select``) and by the vectorized delta
    kernels (:mod:`repro.core.batched`), which keeps the two propagation
    paths folding deltas with identical column semantics.
    """
    plan: list[tuple[MVColumn, str]] = []
    for column in model.delta_columns():
        if column.role is ColumnRole.KEY:
            plan.append((column, "key"))
        elif column.role.is_additive:
            plan.append((column, "additive"))
        elif column.role is ColumnRole.MIN:
            plan.append((column, "min"))
        elif column.role is ColumnRole.MAX:
            plan.append((column, "max"))
        else:  # pragma: no cover - delta_columns excludes derived AVG
            raise IVMError(f"column role {column.role} has no delta plan")
    return plan


def apply_strategy(model: MVModel, dialect: Dialect) -> list[tuple[str, str]]:
    """Emit the labelled step-2 statements for the model's strategy."""
    strategy = model.flags.strategy
    if strategy is MaterializationStrategy.LEFT_JOIN_UPSERT:
        statements = [(STEP2_UPSERT_LABEL, _upsert(model, dialect))]
        if model.minmax_columns():
            statements.append(
                (STEP2B_RESCAN_LABEL, _minmax_rescan(model, dialect))
            )
        return statements
    if strategy is MaterializationStrategy.UNION_REGROUP:
        return [
            ("step2: regroup view UNION delta", sql)
            for sql in _union_regroup(model, dialect)
        ]
    if strategy is MaterializationStrategy.FULL_OUTER_JOIN:
        return [
            ("step2: full-outer-join rebuild", sql)
            for sql in _full_outer_join(model, dialect)
        ]
    raise IVMError(f"unknown strategy {strategy}")


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


def _signed_cte_select(model: MVModel) -> ast.Select:
    """Collapse the delta-view to one signed row per group.

    ``SELECT k, SUM(CASE WHEN mult = FALSE THEN -c ELSE c END) AS c, ...
    FROM delta_<view> GROUP BY k`` — Listing 2's ``ivm_cte``.
    MIN/MAX columns keep only insert-side values (deletions are handled by
    the rescan statement).
    """
    mult = d.col(model.multiplicity)
    items: list[ast.SelectItem] = []
    for column, kind in delta_column_plan(model):
        name = d.col(column.name)
        if kind == "key":
            items.append(d.item(name, column.name))
        elif kind == "additive":
            items.append(
                d.item(
                    d.agg("SUM", d.signed_by_multiplicity(name, copy.deepcopy(mult))),
                    column.name,
                )
            )
        elif kind == "min":
            items.append(
                d.item(
                    d.agg("MIN", d.only_inserts(name, copy.deepcopy(mult))),
                    column.name,
                )
            )
        elif kind == "max":
            items.append(
                d.item(
                    d.agg("MAX", d.only_inserts(name, copy.deepcopy(mult))),
                    column.name,
                )
            )
    group_by = [d.col(k.name) for k in model.key_columns()]
    return d.select(
        items=items,
        from_clause=d.base_table(model.delta_view_table),
        group_by=group_by,
    )


def _combine_item(
    column: MVColumn, model: MVModel, view_alias: str, delta_alias: str,
    aggregate_wrapped: bool,
) -> ast.SelectItem:
    """Select item combining the stored value with the signed delta value.

    ``aggregate_wrapped`` wraps additive combinations in SUM(...) with a
    trailing GROUP BY, matching the shape of Listing 2 (each delta group
    joins at most one stored row, so the SUM is over a single value).
    """
    def stored(name: str) -> ast.Expression:
        return d.col(name, table=view_alias)

    def delta(name: str) -> ast.Expression:
        return d.col(name, table=delta_alias)

    def additive(name: str) -> ast.Expression:
        combined = d.add(
            d.coalesce(stored(name), d.lit(0)),
            d.coalesce(delta(name), d.lit(0)),
        )
        if aggregate_wrapped:
            return d.agg("SUM", combined)
        return combined

    role = column.role
    if role is ColumnRole.KEY:
        return d.item(delta(column.name), column.name)
    if role.is_additive:
        return d.item(additive(column.name), column.name)
    if role is ColumnRole.MIN:
        combined = d.fn("LEAST", stored(column.name), delta(column.name))
        if aggregate_wrapped:
            combined = d.agg("MIN", combined)
        return d.item(combined, column.name)
    if role is ColumnRole.MAX:
        combined = d.fn("GREATEST", stored(column.name), delta(column.name))
        if aggregate_wrapped:
            combined = d.agg("MAX", combined)
        return d.item(combined, column.name)
    if role is ColumnRole.AVG:
        ratio = ast.BinaryOp(
            op="/",
            left=ast.Cast(operand=additive(column.companion_sum), type_name="DOUBLE"),
            right=d.fn("NULLIF", additive(column.companion_count), d.lit(0)),
        )
        return d.item(ratio, column.name)
    raise AssertionError(f"no combine rule for {role}")


def _key_join_condition(model: MVModel, view_alias: str, delta_alias: str):
    return d.conj(
        d.eq(d.col(k.name, table=view_alias), d.col(k.name, table=delta_alias))
        for k in model.key_columns()
    )


# ---------------------------------------------------------------------------
# LEFT JOIN + UPSERT (Listing 2)
# ---------------------------------------------------------------------------


def _upsert(model: MVModel, dialect: Dialect) -> str:
    mv = model.mv_table
    # Listing 2 aliases the CTE with the delta view's name; keep that shape.
    delta_alias = model.delta_view_table
    cte = ast.CommonTableExpr(name="ivm_cte", query=_signed_cte_select(model))
    items = [
        _combine_item(column, model, mv, delta_alias, aggregate_wrapped=True)
        for column in model.columns
    ]
    join = ast.JoinRef(
        left=ast.BaseTableRef(name="ivm_cte", alias=delta_alias),
        right=ast.BaseTableRef(name=mv),
        join_type="LEFT",
        condition=_key_join_condition(model, mv, delta_alias),
    )
    select = d.select(
        items=items,
        from_clause=join,
        group_by=[d.col(k.name, table=delta_alias) for k in model.key_columns()],
        ctes=[cte],
    )
    return _emit_upsert(model, select, dialect)


def _emit_upsert(model: MVModel, select: ast.Select, dialect: Dialect) -> str:
    quoted = dialect.quote_identifier
    body = d.emit(select, dialect)
    if dialect.upsert_style == "or_replace":
        return f"INSERT OR REPLACE INTO {quoted(model.mv_table)} {body}"
    # PostgreSQL spelling: INSERT ... ON CONFLICT (keys) DO UPDATE.
    keys = ", ".join(quoted(k.name) for k in model.key_columns())
    updates = ", ".join(
        f"{quoted(c.name)} = EXCLUDED.{quoted(c.name)}"
        for c in model.columns
        if c.role is not ColumnRole.KEY
    )
    return (
        f"INSERT INTO {quoted(model.mv_table)} {body} "
        f"ON CONFLICT ({keys}) DO UPDATE SET {updates}"
    )


def _minmax_rescan(model: MVModel, dialect: Dialect) -> str:
    """Recompute every group touched by a deletion from the base tables.

    ``INSERT OR REPLACE INTO mv SELECT <recomputed> FROM <base> JOIN
    (SELECT DISTINCT keys FROM delta_view WHERE mult = FALSE) AS touched
    ON <key exprs> = touched.keys [WHERE p] GROUP BY <key exprs>``

    Runs after the upsert; groups that disappeared entirely produce no
    rows here and are removed by step 3 via the hidden count.
    """
    from repro.core.model import source_namespace

    analysis = model.analysis
    namespace = source_namespace(model)
    touched = d.select(
        items=[d.item(d.col(k.name), k.name) for k in model.key_columns()],
        from_clause=d.base_table(model.delta_view_table),
        where=d.eq(d.col(model.multiplicity), d.lit(False)),
    )
    touched.distinct = True

    def qualified(expr: ast.Expression) -> ast.Expression:
        return d.qualify_columns(expr, namespace)

    base_from = copy.deepcopy(analysis.query.from_clause)
    condition = d.conj(
        d.eq(qualified(k.expr), d.col(k.name, table=_TOUCHED_ALIAS))
        for k in model.key_columns()
    )
    join = ast.JoinRef(
        left=base_from,
        right=ast.SubqueryRef(query=touched, alias=_TOUCHED_ALIAS),
        join_type="INNER",
        condition=condition,
    )
    items = []
    for column in model.columns:
        entry = recompute_item(column)
        entry.expr = qualified(entry.expr)
        items.append(entry)
    select = d.select(
        items=items,
        from_clause=join,
        where=qualified(analysis.where) if analysis.where is not None else None,
        group_by=[qualified(k.expr) for k in model.key_columns()],
    )
    return _emit_upsert(model, select, dialect)


def recompute_item(column: MVColumn) -> ast.SelectItem:
    """Select item recomputing one mv column from the base tables."""
    expr = copy.deepcopy(column.expr) if column.expr is not None else None
    role = column.role
    if role is ColumnRole.KEY:
        return d.item(expr, column.name)
    if role is ColumnRole.SUM or role is ColumnRole.AVG_SUM:
        return d.item(d.agg("SUM", expr), column.name)
    if role is ColumnRole.COUNT or role is ColumnRole.AVG_COUNT:
        return d.item(d.agg("COUNT", expr), column.name)
    if role in (ColumnRole.COUNT_STAR, ColumnRole.HIDDEN_COUNT):
        return d.item(d.agg("COUNT", None), column.name)
    if role is ColumnRole.MIN:
        return d.item(d.agg("MIN", expr), column.name)
    if role is ColumnRole.MAX:
        return d.item(d.agg("MAX", expr), column.name)
    if role is ColumnRole.AVG:
        return d.item(d.agg("AVG", expr), column.name)
    raise AssertionError(f"no recompute rule for {role}")


# ---------------------------------------------------------------------------
# UNION + regroup
# ---------------------------------------------------------------------------


def _union_regroup(model: MVModel, dialect: Dialect) -> list[str]:
    quoted = dialect.quote_identifier
    scratch = f"{model.mv_table}__ivm_new"
    mult = d.col(model.multiplicity)

    stored = d.select(
        items=[d.item(d.col(c.name), c.name) for c in model.delta_columns()],
        from_clause=d.base_table(model.mv_table),
    )
    signed_items = []
    for column in model.delta_columns():
        name = d.col(column.name)
        if column.role.is_additive:
            signed_items.append(
                d.item(d.signed_by_multiplicity(name, copy.deepcopy(mult)), column.name)
            )
        else:
            signed_items.append(d.item(name, column.name))
    signed = d.select(
        items=signed_items, from_clause=d.base_table(model.delta_view_table)
    )
    stored.set_ops = [("UNION ALL", signed)]
    union_ref = ast.SubqueryRef(query=stored, alias="u")

    outer_items = []
    for column in model.columns:
        if column.role is ColumnRole.KEY:
            outer_items.append(d.item(d.col(column.name, table="u"), column.name))
        elif column.role.is_additive:
            outer_items.append(
                d.item(d.agg("SUM", d.col(column.name, table="u")), column.name)
            )
        elif column.role is ColumnRole.AVG:
            ratio = ast.BinaryOp(
                op="/",
                left=ast.Cast(
                    operand=d.agg("SUM", d.col(column.companion_sum, table="u")),
                    type_name="DOUBLE",
                ),
                right=d.fn(
                    "NULLIF",
                    d.agg("SUM", d.col(column.companion_count, table="u")),
                    d.lit(0),
                ),
            )
            outer_items.append(d.item(ratio, column.name))
        else:  # pragma: no cover - build_model rejects MIN/MAX here
            raise IVMError("MIN/MAX views require LEFT_JOIN_UPSERT")
    rebuild = d.select(
        items=outer_items,
        from_clause=union_ref,
        group_by=[d.col(k.name, table="u") for k in model.key_columns()],
    )
    return _rebuild_statements(model, scratch, rebuild, dialect)


# ---------------------------------------------------------------------------
# FULL OUTER JOIN
# ---------------------------------------------------------------------------


def _full_outer_join(model: MVModel, dialect: Dialect) -> list[str]:
    scratch = f"{model.mv_table}__ivm_new"
    mv = model.mv_table
    delta_alias = "d"
    aggregated = _signed_cte_select(model)
    join = ast.JoinRef(
        left=ast.BaseTableRef(name=mv),
        right=ast.SubqueryRef(query=aggregated, alias=delta_alias),
        join_type="FULL",
        condition=_key_join_condition(model, mv, delta_alias),
    )
    items = []
    for column in model.columns:
        if column.role is ColumnRole.KEY:
            items.append(
                d.item(
                    d.coalesce(
                        d.col(column.name, table=mv),
                        d.col(column.name, table=delta_alias),
                    ),
                    column.name,
                )
            )
        else:
            items.append(
                _combine_item(column, model, mv, delta_alias, aggregate_wrapped=False)
            )
    rebuild = d.select(items=items, from_clause=join)
    return _rebuild_statements(model, scratch, rebuild, dialect)


def _rebuild_statements(
    model: MVModel, scratch: str, rebuild: ast.Select, dialect: Dialect
) -> list[str]:
    """CREATE scratch AS <rebuild>; swap its contents into the mv table.

    The mv table itself is kept (its PRIMARY KEY / ART index survives);
    only its contents are replaced, which is what "replacing the
    materialized table" costs in practice.
    """
    quoted = dialect.quote_identifier
    columns = ", ".join(quoted(c.name) for c in model.columns)
    return [
        f"CREATE TABLE {quoted(scratch)} AS {d.emit(rebuild, dialect)}",
        f"DELETE FROM {quoted(model.mv_table)}",
        f"INSERT INTO {quoted(model.mv_table)} SELECT {columns} FROM {quoted(scratch)}",
        f"DROP TABLE {quoted(scratch)}",
    ]
