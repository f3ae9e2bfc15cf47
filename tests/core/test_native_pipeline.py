"""Unit tests for the NativeStep propagation pipeline (steps 1–4).

The differential oracle (tests/properties/test_batch_oracle.py) holds the
end states equal; these tests pin the *structure*: which steps go native
for which view shapes, how the pipeline interleaves native and SQL
execution, and the small kernels and engine APIs the steps are built on.
"""

from __future__ import annotations

import pytest

from repro import (
    CompilerFlags,
    Connection,
    MaterializationStrategy,
    PropagationMode,
    load_ivm,
)
from repro.core.compiler import OpenIVMCompiler
from repro.execution.aggregates import derive_avg, merge_additive, merge_minmax
from repro.zset.incremental import GroupExtremaState, GroupLivenessState


def _compile(view_sql: str, schema_sql: str, **flag_overrides):
    flags = CompilerFlags(**flag_overrides)
    compiler = OpenIVMCompiler.from_schema(schema_sql, flags)
    return compiler.compile(view_sql)


GROUPS_SCHEMA = "CREATE TABLE t (g VARCHAR, v INTEGER)"
JOIN_SCHEMA = (
    "CREATE TABLE t (g VARCHAR, v INTEGER); "
    "CREATE TABLE u (g VARCHAR, w INTEGER)"
)


class TestPerStepSelection:
    def test_full_surface_runs_all_four_steps(self):
        compiled = _compile(
            "CREATE MATERIALIZED VIEW q AS "
            "SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g",
            GROUPS_SCHEMA,
        )
        assert sorted(s.name for s in compiled.native_steps) == [
            "step1", "step2", "step3", "step4",
        ]
        # Every native step claims at least one SQL label, and the SQL
        # script remains complete (the stored artifact).
        labels = [label for label, _ in compiled.propagation]
        for step in compiled.native_steps:
            assert step.replaces
            assert step.replaces <= set(labels)

    def test_where_clause_runs_step1_natively(self):
        """WHERE views compile the bound predicate through batch_filter,
        so the full pipeline goes native (selection is linear)."""
        compiled = _compile(
            "CREATE MATERIALIZED VIEW q AS "
            "SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t WHERE v > 0 "
            "GROUP BY g",
            GROUPS_SCHEMA,
        )
        assert sorted(s.name for s in compiled.native_steps) == [
            "step1", "step2", "step3", "step4",
        ]
        steps = {s.name: s for s in compiled.native_steps}
        assert steps["step1"].where_eval is not None

    def test_computed_aggregate_argument_runs_native_via_batch_eval(self):
        """Computed aggregate arguments compile through the vectorized
        expression evaluator into an appended source column, so the full
        pipeline stays native."""
        compiled = _compile(
            "CREATE MATERIALIZED VIEW q AS "
            "SELECT g, SUM(v + 1) AS s, COUNT(*) AS n FROM t GROUP BY g",
            GROUPS_SCHEMA,
        )
        assert sorted(s.name for s in compiled.native_steps) == [
            "step1", "step2", "step3", "step4",
        ]
        step1 = next(s for s in compiled.native_steps if s.name == "step1")
        assert len(step1.computed) == 1

    def test_computed_key_runs_native_via_batch_eval(self):
        compiled = _compile(
            "CREATE MATERIALIZED VIEW q AS "
            "SELECT UPPER(g) AS gg, SUM(v) AS s, COUNT(*) AS n "
            "FROM t GROUP BY UPPER(g)",
            GROUPS_SCHEMA,
        )
        assert sorted(s.name for s in compiled.native_steps) == [
            "step1", "step2", "step3", "step4",
        ]

    def test_union_regroup_strategy_runs_all_four_steps(self):
        """The UNION-regroup strategy's step 2 now has a native form (the
        signed union + regroup kernel), so the whole pipeline is native."""
        compiled = _compile(
            "CREATE MATERIALIZED VIEW q AS "
            "SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g",
            GROUPS_SCHEMA,
            strategy=MaterializationStrategy.UNION_REGROUP,
        )
        assert sorted(s.name for s in compiled.native_steps) == [
            "step1", "step2", "step3", "step4",
        ]
        from repro.core.batched import NativeRegroupStep

        step2 = next(s for s in compiled.native_steps if s.name == "step2")
        assert isinstance(step2, NativeRegroupStep)

    def test_full_outer_join_strategy_runs_all_four_steps(self):
        compiled = _compile(
            "CREATE MATERIALIZED VIEW q AS "
            "SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g",
            GROUPS_SCHEMA,
            strategy=MaterializationStrategy.FULL_OUTER_JOIN,
        )
        assert sorted(s.name for s in compiled.native_steps) == [
            "step1", "step2", "step3", "step4",
        ]
        from repro.core.batched import NativeOuterMergeStep

        step2 = next(s for s in compiled.native_steps if s.name == "step2")
        assert isinstance(step2, NativeOuterMergeStep)

    def test_minmax_view_runs_native_rescan_step(self):
        compiled = _compile(
            "CREATE MATERIALIZED VIEW q AS "
            "SELECT g, MIN(v) AS lo, MAX(v) AS hi FROM t GROUP BY g",
            GROUPS_SCHEMA,
        )
        steps = {s.name: s for s in compiled.native_steps}
        assert set(steps) == {"step1", "step2", "step2b", "step3", "step4"}
        assert steps["step1"].extrema_step is steps["step2b"]
        assert steps["step2b"].requires_base_tables  # state seeds from bases
        assert [c.want_max for c in steps["step2b"].columns] == [False, True]
        # MIN(v) and MAX(v) share one multiset (same source argument).
        assert len(steps["step2b"].sources) == 1

    def test_minmax_computed_key_runs_native_rescan(self):
        """With the vectorized expression evaluator, a computed key no
        longer forces the SQL step 1 — so the extrema state has its
        feeder and step 2b goes native too."""
        compiled = _compile(
            "CREATE MATERIALIZED VIEW q AS "
            "SELECT UPPER(g) AS gg, MIN(v) AS lo FROM t GROUP BY UPPER(g)",
            GROUPS_SCHEMA,
        )
        assert "step2b" in {s.name for s in compiled.native_steps}

    def test_minmax_without_native_step1_keeps_step2b_on_sql(self):
        # Non-equi join -> no native step 1 -> nothing feeds the extrema
        # state -> the SQL rescan stays (steps 2-4 stay native).
        compiled = _compile(
            "CREATE MATERIALIZED VIEW q AS "
            "SELECT t.g, MIN(t.v) AS lo FROM t JOIN u ON t.g < u.g "
            "GROUP BY t.g",
            JOIN_SCHEMA,
        )
        assert sorted(s.name for s in compiled.native_steps) == [
            "step2", "step3", "step4",
        ]

    def test_sum_only_view_uses_counter_liveness_via_step1(self):
        compiled = _compile(
            "CREATE MATERIALIZED VIEW q AS "
            "SELECT g, SUM(v) AS s FROM t GROUP BY g",
            GROUPS_SCHEMA,
        )
        steps = {s.name: s for s in compiled.native_steps}
        assert set(steps) == {"step1", "step2", "step3", "step4"}
        assert steps["step3"].counters is not None
        assert steps["step3"].requires_base_tables
        assert steps["step1"].liveness_step is steps["step3"]

    def test_sum_only_expression_keys_run_native_counter_liveness(self):
        """Expression-keyed sum-only views now have a native step 1 (the
        computed key is an appended batch column), which feeds the exact
        liveness counters — so steps 1-4 all run natively."""
        compiled = _compile(
            "CREATE MATERIALIZED VIEW q AS "
            "SELECT UPPER(g) AS gg, SUM(v) AS s FROM t GROUP BY UPPER(g)",
            GROUPS_SCHEMA,
        )
        steps = {s.name: s for s in compiled.native_steps}
        assert set(steps) == {"step1", "step2", "step3", "step4"}
        assert steps["step3"].counters is not None
        assert steps["step1"].liveness_step is steps["step3"]

    def test_sum_only_view_without_native_step1_keeps_step3_on_sql(self):
        # A subquery in a join view's WHERE keeps step 1 on SQL → no
        # source-level counts → the paper's SQL step 3 stays.
        compiled = _compile(
            "CREATE MATERIALIZED VIEW q AS "
            "SELECT t.g, SUM(t.v) AS s FROM t JOIN u ON t.g = u.g "
            "WHERE t.v IN (SELECT w FROM u) GROUP BY t.g",
            JOIN_SCHEMA,
        )
        assert sorted(s.name for s in compiled.native_steps) == [
            "step2", "step4",
        ]

    def test_join_upsert_view_runs_one_fused_step(self):
        """A join view on the upsert strategy runs steps 1-4 as the
        single fused step, composed from the per-step objects."""
        from repro.core.fused import FusedRefresh

        compiled = _compile(
            "CREATE MATERIALIZED VIEW q AS "
            "SELECT t.g, SUM(t.v) AS s, MIN(u.w) AS lo FROM t "
            "JOIN u ON t.g = u.g GROUP BY t.g",
            JOIN_SCHEMA,
        )
        [fused] = compiled.native_steps
        assert isinstance(fused, FusedRefresh)
        assert sorted(s.name for s in fused.steps) == [
            "step1", "step2", "step2b", "step3", "step4",
        ]
        # It claims every label of the compiled script.
        assert fused.replaces == {label for label, _ in compiled.propagation}

    def test_join_view_on_other_strategies_keeps_per_step_pipeline(self):
        compiled = _compile(
            "CREATE MATERIALIZED VIEW q AS "
            "SELECT t.g, SUM(t.v) AS s, COUNT(*) AS n FROM t "
            "JOIN u ON t.g = u.g GROUP BY t.g",
            JOIN_SCHEMA,
            strategy=MaterializationStrategy.UNION_REGROUP,
        )
        assert sorted(s.name for s in compiled.native_steps) == [
            "step1", "step2", "step3", "step4",
        ]

    def test_scalar_sum_view_runs_paper_mode_step3(self):
        """Scalar sum-only views run step 3 natively in paper mode: the
        compiled `sum = 0` predicate over the single stored row."""
        compiled = _compile(
            "CREATE MATERIALIZED VIEW q AS SELECT SUM(v) AS s FROM t",
            GROUPS_SCHEMA,
        )
        steps = {s.name: s for s in compiled.native_steps}
        assert set(steps) == {"step1", "step2", "step3", "step4"}
        assert steps["step3"].paper_predicate is not None
        assert steps["step3"].counters is None
        assert steps["step3"].scalar_key == (0,)

    def test_batch_kernels_off_keeps_pure_sql(self):
        compiled = _compile(
            "CREATE MATERIALIZED VIEW q AS "
            "SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g",
            GROUPS_SCHEMA,
            batch_kernels=False,
        )
        assert compiled.native_steps == []


class TestGroupLivenessState:
    def test_exact_cancellation_reports_dead_groups(self):
        state = GroupLivenessState()
        state.load([(("a",), 2), (("b",), 1)])
        assert state.apply([("a",), ("b",)], [-1, -1]) == [("b",)]
        assert state.count(("a",)) == 1
        assert state.count(("b",)) == 0  # removed; re-insert starts fresh
        assert state.apply([("b",)], [3]) == []
        assert state.count(("b",)) == 3

    def test_unknown_key_with_negative_net_is_dead(self):
        state = GroupLivenessState()
        assert state.apply([("ghost",)], [0]) == [("ghost",)]
        assert len(state) == 0


class TestGroupExtremaState:
    def test_retraction_reveals_runner_up(self):
        state = GroupExtremaState()
        state.load([(("a",), 5, 1), (("a",), 9, 2), (("b",), 3, 1)])
        assert state.extremum(("a",), want_max=True) == 9
        state.apply([("a",)], [9], [-1])  # one of two nines retracted
        assert state.extremum(("a",), want_max=True) == 9
        state.apply([("a",)], [9], [-1])
        assert state.extremum(("a",), want_max=True) == 5
        assert state.extremum(("a",), want_max=False) == 5
        assert state.extremum(("b",), want_max=False) == 3

    def test_dead_group_drops_and_reinserts_fresh(self):
        state = GroupExtremaState()
        state.apply([("g",), ("g",)], [1, 2], [1, 1])
        assert len(state) == 1
        state.apply([("g",), ("g",)], [1, 2], [-1, -1])
        assert len(state) == 0
        assert state.extremum(("g",), want_max=True) is None
        state.apply([("g",)], [7], [1])
        assert state.extremum(("g",), want_max=True) == 7

    def test_nulls_never_enter_the_multiset(self):
        state = GroupExtremaState()
        state.apply([("g",), ("g",)], [None, 4], [1, 1])
        assert state.extremum(("g",), want_max=False) == 4
        state.apply([("g",)], [4], [-1])
        assert state.extremum(("g",), want_max=False) is None

    def test_string_and_mixed_sign_values_order_memcomparably(self):
        state = GroupExtremaState()
        state.apply([(1,)] * 3, ["pear", "apple", "zed"], [1, 1, 1])
        assert state.extremum((1,), want_max=False) == "apple"
        assert state.extremum((1,), want_max=True) == "zed"
        state.apply([(2,)] * 3, [-5, 0, 3], [1, 1, 1])
        assert state.extremum((2,), want_max=False) == -5
        assert state.extremum((2,), want_max=True) == 3


class TestMergeKernels:
    def test_merge_additive_coalesces_like_listing2(self):
        assert merge_additive(None, 5) == 5
        assert merge_additive(3, None) == 3
        assert merge_additive(None, None) == 0
        assert merge_additive(2, -2) == 0

    def test_merge_minmax_skips_nulls_like_least_greatest(self):
        assert merge_minmax(None, 4, want_max=False) == 4
        assert merge_minmax(4, None, want_max=True) == 4
        assert merge_minmax(4, 7, want_max=True) == 7
        assert merge_minmax(4, 7, want_max=False) == 4

    def test_derive_avg_matches_nullif_division(self):
        assert derive_avg(10, 4) == 2.5
        assert derive_avg(0, 0) is None
        assert derive_avg(7, None) is None


class TestEngineBatchAPIs:
    def _table(self):
        con = Connection()
        con.execute(
            "CREATE TABLE kv (k VARCHAR, n INTEGER, PRIMARY KEY (k))"
        )
        return con

    def test_upsert_rows_replaces_by_primary_key(self):
        con = self._table()
        assert con.upsert_rows("kv", [("a", 1), ("b", 2)]) == 2
        assert con.upsert_rows("kv", [("a", 10)]) == 1
        assert con.execute("SELECT k, n FROM kv").sorted() == [
            ("a", 10), ("b", 2),
        ]

    def test_delete_keys_ignores_absent_keys(self):
        con = self._table()
        con.upsert_rows("kv", [("a", 1), ("b", 2)])
        assert con.delete_keys("kv", [("a",), ("ghost",)]) == 1
        assert con.execute("SELECT k FROM kv").sorted() == [("b",)]

    def test_truncate_table_returns_count(self):
        con = self._table()
        con.upsert_rows("kv", [("a", 1), ("b", 2)])
        assert con.truncate_table("kv") == 2
        assert con.execute("SELECT COUNT(*) FROM kv").scalar() == 0


def _refresh_with_statement_spy(con, ext, view_name):
    """Refresh ``view_name`` while recording every SQL statement executed
    (the statement-count hook the zero-SQL proofs and
    examples/native_pipeline.py rely on)."""
    executed: list = []
    original = con.execute_statement

    def spy(statement, parameters=()):
        executed.append(statement)
        return original(statement, parameters)

    con.execute_statement = spy
    try:
        ext.refresh(view_name)
    finally:
        con.execute_statement = original
    return executed


class TestPipelineExecution:
    def test_refresh_skips_replaced_sql_statements(self):
        """With the full-native pipeline, a refresh must not execute any
        propagation SQL (only the DML/SELECT traffic itself)."""
        con = Connection()
        ext = load_ivm(con, CompilerFlags(mode=PropagationMode.LAZY))
        con.execute(GROUPS_SCHEMA)
        con.execute(
            "CREATE MATERIALIZED VIEW q AS "
            "SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g"
        )
        con.execute("INSERT INTO t VALUES ('a', 1), ('b', 2)")

        executed: list = []
        original = con.execute_statement

        def spy(statement, parameters=()):
            executed.append(statement)
            return original(statement, parameters)

        con.execute_statement = spy
        ext.refresh("q")
        assert executed == [], (
            "full-native refresh must not round-trip through SQL"
        )
        assert con.execute("SELECT g, s, n FROM q").sorted() == [
            ("a", 1, 1), ("b", 2, 1),
        ]

    def test_fused_join_refresh_runs_zero_sql_and_reports_phases(self):
        """A join refresh runs as the one fused step: no propagation SQL,
        the recompute answer (a dying group, a retracted minimum), and
        its step1/fold/merge phase times in refresh_stats(), status()
        and health()."""
        con = Connection()
        ext = load_ivm(con, CompilerFlags(mode=PropagationMode.LAZY))
        con.execute(JOIN_SCHEMA)
        con.execute(
            "CREATE MATERIALIZED VIEW q AS "
            "SELECT t.g, SUM(t.v) AS s, MIN(t.v) AS lo, COUNT(*) AS n "
            "FROM t JOIN u ON t.g = u.g GROUP BY t.g"
        )
        con.execute("INSERT INTO u VALUES ('a', 1), ('b', 2)")
        con.execute("INSERT INTO t VALUES ('a', 1), ('a', 5), ('b', 4)")
        ext.refresh("q")
        con.execute("DELETE FROM t WHERE v = 1 OR g = 'b'")
        con.execute("INSERT INTO t VALUES ('a', 7)")

        executed: list = []
        original = con.execute_statement

        def spy(statement, parameters=()):
            executed.append(statement)
            return original(statement, parameters)

        con.execute_statement = spy
        ext.refresh("q")
        con.execute_statement = original
        assert executed == [], "fused refresh must not round-trip through SQL"
        got = con.execute("SELECT g, s, lo, n FROM q").sorted()
        want = con.execute(
            "SELECT t.g, SUM(t.v), MIN(t.v), COUNT(*) FROM t "
            "JOIN u ON t.g = u.g GROUP BY t.g"
        ).sorted()
        assert got == want == [("a", 12, 5, 2)]

        stats = ext.refresh_stats("q")
        assert set(stats["last_step_seconds"]) == {"fused"}
        phases = stats["last_phase_seconds"]
        assert set(phases) == {"fused.step1", "fused.fold", "fused.merge"}
        assert all(seconds >= 0 for seconds in phases.values())
        assert sum(phases.values()) <= stats["last_step_seconds"]["fused"]
        assert stats["last_rows_in"] == 3  # the ΔT rows consumed
        [status] = ext.status()
        assert status["native_steps"] == ["fused"]
        assert status["last_phase_seconds"] == phases
        [health] = ext.health()["views"]
        assert health["last_phase_seconds"] == phases
        assert health["last_step_seconds"] == stats["last_step_seconds"]

    def test_minmax_refresh_runs_zero_sql_including_retraction(self):
        """MIN/MAX views historically kept the step-2b rescan on SQL; with
        the native rescan fed by the extrema state, a refresh containing a
        retraction of the current extremum must execute no SQL at all and
        still match the recompute."""
        con = Connection()
        ext = load_ivm(con, CompilerFlags(mode=PropagationMode.LAZY))
        con.execute(GROUPS_SCHEMA)
        con.execute(
            "CREATE MATERIALIZED VIEW q AS "
            "SELECT g, MIN(v) AS lo, MAX(v) AS hi, COUNT(*) AS n "
            "FROM t GROUP BY g"
        )
        con.execute("INSERT INTO t VALUES ('a', 1), ('a', 9), ('b', 4)")
        ext.refresh("q")
        # Retract both extrema of 'a' and kill 'b' in one round.
        con.execute("DELETE FROM t WHERE g = 'a' AND v = 9")
        con.execute("DELETE FROM t WHERE g = 'b'")
        con.execute("INSERT INTO t VALUES ('a', 3)")

        executed: list = []
        original = con.execute_statement

        def spy(statement, parameters=()):
            executed.append(statement)
            return original(statement, parameters)

        con.execute_statement = spy
        ext.refresh("q")
        con.execute_statement = original
        assert executed == [], (
            "MIN/MAX refresh must not round-trip through SQL"
        )
        got = con.execute("SELECT g, lo, hi, n FROM q").sorted()
        want = con.execute(
            "SELECT g, MIN(v), MAX(v), COUNT(*) FROM t GROUP BY g"
        ).sorted()
        assert got == want == [("a", 1, 3, 2)]

    @pytest.mark.parametrize(
        "strategy",
        [
            MaterializationStrategy.UNION_REGROUP,
            MaterializationStrategy.FULL_OUTER_JOIN,
        ],
        ids=lambda s: s.value,
    )
    def test_union_and_foj_strategies_refresh_with_zero_sql(self, strategy):
        """The tentpole acceptance bar: both table-rebuild strategies now
        refresh without a single SQL statement, through their native
        step-2 kernels, and still match the recompute — including a round
        that kills a group (exercising the regroup/outer-merge handoff to
        the native liveness delete)."""
        con = Connection()
        ext = load_ivm(
            con, CompilerFlags(mode=PropagationMode.LAZY, strategy=strategy)
        )
        con.execute(GROUPS_SCHEMA)
        con.execute(
            "CREATE MATERIALIZED VIEW q AS "
            "SELECT g, SUM(v) AS s, COUNT(*) AS n, AVG(v) AS a "
            "FROM t GROUP BY g"
        )
        con.execute("INSERT INTO t VALUES ('a', 1), ('a', 3), ('b', 2)")
        assert _refresh_with_statement_spy(con, ext, "q") == []
        con.execute("DELETE FROM t WHERE g = 'b'")
        con.execute("INSERT INTO t VALUES ('a', -4), ('c', 7)")
        assert _refresh_with_statement_spy(con, ext, "q") == [], (
            f"{strategy.value} refresh must not round-trip through SQL"
        )
        got = con.execute("SELECT g, s, n, a FROM q").sorted()
        want = con.execute(
            "SELECT g, SUM(v), COUNT(*), AVG(v) FROM t GROUP BY g"
        ).sorted()
        assert got == want == [("a", 0, 3, 0.0), ("c", 7, 1, 7.0)]

    def test_expression_keyed_view_refreshes_with_zero_sql(self):
        """Computed keys and computed aggregate arguments evaluate through
        batch_eval; the whole refresh stays off SQL and agrees with the
        recompute (including a group kill via the exact counters)."""
        con = Connection()
        ext = load_ivm(con, CompilerFlags(mode=PropagationMode.LAZY))
        con.execute(GROUPS_SCHEMA)
        con.execute(
            "CREATE MATERIALIZED VIEW q AS "
            "SELECT UPPER(g) AS gg, SUM(v + 1) AS s "
            "FROM t GROUP BY UPPER(g)"
        )
        con.execute("INSERT INTO t VALUES ('a', 1), ('A', 2), ('b', 5)")
        assert _refresh_with_statement_spy(con, ext, "q") == []
        con.execute("DELETE FROM t WHERE g = 'b'")
        con.execute("INSERT INTO t VALUES ('a', -6)")
        assert _refresh_with_statement_spy(con, ext, "q") == [], (
            "expression-keyed refresh must not round-trip through SQL"
        )
        got = con.execute("SELECT gg, s FROM q").sorted()
        want = con.execute(
            "SELECT UPPER(g), SUM(v + 1) FROM t GROUP BY UPPER(g)"
        ).sorted()
        assert got == want == [("A", 0)]

    def test_scalar_sum_paper_mode_matches_sql_step3(self):
        """Paper-mode step 3: the scalar view's single row is deleted
        exactly when the SQL `DELETE ... WHERE s = 0` would delete it —
        zero-sum deletes the row, non-zero keeps it, and the refresh
        stays off SQL either way."""
        engines = []
        for batch_kernels in (False, True):
            con = Connection()
            ext = load_ivm(
                con,
                CompilerFlags(
                    mode=PropagationMode.LAZY, batch_kernels=batch_kernels
                ),
            )
            con.execute(GROUPS_SCHEMA)
            con.execute(
                "CREATE MATERIALIZED VIEW q AS SELECT SUM(v) AS s FROM t"
            )
            engines.append((con, ext))

        def step(sql):
            for con, _ in engines:
                con.execute(sql)

        def check():
            (con_sql, _), (con_native, ext_native) = engines
            assert _refresh_with_statement_spy(
                con_native, ext_native, "q"
            ) == [], "scalar paper-mode refresh must not round-trip through SQL"
            got_sql = con_sql.execute("SELECT s FROM q").sorted()
            got_native = con_native.execute("SELECT s FROM q").sorted()
            assert got_native == got_sql

        step("INSERT INTO t VALUES ('a', 5), ('b', -5)")
        check()  # sum = 0: both paths delete the row (paper semantics)
        step("INSERT INTO t VALUES ('c', 3)")
        check()  # sum = 3: both paths keep the row


class TestCascadeZeroSql:
    """Zero-SQL proofs for cascaded (view-over-view) refresh: the delta
    of an upstream view reaches its dependents through the in-memory
    cascade feed and the native pipeline, never through propagation SQL."""

    def test_three_level_chain_refreshes_with_zero_sql(self):
        con = Connection()
        ext = load_ivm(con, CompilerFlags(mode=PropagationMode.LAZY))
        con.execute(GROUPS_SCHEMA)
        con.execute("INSERT INTO t VALUES ('a', 1), ('a', 3), ('b', 20)")
        con.execute(
            "CREATE MATERIALIZED VIEW v1 AS "
            "SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g"
        )
        con.execute(
            "CREATE MATERIALIZED VIEW v2 AS SELECT g, s FROM v1 WHERE s > 3"
        )
        con.execute(
            "CREATE MATERIALIZED VIEW v3 AS "
            "SELECT SUM(s) AS grand, COUNT(*) AS ng FROM v2"
        )
        # One base change that inserts, kills a group, and flips v2
        # membership — the whole 3-level cascade must stay off SQL.
        con.execute("DELETE FROM t WHERE g = 'b'")
        con.execute("INSERT INTO t VALUES ('a', 4), ('c', 9)")
        assert _refresh_with_statement_spy(con, ext, "v3") == [], (
            "cascaded chain refresh must not round-trip through SQL"
        )
        assert con.execute("SELECT g, s, n FROM v1").sorted() == [
            ("a", 8, 3), ("c", 9, 1),
        ]
        assert con.execute("SELECT g, s FROM v2").sorted() == [
            ("a", 8), ("c", 9),
        ]
        assert con.execute("SELECT grand, ng FROM v3").rows == [(17, 2)]

    def test_diamond_refreshes_with_zero_sql(self):
        con = Connection()
        ext = load_ivm(con, CompilerFlags(mode=PropagationMode.LAZY))
        con.execute(GROUPS_SCHEMA)
        con.execute("INSERT INTO t VALUES ('a', 1), ('a', 3), ('b', 2)")
        con.execute(
            "CREATE MATERIALIZED VIEW arm_sum AS "
            "SELECT g, SUM(v) AS s FROM t GROUP BY g"
        )
        con.execute(
            "CREATE MATERIALIZED VIEW arm_cnt AS "
            "SELECT g, COUNT(*) AS n FROM t GROUP BY g"
        )
        con.execute(
            "CREATE MATERIALIZED VIEW joined AS "
            "SELECT arm_sum.g, SUM(arm_sum.s) AS s, SUM(arm_cnt.n) AS n "
            "FROM arm_sum JOIN arm_cnt ON arm_sum.g = arm_cnt.g "
            "GROUP BY arm_sum.g"
        )
        con.execute("DELETE FROM t WHERE g = 'b'")
        con.execute("INSERT INTO t VALUES ('a', -4), ('c', 7)")
        assert _refresh_with_statement_spy(con, ext, "joined") == [], (
            "diamond refresh must not round-trip through SQL"
        )
        got = con.execute("SELECT g, s, n FROM joined").sorted()
        want = con.execute(
            "SELECT arm_sum.g, SUM(arm_sum.s), SUM(arm_cnt.n) "
            "FROM arm_sum JOIN arm_cnt ON arm_sum.g = arm_cnt.g "
            "GROUP BY arm_sum.g"
        ).sorted()
        assert got == want == [("a", 0, 3), ("c", 7, 1)]

    def test_subquery_where_repair_runs_zero_sql(self):
        """DML on the inner table of an IN-subquery WHERE flips row
        verdicts; the snapshot repair injects the verdict-flip delta
        natively — no SQL, no recompute."""
        con = Connection()
        ext = load_ivm(con, CompilerFlags(mode=PropagationMode.LAZY))
        con.execute(GROUPS_SCHEMA)
        con.execute("CREATE TABLE vip (g VARCHAR)")
        con.execute("INSERT INTO t VALUES ('a', 1), ('b', 2), ('c', 3)")
        con.execute("INSERT INTO vip VALUES ('a')")
        con.execute(
            "CREATE MATERIALIZED VIEW q AS "
            "SELECT g, SUM(v) AS s FROM t "
            "WHERE g IN (SELECT g FROM vip) GROUP BY g"
        )
        ext.refresh("q")
        # Membership flips both ways, plus base churn, in one round.
        con.execute("INSERT INTO vip VALUES ('b')")
        con.execute("DELETE FROM vip WHERE g = 'a'")
        con.execute("INSERT INTO t VALUES ('b', 10), ('a', 5)")
        assert _refresh_with_statement_spy(con, ext, "q") == [], (
            "subquery-WHERE repair must not round-trip through SQL"
        )
        got = con.execute("SELECT g, s FROM q").sorted()
        want = con.execute(
            "SELECT g, SUM(v) FROM t WHERE g IN (SELECT g FROM vip) "
            "GROUP BY g"
        ).sorted()
        assert got == want == [("b", 12)]
