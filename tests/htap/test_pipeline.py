"""Cross-system pipeline tests (paper Figure 3)."""

import pytest

from repro import CrossSystemPipeline, IVMError, OLTPSystem


@pytest.fixture
def pipeline():
    oltp = OLTPSystem()
    oltp.execute("CREATE TABLE sales (region VARCHAR, amount INTEGER)")
    oltp.execute(
        "INSERT INTO sales VALUES ('eu', 10), ('eu', 5), ('us', 7)"
    )
    pipe = CrossSystemPipeline(oltp=oltp)
    pipe.create_materialized_view(
        "CREATE MATERIALIZED VIEW totals AS "
        "SELECT region, SUM(amount) AS total, COUNT(*) AS n "
        "FROM sales GROUP BY region"
    )
    return pipe


class TestSetup:
    def test_initial_population(self, pipeline):
        rows = pipeline.query("SELECT * FROM totals ORDER BY region").rows
        assert rows == [("eu", 15, 2), ("us", 7, 1)]

    def test_view_lives_on_olap_side(self, pipeline):
        assert pipeline.olap.catalog.has_table("totals")
        assert not pipeline.oltp.connection.catalog.has_table("totals")

    def test_delta_capture_lives_on_oltp_side(self, pipeline):
        assert pipeline.oltp.connection.catalog.has_table("delta_sales")
        assert "sales" in pipeline.oltp.captured_tables()

    def test_mirror_delta_on_olap_side(self, pipeline):
        assert pipeline.olap.catalog.has_table("delta_sales")

    def test_attached_query(self, pipeline):
        count = pipeline.query(
            "SELECT COUNT(*) FROM oltp.sales", refresh=False
        ).scalar()
        assert count == 3

    def test_duplicate_view_rejected(self, pipeline):
        with pytest.raises(IVMError):
            pipeline.create_materialized_view(
                "CREATE MATERIALIZED VIEW totals AS "
                "SELECT region, SUM(amount) AS total, COUNT(*) AS n "
                "FROM sales GROUP BY region"
            )


class TestPropagation:
    def test_insert_flow(self, pipeline):
        pipeline.oltp.execute("INSERT INTO sales VALUES ('eu', 100)")
        assert pipeline.pending_changes("totals") == 1
        rows = pipeline.query("SELECT total FROM totals WHERE region = 'eu'").rows
        assert rows == [(115,)]
        assert pipeline.pending_changes("totals") == 0

    def test_update_delete_flow(self, pipeline):
        pipeline.oltp.execute("UPDATE sales SET amount = 20 WHERE region = 'us'")
        pipeline.oltp.execute("DELETE FROM sales WHERE amount = 5")
        rows = pipeline.query("SELECT * FROM totals ORDER BY region").rows
        truth = pipeline.oltp.execute(
            "SELECT region, SUM(amount), COUNT(*) FROM sales GROUP BY region "
            "ORDER BY region"
        ).rows
        assert rows == truth

    def test_group_disappearance_across_systems(self, pipeline):
        pipeline.oltp.execute("DELETE FROM sales WHERE region = 'us'")
        rows = pipeline.query("SELECT region FROM totals").rows
        assert rows == [("eu",)]

    def test_explicit_refresh_returns_transfer_count(self, pipeline):
        pipeline.oltp.execute("INSERT INTO sales VALUES ('eu', 1), ('us', 2)")
        assert pipeline.refresh("totals") == 2
        assert pipeline.refresh("totals") == 0

    def test_query_without_refresh_is_stale(self, pipeline):
        pipeline.oltp.execute("INSERT INTO sales VALUES ('eu', 100)")
        stale = pipeline.query(
            "SELECT total FROM totals WHERE region = 'eu'", refresh=False
        ).scalar()
        assert stale == 15

    def test_many_rounds_stay_consistent(self, pipeline):
        for i in range(10):
            pipeline.oltp.execute(f"INSERT INTO sales VALUES ('r{i % 3}', {i})")
            if i % 2:
                pipeline.oltp.execute(f"DELETE FROM sales WHERE amount = {i - 1}")
            got = pipeline.query("SELECT * FROM totals").sorted()
            want = pipeline.oltp.execute(
                "SELECT region, SUM(amount), COUNT(*) FROM sales GROUP BY region"
            ).sorted()
            assert got == want


class TestJoinViewAcrossSystems:
    def test_two_table_view(self):
        oltp = OLTPSystem()
        oltp.execute("CREATE TABLE o (oid INTEGER, ck VARCHAR, qty INTEGER)")
        oltp.execute("CREATE TABLE c (ck VARCHAR, region VARCHAR)")
        oltp.execute("INSERT INTO c VALUES ('c1', 'eu'), ('c2', 'us')")
        oltp.execute("INSERT INTO o VALUES (1, 'c1', 10), (2, 'c2', 5)")
        pipe = CrossSystemPipeline(oltp=oltp)
        pipe.create_materialized_view(
            "CREATE MATERIALIZED VIEW rev AS "
            "SELECT c.region, SUM(o.qty) AS total FROM o JOIN c "
            "ON o.ck = c.ck GROUP BY c.region"
        )
        oltp.execute("INSERT INTO o VALUES (3, 'c1', 90)")
        oltp.execute("INSERT INTO c VALUES ('c3', 'apac')")
        oltp.execute("INSERT INTO o VALUES (4, 'c3', 1)")
        got = pipe.query("SELECT * FROM rev").sorted()
        want = oltp.execute(
            "SELECT c.region, SUM(o.qty) FROM o JOIN c ON o.ck = c.ck "
            "GROUP BY c.region"
        ).sorted()
        assert got == want

    def test_join_view_runs_steps_after_step1_natively(self):
        """The fused join refresh needs local base tables, so the HTAP
        pipeline runs its per-step objects: only the join step 1 (which
        scans the bases through the attachment) and the ΔT truncates
        stay SQL; steps 2, 3 and the ΔV truncate run natively."""
        oltp = OLTPSystem()
        oltp.execute("CREATE TABLE o (oid INTEGER, ck VARCHAR, qty INTEGER)")
        oltp.execute("CREATE TABLE c (ck VARCHAR, region VARCHAR)")
        oltp.execute("INSERT INTO c VALUES ('c1', 'eu'), ('c2', 'us')")
        oltp.execute("INSERT INTO o VALUES (1, 'c1', 10), (2, 'c2', 5)")
        pipe = CrossSystemPipeline(oltp=oltp)
        pipe.create_materialized_view(
            "CREATE MATERIALIZED VIEW rev AS "
            "SELECT c.region, SUM(o.qty) AS total, COUNT(*) AS n FROM o "
            "JOIN c ON o.ck = c.ck GROUP BY c.region"
        )
        assert [s.name for s in pipe._view("rev").native_steps] == [
            "step2", "step3", "step4",
        ]
        labels = {
            id(statement): label
            for label, statement in pipe._view("rev").propagation
        }
        executed: list = []
        original = pipe.olap.execute_statement

        def spy(statement, parameters=()):
            executed.append(labels.get(id(statement)))
            return original(statement, parameters)

        pipe.olap.execute_statement = spy
        oltp.execute("INSERT INTO o VALUES (3, 'c1', 90)")
        oltp.execute("DELETE FROM o WHERE oid = 2")
        pipe.refresh("rev")
        pipe.olap.execute_statement = original
        assert [label.split(":")[0] for label in executed] == [
            "step1", "step4", "step4",
        ]
        assert all(
            label.startswith("step4: clear delta table")
            for label in executed[1:]
        )
        got = pipe.query("SELECT * FROM rev").sorted()
        want = oltp.execute(
            "SELECT c.region, SUM(o.qty), COUNT(*) FROM o JOIN c "
            "ON o.ck = c.ck GROUP BY c.region"
        ).sorted()
        assert got == want


class TestOLTPSystem:
    def test_postgres_dialect(self):
        oltp = OLTPSystem()
        assert oltp.connection.dialect.name == "postgres"

    def test_install_capture_idempotent(self):
        oltp = OLTPSystem()
        oltp.execute("CREATE TABLE t (a INTEGER)")
        oltp.install_capture("t")
        oltp.install_capture("t")
        oltp.execute("INSERT INTO t VALUES (1)")
        # Exactly one delta row despite double installation:
        assert oltp.pending_delta_count("t") == 1

    def test_drain_clears(self):
        oltp = OLTPSystem()
        oltp.execute("CREATE TABLE t (a INTEGER)")
        oltp.install_capture("t")
        oltp.execute("INSERT INTO t VALUES (1), (2)")
        rows = oltp.drain_delta("t")
        assert rows == [(1, True), (2, True)]
        assert oltp.pending_delta_count("t") == 0
