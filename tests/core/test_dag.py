"""Unit tests for the view dependency DAG (cascaded IVM).

Two layers: the pure :class:`~repro.core.dag.ViewDependencyGraph`
container (topology, closures, cycle detection), and the extension-level
CREATE/DROP protocol built on it (self-reference rejection, drop
protection, depth reporting).
"""

from __future__ import annotations

import pytest

from repro import CompilerFlags, Connection, PropagationMode, load_ivm
from repro.core.dag import ViewDependencyGraph
from repro.errors import DependencyCycleError, IVMError


class TestViewDependencyGraph:
    def test_topo_sort_orders_upstream_first(self):
        dag = ViewDependencyGraph()
        dag.add_view("v1")
        dag.add_view("v2", upstream=["v1"])
        dag.add_view("v3", upstream=["v2"])
        order = dag.topo_sort()
        assert order.index("v1") < order.index("v2") < order.index("v3")

    def test_registration_order_breaks_ties(self):
        """Same-level views keep creation order — the recovery path
        restores views in exactly this order."""
        dag = ViewDependencyGraph()
        dag.add_view("b")
        dag.add_view("a")
        assert dag.topo_sort() == ["b", "a"]

    def test_closures_exclude_self_and_follow_edges(self):
        dag = ViewDependencyGraph()
        dag.add_view("v1")
        dag.add_view("v2", upstream=["v1"])
        dag.add_view("v3", upstream=["v2"])
        dag.add_view("other")
        assert dag.upstream_closure("v3") == ["v1", "v2"]
        assert dag.dependents_closure("v1") == ["v2", "v3"]
        assert dag.upstream_closure("v1") == []
        assert dag.dependents_closure("v3") == []

    def test_diamond_depth_and_closures(self):
        dag = ViewDependencyGraph()
        dag.add_view("a")
        dag.add_view("b")
        dag.add_view("d", upstream=["a", "b"])
        assert dag.depth("a") == 0 and dag.depth("b") == 0
        assert dag.depth("d") == 1
        assert dag.upstream_closure("d") == ["a", "b"]
        assert dag.dependents("a") == {"d"}

    def test_self_reference_raises_typed_error(self):
        dag = ViewDependencyGraph()
        with pytest.raises(DependencyCycleError) as info:
            dag.add_view("v", upstream=["v"])
        assert info.value.cycle == ("v", "v")
        assert "v" not in dag

    def test_cycle_through_replacement_raises_and_leaves_graph_intact(self):
        """Re-registering v1 over v2 (which reads v1) would close a
        cycle; the graph must reject it and stay unchanged."""
        dag = ViewDependencyGraph()
        dag.add_view("v1")
        dag.add_view("v2", upstream=["v1"])
        with pytest.raises(DependencyCycleError) as info:
            dag.add_view("v1", upstream=["v2"])
        cycle = info.value.cycle
        assert cycle[0] == cycle[-1] == "v1"
        assert "v2" in cycle
        assert dag.upstream("v1") == set()
        assert dag.upstream("v2") == {"v1"}

    def test_unknown_upstream_names_are_ignored(self):
        """Base tables appear as upstream candidates during recovery;
        only registered views become edges."""
        dag = ViewDependencyGraph()
        dag.add_view("v", upstream=["base_table"])
        assert dag.upstream("v") == set()
        assert dag.depth("v") == 0

    def test_remove_view_unlinks_both_directions(self):
        dag = ViewDependencyGraph()
        dag.add_view("v1")
        dag.add_view("v2", upstream=["v1"])
        dag.remove_view("v2")
        assert dag.dependents("v1") == set()
        assert "v2" not in dag

    def test_names_are_case_insensitive(self):
        dag = ViewDependencyGraph()
        dag.add_view("V1")
        dag.add_view("v2", upstream=["v1"])
        assert dag.dependents("v1") == {"v2"}


class TestExtensionDagProtocol:
    def _engine(self):
        con = Connection()
        ext = load_ivm(con, CompilerFlags(mode=PropagationMode.LAZY))
        con.execute("CREATE TABLE t (g VARCHAR, v INTEGER)")
        con.execute("INSERT INTO t VALUES ('a', 1), ('b', 2)")
        return con, ext

    def test_create_rejects_self_reference(self):
        con, _ = self._engine()
        with pytest.raises(DependencyCycleError):
            con.execute(
                "CREATE MATERIALIZED VIEW loop AS "
                "SELECT g, v FROM loop WHERE v > 0"
            )
        assert not con.catalog.has_table("loop")

    def test_drop_with_dependents_is_rejected(self):
        con, ext = self._engine()
        con.execute(
            "CREATE MATERIALIZED VIEW v1 AS "
            "SELECT g, SUM(v) AS s FROM t GROUP BY g"
        )
        con.execute(
            "CREATE MATERIALIZED VIEW v2 AS SELECT g, s FROM v1 WHERE s > 0"
        )
        with pytest.raises(IVMError):
            con.execute("DROP MATERIALIZED VIEW v1")
        # Dropping leaf-first is fine, and then the upstream goes too.
        con.execute("DROP MATERIALIZED VIEW v2")
        con.execute("DROP MATERIALIZED VIEW v1")
        assert ext.views() == []

    def test_drop_leaf_removes_feed_and_cascade_trigger(self):
        con, ext = self._engine()
        con.execute(
            "CREATE MATERIALIZED VIEW v1 AS "
            "SELECT g, SUM(v) AS s FROM t GROUP BY g"
        )
        con.execute(
            "CREATE MATERIALIZED VIEW v2 AS SELECT g, s FROM v1 WHERE s > 0"
        )
        feed = ext.flags.cascade_delta_table("v1")
        assert con.catalog.has_table(feed)
        assert "__ivm_cascade_v1" in con.triggers.triggers_on("v1")
        con.execute("DROP MATERIALIZED VIEW v2")
        assert not con.catalog.has_table(feed)
        assert "__ivm_cascade_v1" not in con.triggers.triggers_on("v1")
        # The upstream keeps refreshing incrementally on its own.
        con.execute("INSERT INTO t VALUES ('a', 10)")
        assert con.execute("SELECT g, s FROM v1").sorted() == [
            ("a", 11), ("b", 2),
        ]

    def test_status_and_health_report_dag_shape(self):
        con, ext = self._engine()
        con.execute(
            "CREATE MATERIALIZED VIEW v1 AS "
            "SELECT g, SUM(v) AS s FROM t GROUP BY g"
        )
        con.execute(
            "CREATE MATERIALIZED VIEW v2 AS SELECT g, s FROM v1 WHERE s > 0"
        )
        con.execute(
            "CREATE MATERIALIZED VIEW v3 AS SELECT SUM(s) AS grand FROM v2"
        )
        status = {entry["view"]: entry for entry in ext.status()}
        assert [status[v]["depth"] for v in ("v1", "v2", "v3")] == [0, 1, 2]
        assert status["v2"]["upstreams"] == ["v1"]
        assert status["v2"]["dependents"] == ["v3"]
        health = {entry["view"]: entry for entry in ext.health()["views"]}
        assert health["v3"]["depth"] == 2
        assert health["v3"]["upstreams"] == ["v2"]
        assert health["v1"]["dependents"] == ["v2"]
        assert health["v1"]["upstream_invalidations"] == 0
        stats = ext.refresh_stats("v3")
        assert stats["dag_depth"] == 2
        assert stats["upstream_invalidations"] == 0
