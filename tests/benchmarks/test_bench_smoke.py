"""Smoke tests for the benchmark entry points.

The benchmarks live outside the tier-1 test run, so a refactor can silently
rot them.  These tests import the benchmark modules and drive their
builders at tiny sizes — no timing assertions, just "the harness still
constructs, propagates, and agrees with recomputation".
"""

from __future__ import annotations

import pathlib
import sys

import pytest

# The benchmarks/ directory is a plain folder next to tests/, importable
# once the repo root is on the path (as it is when pytest runs from the
# repo root; CI and local runs alike).
_REPO_ROOT = str(pathlib.Path(__file__).resolve().parents[2])
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

bench_join = pytest.importorskip("benchmarks.bench_join_ivm")


@pytest.mark.parametrize("batch_kernels", [False, True])
def test_join_bench_builder_smoke(batch_kernels):
    """_build at a tiny scale: create, refresh, and verify both kernel paths."""
    con, ext, workload = bench_join._build(
        orders=200, batch_kernels=batch_kernels
    )
    assert ext.status()[0]["batched"] is batch_kernels
    oid = workload.next_order_id()
    bench_join._apply_delta(con, workload, oid, 10)
    ext.refresh("rev")
    got = con.execute("SELECT region, revenue, n FROM rev").sorted()
    want = con.execute(bench_join.RECOMPUTE).sorted()
    assert got == want
    assert got, "view should not be empty at this scale"


def test_join_bench_repeated_refreshes_stay_consistent():
    """Several delta rounds through the batched path keep the indexed join
    state in sync with the base tables (the invariant the bench relies on)."""
    con, ext, workload = bench_join._build(orders=150, batch_kernels=True)
    oid = workload.next_order_id()
    for _ in range(4):
        bench_join._apply_delta(con, workload, oid, 7)
        oid += 7
        ext.refresh("rev")
        got = con.execute("SELECT region, revenue, n FROM rev").sorted()
        want = con.execute(bench_join.RECOMPUTE).sorted()
        assert got == want


def test_incremental_bench_builder_smoke():
    """The E1 builder + one propagation round at a tiny scale."""
    conftest = pytest.importorskip("benchmarks.conftest")
    con, ext = conftest.build_groups_connection(300, num_groups=10)
    (batch,) = conftest.change_batches(300, 20, batches=1)
    conftest.fill_delta(con, batch)
    ext.refresh("q")
    got = con.execute("SELECT group_index, total_value FROM q").sorted()
    want = con.execute(
        "SELECT group_index, SUM(group_value) FROM groups GROUP BY group_index"
    ).sorted()
    assert got == want


def test_pipeline_trajectory_artifact(tmp_path):
    """emit_pipeline_trajectory writes a well-formed BENCH_pipeline.json:
    the SQL and native configs of every family with their native/SQL
    step split and timings, the headline speedup ratios, and the
    row-vs-batch ingestion comparison (values are not asserted at this
    tiny scale — CI measures at full scale)."""
    import json

    target = tmp_path / "BENCH_pipeline.json"
    data = bench_join.emit_pipeline_trajectory(
        path=target, orders=200, delta_rows=10, rounds=2,
        minmax_rounds=2, ingestion_rows=(50,), ablation_rounds=2,
        skewed_orders=200, skewed_delta_rows=10, skewed_rounds=2,
        durability_rows=40, durability_batches=2,
        queue_bursts=2, queue_statements=10,
    )
    on_disk = json.loads(target.read_text())
    assert on_disk == data
    assert set(data["configs"]) == {"sql", "full_native"}
    for name, cfg in data["configs"].items():
        assert len(cfg["refresh_seconds"]) == 2
        assert cfg["best_seconds"] == min(cfg["refresh_seconds"])
    assert data["configs"]["sql"]["native_steps"] == []
    assert data["configs"]["sql"]["sql_steps"] == [
        "step1", "step2", "step3", "step4",
    ]
    assert data["configs"]["full_native"]["native_steps"] == ["fused"]
    assert data["configs"]["full_native"]["sql_steps"] == []
    assert data["speedup_full_native_vs_sql"] > 0
    for key in ("minmax", "union_regroup", "expr_keyed"):
        family = data[key]
        assert set(family["configs"]) == {"sql", "native"}, key
        assert family["configs"]["sql"]["native_steps"] == [], key
        assert family["configs"]["native"]["native_steps"], key
        assert family["speedup_native_vs_sql"] > 0, key
    assert data["minmax"]["configs"]["native"]["native_steps"] == ["fused"]
    assert "step2" in data["union_regroup"]["configs"]["native"]["native_steps"]
    assert "step1" in data["expr_keyed"]["configs"]["native"]["native_steps"]
    shapes = data["ingestion"]["shapes"]
    assert set(shapes) == {"delta_table", "pk_table"}
    for counts in shapes.values():
        for record in counts.values():
            assert record["batch_speedup"] > 0
    skewed = data["skewed"]
    assert set(skewed["configs"]) == {"sql", "fused"}
    assert skewed["configs"]["sql"]["native_steps"] == []
    assert skewed["configs"]["fused"]["native_steps"] == ["fused"]
    for cfg in skewed["configs"].values():
        assert len(cfg["refresh_seconds"]) == 2
        assert cfg["refresh_stats"]["refreshes"] > 0
    assert skewed["speedup_fused_vs_sql"] > 0
    dag = data["view_dag"]
    assert set(dag["depths"]) == {"depth1", "depth2", "depth3"}
    for d, entry in enumerate(
        (dag["depths"]["depth1"], dag["depths"]["depth2"],
         dag["depths"]["depth3"])
    ):
        assert entry["leaf"] == f"dag{d + 1}"
        assert entry["dag_depth"] == d
        assert len(entry["refresh_seconds"]) == 2
        assert entry["best_seconds"] == min(entry["refresh_seconds"])
    assert dag["overhead_depth3_vs_depth1"] > 0
    durability = data["durability"]
    assert durability["workload"]["wal_sync"] is False
    for section in ("wal_append", "recovery_replay"):
        assert durability[section]["rows"] == 80
        assert durability[section]["rows_per_second"] > 0
    queue = data["ingestion_queue"]
    assert set(queue["configs"]) == {"sync", "queue_block", "queue_coalesce"}
    assert queue["configs"]["sync"]["queue"] is None
    for name in ("queue_block", "queue_coalesce"):
        cfg = queue["configs"][name]
        assert cfg["rows_per_second"] > 0
        assert cfg["refresh_p99_seconds"] >= cfg["refresh_p50_seconds"] > 0
        assert cfg["queue"]["enqueued_rows"] > 0
    assert queue["queue_vs_sync_ingest_ratio"] > 0


def test_union_and_expr_ablations_stay_correct_at_tiny_scale():
    """Both ablation collectors agree with the recompute (asserted
    inside the shared harness) and time every round of both configs."""
    union = bench_join.collect_union_trajectory(
        orders=150, delta_rows=5, rounds=2
    )
    expr = bench_join.collect_expr_trajectory(
        orders=150, delta_rows=5, rounds=2
    )
    for family in (union, expr):
        assert set(family["configs"]) == {"sql", "native"}
        for cfg in family["configs"].values():
            assert len(cfg["refresh_seconds"]) == 2


def test_skewed_bench_stays_correct_at_tiny_scale():
    """Both configs of the skewed-delta family agree with the recompute
    (asserted inside the collector) and report the expected step split,
    with the fused step's phases in its refresh stats."""
    data = bench_join.collect_skewed_trajectory(
        orders=150, delta_rows=5, rounds=2, warmup_rounds=1
    )
    assert set(data["configs"]) == {"sql", "fused"}
    for name, cfg in data["configs"].items():
        assert len(cfg["refresh_seconds"]) == 2
        assert cfg["refresh_stats"]["refreshes"] == 3  # + warmup
    fused = data["configs"]["fused"]
    assert fused["native_steps"] == ["fused"]
    assert set(fused["refresh_stats"]["last_phase_seconds"]) == {
        "fused.step1", "fused.fold", "fused.merge",
    }


def test_view_dag_bench_stays_correct_at_tiny_scale():
    """Every chain depth agrees with the per-level recompute (asserted
    inside the collector) and records its DAG depth from RefreshStats."""
    data = bench_join.collect_view_dag_trajectory(
        orders=150, delta_rows=5, rounds=2
    )
    assert [
        data["depths"][f"depth{d}"]["dag_depth"] for d in (1, 2, 3)
    ] == [0, 1, 2]
    for entry in data["depths"].values():
        assert len(entry["refresh_seconds"]) == 2


def test_minmax_bench_stays_correct_at_tiny_scale():
    """Both MIN/MAX configurations agree with the recompute (asserted
    inside the collector) and report the expected step split."""
    data = bench_join.collect_minmax_trajectory(
        orders=150, delta_rows=5, rounds=2
    )
    assert set(data["configs"]) == {"sql", "native"}
    for cfg in data["configs"].values():
        assert len(cfg["refresh_seconds"]) == 2
    assert data["configs"]["native"]["native_steps"] == ["fused"]


def test_durability_bench_stays_correct_at_tiny_scale():
    """The durability collector verifies the recovered view against a
    recompute internally and reports positive throughput both ways."""
    data = bench_join.collect_durability_benchmark(
        rows_per_batch=30, batches=2, repeats=1
    )
    assert data["wal_append"]["rows_per_second"] > 0
    assert data["recovery_replay"]["rows_per_second"] > 0
    assert data["wal_append"]["rows"] == 60


def test_ingestion_queue_bench_stays_correct_at_tiny_scale():
    """The ingest-queue burst benchmark converges under every config and
    its backpressure counters balance (enqueued = drained + coalesced +
    still queued)."""
    data = bench_join.collect_ingestion_queue_benchmark(
        bursts=2, statements_per_burst=12, rows_per_statement=2,
    )
    for name, cfg in data["configs"].items():
        assert cfg["rows_written"] > 0, name
        assert len(cfg["refresh_seconds"]) == 2
    counters = data["configs"]["queue_block"]["queue"]
    assert (
        counters["drained_rows"] + counters["depth_rows"]
        == counters["enqueued_rows"]
    )


def test_regression_gate_baseline_is_well_formed():
    """BENCH_baseline.json (committed) parses and carries the ratio the
    CI gate compares against; the gate metric itself is measurable at a
    tiny scale."""
    import json

    baseline = json.loads(
        bench_join.BENCH_BASELINE_PATH.read_text(encoding="utf-8")
    )
    assert baseline["join_15k"]["refresh_vs_recompute_ratio"] > 0
    current = bench_join.measure_gate_metric(
        orders=200, delta_rows=10, rounds=2
    )
    assert current["refresh_vs_recompute_ratio"] > 0
