"""E6 — incremental joins: the three-join delta rule (paper's extension).

"the incremental form of a join consists of three relational join
operators" (§2); joins are the announced work-in-progress.  This bench
measures maintaining a two-table join-aggregation view incrementally
versus recomputing the join, across delta sizes — and, since the batching
milestone, the vectorized kernels with ART-indexed join state against the
row-at-a-time step-1 SQL (whose ``A ⋈ ΔB`` term rescans a base side on
every refresh).

Expected shape: for small deltas the three delta joins (each with one tiny
input) are far cheaper than the full join; the gap narrows as deltas grow
because the A⋈ΔB / ΔA⋈B terms scan a full base side.  The batched path
removes those rescans, so its refresh cost tracks |Δ| alone.

Since the full-pipeline milestone this module also emits the
``BENCH_pipeline.json`` trajectory artifact
(:func:`emit_pipeline_trajectory`, uploaded by CI): the same refresh
measured under the three propagation configurations — pure SQL, native
step 1 only (the first batching milestone), and the full native
``NativeStep`` pipeline — recording which steps ran natively and the
measured end-to-end speedups.
"""

import json
import pathlib

import pytest

from repro import (
    CompilerFlags,
    Connection,
    MaterializationStrategy,
    PropagationMode,
    load_ivm,
)
from repro.workloads import generate_sales_workload

ORDERS = 15_000

VIEW = (
    "CREATE MATERIALIZED VIEW rev AS "
    "SELECT c.region, SUM(o.amount) AS revenue, COUNT(*) AS n "
    "FROM orders o JOIN customers c ON o.cust_id = c.cust_id "
    "GROUP BY c.region"
)
RECOMPUTE = (
    "SELECT c.region, SUM(o.amount) AS revenue, COUNT(*) AS n "
    "FROM orders o JOIN customers c ON o.cust_id = c.cust_id "
    "GROUP BY c.region"
)

# The per-customer variant keeps |V| in the hundreds of groups, so the
# SQL steps 2–3 (view-sized CTE join + full-view DELETE scan) are a
# visible share of the refresh — the part the native pipeline removes.
VIEW_BY_CUSTOMER = (
    "CREATE MATERIALIZED VIEW rev_cust AS "
    "SELECT o.cust_id, SUM(o.amount) AS revenue, COUNT(*) AS n "
    "FROM orders o JOIN customers c ON o.cust_id = c.cust_id "
    "GROUP BY o.cust_id"
)

# The MIN/MAX-heavy variant: per-customer extrema over the join, with a
# retraction-heavy delta schedule (each round deletes the previous
# round's top-amount orders).  With the rescan on SQL every refresh
# recomputes the touched groups from the 15k-row base join; the native
# rescan answers each retraction from the persistent extrema state.
VIEW_MINMAX = (
    "CREATE MATERIALIZED VIEW px AS "
    "SELECT o.cust_id, MIN(o.amount) AS lo, MAX(o.amount) AS hi, "
    "COUNT(*) AS n "
    "FROM orders o JOIN customers c ON o.cust_id = c.cust_id "
    "GROUP BY o.cust_id"
)
MINMAX_RECOMPUTE = (
    "SELECT o.cust_id, MIN(o.amount) AS lo, MAX(o.amount) AS hi, "
    "COUNT(*) AS n "
    "FROM orders o JOIN customers c ON o.cust_id = c.cust_id "
    "GROUP BY o.cust_id"
)

# name -> CompilerFlags overrides.  Every ablation family compares the
# compiled SQL script (batch_kernels=False) against the native refresh
# of the same view; batch_kernels is the one native-vs-SQL switch.
PIPELINE_CONFIGS = [
    ("sql", dict(batch_kernels=False)),
    ("full_native", dict(batch_kernels=True)),
]

# MIN/MAX ablation: retractions answered by the SQL script's base-table
# rescan (step 2b) or by the native extrema state inside the fused step.
MINMAX_CONFIGS = [
    ("sql", dict(batch_kernels=False)),
    ("native", dict()),
]

# UNION-regroup ablation: the per-customer join view under the
# UNION_REGROUP strategy, refreshed by the SQL script (whose step 2
# rebuilds the whole table, O(|V|) per refresh) or by the native
# pipeline (whose step 2 is the signed union + regroup kernel, O(|ΔV|)).
VIEW_UNION = (
    "CREATE MATERIALIZED VIEW rev_union AS "
    "SELECT o.cust_id, SUM(o.amount) AS revenue, COUNT(*) AS n "
    "FROM orders o JOIN customers c ON o.cust_id = c.cust_id "
    "GROUP BY o.cust_id"
)
UNION_RECOMPUTE = (
    "SELECT o.cust_id, SUM(o.amount) AS revenue, COUNT(*) AS n "
    "FROM orders o JOIN customers c ON o.cust_id = c.cust_id "
    "GROUP BY o.cust_id"
)
UNION_CONFIGS = [
    ("sql", dict(
        strategy=MaterializationStrategy.UNION_REGROUP, batch_kernels=False,
    )),
    ("native", dict(strategy=MaterializationStrategy.UNION_REGROUP)),
]

# Expression-keyed ablation: computed key + computed aggregate argument
# over the orders table, refreshed by the SQL script or by the native
# pipeline, whose step 1 evaluates the expressions through the
# vectorized expression compiler.
VIEW_EXPR = (
    "CREATE MATERIALIZED VIEW ek AS "
    "SELECT UPPER(cust_id) AS ck, SUM(amount + 1) AS s, COUNT(*) AS n "
    "FROM orders GROUP BY UPPER(cust_id)"
)
EXPR_RECOMPUTE = (
    "SELECT UPPER(cust_id) AS ck, SUM(amount + 1) AS s, COUNT(*) AS n "
    "FROM orders GROUP BY UPPER(cust_id)"
)
EXPR_CONFIGS = [
    ("sql", dict(batch_kernels=False)),
    ("native", dict()),
]

# Cascaded-view ablation: the same base delta refreshed to the leaf of
# a 1-, 2-, and 3-level view chain.  Depth 1 is the per-customer join
# view; depth 2 filters it; depth 3 aggregates the filter.  Each extra
# level is fed by the upstream's in-memory cascade feed (its stored-row
# delta), so the marginal cost per level is O(|ΔV|) of the level below —
# not a recompute, and not another pass over the 15k-row base.
# Entries: (name, CREATE statement, view read, recompute over upstream).
VIEW_DAG_LEVELS = [
    (
        "dag1",
        "CREATE MATERIALIZED VIEW dag1 AS "
        "SELECT o.cust_id, SUM(o.amount) AS revenue, COUNT(*) AS n "
        "FROM orders o JOIN customers c ON o.cust_id = c.cust_id "
        "GROUP BY o.cust_id",
        "SELECT cust_id, revenue, n FROM dag1",
        "SELECT o.cust_id, SUM(o.amount) AS revenue, COUNT(*) AS n "
        "FROM orders o JOIN customers c ON o.cust_id = c.cust_id "
        "GROUP BY o.cust_id",
    ),
    (
        "dag2",
        "CREATE MATERIALIZED VIEW dag2 AS "
        "SELECT cust_id, revenue FROM dag1 WHERE revenue > 0",
        "SELECT cust_id, revenue FROM dag2",
        "SELECT cust_id, revenue FROM dag1 WHERE revenue > 0",
    ),
    (
        "dag3",
        "CREATE MATERIALIZED VIEW dag3 AS "
        "SELECT SUM(revenue) AS grand, COUNT(*) AS nc FROM dag2",
        "SELECT grand, nc FROM dag3",
        "SELECT SUM(revenue), COUNT(*) FROM dag2",
    ),
]

# Skewed-delta ablation: the per-customer join view over 100k orders,
# refreshed by the SQL script or by the fused native step after
# Zipf-skewed 2 000-row deltas.  The fused step probes the join state
# once per *distinct* key and never stages ΔV, so a skewed delta (few
# hot customers) is exactly where it shows.
SKEWED_CONFIGS = [
    ("sql", dict(batch_kernels=False)),
    ("fused", dict()),
]

BENCH_PIPELINE_PATH = pathlib.Path(__file__).resolve().parents[1] / (
    "BENCH_pipeline.json"
)


def _build(
    orders: int = ORDERS,
    batch_kernels: bool = True,
    view: str = VIEW,
    bulk_ingest: bool = False,
    **flag_overrides,
):
    workload = generate_sales_workload(num_orders=orders, seed=21)
    con = Connection()
    extension = load_ivm(
        con,
        CompilerFlags(
            mode=PropagationMode.LAZY,
            batch_kernels=batch_kernels,
            **flag_overrides,
        ),
    )
    con.execute(workload.SCHEMA)
    customers = con.table("customers")
    orders_table = con.table("orders")
    if bulk_ingest:
        # The 100k-row skewed config would take too long row-at-a-time.
        customers.insert_batch(workload.customers, coerce=False)
        orders_table.insert_batch(workload.orders, coerce=False)
    else:
        for row in workload.customers:
            customers.insert(row, coerce=False)
        for row in workload.orders:
            orders_table.insert(row, coerce=False)
    con.execute(view)
    return con, extension, workload


def _apply_delta(con, workload, start_oid, rows):
    base = con.table("orders")
    delta = con.table("delta_orders")
    for i in range(rows):
        cust = workload.customers[(start_oid + i) % len(workload.customers)][0]
        row = (start_oid + i, cust, "p", (start_oid + i) % 100)
        base.insert(row, coerce=False)
        delta.insert(row + (True,), coerce=False)


@pytest.mark.parametrize("delta_rows", [10, 200])
@pytest.mark.parametrize("kernels", ["row", "batched"])
def test_join_ivm_refresh(benchmark, delta_rows, kernels):
    con, ext, workload = _build(batch_kernels=(kernels == "batched"))
    state = {"oid": workload.next_order_id()}

    def setup():
        _apply_delta(con, workload, state["oid"], delta_rows)
        state["oid"] += delta_rows
        return (), {}

    benchmark.pedantic(lambda: ext.refresh("rev"), setup=setup, rounds=8, iterations=1)
    benchmark.extra_info["delta_rows"] = delta_rows
    benchmark.extra_info["kernels"] = kernels


def test_join_recompute(benchmark):
    con, ext, workload = _build()
    benchmark.pedantic(lambda: con.execute(RECOMPUTE), rounds=5, iterations=1)


def test_join_shape(report_lines):
    from repro.workloads import time_call

    con, ext, workload = _build()
    recompute_time, _ = time_call(lambda: con.execute(RECOMPUTE), repeat=2)
    oid = workload.next_order_id()
    _apply_delta(con, workload, oid, 10)
    refresh_time, _ = time_call(lambda: ext.refresh("rev"))
    report_lines.append(
        f"E6  join delta=10  refresh={refresh_time * 1e3:8.2f}ms  "
        f"recompute={recompute_time * 1e3:8.2f}ms  "
        f"speedup={recompute_time / refresh_time:6.1f}x"
    )
    got = con.execute("SELECT region, revenue, n FROM rev").sorted()
    want = con.execute(RECOMPUTE).sorted()
    assert got == want
    assert refresh_time < recompute_time


def test_join_batched_vs_row_shape(report_lines):
    """The batching milestone's claim: vectorized kernels + indexed join
    state beat the row-at-a-time step-1 SQL, and both stay correct."""
    from repro.workloads import time_call

    timings = {}
    for kernels in ("row", "batched"):
        con, ext, workload = _build(batch_kernels=(kernels == "batched"))
        oid = workload.next_order_id()
        best = None
        for _ in range(5):
            _apply_delta(con, workload, oid, 50)
            oid += 50
            elapsed, _ = time_call(lambda: ext.refresh("rev"))
            best = elapsed if best is None else min(best, elapsed)
        timings[kernels] = best
        got = con.execute("SELECT region, revenue, n FROM rev").sorted()
        want = con.execute(RECOMPUTE).sorted()
        assert got == want, f"{kernels} path diverged from recompute"
    ratio = timings["row"] / timings["batched"]
    report_lines.append(
        f"E6b join delta=50  row={timings['row'] * 1e3:8.2f}ms  "
        f"batched={timings['batched'] * 1e3:8.2f}ms  "
        f"batched-speedup={ratio:6.1f}x"
    )
    assert ratio > 1.0, (
        f"batched join refresh should beat row-at-a-time, got {ratio:.2f}x"
    )


# ---------------------------------------------------------------------------
# Full-pipeline trajectory: native vs SQL per step (BENCH_pipeline.json)
# ---------------------------------------------------------------------------


def collect_pipeline_trajectory(
    orders: int = ORDERS, delta_rows: int = 50, rounds: int = 8
) -> dict:
    """Measure the full refresh under each pipeline configuration.

    Uses the per-customer join view (hundreds of groups) so the steps the
    native pipeline replaces — the view-sized SQL upsert join and the
    full-view step-3 scan — actually show up in the measurement.  Records,
    per configuration, which steps ran natively vs on SQL and the per-round
    refresh times (the trajectory), plus the end-to-end speedups.
    """
    from repro.workloads import time_call

    result: dict = {
        "benchmark": "bench_join_ivm.pipeline_trajectory",
        "workload": {
            "orders": orders,
            "delta_rows": delta_rows,
            "rounds": rounds,
            "view": "rev_cust (join, GROUP BY cust_id)",
        },
        "configs": {},
    }
    for name, overrides in PIPELINE_CONFIGS:
        con, ext, workload = _build(
            orders=orders, view=VIEW_BY_CUSTOMER, **overrides
        )
        status = ext.status()[0]
        native = status["native_steps"]
        all_steps = ["step1", "step2", "step3", "step4"]
        oid = workload.next_order_id()
        timings = []
        for _ in range(rounds):
            _apply_delta(con, workload, oid, delta_rows)
            oid += delta_rows
            elapsed, _ = time_call(lambda: ext.refresh("rev_cust"))
            timings.append(elapsed)
        result["configs"][name] = {
            "native_steps": native,
            "sql_steps": [
                s for s in all_steps if s not in native and "fused" not in native
            ],
            "refresh_seconds": timings,
            "best_seconds": min(timings),
            "refresh_stats": ext.refresh_stats("rev_cust"),
        }
    best = {name: cfg["best_seconds"] for name, cfg in result["configs"].items()}
    result["speedup_full_native_vs_sql"] = best["sql"] / best["full_native"]
    return result


def collect_minmax_trajectory(
    orders: int = ORDERS, delta_rows: int = 50, rounds: int = 6
) -> dict:
    """Measure MIN/MAX retraction-heavy refreshes: SQL vs native.

    Each round deletes the previous round's ``delta_rows`` top-amount
    orders (retracting their customers' stored maxima) and inserts a
    fresh batch of top-amount orders, then times the refresh.  The SQL
    script answers the retractions with its step-2b base-table rescan;
    the native refresh (the fused step) with extrema-state lookups.
    """
    from repro.workloads import time_call

    result: dict = {
        "benchmark": "bench_join_ivm.minmax_trajectory",
        "workload": {
            "orders": orders,
            "delta_rows": delta_rows,
            "rounds": rounds,
            "view": "px (join, MIN/MAX/COUNT GROUP BY cust_id)",
        },
        "configs": {},
    }
    for name, overrides in MINMAX_CONFIGS:
        con, ext, workload = _build(orders=orders, view=VIEW_MINMAX, **overrides)
        status = ext.status()[0]
        base = con.table("orders")
        delta = con.table("delta_orders")
        oid = workload.next_order_id()
        hot: list[tuple] = []

        def push_round(round_index: int) -> None:
            nonlocal oid, hot
            # Retract last round's maxima...
            for row in hot:
                base.delete_by_key([row[0]])
                delta.insert(row + (False,), coerce=False)
            hot = []
            # ...and create this round's (top amounts, so the next round's
            # deletes are extremum retractions again).
            for i in range(delta_rows):
                cust = workload.customers[
                    (oid + i) % len(workload.customers)
                ][0]
                row = (oid + i, cust, "p", 1_000 + round_index)
                base.insert(row, coerce=False)
                delta.insert(row + (True,), coerce=False)
                hot.append(row)
            oid += delta_rows

        push_round(0)
        ext.refresh("px")  # absorb the seed round outside the timing
        timings = []
        for round_index in range(1, rounds + 1):
            push_round(round_index)
            elapsed, _ = time_call(lambda: ext.refresh("px"))
            timings.append(elapsed)
        got = con.execute("SELECT cust_id, lo, hi, n FROM px").sorted()
        want = con.execute(MINMAX_RECOMPUTE).sorted()
        assert got == want, f"{name} diverged from recompute"
        result["configs"][name] = {
            "native_steps": status["native_steps"],
            "refresh_seconds": timings,
            "best_seconds": min(timings),
        }
    best = {name: cfg["best_seconds"] for name, cfg in result["configs"].items()}
    result["speedup_native_vs_sql"] = best["sql"] / best["native"]
    return result


def _collect_refresh_ablation(
    benchmark_name: str,
    view_sql: str,
    view_name: str,
    recompute_sql: str,
    configs,
    orders: int,
    delta_rows: int,
    rounds: int,
    view_desc: str,
) -> dict:
    """Shared harness for the SQL-vs-native refresh ablations: same
    workload and delta schedule per config, per-round timings,
    correctness asserted against the recompute at the end, and the
    native-over-SQL best-round speedup."""
    from repro.workloads import time_call

    result: dict = {
        "benchmark": benchmark_name,
        "workload": {
            "orders": orders,
            "delta_rows": delta_rows,
            "rounds": rounds,
            "view": view_desc,
        },
        "configs": {},
    }
    for name, overrides in configs:
        con, ext, workload = _build(orders=orders, view=view_sql, **overrides)
        status = ext.status()[0]
        oid = workload.next_order_id()
        timings = []
        for _ in range(rounds):
            _apply_delta(con, workload, oid, delta_rows)
            oid += delta_rows
            elapsed, _ = time_call(lambda: ext.refresh(view_name))
            timings.append(elapsed)
        got = con.execute(f"SELECT * FROM {view_name}").sorted()
        want = con.execute(recompute_sql).sorted()
        assert got == want, f"{name} diverged from recompute"
        result["configs"][name] = {
            "native_steps": status["native_steps"],
            "refresh_seconds": timings,
            "best_seconds": min(timings),
        }
    best = {name: cfg["best_seconds"] for name, cfg in result["configs"].items()}
    result["speedup_native_vs_sql"] = best["sql"] / best["native"]
    return result


def collect_union_trajectory(
    orders: int = ORDERS, delta_rows: int = 50, rounds: int = 6
) -> dict:
    """UNION-regroup ablation: the SQL script's table rebuild vs the
    native signed union + regroup kernel, on the per-customer join view."""
    return _collect_refresh_ablation(
        "bench_join_ivm.union_regroup_trajectory",
        VIEW_UNION, "rev_union", UNION_RECOMPUTE, UNION_CONFIGS,
        orders, delta_rows, rounds,
        "rev_union (join, UNION_REGROUP strategy, GROUP BY cust_id)",
    )


def collect_expr_trajectory(
    orders: int = ORDERS, delta_rows: int = 50, rounds: int = 6
) -> dict:
    """Expression-keyed ablation: the SQL script vs the native pipeline
    with the vectorized expression evaluator, on a computed-key view."""
    return _collect_refresh_ablation(
        "bench_join_ivm.expr_keyed_trajectory",
        VIEW_EXPR, "ek", EXPR_RECOMPUTE, EXPR_CONFIGS,
        orders, delta_rows, rounds,
        "ek (UPPER(cust_id) key, SUM(amount + 1), COUNT(*))",
    )


def collect_view_dag_trajectory(
    orders: int = ORDERS, delta_rows: int = 50, rounds: int = 6
) -> dict:
    """Cascade ablation: refresh-to-leaf cost at chain depth 1, 2, 3.

    Each depth builds a fresh engine over the same seeded workload, adds
    the chain up to that depth, then replays the same insert schedule
    through the trigger bridge (so base capture and the cascade feeds
    fire exactly as in production) and times ``refresh(leaf)`` — which
    pulls the whole upstream closure in topological order.  Every level
    is asserted against the recompute of its own defining query before
    the timings are recorded.
    """
    from repro.workloads import time_call

    result: dict = {
        "benchmark": "bench_join_ivm.view_dag_trajectory",
        "workload": {
            "orders": orders,
            "delta_rows": delta_rows,
            "rounds": rounds,
            "view": "dag1 (join, GROUP BY cust_id) -> dag2 (filter) "
                    "-> dag3 (scalar aggregate)",
        },
        "depths": {},
    }
    for depth in (1, 2, 3):
        con, ext, workload = _build(orders=orders, view=VIEW_DAG_LEVELS[0][1])
        for _, create_sql, _, _ in VIEW_DAG_LEVELS[1:depth]:
            con.execute(create_sql)
        leaf = VIEW_DAG_LEVELS[depth - 1][0]
        oid = workload.next_order_id()
        timings = []
        for _ in range(rounds):
            # Through the SQL front door, so capture AND the staleness
            # accounting fire exactly as for production writes — the
            # leaf refresh then pulls the stale upstreams itself.
            values = ", ".join(
                "({oid}, '{cust}', 'p', {amount})".format(
                    oid=oid + i,
                    cust=workload.customers[
                        (oid + i) % len(workload.customers)
                    ][0],
                    amount=(oid + i) % 100,
                )
                for i in range(delta_rows)
            )
            con.execute(f"INSERT INTO orders VALUES {values}")
            oid += delta_rows
            elapsed, _ = time_call(lambda: ext.refresh(leaf))
            timings.append(elapsed)
        for name, _, view_select, recompute_sql in VIEW_DAG_LEVELS[:depth]:
            got = con.execute(view_select).sorted()
            want = con.execute(recompute_sql).sorted()
            assert got == want, f"depth{depth}: {name} diverged"
        result["depths"][f"depth{depth}"] = {
            "leaf": leaf,
            "dag_depth": ext.refresh_stats(leaf)["dag_depth"],
            "refresh_seconds": timings,
            "best_seconds": min(timings),
        }
    best = {d: cfg["best_seconds"] for d, cfg in result["depths"].items()}
    result["overhead_depth3_vs_depth1"] = best["depth3"] / best["depth1"]
    return result


def collect_skewed_trajectory(
    orders: int = 100_000,
    delta_rows: int = 2_000,
    rounds: int = 5,
    warmup_rounds: int = 2,
    skew: float = 2.0,
) -> dict:
    """The SQL script vs the fused native refresh, on skewed deltas.

    The per-customer join view over ``orders`` base rows, refreshed after
    Zipf-skewed insert batches (``skew`` over the 200 customers, so a
    handful of hot customers absorb most of each delta).  The fused
    step probes the join state once per distinct key and folds the
    aggregate and liveness updates without staging ΔV.

    Per config the artifact records the per-round timings plus the
    ``RefreshStats`` snapshot (wall clock, per-stage and per-phase
    seconds, rows in) from the extension's counter object.
    """
    from repro.workloads import time_call, zipf_group_keys

    result: dict = {
        "benchmark": "bench_join_ivm.skewed_trajectory",
        "workload": {
            "orders": orders,
            "delta_rows": delta_rows,
            "rounds": rounds,
            "zipf_skew": skew,
            "view": "rev_cust (join, GROUP BY cust_id)",
        },
        "configs": {},
    }
    recompute_sql = (
        "SELECT o.cust_id, SUM(o.amount) AS revenue, COUNT(*) AS n "
        "FROM orders o JOIN customers c ON o.cust_id = c.cust_id "
        "GROUP BY o.cust_id"
    )
    # One key schedule; every config replays it.
    keys = zipf_group_keys(delta_rows * (rounds + warmup_rounds), 200, skew, 77)
    for name, overrides in SKEWED_CONFIGS:
        con, ext, workload = _build(
            orders=orders, view=VIEW_BY_CUSTOMER, bulk_ingest=True,
            **overrides,
        )
        status = ext.status()[0]
        base = con.table("orders")
        delta = con.table("delta_orders")
        oid = workload.next_order_id()
        key_index = 0
        timings = []
        for round_index in range(rounds + warmup_rounds):
            rows = []
            for _ in range(delta_rows):
                cust = "cust_%05d" % int(keys[key_index][1:])
                rows.append((oid, cust, "p", oid % 100))
                oid += 1
                key_index += 1
            base.insert_batch(rows, coerce=False)
            delta.insert_batch([row + (True,) for row in rows], coerce=False)
            elapsed, _ = time_call(lambda: ext.refresh("rev_cust"))
            if round_index >= warmup_rounds:
                timings.append(elapsed)
        got = con.execute("SELECT * FROM rev_cust").sorted()
        want = con.execute(recompute_sql).sorted()
        assert got == want, f"{name} diverged from recompute"
        result["configs"][name] = {
            "native_steps": status["native_steps"],
            "refresh_seconds": timings,
            "best_seconds": min(timings),
            "refresh_stats": ext.refresh_stats("rev_cust"),
        }
    best = {name: cfg["best_seconds"] for name, cfg in result["configs"].items()}
    result["speedup_fused_vs_sql"] = best["sql"] / best["fused"]
    return result


def collect_ingestion_benchmark(
    row_counts=(500, 2000), repeats: int = 5
) -> dict:
    """Row-at-a-time vs batch ingestion of a delta-sized block.

    Two table shapes: the delta-table shape (no indexes — a straight
    columnar append on the batch path) and the PK'd base-table shape
    (the batch path maintains the ART with one sorted pass).
    """
    import time

    from repro import Connection

    shapes = {
        "delta_table": (
            "CREATE TABLE ing (oid INTEGER, cust_id VARCHAR, "
            "product VARCHAR, amount INTEGER, m BOOLEAN)"
        ),
        "pk_table": (
            "CREATE TABLE ing (oid INTEGER PRIMARY KEY, cust_id VARCHAR, "
            "product VARCHAR, amount INTEGER, m BOOLEAN)"
        ),
    }

    def best_of(ddl: str, run) -> float:
        # Fresh table per repetition; only the ingestion itself is timed.
        best = float("inf")
        for _ in range(repeats):
            con = Connection()
            con.execute(ddl)
            table = con.table("ing")
            start = time.perf_counter()
            run(table)
            best = min(best, time.perf_counter() - start)
        return best

    result: dict = {"benchmark": "bench_join_ivm.ingestion", "shapes": {}}
    for shape, ddl in shapes.items():
        result["shapes"][shape] = {}
        for count in row_counts:
            rows = [
                (i, f"cust_{i % 97:05d}", "p", i % 100, True)
                for i in range(count)
            ]

            def row_path(table):
                for row in rows:
                    table.insert(row, coerce=False)

            def batch_path(table):
                table.insert_batch(rows, coerce=False)

            row_best = best_of(ddl, row_path)
            batch_best = best_of(ddl, batch_path)
            result["shapes"][shape][str(count)] = {
                "row_seconds": row_best,
                "batch_seconds": batch_best,
                "batch_speedup": row_best / batch_best,
            }
    return result


def collect_durability_benchmark(
    rows_per_batch: int = 500, batches: int = 10, repeats: int = 3
) -> dict:
    """WAL append and recovery-replay throughput (``wal_sync`` off).

    Two measurements: raw :class:`~repro.storage.wal.WriteAheadLog`
    appends of delta-shaped batches (the overhead the capture path pays
    per DML when durability is on), and a full
    :meth:`~repro.engine.Connection.recover` of a durability directory
    whose WAL holds every batch past the checkpoint — checkpoint load,
    replay, and the catch-up refresh together, reported as replayed rows
    per second.
    """
    import shutil
    import tempfile
    import time

    from repro.storage.wal import WriteAheadLog

    total = rows_per_batch * batches
    delta_rows = [
        (i, "cust_%05d" % (i % 97), "p", i % 100, True)
        for i in range(rows_per_batch)
    ]
    append_best = float("inf")
    for _ in range(repeats):
        tmp = tempfile.mkdtemp(prefix="ivm-wal-bench-")
        try:
            wal = WriteAheadLog.open(pathlib.Path(tmp) / "wal.log")
            start = time.perf_counter()
            for _ in range(batches):
                wal.append("orders", delta_rows)
            append_best = min(append_best, time.perf_counter() - start)
            wal.close()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    replay_best = float("inf")
    tmp = tempfile.mkdtemp(prefix="ivm-recover-bench-")
    try:
        directory = pathlib.Path(tmp)
        con = Connection()
        load_ivm(
            con,
            flags=CompilerFlags(durability=True),
            durability_dir=directory,
        )
        con.execute(
            "CREATE TABLE t (oid INTEGER PRIMARY KEY, cust VARCHAR, "
            "amount INTEGER)"
        )
        con.execute(
            "CREATE MATERIALIZED VIEW rev AS SELECT cust, SUM(amount) AS s, "
            "COUNT(*) AS n FROM t GROUP BY cust"
        )
        oid = 0
        for _ in range(batches):
            values = ", ".join(
                f"({oid + i}, 'cust_{(oid + i) % 97:05d}', {(oid + i) % 100})"
                for i in range(rows_per_batch)
            )
            con.execute(f"INSERT INTO t VALUES {values}")
            oid += rows_per_batch
        # Every batch sits in the WAL past the view-creation checkpoint
        # (no refresh ran), so recovery replays all of them.
        recovered = None
        for _ in range(repeats):
            start = time.perf_counter()
            recovered = Connection.recover(directory)
            replay_best = min(replay_best, time.perf_counter() - start)
        got = recovered.execute("SELECT cust, s, n FROM rev").sorted()
        want = recovered.execute(
            "SELECT cust, SUM(amount) AS s, COUNT(*) AS n FROM t GROUP BY cust"
        ).sorted()
        assert got == want, "recovered view diverged from recompute"
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    return {
        "benchmark": "bench_join_ivm.durability",
        "workload": {
            "rows_per_batch": rows_per_batch,
            "batches": batches,
            "wal_sync": False,
        },
        "wal_append": {
            "rows": total,
            "best_seconds": append_best,
            "rows_per_second": total / append_best,
        },
        "recovery_replay": {
            "rows": total,
            "best_seconds": replay_best,
            "rows_per_second": total / replay_best,
        },
    }


# Ingest-queue configs: the synchronous capture path vs the bounded
# queue under the block and coalesce backpressure policies.  Capacity
# (96 rows against ~120-row bursts) is sized so bursts overflow it —
# backpressure actually engages — and the
# watermark pump is disabled (high=1.0) so drains happen at refresh
# time — the queue's amortization, not the pump cadence, is measured.
INGEST_QUEUE_CONFIGS = [
    ("sync", dict()),
    (
        "queue_block",
        dict(
            ingest_queue=True, queue_policy="block", queue_capacity=96,
            queue_high_watermark=1.0, queue_low_watermark=0.5,
        ),
    ),
    (
        "queue_coalesce",
        dict(
            ingest_queue=True, queue_policy="coalesce", queue_capacity=96,
            queue_high_watermark=1.0, queue_low_watermark=0.5,
        ),
    ),
]


def _quantile(samples: list, q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]


def collect_ingestion_queue_benchmark(
    bursts: int = 8, statements_per_burst: int = 60,
    rows_per_statement: int = 3, churn: float = 0.35,
) -> dict:
    """Sustained write throughput and refresh latency under burst, with
    and without the bounded ingest queue (``CompilerFlags.ingest_queue``).

    Each burst fires ``statements_per_burst`` DML statements (a ``churn``
    fraction are deletes of previously inserted rows — the coalesce
    policy's food) and then refreshes the view once.  Per config the
    artifact records the ingest throughput (rows/second over the DML
    wall time), the refresh-latency distribution (p50/p99/max over the
    per-burst refreshes), and the queue's admission counters — shed and
    coalesced rows quantify what backpressure absorbed.  Correctness is
    asserted against the recompute at the end of every config.
    """
    import random
    import time

    result: dict = {
        "benchmark": "bench_join_ivm.ingestion_queue",
        "workload": {
            "bursts": bursts,
            "statements_per_burst": statements_per_burst,
            "rows_per_statement": rows_per_statement,
            "churn": churn,
        },
        "configs": {},
    }
    for name, overrides in INGEST_QUEUE_CONFIGS:
        con = Connection()
        ext = load_ivm(
            con,
            CompilerFlags(mode=PropagationMode.LAZY, **overrides),
        )
        con.execute("CREATE TABLE t (g VARCHAR, v INTEGER)")
        con.execute(
            "CREATE MATERIALIZED VIEW q AS "
            "SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g"
        )
        rng = random.Random(5005)
        live: list = []
        ingest_seconds: list = []
        refresh_seconds: list = []
        rows_written = 0
        for _ in range(bursts):
            start = time.perf_counter()
            for _ in range(statements_per_burst):
                if live and rng.random() < churn:
                    g, v = live.pop(rng.randrange(len(live)))
                    con.execute(
                        "DELETE FROM t WHERE g = ? AND v = ?", [g, v]
                    )
                    rows_written += 1
                else:
                    values = []
                    for _ in range(rows_per_statement):
                        g, v = f"g{rng.randrange(32)}", rng.randint(-50, 50)
                        live.append((g, v))
                        values.append(f"('{g}', {v})")
                    con.execute(f"INSERT INTO t VALUES {', '.join(values)}")
                    rows_written += rows_per_statement
            ingest_seconds.append(time.perf_counter() - start)
            start = time.perf_counter()
            ext.refresh("q")
            refresh_seconds.append(time.perf_counter() - start)
        got = con.execute("SELECT g, s, n FROM q").sorted()
        want = con.execute(
            "SELECT g, SUM(v), COUNT(*) FROM t GROUP BY g"
        ).sorted()
        assert got == want, f"{name} diverged from recompute"
        ingest_total = sum(ingest_seconds)
        result["configs"][name] = {
            "rows_written": rows_written,
            "ingest_seconds": ingest_total,
            "rows_per_second": rows_written / ingest_total,
            "refresh_seconds": refresh_seconds,
            "refresh_p50_seconds": _quantile(refresh_seconds, 0.50),
            "refresh_p99_seconds": _quantile(refresh_seconds, 0.99),
            "refresh_max_seconds": max(refresh_seconds),
            "queue": None if ext.queue is None else ext.queue.snapshot(),
        }
    sync = result["configs"]["sync"]
    block = result["configs"]["queue_block"]
    result["queue_vs_sync_ingest_ratio"] = (
        block["rows_per_second"] / sync["rows_per_second"]
    )
    result["queue_vs_sync_p99_ratio"] = (
        block["refresh_p99_seconds"] / sync["refresh_p99_seconds"]
    )
    return result


def emit_pipeline_trajectory(
    path: "pathlib.Path | str | None" = None,
    orders: int = ORDERS,
    delta_rows: int = 50,
    rounds: int = 8,
    minmax_rounds: int = 6,
    ingestion_rows=(500, 2000),
    ablation_rounds: int = 6,
    skewed_orders: int = 100_000,
    skewed_delta_rows: int = 2_000,
    skewed_rounds: int = 5,
    durability_rows: int = 500,
    durability_batches: int = 10,
    queue_bursts: int = 8,
    queue_statements: int = 60,
) -> dict:
    """Collect the trajectories and write ``BENCH_pipeline.json``.

    The artifact carries the SQL-vs-native pipeline trajectory, the
    MIN/MAX, UNION-regroup and expression-keyed SQL-vs-native ablations,
    the row-vs-batch ingestion comparison, the cascade-depth ablation,
    the SQL-vs-fused ablation on the skewed 100k-row config, WAL append
    and recovery-replay throughput, and the ``ingestion_queue`` burst
    comparison (sync capture vs the bounded queue under block/coalesce
    backpressure).
    """
    data = collect_pipeline_trajectory(
        orders=orders, delta_rows=delta_rows, rounds=rounds
    )
    data["minmax"] = collect_minmax_trajectory(
        orders=orders, delta_rows=delta_rows, rounds=minmax_rounds
    )
    data["ingestion"] = collect_ingestion_benchmark(row_counts=ingestion_rows)
    data["union_regroup"] = collect_union_trajectory(
        orders=orders, delta_rows=delta_rows, rounds=ablation_rounds
    )
    data["expr_keyed"] = collect_expr_trajectory(
        orders=orders, delta_rows=delta_rows, rounds=ablation_rounds
    )
    data["view_dag"] = collect_view_dag_trajectory(
        orders=orders, delta_rows=delta_rows, rounds=ablation_rounds
    )
    data["skewed"] = collect_skewed_trajectory(
        orders=skewed_orders, delta_rows=skewed_delta_rows,
        rounds=skewed_rounds,
    )
    data["durability"] = collect_durability_benchmark(
        rows_per_batch=durability_rows, batches=durability_batches,
    )
    data["ingestion_queue"] = collect_ingestion_queue_benchmark(
        bursts=queue_bursts, statements_per_burst=queue_statements,
    )
    target = pathlib.Path(path) if path is not None else BENCH_PIPELINE_PATH
    target.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return data


def test_pipeline_trajectory_shape(report_lines):
    """Every native refresh path beats the SQL script it replaces, and
    the trajectory artifact records the measurement (CI uploads
    BENCH_pipeline.json).  Each ablation family compares the compiled
    SQL script (``batch_kernels=False``) against the native refresh of
    the same view: the MIN/MAX and skewed-delta families must be >= 2x,
    UNION-regroup > 1x, the expression-keyed family > 0.8x."""
    data = emit_pipeline_trajectory()
    best = {
        name: cfg["best_seconds"] * 1e3
        for name, cfg in data["configs"].items()
    }
    report_lines.append(
        f"E6c pipeline delta=50  sql={best['sql']:8.2f}ms  "
        f"full-native={best['full_native']:8.2f}ms  "
        f"full-vs-sql={data['speedup_full_native_vs_sql']:5.2f}x"
    )
    families = {}
    for key, label, tag in (
        ("minmax", "E6d minmax delta=50", "minmax"),
        ("union_regroup", "E6g union delta=50", "union"),
        ("expr_keyed", "E6h expr delta=50", "expr"),
    ):
        family = data[key]
        family_best = {
            name: cfg["best_seconds"] * 1e3
            for name, cfg in family["configs"].items()
        }
        report_lines.append(
            f"{label}  sql={family_best['sql']:8.2f}ms  "
            f"native={family_best['native']:8.2f}ms  "
            f"speedup={family['speedup_native_vs_sql']:5.2f}x"
        )
        families[tag] = family
    ingest = data["ingestion"]["shapes"]["delta_table"]["500"]
    report_lines.append(
        f"E6e ingest rows=500  row={ingest['row_seconds'] * 1e3:8.2f}ms  "
        f"batch={ingest['batch_seconds'] * 1e3:8.2f}ms  "
        f"speedup={ingest['batch_speedup']:5.2f}x"
    )
    skewed = data["skewed"]
    skewed_best = {
        name: cfg["best_seconds"] * 1e3
        for name, cfg in skewed["configs"].items()
    }
    report_lines.append(
        f"E6i skewed delta=2000  sql={skewed_best['sql']:8.2f}ms  "
        f"fused={skewed_best['fused']:8.2f}ms  "
        f"speedup={skewed['speedup_fused_vs_sql']:5.2f}x"
    )
    dag = data["view_dag"]
    dag_best = {
        name: cfg["best_seconds"] * 1e3
        for name, cfg in dag["depths"].items()
    }
    report_lines.append(
        f"E6l viewdag delta=50  depth1={dag_best['depth1']:8.2f}ms  "
        f"depth2={dag_best['depth2']:8.2f}ms  "
        f"depth3={dag_best['depth3']:8.2f}ms  "
        f"3-vs-1={dag['overhead_depth3_vs_depth1']:5.2f}x"
    )
    assert [
        dag["depths"][f"depth{d}"]["dag_depth"] for d in (1, 2, 3)
    ] == [0, 1, 2]
    # Cascading is incremental in the upstream's ΔV, not the base: two
    # extra levels must stay within a small multiple of the depth-1
    # refresh (sanity bound, generous for shared-runner noise).
    assert dag["overhead_depth3_vs_depth1"] < 10.0, (
        "cascaded refresh overhead grew past the per-level O(|dV|) bound"
    )
    assert data["configs"]["full_native"]["native_steps"] == ["fused"]
    assert data["configs"]["full_native"]["sql_steps"] == []
    phases = data["configs"]["full_native"]["refresh_stats"][
        "last_phase_seconds"
    ]
    assert set(phases) == {"fused.step1", "fused.fold", "fused.merge"}
    assert data["speedup_full_native_vs_sql"] > 1.0, (
        "full native pipeline should beat the pure-SQL script"
    )
    for family in families.values():
        assert family["configs"]["sql"]["native_steps"] == []
    minmax = families["minmax"]
    assert minmax["configs"]["native"]["native_steps"] == ["fused"]
    assert minmax["speedup_native_vs_sql"] >= 2.0, (
        "native MIN/MAX refresh should be >= 2x the SQL script's "
        "base-table rescan"
    )
    assert ingest["batch_speedup"] > 1.0, (
        "batch ingestion should beat row-at-a-time at delta >= 500"
    )
    union = families["union"]
    assert "step2" in union["configs"]["native"]["native_steps"]
    assert union["speedup_native_vs_sql"] > 1.0, (
        "native regroup kernel should beat the SQL table rebuild"
    )
    expr = families["expr"]
    assert "step1" in expr["configs"]["native"]["native_steps"]
    # The expression-evaluator margin is recorded rather than tightly
    # gated (the SQL step 1 also scans only the delta); the sanity bound
    # catches genuine regressions.
    assert expr["speedup_native_vs_sql"] > 0.8, (
        "vectorized expression evaluation regressed against the SQL script"
    )
    assert skewed["configs"]["sql"]["native_steps"] == []
    assert skewed["configs"]["fused"]["native_steps"] == ["fused"]
    stats = skewed["configs"]["fused"]["refresh_stats"]
    assert stats["refreshes"] > 0 and stats["last_rows_in"] > 0
    assert skewed["speedup_fused_vs_sql"] >= 2.0, (
        "the fused refresh should be >= 2x the SQL script on the skewed "
        "100k-row config"
    )
    queue = data["ingestion_queue"]["configs"]
    report_lines.append(
        f"E6k queue burst  "
        f"sync={queue['sync']['rows_per_second']:9.0f}rows/s "
        f"p99={queue['sync']['refresh_p99_seconds'] * 1e3:7.2f}ms  "
        f"block={queue['queue_block']['rows_per_second']:9.0f}rows/s "
        f"p99={queue['queue_block']['refresh_p99_seconds'] * 1e3:7.2f}ms  "
        f"coalesced={queue['queue_coalesce']['queue']['coalesced_rows']}"
    )
    for name, cfg in queue.items():
        assert cfg["rows_per_second"] > 0 and cfg["refresh_p99_seconds"] > 0
    assert queue["sync"]["queue"] is None
    for name in ("queue_block", "queue_coalesce"):
        counters = queue[name]["queue"]
        assert counters["enqueued_rows"] > 0
        assert counters["drained_rows"] + counters["coalesced_rows"] >= (
            counters["enqueued_rows"] - counters["depth_rows"]
        )


# ---------------------------------------------------------------------------
# Regression gate: full-native refresh vs committed baseline
# ---------------------------------------------------------------------------

BENCH_BASELINE_PATH = pathlib.Path(__file__).resolve().parents[1] / (
    "BENCH_baseline.json"
)


def measure_gate_metric(orders: int = ORDERS, delta_rows: int = 50,
                        rounds: int = 5) -> dict:
    """The machine-normalized gate metric for the 15k-row join config.

    Raw refresh seconds vary wildly across runner hardware, so the gate
    compares the *ratio* of the best full-native refresh to the best full
    recompute of the same view on the same machine — dimensionless, and
    exactly the quantity the native pipeline exists to shrink.
    """
    from repro.workloads import time_call

    con, ext, workload = _build(orders=orders, view=VIEW_BY_CUSTOMER)
    recompute_sql = (
        "SELECT o.cust_id, SUM(o.amount) AS revenue, COUNT(*) AS n "
        "FROM orders o JOIN customers c ON o.cust_id = c.cust_id "
        "GROUP BY o.cust_id"
    )
    recompute_best, _ = time_call(lambda: con.execute(recompute_sql), repeat=3)
    oid = workload.next_order_id()
    refresh_best = float("inf")
    for _ in range(rounds):
        _apply_delta(con, workload, oid, delta_rows)
        oid += delta_rows
        elapsed, _ = time_call(lambda: ext.refresh("rev_cust"))
        refresh_best = min(refresh_best, elapsed)
    return {
        "workload": {"orders": orders, "delta_rows": delta_rows,
                     "view": "rev_cust (join, GROUP BY cust_id)"},
        "full_native_best_seconds": refresh_best,
        "recompute_best_seconds": recompute_best,
        "refresh_vs_recompute_ratio": refresh_best / recompute_best,
    }


def test_bench_regression_gate(report_lines):
    """Fail CI when the full-native refresh regresses more than 1.5x
    against the committed baseline on the 15k-row join config.

    The compared quantity is refresh/recompute on the same machine (see
    :func:`measure_gate_metric`), so a slower runner does not trip the
    gate but a genuinely slower refresh path does."""
    baseline = json.loads(BENCH_BASELINE_PATH.read_text(encoding="utf-8"))
    current = measure_gate_metric()
    allowed = baseline["join_15k"]["refresh_vs_recompute_ratio"] * 1.5
    report_lines.append(
        f"E6f gate ratio={current['refresh_vs_recompute_ratio']:6.3f} "
        f"(baseline={baseline['join_15k']['refresh_vs_recompute_ratio']:6.3f}, "
        f"allowed<{allowed:6.3f})"
    )
    assert current["refresh_vs_recompute_ratio"] <= allowed, (
        "full-native refresh regressed >1.5x vs BENCH_baseline.json on the "
        "15k-row join config"
    )
