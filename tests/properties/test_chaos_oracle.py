"""Chaos oracle: randomized DML under seeded fault schedules.

The robustness milestone's acceptance bar.  The chaos campaigns replay
seeded DML streams (a sales workload under a join view, plus a
single-table churn stream for the ingest queue) while a deterministic
:class:`~repro.core.faults.FaultPlan` injects failures at the four named
sites:

* ``fused.fold`` — errors and latency inside a join view's fused
  refresh, after step 1 has integrated the round into the join state,
  exercising the rollback, the recompute self-heal and the degradation
  ladder;
* ``wal.append`` — hard errors and torn writes on the capture path (the
  base mutation survives; the delta is lost, so the watchers must
  self-heal through recompute);
* ``checkpoint.write`` — torn and failed checkpoint images (periodic
  checkpoints swallow the error; recovery must fall back to the last
  good image);
* ``queue.enqueue`` — admission faults plus genuine overflow against a
  tiny queue under each backpressure policy.

After every few statements each engine must equal the full recompute of
its view over its own base tables — whatever subset of faults fired, an
injected failure may cost refresh work but never correctness.  The
ladder campaign additionally asserts the structured ``demote``/``heal``
events, and the durability campaign finishes with a real
:meth:`Connection.recover` over the faulted directory.

Total randomized DML steps across the campaigns reach 360 (asserted at
the bottom); every schedule is seeded, so failures replay exactly.
"""

from __future__ import annotations

import random

import pytest

from repro import CompilerFlags, Connection, PropagationMode, load_ivm
from repro.core.faults import FaultPlan, FaultSpec
from repro.core.runtime import RUNG_NATIVE, RUNG_RECOMPUTE, RUNG_SQL
from repro.errors import ReproError
from repro.workloads.generators import generate_sales_workload, zipf_group_keys

FUSED_STEPS = 120
DURABILITY_STEPS = 60
QUEUE_STEPS_PER_POLICY = 30
LADDER_STEPS = 24
DAG_INTERIOR_STEPS = 40
DAG_DURABILITY_STEPS = 30

VIEW = (
    "CREATE MATERIALIZED VIEW sh AS "
    "SELECT c.region, COUNT(*) AS n, SUM(o.amount) AS revenue, "
    "MIN(o.amount) AS lo, MAX(o.amount) AS hi "
    "FROM orders o JOIN customers c ON o.cust_id = c.cust_id "
    "GROUP BY c.region"
)
RECOMPUTE = (
    "SELECT c.region, COUNT(*), SUM(o.amount), MIN(o.amount), MAX(o.amount) "
    "FROM orders o JOIN customers c ON o.cust_id = c.cust_id "
    "GROUP BY c.region"
)

GROUPS_VIEW = (
    "CREATE MATERIALIZED VIEW q AS "
    "SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g"
)
GROUPS_RECOMPUTE = "SELECT g, SUM(v), COUNT(*) FROM t GROUP BY g"


def _build_sales_engine(**flag_overrides):
    """A connection with the join view over the seeded sales workload."""
    flag_overrides.setdefault("mode", PropagationMode.LAZY)
    con = Connection()
    ext = load_ivm(con, CompilerFlags(**flag_overrides))
    workload = generate_sales_workload(
        num_customers=40, num_orders=120, num_regions=6, seed=71
    )
    con.execute(workload.SCHEMA)
    customers = con.table("customers")
    for row in workload.customers:
        customers.insert(row, coerce=False)
    orders = con.table("orders")
    for row in workload.orders:
        orders.insert(row, coerce=False)
    con.execute(VIEW)
    return con, ext, workload


def _execute_chaos(con, sql, params=None) -> bool:
    """Run one DML statement, tolerating injected failures.

    Returns True when the statement raised an injected/typed error.  The
    base mutation has still been applied (capture and refresh run in
    AFTER hooks), so the oracle's ground truth — recompute over this
    connection's own base tables — stays valid either way."""
    try:
        if params is None:
            con.execute(sql)
        else:
            con.execute(sql, params)
        return False
    except ReproError:
        return True


def _assert_converged(con, view_select: str, recompute_sql: str) -> None:
    """The view must equal the recompute; reads retry past injected
    refresh failures (each failed attempt demotes/flags, the next one
    self-heals), and must converge within a handful of attempts."""
    got = None
    for _ in range(8):
        try:
            got = con.execute(view_select).sorted()
            break
        except ReproError:
            continue
    assert got is not None, "view read never survived the fault schedule"
    want = con.execute(recompute_sql).sorted()
    assert got == want, "view diverged from the recompute ground truth"


# ---------------------------------------------------------------------------
# Campaign 1: fused-step chaos — mid-refresh failures, self-heal, ladder
# ---------------------------------------------------------------------------


def test_fused_step_chaos_converges():
    """The join view's fused refresh under injected errors and latency
    after step 1 has already integrated the round: every error rolls
    the view back, demotes the ladder and leaves the recompute
    self-heal to repair the states, latency costs only time, and the
    view equals the recompute after every burst regardless."""
    plan = FaultPlan(seed=2024).add(
        FaultSpec("fused.fold", kind="error", probability=0.10, times=8)
    ).add(
        FaultSpec("fused.fold", kind="error", probability=0.05, times=3)
    ).add(
        FaultSpec(
            "fused.fold", kind="latency", latency=0.01,
            probability=0.04, times=2,
        )
    )
    con, ext, workload = _build_sales_engine(fault_plan=plan)
    assert [s.name for s in ext.compiled("sh").native_steps] == ["fused"]
    rng = random.Random(93)
    picks = iter(
        int(key[1:])
        for key in zipf_group_keys(
            FUSED_STEPS * 2, num_groups=40, skew=1.3, seed=94
        )
    )
    live = {row[0]: None for row in workload.orders}
    next_oid = workload.next_order_id()
    for step in range(1, FUSED_STEPS + 1):
        roll = rng.random()
        if roll < 0.6 or not live:
            cust = workload.customers[next(picks)][0]
            _execute_chaos(
                con, "INSERT INTO orders VALUES (?, ?, ?, ?)",
                [next_oid, cust, "p", rng.randint(-200, 500)],
            )
            live[next_oid] = None
            next_oid += 1
        else:
            victim = rng.choice(sorted(live))
            del live[victim]
            _execute_chaos(con, "DELETE FROM orders WHERE oid = ?", [victim])
        if step % 5 == 0:
            _assert_converged(
                con, "SELECT region, n, revenue, lo, hi FROM sh", RECOMPUTE
            )
    assert plan.fired("fused.fold") > 0, "schedule never fired"
    stats = ext.view_state("sh").stats
    assert stats.events_of("refresh_failure"), "no refresh ever failed"
    assert stats.events_of("demote"), "failures never demoted the ladder"
    assert stats.events_of("recompute"), "self-heal never ran"
    # Quiet phase: the schedule is exhausted (every spec is times-capped),
    # so clean refreshes heal the ladder back to the full plan.
    state = ext.view_state("sh")
    for round_index in range(16):
        if state.ladder.rung == RUNG_NATIVE:
            break
        con.execute(
            "INSERT INTO orders VALUES (?, ?, ?, ?)",
            [next_oid, workload.customers[0][0], "p", round_index],
        )
        next_oid += 1
        ext.refresh("sh")
    assert state.ladder.rung == RUNG_NATIVE, "ladder never healed"
    assert stats.events_of("heal"), "heal left no structured event"
    _assert_converged(
        con, "SELECT region, n, revenue, lo, hi FROM sh", RECOMPUTE
    )


# ---------------------------------------------------------------------------
# Campaign 2: WAL / checkpoint I/O chaos, then a real recovery
# ---------------------------------------------------------------------------


def test_durability_io_chaos_converges_and_recovers(tmp_path):
    """Flaky WAL appends (hard + torn) and flaky checkpoint images under
    a randomized stream: the live engine stays convergent (lost captures
    self-heal through recompute), periodic checkpoint failures are
    contained, and recovering the faulted directory yields an engine
    whose views equal the recompute over the recovered base tables."""
    plan = FaultPlan(seed=7).add(
        FaultSpec("wal.append", kind="error", probability=0.10, times=5)
    ).add(
        FaultSpec("wal.append", kind="torn", probability=0.06, times=4)
    ).add(
        FaultSpec("checkpoint.write", kind="torn", probability=0.5, times=2)
    ).add(
        FaultSpec("checkpoint.write", kind="error", probability=0.4, times=2)
    )
    directory = tmp_path / "chaos-dur"
    con = Connection()
    ext = load_ivm(
        con,
        CompilerFlags(
            mode=PropagationMode.LAZY,
            durability=True,
            checkpoint_every=3,
            fault_plan=plan,
        ),
        durability_dir=directory,
    )
    con.execute("CREATE TABLE t (g VARCHAR, v INTEGER)")
    con.execute(GROUPS_VIEW)
    rng = random.Random(29)
    for step in range(1, DURABILITY_STEPS + 1):
        if rng.random() < 0.75:
            _execute_chaos(
                con, "INSERT INTO t VALUES (?, ?)",
                [f"g{rng.randrange(8)}", float(rng.randint(-8, 8))],
            )
        else:
            _execute_chaos(
                con, "DELETE FROM t WHERE g = ? AND v = ?",
                [f"g{rng.randrange(8)}", float(rng.randint(-8, 8))],
            )
        if step % 5 == 0:
            _assert_converged(
                con, "SELECT g, s, n FROM q", GROUPS_RECOMPUTE
            )
    assert plan.fired("wal.append") > 0
    assert plan.fired("checkpoint.write") > 0
    # Torn WAL appends rolled the file back, so the log on disk has no
    # torn middle: a full scan must decode cleanly.
    from repro.storage.wal import wal_health

    health = wal_health(directory / "wal.log")
    assert health["valid"] and health["torn_tail_bytes"] == 0
    live_rows = con.execute("SELECT COUNT(*) FROM t").rows[0][0]
    ext.shutdown()
    # The recovered engine replays checkpoint + WAL: rows whose append
    # faulted never reached the log, so the recovered base may trail the
    # live one — but its views must equal ITS recompute exactly.
    recovered = Connection.recover(directory)
    recovered_rows = recovered.execute("SELECT COUNT(*) FROM t").rows[0][0]
    assert recovered_rows <= live_rows
    assert (
        recovered.execute("SELECT g, s, n FROM q").sorted()
        == recovered.execute(GROUPS_RECOMPUTE).sorted()
    )
    # And the recovered engine keeps working incrementally.
    recovered.execute("INSERT INTO t VALUES ('post', 1.0), ('post', 2.0)")
    assert (
        recovered.execute("SELECT g, s, n FROM q").sorted()
        == recovered.execute(GROUPS_RECOMPUTE).sorted()
    )


# ---------------------------------------------------------------------------
# Campaign 3: ingest-queue overflow chaos, one run per backpressure policy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("policy", ["block", "shed", "coalesce"])
def test_queue_overflow_chaos_converges(policy):
    """A churny stream against a deliberately tiny queue plus injected
    admission faults: every policy converges — block pays with inline
    drains, shed pays with typed rejections + recompute self-heal,
    coalesce annihilates opposite-sign churn in place."""
    plan = FaultPlan(seed=11).add(
        FaultSpec("queue.enqueue", kind="error", probability=0.2, times=4)
    )
    con = Connection()
    ext = load_ivm(
        con,
        CompilerFlags(
            mode=PropagationMode.LAZY,
            ingest_queue=True,
            queue_capacity=10,
            queue_policy=policy,
            queue_high_watermark=1.0,
            queue_low_watermark=0.5,
            fault_plan=plan,
        ),
    )
    con.execute("CREATE TABLE t (g VARCHAR, v INTEGER)")
    con.execute(GROUPS_VIEW)
    rng = random.Random({"block": 101, "shed": 202, "coalesce": 303}[policy])
    shed_or_injected = 0
    for step in range(1, QUEUE_STEPS_PER_POLICY + 1):
        if rng.random() < 0.65:
            count = rng.randint(1, 6)
            values = ", ".join(
                f"('g{rng.randrange(4)}', {rng.randint(-5, 5)})"
                for _ in range(count)
            )
            failed = _execute_chaos(con, f"INSERT INTO t VALUES {values}")
        else:
            failed = _execute_chaos(
                con, "DELETE FROM t WHERE g = ?", [f"g{rng.randrange(4)}"]
            )
        shed_or_injected += failed
        if step % 5 == 0:
            _assert_converged(con, "SELECT g, s, n FROM q", GROUPS_RECOMPUTE)
    counters = ext.queue.counters
    if policy == "shed":
        assert counters["shed_batches"] > 0, "tiny queue never overflowed"
        assert shed_or_injected > 0
    if policy == "block":
        assert counters["inline_drains"] > 0, "blocked writer never drained"
    if policy == "coalesce":
        assert counters["coalesced_rows"] > 0, "churn never coalesced"
    assert plan.fired("queue.enqueue") > 0
    _assert_converged(con, "SELECT g, s, n FROM q", GROUPS_RECOMPUTE)


# ---------------------------------------------------------------------------
# Campaign 4: the degradation ladder demotes rung by rung, then heals back
# ---------------------------------------------------------------------------


class InjectedSqlFailure(ReproError):
    """A failure armed on the SQL rung, where no fused step runs."""


def test_degradation_ladder_demotes_and_heals_deterministically():
    """Two injected failures walk the ladder down one rung each (native
    → SQL → recompute): a ``fused.fold`` fault on the native rung, then
    a failing propagation statement on the SQL rung.  Every rung is
    visible as a structured ``demote`` event, and once the faults stop,
    consecutive clean refreshes emit ``heal`` events until the view is
    back on the native plan — with the native states reseeded and the
    results still exact."""
    plan = FaultPlan(seed=3)
    con, ext, workload = _build_sales_engine(
        degradation_heal_after=2,
        fault_plan=plan,
    )
    state = ext.view_state("sh")
    next_oid = workload.next_order_id()
    steps = 0

    def dml_and_refresh(expect_fail: bool, fail_sql: bool = False) -> None:
        nonlocal next_oid, steps
        con.execute(
            "INSERT INTO orders VALUES (?, ?, ?, ?)",
            [next_oid, workload.customers[steps % 20][0], "p", steps * 3 - 20],
        )
        next_oid += 1
        steps += 1
        original = con.execute_statement
        if fail_sql:
            def failing(statement, parameters=()):
                raise InjectedSqlFailure("propagation statement failed")

            con.execute_statement = failing
        failed = False
        try:
            ext.refresh("sh")
        except ReproError:
            failed = True
        finally:
            con.execute_statement = original
        assert failed == expect_fail
        _assert_converged(
            con, "SELECT region, n, revenue, lo, hi FROM sh", RECOMPUTE
        )

    # Phase 1: one fault in the fused step demotes the native plan.
    plan.add(FaultSpec("fused.fold", kind="error", times=1))
    dml_and_refresh(expect_fail=True)
    assert state.ladder.rung == RUNG_SQL
    # Phase 2: the recompute that repaired the view counts as a clean
    # round; the next refresh runs the SQL script, and a failing
    # statement there demotes again.
    dml_and_refresh(expect_fail=True, fail_sql=True)
    assert state.ladder.rung == RUNG_RECOMPUTE
    # Phase 3: no faults armed — clean refreshes heal rung by rung, and
    # further cleans at the top stay there.
    while steps < LADDER_STEPS:
        dml_and_refresh(expect_fail=False)
    assert plan.fired("fused.fold") == 1
    stats = state.stats
    demotes = stats.events_of("demote")
    heals = stats.events_of("heal")
    assert [(e["from_rung"], e["to_rung"]) for e in demotes] == [(0, 1), (1, 2)]
    assert [(e["from_rung"], e["to_rung"]) for e in heals] == [(2, 1), (1, 0)]
    assert state.ladder.rung == RUNG_NATIVE
    assert stats.degradation_rung == RUNG_NATIVE
    assert state.ladder.demotions == 2 and state.ladder.heals == 2
    assert steps == LADDER_STEPS
    # The reseeded native states keep propagating exactly after the heal.
    con.execute(
        "INSERT INTO orders VALUES (?, ?, ?, ?)",
        [next_oid, workload.customers[1][0], "p", 999],
    )
    ext.refresh("sh")
    _assert_converged(
        con, "SELECT region, n, revenue, lo, hi FROM sh", RECOMPUTE
    )


# ---------------------------------------------------------------------------
# Campaign 5: faults at an INTERIOR node of a view-over-view DAG
# ---------------------------------------------------------------------------


def _dag_levels():
    """(view select, recompute over the upstream's stored table) per level."""
    return [
        ("SELECT cust_id, rev, n FROM by_cust",
         "SELECT cust_id, SUM(amount), COUNT(*) FROM orders GROUP BY cust_id"),
        ("SELECT region, revenue, nc FROM by_region",
         "SELECT c.region, SUM(o.rev), COUNT(*) "
         "FROM by_cust o JOIN customers c ON o.cust_id = c.cust_id "
         "GROUP BY c.region"),
        ("SELECT grand FROM grand_total",
         "SELECT SUM(revenue) FROM by_region"),
    ]


def _assert_dag_converged(con) -> None:
    """Read the leaf first (one read pulls the whole chain fresh in topo
    order, retrying past injected failures), then hold every level to
    the recompute of its own defining query over its upstream."""
    for _ in range(8):
        try:
            con.execute("SELECT grand FROM grand_total")
            break
        except ReproError:
            continue
    for view_select, recompute_sql in _dag_levels():
        _assert_converged(con, view_select, recompute_sql)


def test_dag_interior_node_chaos_converges_and_invalidates_downstream():
    """Faults aimed at the *interior* node of a 3-level DAG: only
    ``by_region`` is a join view, so every ``fused.fold`` firing lands
    mid-cascade.  A failed interior refresh must flag its dependents
    (``upstream_invalidate`` events + counter) instead of letting them
    consume a polluted feed, the ladder demotes and heals at the interior
    rung, and all three levels equal their recompute throughout."""
    plan = FaultPlan(seed=4096).add(
        FaultSpec("fused.fold", kind="error", probability=0.25, times=6)
    ).add(
        FaultSpec("fused.fold", kind="error", probability=0.15, times=3)
    )
    con, ext, workload = _build_sales_engine(
        degradation_heal_after=2,
        fault_plan=plan,
    )
    con.execute("DROP MATERIALIZED VIEW sh")
    con.execute(
        "CREATE MATERIALIZED VIEW by_cust AS "
        "SELECT cust_id, SUM(amount) AS rev, COUNT(*) AS n "
        "FROM orders GROUP BY cust_id"
    )
    con.execute(
        "CREATE MATERIALIZED VIEW by_region AS "
        "SELECT c.region, SUM(o.rev) AS revenue, COUNT(*) AS nc "
        "FROM by_cust o JOIN customers c ON o.cust_id = c.cust_id "
        "GROUP BY c.region"
    )
    con.execute(
        "CREATE MATERIALIZED VIEW grand_total AS "
        "SELECT SUM(revenue) AS grand FROM by_region"
    )
    rng = random.Random(57)
    live = {row[0]: None for row in workload.orders}
    next_oid = workload.next_order_id()
    for step in range(1, DAG_INTERIOR_STEPS + 1):
        if rng.random() < 0.6 or not live:
            cust = workload.customers[rng.randrange(40)][0]
            _execute_chaos(
                con, "INSERT INTO orders VALUES (?, ?, ?, ?)",
                [next_oid, cust, "p", rng.randint(-200, 500)],
            )
            live[next_oid] = None
            next_oid += 1
        else:
            victim = rng.choice(sorted(live))
            del live[victim]
            _execute_chaos(con, "DELETE FROM orders WHERE oid = ?", [victim])
        if step % 5 == 0:
            _assert_dag_converged(con)
    assert plan.fired("fused.fold") > 0, "schedule never fired"
    mid = ext.view_state("by_region")
    assert mid.stats.events_of("refresh_failure"), "interior never failed"
    assert mid.stats.events_of("demote"), "interior failures never demoted"
    # The failed interior refreshes flagged the leaf, visibly.
    leaf_stats = ext.view_state("grand_total").stats
    assert leaf_stats.upstream_invalidations > 0
    events = leaf_stats.events_of("upstream_invalidate")
    assert events and all(e["upstream"] == "by_region" for e in events)
    assert ext.refresh_stats("grand_total")["upstream_invalidations"] > 0
    # Heal phase: keep refreshing until the schedule (times-capped at 9
    # firings) runs dry, after which consecutive clean refreshes walk the
    # interior ladder back up — and the healed DAG still converges.
    for round_index in range(40):
        if mid.ladder.rung == RUNG_NATIVE:
            break
        con.execute(
            "INSERT INTO orders VALUES (?, ?, ?, ?)",
            [next_oid, workload.customers[0][0], "p", round_index],
        )
        next_oid += 1
        try:
            ext.refresh("grand_total")
        except ReproError:
            continue
    assert mid.ladder.rung == RUNG_NATIVE, "interior ladder never healed"
    assert mid.stats.events_of("heal")
    _assert_dag_converged(con)


def test_dag_durability_chaos_recovers_all_levels(tmp_path):
    """WAL-append and queue-admission faults under a 3-level chain with
    durability on: the live DAG stays convergent at every level, and
    recovering the faulted directory rebuilds the whole chain — each
    recovered level equals the recompute over the recovered base."""
    plan = FaultPlan(seed=19).add(
        FaultSpec("wal.append", kind="error", probability=0.08, times=4)
    ).add(
        FaultSpec("wal.append", kind="torn", probability=0.05, times=3)
    ).add(
        FaultSpec("queue.enqueue", kind="error", probability=0.15, times=3)
    )
    directory = tmp_path / "chaos-dag"
    con = Connection()
    ext = load_ivm(
        con,
        CompilerFlags(
            mode=PropagationMode.LAZY,
            durability=True,
            checkpoint_every=4,
            ingest_queue=True,
            queue_capacity=12,
            queue_policy="shed",
            fault_plan=plan,
        ),
        durability_dir=directory,
    )
    con.execute("CREATE TABLE t (g VARCHAR, v INTEGER)")
    con.execute(GROUPS_VIEW)
    con.execute(
        "CREATE MATERIALIZED VIEW q2 AS SELECT g, s FROM q WHERE s > 0"
    )
    con.execute(
        "CREATE MATERIALIZED VIEW q3 AS SELECT g, s FROM q2 WHERE s > 10"
    )
    levels = [
        ("SELECT g, s, n FROM q", GROUPS_RECOMPUTE),
        ("SELECT g, s FROM q2", "SELECT g, s FROM q WHERE s > 0"),
        ("SELECT g, s FROM q3", "SELECT g, s FROM q2 WHERE s > 10"),
    ]
    rng = random.Random(23)
    for step in range(1, DAG_DURABILITY_STEPS + 1):
        if rng.random() < 0.75:
            _execute_chaos(
                con, "INSERT INTO t VALUES (?, ?)",
                [f"g{rng.randrange(6)}", float(rng.randint(-8, 12))],
            )
        else:
            _execute_chaos(
                con, "DELETE FROM t WHERE g = ? AND v = ?",
                [f"g{rng.randrange(6)}", float(rng.randint(-8, 12))],
            )
        if step % 5 == 0:
            for _ in range(8):
                try:
                    con.execute("SELECT g, s FROM q3")
                    break
                except ReproError:
                    continue
            for view_select, recompute_sql in levels:
                _assert_converged(con, view_select, recompute_sql)
    assert plan.fired("wal.append") > 0
    ext.shutdown()
    recovered = Connection.recover(directory)
    for view_select, recompute_sql in levels:
        assert (
            recovered.execute(view_select).sorted()
            == recovered.execute(recompute_sql).sorted()
        ), f"recovered {view_select!r} diverged"
    # The recovered DAG keeps cascading incrementally.
    recovered.execute("INSERT INTO t VALUES ('post', 50.0), ('post', 2.0)")
    for view_select, recompute_sql in levels:
        assert (
            recovered.execute(view_select).sorted()
            == recovered.execute(recompute_sql).sorted()
        )


def test_chaos_step_budget():
    """The chaos CI step's budget: 360+ randomized DML steps under fault
    schedules across the campaigns above."""
    total = (
        FUSED_STEPS
        + DURABILITY_STEPS
        + 3 * QUEUE_STEPS_PER_POLICY
        + LADDER_STEPS
        + DAG_INTERIOR_STEPS
        + DAG_DURABILITY_STEPS
    )
    assert total >= 360
