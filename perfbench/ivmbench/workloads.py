"""The three workloads: base data, views, statement streams and set-up.

Every input is a function of the seed: the base tables come from
``repro.workloads.generate_sales_workload`` and each statement stream
from its own ``random.Random``, driven by a shadow of the live order
ids, so the same seed gives the same statements in the same order.  The
program under test sees only the generated SQL text and parameters.
Each :class:`Spec` says why its workload was chosen.
"""

from __future__ import annotations

import itertools
import pathlib
import random
from dataclasses import dataclass, field
from typing import Iterator

from repro import (
    CompilerFlags,
    Connection,
    CrossSystemPipeline,
    OLTPSystem,
    load_ivm,
)
from repro.workloads.generators import SalesWorkload, generate_sales_workload

INSERT_ORDER = "INSERT INTO orders VALUES (?, ?, ?, ?)"
UPDATE_AMOUNT = "UPDATE orders SET amount = ? WHERE oid = ?"
DELETE_ORDER = "DELETE FROM orders WHERE oid = ?"

JOIN = "FROM orders o JOIN customers c ON o.cust_id = c.cust_id"


@dataclass(frozen=True)
class Op:
    """One client statement.  ``kind`` is insert, modify or read; a read
    names the view it makes current (for the visibility metric)."""

    kind: str
    sql: str
    params: tuple = ()
    view: str = ""


@dataclass(frozen=True)
class ViewDef:
    name: str
    columns: str
    query: str

    @property
    def create(self) -> str:
        return f"CREATE MATERIALIZED VIEW {self.name} AS {self.query}"


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    views: tuple[ViewDef, ...]
    # Rounds run before timing starts (caches fill, lazy set-up finishes).
    warmup_rounds: int
    mix: str
    visible_views: tuple[str, ...]
    num_customers: int = 2000
    num_orders: int = 100_000
    flags: dict = field(default_factory=dict)


REV_CUST = ViewDef(
    "rev_cust", "cust_id, revenue, n",
    f"SELECT o.cust_id, SUM(o.amount) AS revenue, COUNT(*) AS n {JOIN} "
    "GROUP BY o.cust_id",
)
PROD_PX = ViewDef(
    "prod_px", "product, lo, hi, n",
    "SELECT product, MIN(amount) AS lo, MAX(amount) AS hi, COUNT(*) AS n "
    "FROM orders GROUP BY product",
)
PX = ViewDef(
    "px", "cust_id, total, lo, hi, n",
    f"SELECT o.cust_id, SUM(o.amount) AS total, MIN(o.amount) AS lo, "
    f"MAX(o.amount) AS hi, COUNT(*) AS n {JOIN} GROUP BY o.cust_id",
)
# A customer's base orders total about 12.5k; the Zipf-hot customers of
# bulk_delta cross this line as rounds add and retract their orders.
BIG_TOTAL = 14_000
BIG_CUST = ViewDef(
    "big_cust", "cust_id, total, n",
    f"SELECT cust_id, total, n FROM px WHERE total > {BIG_TOTAL}",
)
REV_REGION = ViewDef(
    "rev_region", "region, revenue, n",
    f"SELECT c.region, SUM(o.amount) AS revenue, COUNT(*) AS n {JOIN} "
    "GROUP BY c.region",
)
BY_PROD = ViewDef(
    "by_prod", "product, revenue, n",
    "SELECT product, SUM(amount) AS revenue, COUNT(*) AS n FROM orders "
    "GROUP BY product",
)
TOP_REGIONS = "SELECT region, revenue FROM rev_region ORDER BY revenue DESC LIMIT 3"

BULK_INSERT_ROWS = 500
BULK_DELETE_ROWS = 250
BULK_NULL_SHARE = 0.05
BULK_ZIPF = 1.1
HTAP_INSERTS = 19

SPECS = {
    "oltp_point": Spec(
        "oltp_point",
        "1-row deltas via prepared statements: parse, DML row location, "
        "capture+WAL and the view read do the work; refresh does little",
        (REV_CUST, PROD_PX),
        warmup_rounds=20,
        mix="40% INSERT, 10% UPDATE by oid, 5% DELETE by oid, "
            "30% point SELECT on rev_cust, 15% on prod_px; prepared text",
        visible_views=("rev_cust", "prod_px"),
        flags={"durability": True, "wal_sync": False},
    ),
    "bulk_delta": Spec(
        "bulk_delta",
        "500-row skewed deltas through a 2-level view DAG: refresh steps 1-4, "
        "join/extrema state, cascade feeds and snapshot commit do the work; "
        "no statement text repeats",
        (PX, BIG_CUST),
        warmup_rounds=1,
        mix=f"per round: one literal {BULK_INSERT_ROWS}-row INSERT "
            f"(Zipf({BULK_ZIPF}) cust_id, {BULK_NULL_SHARE:.0%} NULL amount), "
            f"one DELETE of {BULK_DELETE_ROWS} earlier-round oids by "
            "BETWEEN, one read of big_cust",
        visible_views=("big_cust",),
        flags={"durability": True, "wal_sync": False},
    ),
    "htap_sync": Spec(
        "htap_sync",
        "PostgreSQL->DuckDB pipeline: join step 1 runs as SQL through the "
        "attachment and there is no WAL, the other side of a native-path or "
        "WAL change",
        (REV_REGION, BY_PROD),
        warmup_rounds=1,
        mix=f"per round: {HTAP_INSERTS} prepared INSERTs and 1 UPDATE by "
            "oid on the OLTP side, then one refreshing top-regions query",
        visible_views=("rev_region",),
    ),
}


def base_data(spec: Spec, seed: int) -> SalesWorkload:
    return generate_sales_workload(
        num_customers=spec.num_customers,
        num_orders=spec.num_orders,
        seed=seed,
    )


# -- statement streams --------------------------------------------------------


def stream(spec: Spec, data: SalesWorkload, seed: int,
           segment: int = 0) -> Iterator[list[Op]]:
    """The rounds of one segment of a run: endless, and a pure function
    of the seed and the segment number."""
    rng = random.Random(f"{spec.name}:{seed}:{segment}")
    return _STREAMS[spec.name](rng, data)


def _oltp_point(rng: random.Random, data: SalesWorkload) -> Iterator[list[Op]]:
    live = [order[0] for order in data.orders]
    next_oid = data.next_order_id()
    customers = [c[0] for c in data.customers]
    while True:
        draw = rng.random()
        if draw < 0.40:
            row = (next_oid, rng.choice(customers), rng.choice(data.products),
                   rng.randint(1, 500))
            live.append(next_oid)
            next_oid += 1
            yield [Op("insert", INSERT_ORDER, row)]
        elif draw < 0.50:
            oid = live[rng.randrange(len(live))]
            yield [Op("modify", UPDATE_AMOUNT, (rng.randint(1, 500), oid))]
        elif draw < 0.55:
            index = rng.randrange(len(live))
            live[index], live[-1] = live[-1], live[index]
            yield [Op("modify", DELETE_ORDER, (live.pop(),))]
        elif draw < 0.85:
            yield [Op("read", f"SELECT {REV_CUST.columns} FROM rev_cust "
                      "WHERE cust_id = ?", (rng.choice(customers),),
                      "rev_cust")]
        else:
            yield [Op("read", f"SELECT {PROD_PX.columns} FROM prod_px "
                      "WHERE product = ?", (rng.choice(data.products),),
                      "prod_px")]


def _bulk_delta(rng: random.Random, data: SalesWorkload) -> Iterator[list[Op]]:
    customers = [c[0] for c in data.customers]
    rng.shuffle(customers)  # which customers are hot depends on the seed
    weights = list(itertools.accumulate(
        1.0 / (rank ** BULK_ZIPF) for rank in range(1, len(customers) + 1)
    ))
    next_oid = data.next_order_id()
    previous = None
    while True:
        values = []
        for oid in range(next_oid, next_oid + BULK_INSERT_ROWS):
            cust = rng.choices(customers, cum_weights=weights)[0]
            product = rng.choice(data.products)
            amount = ("NULL" if rng.random() < BULK_NULL_SHARE
                      else str(rng.randint(1, 500)))
            values.append(f"({oid}, '{cust}', '{product}', {amount})")
        ops = [Op("insert", "INSERT INTO orders VALUES " + ", ".join(values))]
        if previous is not None:
            low = previous + rng.randrange(BULK_INSERT_ROWS - BULK_DELETE_ROWS + 1)
            ops.append(Op("modify", "DELETE FROM orders WHERE oid BETWEEN "
                          f"{low} AND {low + BULK_DELETE_ROWS - 1}"))
        ops.append(Op("read", f"SELECT {BIG_CUST.columns} FROM big_cust "
                      "ORDER BY total DESC LIMIT 10", view="big_cust"))
        previous = next_oid
        next_oid += BULK_INSERT_ROWS
        yield ops


def _htap_sync(rng: random.Random, data: SalesWorkload) -> Iterator[list[Op]]:
    live = [order[0] for order in data.orders]
    next_oid = data.next_order_id()
    customers = [c[0] for c in data.customers]
    while True:
        ops = []
        for _ in range(HTAP_INSERTS):
            ops.append(Op("insert", INSERT_ORDER, (
                next_oid, rng.choice(customers), rng.choice(data.products),
                rng.randint(1, 500))))
            live.append(next_oid)
            next_oid += 1
        update = Op("modify", UPDATE_AMOUNT,
                    (rng.randint(1, 500), live[rng.randrange(len(live))]))
        ops.insert(rng.randrange(len(ops) + 1), update)
        ops.append(Op("read", TOP_REGIONS, view="rev_region"))
        yield ops


_STREAMS = {
    "oltp_point": _oltp_point,
    "bulk_delta": _bulk_delta,
    "htap_sync": _htap_sync,
}


# -- systems under test ----------------------------------------------------------


@dataclass
class System:
    """One set-up instance: the objects the benchmark created."""

    spec: Spec
    connection: Connection | None = None  # extension workloads
    extension: object = None
    pipeline: CrossSystemPipeline | None = None  # htap_sync
    durability_dir: pathlib.Path | None = None

    def execute(self, op: Op):
        """Run one client statement the way an application would."""
        if self.pipeline is None:
            return self.connection.execute(op.sql, op.params)
        if op.kind == "read":
            return self.pipeline.query(op.sql, op.params, refresh=True)
        return self.pipeline.oltp.execute(op.sql, op.params)

    def connections(self) -> list[Connection]:
        if self.pipeline is None:
            return [self.connection]
        return [self.pipeline.oltp.connection, self.pipeline.olap]

    def close(self) -> None:
        if self.extension is not None:
            self.extension.shutdown()


def load_bases(connection: Connection, data: SalesWorkload) -> None:
    """Create and bulk-load the base tables (before any view exists, so
    no capture trigger fires)."""
    connection.execute(SalesWorkload.SCHEMA)
    connection.table("customers").insert_batch(data.customers)
    connection.table("orders").insert_batch(data.orders)


def new_system(spec: Spec, durability_dir: pathlib.Path | None) -> System:
    """An empty system with the workload's flags (no tables yet)."""
    if spec.name == "htap_sync":
        return System(spec, pipeline=CrossSystemPipeline(
            oltp=OLTPSystem(), flags=CompilerFlags(**spec.flags)))
    connection = Connection()
    extension = load_ivm(connection, CompilerFlags(**spec.flags),
                         durability_dir=durability_dir)
    return System(spec, connection=connection, extension=extension,
                  durability_dir=durability_dir)


def base_connection(system: System) -> Connection:
    """The connection holding the base tables."""
    if system.pipeline is not None:
        return system.pipeline.oltp.connection
    return system.connection


def create_views(system: System) -> None:
    for view in system.spec.views:
        if system.pipeline is not None:
            system.pipeline.create_materialized_view(view.create)
        else:
            system.connection.execute(view.create)
