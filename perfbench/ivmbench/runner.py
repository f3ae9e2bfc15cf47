"""One benchmark run: set-up, the timed closed loop, the correctness gate
and recovery.

Untraced runs produce the end-to-end metrics.  A traced run
(``trace=True``) alternates untraced and traced rounds; its per-layer
metrics come from the traced rounds only, and the two kinds of round
together give the tracer's overhead.  End-to-end numbers never
come from a traced run.
"""

from __future__ import annotations

import gc
import pathlib
import resource
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from repro import Connection, CrossSystemPipeline
from repro.errors import ReproError
from repro.sql import ast

from ivmbench.stats import median, percentile
from ivmbench.tracing import Span, Tracer, ancestors, self_times, union_length
from ivmbench.workloads import (
    SPECS,
    Spec,
    System,
    base_connection,
    base_data,
    create_views,
    load_bases,
    new_system,
    stream,
)

# Each run sets up this many fresh systems and splits its loop time
# between them, so the set-up and loop samples are spread over the whole
# run instead of one contiguous stretch of a machine whose speed drifts
# over tens of seconds.  Only the last segment is also recovered: a
# recovery costs about as much as a set-up, and a run should stay near a
# minute.
SEGMENTS = 3
CORE_STEPS = ("step1", "step2", "step2b", "step3", "step4")
# The end-to-end metrics the benchmark is judged on.  An untraced run
# prints the others too, but leaves them out of its result: on a 2-vCPU
# VM whose speed swings by up to 1.7x for tens of seconds at a time with
# the host's load, ten runs of each spread by more than the largest bound
# (0.25 of the median) in at least one 10-seed check -- throughput, the
# p50 latencies, recovery time and oltp_point's visibility latency.  The
# p90 latencies follow the slow periods present in every run.  With 9 s
# of loop per run, oltp_point's read_p90_ms spread by up to 0.27; with
# 13 and 15 s every p90 stayed between 0.05 and 0.16, read_p90_ms on
# oltp_point the widest (the fewest samples per second of loop).
JUDGED = ("setup_s", "insert_p90_ms", "modify_p90_ms", "read_p90_ms",
          "peak_rss_mb")


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    informational: dict[str, tuple[float, str]] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def as_json(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


@dataclass
class _Loop:
    """Everything one run measures, accumulated over its segments."""

    wall: float = 0.0
    statements: int = 0
    delta_rows: int = 0
    attempted: int = 0
    failed: int = 0
    latency: dict[str, list[float]] = field(
        default_factory=lambda: {"insert": [], "modify": [], "read": []}
    )
    visible: list[float] = field(default_factory=list)
    # Traced runs only: wall time of traced and untraced rounds, and each
    # statement's latency by (traced, kind).
    round_wall: dict[bool, float] = field(
        default_factory=lambda: {False: 0.0, True: 0.0})
    round_latency: dict[tuple[bool, str], list[float]] = field(
        default_factory=dict)
    core: Counter = field(default_factory=Counter)
    # Per segment: set-up (load, create views) seconds, checkpoint
    # seconds, recovery seconds.
    setup_s: list[tuple[float, float]] = field(default_factory=list)
    checkpoint_s: list[float] = field(default_factory=list)
    checkpoint_bytes: int = 0
    recover_s: list[float] = field(default_factory=list)
    # Bytes appended to the WAL in timed loops, and rows the WAL holds past
    # the set-up checkpoint (warm-up included) -- what recovery replays.
    wal_bytes: int = 0
    wal_rows: int = 0
    recomputes: int = 0


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: pathlib.Path,
    spec: Spec | None = None,
    before_gate: Callable[[System], None] | None = None,
    trace_out: pathlib.Path | None = None,
) -> RunResult:
    """Run one workload for ``seconds`` of loop time.  ``spec`` overrides
    the workload's specification (tests shrink the scale with it);
    ``before_gate`` may tamper with the system before the correctness
    gate (tests corrupt a view row with it)."""
    spec = spec or SPECS[workload]
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(spec, seed, seconds, trace, work_dir, before_gate,
                    trace_out)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(spec, seed, seconds, trace, work_dir, before_gate, trace_out):
    data = base_data(spec, seed)
    loop = _Loop()
    tracer = Tracer() if trace else None
    problems: list[str] = []
    for segment in range(SEGMENTS):
        gc.collect()
        problems += _segment(spec, data, seed, segment, seconds / SEGMENTS,
                             loop, tracer, work_dir / f"segment{segment}",
                             before_gate)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    informational = {}
    if tracer is not None:
        if trace_out is not None:
            tracer.dump(trace_out)
        metrics = _layer_metrics(tracer.spans, loop)
    else:
        informational = _end_to_end_metrics(loop, rss_mb)
        metrics = {name: informational.pop(name) for name in JUDGED}
    samples = {kind: len(values) for kind, values in loop.latency.items()}
    samples["visible"] = len(loop.visible)
    samples["setups"] = len(loop.setup_s)
    samples["recoveries"] = len(loop.recover_s)
    return RunResult(
        correct=not problems,
        attempted=loop.attempted,
        failed=loop.failed,
        metrics=metrics,
        informational=informational,
        samples=samples,
        problems=problems,
    )


def _segment(spec, data, seed, segment, seconds, loop, tracer, directory,
             before_gate) -> list[str]:
    """Set up a fresh system, warm it up, run the timed loop on it and
    gate it (and recover it, in the last segment); every measurement
    lands in ``loop``."""
    system = _setup(spec, data, directory, loop)
    rounds = stream(spec, data, seed, segment)
    # Warm-up: caches fill and lazy set-up finishes before timing; its
    # writes still reach the WAL that recovery replays.
    for _ in range(spec.warmup_rounds):
        for op in next(rounds):
            result = system.execute(op)
            if op.kind != "read":
                loop.wal_rows += result.rowcount
    wal_before = _wal_size(system)
    rows_before = loop.delta_rows
    if tracer is not None:
        _shadow_system(tracer, system)
    _timed_loop(spec, system, rounds, seconds, tracer, loop)
    if tracer is not None:
        tracer.forget()
    loop.wal_bytes += _wal_size(system) - wal_before
    loop.wal_rows += loop.delta_rows - rows_before
    loop.recomputes += _recompute_events(system)

    if before_gate is not None:
        before_gate(system)
    problems = check_views(system)
    if segment < SEGMENTS - 1:
        system.close()
        return problems
    if system.pipeline is not None:
        elapsed, recovered = _rebuild_pipeline(system)
    else:
        # Free the live engine before recovery builds a second one.
        fingerprint = _fingerprint(system)
        directory = system.durability_dir
        system.close()
        del system
        gc.collect()
        elapsed, recovered = _recover(spec, directory, fingerprint)
    loop.recover_s.append(elapsed)
    return problems + recovered


# -- set-up ----------------------------------------------------------------------


def _setup(spec: Spec, data, directory: pathlib.Path, loop: _Loop) -> System:
    """One full set-up: bases loaded, every view created (with its initial
    checkpoint under durability)."""
    started = time.perf_counter()
    system = new_system(spec, directory)
    load_bases(base_connection(system), data)
    loaded = time.perf_counter()
    timer = Tracer()
    if system.extension is not None and system.extension.durability:
        timer.shadow(system.extension.durability, "checkpoint",
                     "storage.checkpoint")
    timer.install()
    create_views(system)
    done = time.perf_counter()
    timer.uninstall()
    loop.setup_s.append((loaded - started, done - loaded))
    loop.checkpoint_s += [span.duration for span in timer.spans]
    if system.extension is not None and system.extension.durability:
        newest = sorted(directory.glob("checkpoint-*.ckpt"))[-1]
        loop.checkpoint_bytes = newest.stat().st_size
    return system


def _wal_size(system: System) -> int:
    durability = system.extension.durability if system.extension else None
    return durability.wal_path.stat().st_size if durability else 0


# -- the timed loop --------------------------------------------------------------


def _timed_loop(spec, system, rounds, seconds, tracer, loop: _Loop) -> None:
    views = [view.name for view in spec.views]
    pending: dict[str, float | None] = {name: None for name in spec.visible_views}
    seen = _refresh_counts(system, views)
    round_index = 0
    clock = time.perf_counter
    started = clock()
    while clock() - started < seconds:
        # Traced and untraced rounds alternate, so both kinds see the
        # same stretches of machine speed.
        traced = tracer is not None and round_index % 2 == 1
        if tracer is not None:
            if traced:
                tracer.install()
                seen = _refresh_counts(system, views)
            else:
                tracer.uninstall()
        round_started = clock()
        ops = next(rounds)
        for op in ops:
            if tracer is not None:
                tracer.op = loop.attempted
            loop.attempted += 1
            begin = clock()
            try:
                result = system.execute(op)
            except ReproError:
                loop.failed += 1
                continue
            end = clock()
            loop.latency[op.kind].append(end - begin)
            if tracer is not None:
                loop.round_latency.setdefault((traced, op.kind), []).append(
                    end - begin)
            loop.statements += 1
            if op.kind == "read":
                first = pending.get(op.view)
                if first is not None:
                    loop.visible.append(end - first)
                    pending[op.view] = None
            else:
                loop.delta_rows += result.rowcount
                for name, first in pending.items():
                    if first is None:
                        pending[name] = begin
            if traced:
                seen = _harvest_refresh_stats(system, views, seen, loop.core)
        round_ended = clock()
        if tracer is not None:
            loop.round_wall[traced] += round_ended - round_started
        round_index += 1
    loop.wall += clock() - started
    if tracer is not None:
        tracer.uninstall()


def _refresh_counts(system: System, views: list[str]) -> dict[str, int]:
    if system.extension is None:
        return {}
    return {name: system.extension.view_state(name).stats.refreshes
            for name in views}


def _harvest_refresh_stats(system, views, seen, totals: Counter):
    """Fold the refresh rounds that just ran into the per-step totals;
    ``RefreshStats`` keeps the last round only, so this runs after every
    traced statement (one statement refreshes a view at most once)."""
    if system.extension is None:
        return seen
    current = {}
    for name in views:
        stats = system.extension.view_state(name).stats
        current[name] = stats.refreshes
        if stats.refreshes <= seen.get(name, stats.refreshes):
            continue
        for step, secs in stats.last_step_seconds.items():
            totals[step] += secs
        totals["rows_in"] += stats.last_rows_in
        totals["rows_moved"] += stats.last_rows_moved
    return current


def _recompute_events(system: System) -> int:
    if system.extension is None:
        return 0
    return sum(
        len(system.extension.view_state(view.name).stats.events_of("recompute"))
        for view in system.spec.views
    )


# -- tracing set-up -----------------------------------------------------------------


def _shadow_system(tracer: Tracer, system: System) -> None:
    """Shadow the public methods of every object the system is made of."""

    def statement_span(statement, parameters=()):
        if tracer.in_refresh:
            return "core.sql_step"
        if isinstance(statement, ast.Select):
            return "execution.select"
        if isinstance(statement, ast.Insert):
            return "engine.insert"
        if isinstance(statement, (ast.Update, ast.Delete)):
            return "engine.modify"
        return "engine.statement"

    def capture_span(connection, event, table, rows):
        return "engine.cascade_capture" if tracer.in_refresh else "engine.capture"

    def capture_rows(result, connection, event, table, rows):
        return len(rows) * (2 if event.upper() == "UPDATE" else 1)

    for connection in system.connections():
        tracer.shadow(connection, "execute", "sql.execute")
        tracer.shadow(connection, "execute_statement", statement_span)
        tracer.shadow(connection.binder, "bind_select", "planner.bind")
        tracer.shadow(connection.optimizer, "optimize", "planner.optimize")
        tracer.shadow(connection.triggers, "fire", capture_span, capture_rows)
        tracer.shadow(connection, "begin_table_snapshot", "engine.snapshot")
        tracer.shadow(connection, "commit_table_snapshot", "engine.snapshot")
    extension = system.extension
    if extension is not None:
        tracer.shadow(extension, "refresh", "extension.refresh")
        if extension.durability is not None:
            tracer.shadow(extension.durability, "log_delta",
                          "storage.wal_append")
        for view in system.spec.views:
            for step in extension.compiled(view.name).native_steps:
                tracer.shadow(step, "run", f"core.{step.name}")
    pipeline = system.pipeline
    if pipeline is not None:
        tracer.shadow(pipeline, "query", "htap.query")
        tracer.shadow(pipeline, "refresh", "htap.refresh",
                      lambda transferred, name: transferred)
        tracer.shadow(pipeline.oltp, "drain_delta", "htap.drain")
        for view in system.spec.views:
            for step in pipeline.compiled(view.name).native_steps:
                tracer.shadow(step, "run", f"core.{step.name}")


# -- correctness gate ----------------------------------------------------------------


def _rows(result) -> Counter:
    return Counter(tuple(row) for row in result.rows)


def _read_view(system: System, view) -> Counter:
    """The view's rows as a client reads them (a read makes it current)."""
    read = f"SELECT {view.columns} FROM {view.name}"
    if system.pipeline is not None:
        return _rows(system.pipeline.query(read, refresh=True))
    return _rows(system.connection.execute(read))


def check_views(system: System) -> list[str]:
    """Every view equals its defining query recomputed over its inputs.
    Views are checked in creation order, so a view over another view is
    recomputed over an upstream the gate has already found equal to its
    own recompute.  For the HTAP pipeline the recompute runs on the OLTP
    connection, where the bases live."""
    problems = []
    bases = base_connection(system)
    for view in system.spec.views:
        got = _read_view(system, view)
        want = _rows(bases.execute(view.query))
        if got != want:
            problems.append(
                f"view {view.name}: {sum((got - want).values())} rows not in "
                f"the recompute, {sum((want - got).values())} missing")
    return problems


def _fingerprint(system: System) -> dict[str, Counter]:
    """Every base table and every view, as multisets of rows."""
    connection = base_connection(system)
    tables = {f"base {name}": Counter(connection.table(name).scan())
              for name in ("customers", "orders")}
    for view in system.spec.views:
        tables[f"view {view.name}"] = _read_view(system, view)
    return tables


def _recover(spec: Spec, directory, before) -> tuple[float, list[str]]:
    """``Connection.recover`` on the segment's durability directory.  The
    recovered bases must equal the bases before the restart, and every
    recovered view the view before the restart -- which the gate has
    just found equal to the recompute over those same bases."""
    started = time.perf_counter()
    connection = Connection.recover(directory)
    elapsed = time.perf_counter() - started
    extension = connection.extensions.loaded("openivm")
    try:
        after = _fingerprint(
            System(spec, connection=connection, extension=extension))
    finally:
        extension.shutdown()
    return elapsed, [
        f"recovered {name}: {sum(after[name].values())} rows, "
        f"{sum((after[name] - rows).values())} not there before the restart"
        for name, rows in before.items() if after[name] != rows
    ]


def _rebuild_pipeline(system: System) -> tuple[float, list[str]]:
    """The HTAP deployment keeps no WAL: its bases live in the OLTP
    system, and the OLAP side recovers by re-creating the views through
    a new pipeline over the surviving OLTP system."""
    started = time.perf_counter()
    rebuilt = System(system.spec, pipeline=CrossSystemPipeline(
        oltp=system.pipeline.oltp, flags=system.pipeline.flags))
    create_views(rebuilt)
    elapsed = time.perf_counter() - started
    return elapsed, [f"rebuilt {p}" for p in check_views(rebuilt)]


# -- metrics -----------------------------------------------------------------------


def _ms(values: list[float], pct: float) -> float:
    return percentile(values, pct) * 1000.0 if values else 0.0


def _end_to_end_metrics(loop: _Loop, rss_mb: float):
    metrics = {
        "setup_s": (median([load + views for load, views in loop.setup_s]),
                    "s"),
        "ops_per_s": (loop.statements / loop.wall, "1/s"),
        "delta_rows_per_s": (loop.delta_rows / loop.wall, "rows/s"),
    }
    for kind in ("insert", "modify", "read"):
        for pct in (50, 90):
            metrics[f"{kind}_p{pct}_ms"] = (_ms(loop.latency[kind], pct), "ms")
    for pct in (50, 90):
        metrics[f"visible_p{pct}_ms"] = (_ms(loop.visible, pct), "ms")
    metrics["recover_s"] = (median(loop.recover_s), "s")
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    return metrics


def _layer_metrics(spans: list[Span], loop: _Loop):
    selfs = self_times(spans)
    wall = loop.round_wall[True]
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)

    def durations(name, where=lambda index: True):
        return [spans[i].duration for i in by_name.get(name, ()) if where(i)]

    def own(name):
        return [selfs[i] for i in by_name.get(name, ())]

    def outermost(index):
        return not any(a.name == spans[index].name
                       for a in ancestors(spans, index))

    def under(kind):
        return lambda index: any(a.name == kind for a in ancestors(spans, index))

    refreshes = durations("extension.refresh", outermost)
    htap_refreshes = durations("htap.refresh")
    captures = durations("engine.capture", lambda i: spans[i].rows > 0)
    ext_sql = durations("core.sql_step", under("extension.refresh"))
    htap_sql = durations("core.sql_step", under("htap.refresh"))
    top_level = [(s.start, s.end) for s in spans if s.parent < 0]
    layer_self: Counter = Counter()
    for span, value in zip(spans, selfs):
        layer_self[span.name.split(".", 1)[0]] += value
    rows_in = loop.core["rows_in"]

    metrics = {
        "sql.parse_ms_p50": (_ms(own("sql.execute"), 50), "ms"),
        "sql.parse_share": (layer_self["sql"] / wall, "ratio"),
        "planner.bind_ms_p50": (_ms(durations("planner.bind"), 50), "ms"),
        "planner.optimize_ms_p50": (
            _ms(durations("planner.optimize"), 50), "ms"),
        "execution.read_self_ms_p50": (
            _ms(own("execution.select"), 50), "ms"),
        "engine.insert_self_ms_p50": (_ms(own("engine.insert"), 50), "ms"),
        "engine.modify_self_ms_p50": (_ms(own("engine.modify"), 50), "ms"),
        "engine.capture_ms_p50": (_ms(captures, 50), "ms"),
        "engine.capture_rows": (
            sum(spans[i].rows for i in by_name.get("engine.capture", ())),
            "count"),
        "engine.cascade_capture_ms_total": (
            sum(durations("engine.cascade_capture")) * 1000.0, "ms"),
        "engine.snapshot_ms_total": (
            sum(durations("engine.snapshot")) * 1000.0, "ms"),
        "engine.statements": (
            sum(len(by_name.get(name, ())) for name in (
                "execution.select", "engine.insert", "engine.modify",
                "engine.statement")), "count"),
        "storage.wal_append_ms_p50": (
            _ms(durations("storage.wal_append"), 50), "ms"),
        "storage.wal_bytes_per_delta_row": (
            loop.wal_bytes / loop.delta_rows if loop.wal_bytes else 0.0,
            "B/row"),
        "storage.checkpoint_s": (
            median(loop.checkpoint_s) if loop.checkpoint_s else 0.0, "s"),
        "storage.checkpoint_bytes": (loop.checkpoint_bytes, "B"),
        "storage.replay_rows_per_s": (
            loop.wal_rows / sum(loop.recover_s) if loop.checkpoint_bytes
            else 0.0, "rows/s"),
        "extension.refresh_ms_p50": (_ms(refreshes, 50), "ms"),
        "extension.refresh_ms_p90": (_ms(refreshes, 90), "ms"),
        "extension.refreshes": (len(refreshes), "count"),
        "extension.refresh_share": (sum(refreshes) / wall, "ratio"),
        "extension.recomputes": (loop.recomputes, "count"),
        "extension.sql_statements_per_refresh": (
            len(ext_sql) / len(refreshes) if refreshes else 0.0, "count"),
    }
    for step in CORE_STEPS:
        metrics[f"core.{step}_ms_total"] = (loop.core[step] * 1000.0, "ms")
    metrics["core.delta_rows_in"] = (rows_in, "count")
    metrics["core.rows_moved_per_delta_row"] = (
        loop.core["rows_moved"] / rows_in if rows_in else 0.0, "ratio")
    metrics.update({
        "htap.refresh_ms_p50": (_ms(htap_refreshes, 50), "ms"),
        "htap.drain_ms_p50": (_ms(durations("htap.drain"), 50), "ms"),
        "htap.rows_transferred": (
            sum(spans[i].rows for i in by_name.get("htap.refresh", ())),
            "count"),
        "htap.sql_statements_per_refresh": (
            len(htap_sql) / len(htap_refreshes) if htap_refreshes else 0.0,
            "count"),
        "htap.sql_step_ms_total": (sum(htap_sql) * 1000.0, "ms"),
        "setup.load_s": (median([load for load, _ in loop.setup_s]), "s"),
        "setup.create_view_s": (
            median([views for _, views in loop.setup_s]), "s"),
        "trace.overhead_pct": (_trace_overhead_pct(loop), "%"),
        "trace.unattributed_share": (
            1.0 - union_length(top_level) / wall, "ratio"),
    })
    for layer in ("planner", "execution", "engine", "storage", "extension",
                  "core", "htap"):
        metrics[f"budget.{layer}_share"] = (layer_self[layer] / wall, "ratio")
    return metrics


def _trace_overhead_pct(loop: _Loop) -> float:
    """How much lower ops_per_s is with tracing on, at the same mix.

    Traced and untraced rounds draw different statements, and one UPDATE
    costs as much as hundreds of INSERTs, so their raw throughputs are not
    comparable: each kind of round's throughput is taken at the run's
    whole mix, from the per-kind median latency in that kind of round."""
    seconds = {False: 0.0, True: 0.0}
    for kind in ("insert", "modify", "read"):
        plain = loop.round_latency.get((False, kind))
        traced = loop.round_latency.get((True, kind))
        if not plain or not traced:
            continue
        count = len(plain) + len(traced)
        seconds[False] += count * median(plain)
        seconds[True] += count * median(traced)
    if not seconds[False]:
        return 0.0
    return (seconds[True] / seconds[False] - 1.0) * 100.0
