"""Write ``perfbench/RECORD.json``: what the benchmark runs, on what, and
where one traced run of each workload spent its loop time.

    python3 perfbench/make_record.py [--seed 1]

It runs every workload twice through the same harness as ``run.py``
(untraced for the sample counts behind each percentile, traced for the
per-layer budget), so it takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import numpy  # noqa: E402

from ivmbench.runner import SEGMENTS, run  # noqa: E402
from ivmbench.workloads import SPECS  # noqa: E402

BUDGET_ROWS = {
    "sql": "sql.parse_share",
    "planner": "budget.planner_share",
    "execution": "budget.execution_share",
    "engine": "budget.engine_share",
    "storage": "budget.storage_share",
    "extension": "budget.extension_share",
    "core": "budget.core_share",
    "htap": "budget.htap_share",
    "unattributed": "trace.unattributed_share",
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    registered = {w["name"] for w in benchmark["workloads"]}
    record = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
        },
        "method": {
            "loop": "closed loop, one client, one process, no threads",
            "run_seconds": seconds,
            "segments": SEGMENTS,
            "segment": "fresh set-up (their median is setup_s), untimed "
                       "warm-up, timed loop of run_seconds/segments, "
                       "correctness gate; the last segment is also "
                       "recovered",
            "percentiles": "nearest rank over every sample of the run's "
                           "segments; p90 is reported with the sample count "
                           "behind it",
            "flush_policy": "wal_sync off: WAL appends are flushed to the OS "
                            "page cache, never fsynced",
            "seed": args.seed,
        },
        "workloads": {},
    }
    for name, spec in SPECS.items():
        plain = run(name, args.seed, seconds, False,
                    BENCH_DIR / ".work" / f"record-{name}")
        traced = run(name, args.seed, seconds, True,
                     BENCH_DIR / ".work" / f"record-{name}-traced")
        layers = {key: value for key, (value, _) in traced.metrics.items()}
        record["workloads"][name] = {
            "registered": name in registered,
            "why": spec.why,
            "num_customers": spec.num_customers,
            "num_orders": spec.num_orders,
            "mix": spec.mix,
            "flags": spec.flags or "defaults (no durability)",
            "views": {view.name: view.create for view in spec.views},
            "warmup_rounds_per_segment": spec.warmup_rounds,
            "correct": plain.correct and traced.correct,
            "problems": sorted(set(plain.problems + traced.problems)),
            "samples": plain.samples,
            "end_to_end": {
                key: round(value, 4) for key, (value, _) in
                {**plain.metrics, **plain.informational}.items()},
            "budget_share_of_loop_wall": {
                row: round(layers[key], 4) for row, key in BUDGET_ROWS.items()
            },
            "trace_overhead_pct": round(layers["trace.overhead_pct"], 2),
        }
        print(f"{name}: done", file=sys.stderr)
    (BENCH_DIR / "RECORD.json").write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
