"""Run one workload of the end-to-end IVM benchmark.

    python3 perfbench/run.py --workload oltp_point --seed 1 --seconds 10 --trace 0

Workloads: oltp_point, bulk_delta, htap_sync (see ivmbench/workloads.py).
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a separate traced run
and writes its spans to ``perfbench/out/``.  Every metric is printed by
name with its unit; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
non-zero when a view or a recovered view disagrees with the recompute of
its defining query.

The program is imported from ``src/`` of the checkout this file sits in;
nothing needs building.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
SOURCE_DIR = BENCH_DIR.parent / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("oltp_point", "bulk_delta", "htap_sync"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE_DIR / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SOURCE_DIR})",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE_DIR), str(BENCH_DIR)]
    from ivmbench.runner import run
    from ivmbench.stats import supported_percentile

    tag = f"{args.workload}-seed{args.seed}"
    result = run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        work_dir=BENCH_DIR / ".work" / f"{tag}-{os.getpid()}",
        trace_out=BENCH_DIR / "out" / f"trace-{tag}.jsonl.gz",
    )
    for name, (value, unit) in result.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, (value, unit) in result.informational.items():
        print(f"{name} = {value:.6g} {unit} (informational, not judged)")
    for kind, count in result.samples.items():
        if kind in ("setups", "recoveries"):
            print(f"samples {kind} = {count}")
            continue
        pct = supported_percentile(count)
        support = f"p{pct} is" if pct else "no percentile is"
        print(f"samples {kind} = {count} ({support} supported by ten "
              "samples beyond it)")
    print(f"error_rate = {result.failed / result.attempted:.6g} "
          f"({result.failed} of {result.attempted} operations failed)")
    for problem in result.problems:
        print(f"MISMATCH {problem}")
    print(json.dumps(result.as_json()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
