"""The repository benchmark: one seeded workload, end to end or per layer.

Run from the repository root::

    python3 perfbench/run.py --workload road-hot --seed 1 --seconds 15 --trace 0

The run generates its inputs from ``--seed``, sets the system up, drives
it for ``--seconds``, checks every answer against SciPy's C Dijkstra on
the input graph, and prints one JSON object as its last line::

    {"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
same workload plus the per-layer probes and reports the per-layer
metrics, with 0 for a layer the workload does not run (the router,
the backends and sharded preprocessing outside ``shard-restitch``).  The
line before it carries run details (sample counts, the tail
percentile, each set-up time).  The exit code is non-zero when any
answer was wrong or a paper bound was exceeded.  BENCHMARK.json at the
repository root lists the workloads and metrics;
``python3 perfbench/selftest.py`` checks this benchmark's own code.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def result_line(outcome, trace: bool) -> dict:
    """The last output line: every metric of the requested kind."""
    from workloads import END_TO_END, PER_LAYER

    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; try {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        outcome = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds,
            trace=bool(args.trace), work_dir=work_dir,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(outcome.details))
    print(json.dumps(result_line(outcome, bool(args.trace))))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
