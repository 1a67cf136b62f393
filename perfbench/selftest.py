"""Fast self-test of the benchmark's own code.

Run from the repository root::

    python3 perfbench/selftest.py

Runs every workload at a tiny size (traced, so every metric is
produced), and checks that

* every answer passes the SciPy oracle and no request fails,
* the metric names and units printed for ``--trace 0`` and
  ``--trace 1`` are exactly those BENCHMARK.json declares,
* a deliberately corrupted answer - a wrong distance, or a route path
  that skips vertices - is counted as failed and makes the run
  incorrect.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys

from run import ROOT, result_line

sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, run_workload  # noqa: E402

TINY = {
    "road-hot": {"n": 400, "hot": 8},
    "road-cold": {"n": 400},
    "powerlaw-build": {"n": 300},
    "shard-restitch": {"n": 600},
}
SECONDS = 0.5


def corrupt_first(records):
    """Add 1 to one distance in the first recorded answer."""
    i, status, dt, body = records[0]
    payload = json.loads(body)
    if "distance" in payload:
        payload["distance"] += 1
    else:
        payload["distances"][-1] += 1
    return [(i, status, dt, json.dumps(payload).encode())] + records[1:]


def skip_hops(records):
    """Cut the first multi-hop route path down to its two ends."""
    for at, (i, status, dt, body) in enumerate(records):
        payload = json.loads(body)
        if len(payload.get("path") or ()) > 2:
            payload["path"] = [payload["path"][0], payload["path"][-1]]
            return records[:at] + [(i, status, dt, json.dumps(payload).encode())] + records[at + 1:]
    fail("no multi-hop route to corrupt")


def fail(message: str) -> None:
    raise SystemExit(f"selftest FAILED: {message}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        fail("BENCHMARK.json workloads differ from the benchmark's")
    work_dir = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        for name, w in WORKLOADS.items():
            tiny = dataclasses.replace(w, **TINY[name])
            out = run_workload(tiny, 0, SECONDS, trace=True, work_dir=work_dir)
            if not out.correct or out.failed:
                fail(f"{name}: {out.failed} of {out.attempted} failed")
            for trace, units in declared.items():
                printed = result_line(out, trace)["metrics"]
                if {k: v["unit"] for k, v in printed.items()} != units:
                    fail(f"{name} --trace {int(trace)}: names or units differ")
            print(f"ok  {name}: {out.attempted} answers checked")
        tiny = dataclasses.replace(WORKLOADS["road-cold"], **TINY["road-cold"])
        for tamper in (corrupt_first, skip_hops):
            out = run_workload(tiny, 0, SECONDS, trace=False, work_dir=work_dir, tamper=tamper)
            if (out.wrong, out.failed, out.correct) != (1, 1, False):
                fail(f"{tamper.__name__}: corrupted answer not counted (wrong={out.wrong})")
            print(f"ok  road-cold: {tamper.__name__} answer counted as failed")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
