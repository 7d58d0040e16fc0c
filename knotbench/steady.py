"""Run the benchmark over many seeds and record how steady it is.

    python3 knotbench/steady.py --out knotbench/baseline.json

For each workload: RUNS untraced runs of BENCHMARK.json's run_seconds,
seeds 1..RUNS, and the median, quartiles and spread (interquartile
distance over the median, as statistics.quantiles(values, n=4) gives them)
of each end-to-end metric, of the raw pass time and of the calibration
kernel's median; then two traced runs with the same seed, to show that the
exact counts repeat.  The output also records the machine, the library
versions, the commit measured, the distinct failures seen, and those of
the cliff probe.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

EXACT_COUNTS = ("invariant.terms", "cyclo.mul.calls", "cyclo.inverse.calls", "invariant.bound_underestimates")
COUNT_SEED = 1
RUNS = 10
OUT_DIR = ROOT / ".knotbench"


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    stem = f"{workload}-seed{seed}-trace{trace}"
    failures = json.loads((OUT_DIR / f"failures-{stem}.json").read_text())
    result["record"] = json.loads((OUT_DIR / f"run-{stem}.json").read_text())
    result["distinct_failures"] = [f"{f['kind']} {f['knot']} N={f['order']} {f['reason']}" for f in failures]
    if trace:
        cliff = json.loads((OUT_DIR / f"cliff-{stem}.json").read_text())
        result["cliff_failures"] = [f"{f['kind']} {f['knot']} N={f['order']} {f['reason']}" for f in cliff]
    print(f"{workload} seed {seed} trace {trace}: failed {result['failed']}/{result['attempted']}", file=sys.stderr)
    return result


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def machine() -> dict:
    import mpmath
    import numpy

    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
    }
    lscpu = subprocess.run(["lscpu"], capture_output=True, text=True).stdout
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            info[key.strip().lower().replace(" ", "_")] = value.strip()
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    info["commit"] = git.stdout.strip() or "unknown"
    return info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    seeds = list(range(1, RUNS + 1))
    report = {"machine": machine(), "run_seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs = [bench(workload, seed, seconds, 0) for seed in seeds]
        names = runs[0]["metrics"]
        traced = [bench(workload, COUNT_SEED, seconds, 1) for _ in range(2)]
        counts = {name: [t["metrics"][name]["value"] for t in traced] for name in EXACT_COUNTS}
        report["workloads"][workload] = {
            "seeds": seeds,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": {
                name: dict(spread([r["metrics"][name]["value"] for r in runs]), unit=names[name]["unit"])
                for name in names
            },
            "raw_wall_s": spread([r["record"]["raw_wall_s"] for r in runs]),
            "kernel_ms": spread([r["record"]["kernel_ms"] for r in runs]),
            "distinct_failures_seed1": runs[0]["distinct_failures"],
            "per_layer_seed1": {name: m["value"] for name, m in traced[0]["metrics"].items()},
            "cliff_failures_seed1": traced[0]["cliff_failures"],
            "exact_counts_seed1": {"values": counts, "repeat": all(len(set(v)) == 1 for v in counts.values())},
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
