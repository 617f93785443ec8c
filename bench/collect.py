#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it as a baseline.

    python3 bench/collect.py --out bench/baseline.json

It runs every workload of BENCHMARK.json at seeds 1 to 10. Seeds form the
outer loop and workloads the inner one, so a slow spell of a shared machine
spreads over every workload instead of one. For each workload it keeps every
end-to-end value with its median, quartiles and spread (the quartile distance
over the median, the figure BENCHMARK.json's bounds apply to), then adds
one traced run at the first seed for the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: checks failed\n{proc.stderr}")
    machine = next((line for line in lines if line.startswith("machine: ")), "")
    return result, machine.removeprefix("machine: ")


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "n": len(values), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {} for w in workloads}
    machine = ""
    for seed in SEEDS:
        for workload in workloads:
            result, machine = run_once(workload, seed, spec["run_seconds"], 0)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={metric['value']:.5g}" for name, metric in result["metrics"].items()),
                flush=True)

    summary = {"machine": machine, "run_seconds": spec["run_seconds"], "seeds": list(SEEDS),
               "workloads": {}}
    for workload in workloads:
        entry = {"end_to_end": {name: summarise(v) for name, v in values[workload].items()}}
        for name, stats in entry["end_to_end"].items():
            print(f"{workload} {name}: median {stats['median']:.5g} "
                  f"q1 {stats['q1']:.5g} q3 {stats['q3']:.5g} spread {stats['spread']:.3f} "
                  f"(bound {bounds[name]})")
        result, _ = run_once(workload, SEEDS[0], spec["run_seconds"], 1)
        entry["trace_seed"] = SEEDS[0]
        entry["per_layer"] = {name: metric["value"] for name, metric in result["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
