#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--runs 10]

Runs ``run.py --trace 0`` once for each of the seeds 1 to ``--runs``
and prints for each end-to-end metric the median, the first and third
quartile, and their distance as a share of the median next to the bound
in ``BENCHMARK.json`` (a steady benchmark keeps it below a third of the
bound).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import stats
from run import ROOT


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"]
              for metric in config["end_to_end"]}

    results = []
    for seed in range(1, args.runs + 1):
        command = config["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(config["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct {result['correct']} "
              + " ".join(f"{name}={metric['value']:.4f}"
                         for name, metric in result["metrics"].items()),
              flush=True)

    print(f"\n{args.workload}: {len(results)} runs, all correct: "
          f"{all(r['correct'] for r in results)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = stats.quartile_spread(values)
        bound = bounds[name]
        print(f"  {name:12s} median {stats.median(values):10.4f}  "
              f"q1 {q1:10.4f}  q3 {q3:10.4f}  spread {spread:.4f}  "
              f"bound {bound:.2f}  "
              + ("STEADY" if spread < bound / 3 else "UNSTEADY"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
