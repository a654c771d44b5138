#!/usr/bin/env python3
"""Compare two checkouts on the benchmark in alternating pairs.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload NAME --pairs N --seed0 S --out FILE.jsonl

Pair ``i`` runs ``python3 perfbench/run.py --workload NAME --seed S+i
--seconds <run_seconds> --trace 0`` (the command ``BENCHMARK.json``
declares) in both checkouts, one after the other; even pairs run the
parent first, odd pairs the change, so a drift in the host's speed falls
on both sides alike.  ``run_seconds`` comes from ``BENCHMARK.json``.
Every run appends one line to the JSONL file: ``{"pair", "side",
"seed", "first", "result"}``, where ``result`` is the run's last output
line (or ``{"error": ...}`` if it failed).
``--summary-only`` skips the runs and summarizes an existing file.

For every end-to-end metric of ``BENCHMARK.json`` the summary gives each
side's median and quartiles (``statistics.quantiles(values, n=4)``),
the change's wins over the pairs both sides completed (a tie counts for
neither side), the parent's quartile distance, and the change/parent
ratio of medians against the metric's bound; then each side's correct
runs and failed operations.  A gain is *resolved* when the medians
differ in the better direction by more than the parent's quartile
distance.  The script only runs the benchmark: it changes nothing under
``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, float(statistics.median(values)), q3


def metric_values(lines: Sequence[dict], name: str
                  ) -> Dict[str, Dict[int, float]]:
    """Per side, pair index -> the metric's value, for completed runs."""
    values: Dict[str, Dict[int, float]] = {side: {} for side in SIDES}
    for line in lines:
        metrics = line["result"].get("metrics", {})
        if name in metrics:
            values[line["side"]][line["pair"]] = metrics[name]["value"]
    return values


def summarize_metric(lines: Sequence[dict], metric: dict) -> dict:
    """The comparison of one end-to-end metric (see module doc)."""
    name = metric["name"]
    lower = metric.get("better", "lower") == "lower"
    values = metric_values(lines, name)
    out = {"name": name, "unit": metric.get("unit", ""),
           "better": "lower" if lower else "higher",
           "bound": metric.get("bound")}
    for side in SIDES:
        vals = list(values[side].values())
        out[side] = dict(zip(("q1", "median", "q3"), quartiles(vals))) \
            if vals else None
    both = sorted(set(values["parent"]) & set(values["change"]))
    wins = losses = 0
    for pair in both:
        parent, change = values["parent"][pair], values["change"][pair]
        if change == parent:
            continue
        if (change < parent) == lower:
            wins += 1
        else:
            losses += 1
    out.update(pairs=len(both), wins=wins, losses=losses,
               ties=len(both) - wins - losses)
    if out["parent"] is None or out["change"] is None:
        return out
    parent, change = out["parent"], out["change"]
    iqr = parent["q3"] - parent["q1"]
    ratio = change["median"] / parent["median"] if parent["median"] \
        else float("inf")
    gain = (parent["median"] - change["median"]) if lower \
        else (change["median"] - parent["median"])
    out.update(parent_iqr=iqr, ratio=ratio, resolved_gain=gain > iqr)
    bound = metric.get("bound")
    if bound is not None:
        out["within_bound"] = ratio <= 1.0 + bound if lower \
            else ratio >= 1.0 - bound
    return out


def side_counts(lines: Sequence[dict]) -> Dict[str, Dict[str, int]]:
    """Per side: runs, correct runs, failed runs and failed operations."""
    counts = {side: {"runs": 0, "correct": 0, "errors": 0, "failed_ops": 0}
              for side in SIDES}
    for line in lines:
        c = counts[line["side"]]
        c["runs"] += 1
        result = line["result"]
        if "error" in result:
            c["errors"] += 1
            continue
        c["correct"] += bool(result.get("correct"))
        c["failed_ops"] += int(result.get("failed", 0))
    return counts


def summary_text(lines: Sequence[dict], config: dict) -> str:
    rows = []
    for metric in config["end_to_end"]:
        s = summarize_metric(lines, metric)
        if s["parent"] is None or s["change"] is None:
            rows.append(f"{s['name']}: no values on both sides")
            continue
        p, c = s["parent"], s["change"]
        verdict = "" if "within_bound" not in s else (
            "  within bound" if s["within_bound"] else "  OUTSIDE BOUND")
        rows.append(
            f"{s['name']} ({s['unit']}, {s['better']} is better): "
            f"parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]  "
            f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]  "
            f"ratio {s['ratio']:.4f} (bound {s['bound']}){verdict}  "
            f"change wins {s['wins']}/{s['pairs']} "
            f"(losses {s['losses']}, ties {s['ties']})  "
            f"parent IQR {s['parent_iqr']:.4g}  "
            f"gain {'resolved' if s['resolved_gain'] else 'unresolved'}")
    for side, c in side_counts(lines).items():
        rows.append(f"{side}: {c['correct']}/{c['runs']} runs correct, "
                    f"{c['errors']} run error(s), "
                    f"{c['failed_ops']} failed operation(s)")
    return "\n".join(rows)


def run_one(command: List[str], checkout: Path, workload: str, seed: int,
            seconds: float) -> dict:
    """One benchmark run in ``checkout``: its last output line."""
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr[-500:]}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        return {"error": f"unreadable result line: {exc}"}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--summary-only", action="store_true")
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())

    if not args.summary_only:
        if not (args.parent and args.change and args.workload):
            parser.error("--parent, --change and --workload are required "
                         "unless --summary-only")
        dirs = {"parent": args.parent, "change": args.change}
        for pair in range(args.pairs):
            seed = args.seed0 + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run_one(config["command"], dirs[side],
                                 args.workload, seed, config["run_seconds"])
                line = {"pair": pair, "side": side, "seed": seed,
                        "first": order[0], "result": result}
                with args.out.open("a") as out:
                    out.write(json.dumps(line) + "\n")
                wall = result.get("metrics", {}).get("wall_s", {})
                print(f"pair {pair} seed {seed} {side}: "
                      f"wall_s {wall.get('value', 'n/a')}", flush=True)
    lines = [json.loads(text) for text in args.out.read_text().splitlines()
             if text.strip()]
    lines = [line for line in lines
             if line.get("side") in SIDES and "result" in line]
    print(summary_text(lines, config))
    return 0


if __name__ == "__main__":
    sys.exit(main())
