#!/usr/bin/env python3
"""Measure the observability overhead on a full flow: traced vs untraced.

Runs the same seeded flow in ``--repeats`` pairs, one run with
observability off and one with the opt-in layer on (a tracer on the
session, recording spans and counters — what ``repro --profile`` turns
on).  The pairs alternate which mode runs first, so a drift in the
host's speed falls on both modes alike.  The overhead is the **median
of the per-pair traced/untraced ratios**: each ratio compares two runs
made back to back, so a slow stretch of the host moves both halves of
a pair, and the median drops the pairs it split (a best-of-N
comparison would let one lucky run decide the verdict).  The script
exits nonzero when the overhead exceeds ``--budget-pct`` (default 5 %,
the budget documented in ``docs/architecture.md``, "Observability").

The pairs are split across ``PROCESSES`` fresh interpreters, run one
after another (25 pairs: 5 processes of 5 pairs).  A process can carry
its own offset between the two modes (memory layout, hash seeds,
where the host scheduled it), which more pairs in one process cannot
average out; the median over several processes can.

BLAS/OpenMP are pinned to one thread, as the benchmark does
(``perfbench/run.py``).  Each process characterizes the library once
up front and runs one untimed warm-up flow, which absorbs import
costs, so both modes measure only the flow itself.

Usage:  python scripts/trace_overhead.py [--circuit fpu] [--scale 0.05]
            [--repeats 25] [--budget-pct 5.0] [--json PATH]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import statistics
import sys
import time
from pathlib import Path
from typing import List, Tuple

# Before numpy is imported: its thread pools size themselves at import.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_name] = "1"

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.flow.design_flow import (         # noqa: E402
    FlowConfig,
    library_for,
    run_flow,
)
from repro.obs import Tracer                 # noqa: E402
from repro.runtime.session import override   # noqa: E402


# Fresh interpreters the pairs are split across.
PROCESSES = 5


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure_pairs(circuit: str, node: str, scale: float, first_pair: int,
                  pairs: int) -> Tuple[List[float], List[float], int]:
    """(untraced seconds, traced seconds, spans per traced run) of
    ``pairs`` alternating pairs, numbered from ``first_pair``."""
    config = FlowConfig(circuit=circuit, node_name=node, scale=scale)
    library_for(config.node_name, config.is_3d)   # characterize up front
    n_spans = {}

    def untraced():
        run_flow(config)

    def traced():
        tracer = Tracer()
        with override(tracer=tracer):
            run_flow(config)
        n_spans["n"] = len(tracer.snapshot())

    untraced()                                     # untimed warm-up
    base, trace = [], []
    for pair in range(first_pair, first_pair + pairs):
        if pair % 2 == 0:
            base.append(timed(untraced))
            trace.append(timed(traced))
        else:
            trace.append(timed(traced))
            base.append(timed(untraced))
    return base, trace, n_spans.get("n", 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--circuit", default="fpu",
                        choices=["fpu", "aes", "ldpc", "des", "m256"])
    parser.add_argument("--node", default="45nm", choices=["45nm", "7nm"])
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--repeats", type=int, default=25,
                        help="alternating traced/untraced pairs")
    parser.add_argument("--budget-pct", type=float, default=5.0,
                        help="maximum tolerated overhead, percent")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the measurement as JSON to PATH")
    args = parser.parse_args(argv)

    processes = min(PROCESSES, args.repeats)
    spawn = multiprocessing.get_context("spawn")
    base, trace, spans = [], [], 0
    first = 0
    for k in range(processes):
        pairs = (args.repeats - first) // (processes - k)
        with spawn.Pool(1) as pool:               # a fresh interpreter
            b, t, spans = pool.apply(
                measure_pairs,
                (args.circuit, args.node, args.scale, first, pairs))
        base += b
        trace += t
        first += pairs
    ratio = statistics.median(t / b for t, b in zip(trace, base))
    overhead_pct = (ratio - 1.0) * 100.0
    base_s, traced_s = statistics.median(base), statistics.median(trace)

    payload = {
        "circuit": args.circuit,
        "node": args.node,
        "scale": args.scale,
        "repeats": args.repeats,
        "processes": processes,
        "untraced_median_s": round(base_s, 4),
        "traced_median_s": round(traced_s, 4),
        "median_ratio": round(ratio, 4),
        "overhead_pct": round(overhead_pct, 2),
        "budget_pct": args.budget_pct,
        "spans_per_run": spans,
        "within_budget": overhead_pct <= args.budget_pct,
    }
    print(f"untraced median of {args.repeats} ({processes} processes): "
          f"{base_s:.3f} s")
    print(f"traced   median of {args.repeats}: {traced_s:.3f} s "
          f"({spans} spans/run)")
    print(f"overhead (median pair ratio {ratio:.4f}): "
          f"{overhead_pct:+.2f} % (budget {args.budget_pct} %)")
    if args.json:
        Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    if not payload["within_budget"]:
        print("tracer overhead exceeds budget", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
