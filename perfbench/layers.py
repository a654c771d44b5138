"""Per-layer tracing from outside the program.

A traced run installs wrappers around the public entry points of each
layer of ``repro`` and records one span per call: name, start, end and
the span that was open when the call began.  Nothing inside the program
changes; the wrappers are installed after the imports and before any
work, in the benchmark's own process, so the process pool's forked
workers inherit them.

* Class methods are wrapped on the class (``TimingAnalyzer.run``, ...).
* Free functions are wrapped in every loaded ``repro`` module that holds
  them, because several callers import them by value
  (``from repro.flow.design_flow import run_flow``): a wrapper on the
  defining module alone would never see those calls.

Span times come from ``time.monotonic()``, the host-wide monotonic
clock on Linux, so spans recorded in different processes line up.

Each pool worker writes the spans of every task it ran to
``<trace dir>/<pid>.jsonl``; :func:`collect` merges them with the
benchmark process's own spans and :func:`summarize` turns the merged
spans into the per-layer metrics.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import stats

MB = float(1 << 20)

# Span name of each wrapped class method: (module, class, method).
METHODS = (
    ("repro.timing.sta", "TimingAnalyzer", "run", "timing"),
    ("repro.place.placer", "Placer", "run", "place"),
    ("repro.route.router", "GlobalRouter", "run", "route"),
    ("repro.opt.optimizer", "Optimizer", "run", "opt"),
    ("repro.synth.synthesis", "Synthesizer", "run", "synth"),
    ("repro.runtime.checkpoint", "CheckpointStore", "store", "store.write"),
    ("repro.runtime.checkpoint", "CheckpointStore", "load", "store.read"),
    ("repro.parallel.pool", "ParallelEngine", "execute", "parallel"),
    ("repro.dse.engine", "DseEngine", "explore", "dse"),
    ("repro.dse.engine", "DseEngine", "_provenance", "dse.provenance"),
)

# Span name of each wrapped free function: (defining module, function).
FUNCTIONS = (
    ("repro.flow.design_flow", "run_flow", "flow"),
    ("repro.power.analysis", "analyze_power", "power"),
    ("repro.circuits.generators", "generate_benchmark", "circuits"),
    ("repro.opt.cts", "synthesize_clock_tree", "cts"),
    ("repro.check.placement", "check_placement", "check"),
    ("repro.check.routing", "check_routing", "check"),
    ("repro.check.timing", "check_timing", "check"),
    ("repro.check.power", "check_power", "check"),
    ("repro.characterize.charlib", "characterize_cell", "characterize"),
    ("repro.cells.nangate", "build_nangate_library", "cells"),
)


class Recorder:
    """Spans and counters of one process, kept in memory until flushed."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self._reset()

    def _reset(self) -> None:
        self.updating = True
        self.pid = os.getpid()
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counters: Dict[str, int] = collections.Counter()
        self.updating = False

    def adopt(self) -> None:
        """Start empty in a forked worker: what the parent recorded
        before the fork is the parent's to report."""
        if os.getpid() != self.pid:
            self._reset()

    # A calibration sample (``calibrate.Sampler``) runs from a signal
    # handler and records a span only while ``updating`` is false.
    def begin(self, name: str) -> int:
        self.updating = True
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        self.spans.append([name, time.monotonic(), None, parent, {}])
        self.stack.append(index)
        self.updating = False
        return index

    def end(self, index: int) -> None:
        self.updating = True
        self.spans[index][2] = time.monotonic()
        self.stack.pop()
        self.updating = False

    def count(self, name: str) -> None:
        self.counters[name] += 1

    def segment(self) -> dict:
        return {"pid": self.pid, "spans": self.spans,
                "counters": dict(self.counters)}

    def flush(self) -> None:
        """Append this process's records to its file and start over."""
        path = self.out_dir / f"{self.pid}.jsonl"
        with open(path, "a") as stream:
            stream.write(json.dumps(self.segment()) + "\n")
        self._reset()


def _span_wrapper(recorder: Recorder, name: str, fn: Callable,
                  after: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if after is not None:
            after(recorder.spans[index][4], args, result)
        return result
    return wrapper


def _store_bytes(attrs: dict, args: tuple, result) -> None:
    attrs["bytes"] = Path(result).stat().st_size


def _load_bytes(attrs: dict, args: tuple, result) -> None:
    attrs["hit"] = result is not None
    if result is not None:
        store, key = args[0], args[1]
        attrs["bytes"] = store.path_for(key).stat().st_size


def _engine_jobs(attrs: dict, args: tuple, result) -> None:
    attrs["jobs"] = args[0].jobs


def _evaluations(attrs: dict, args: tuple, result) -> None:
    attrs["evaluations"] = len(result.points)


AFTER = {
    "store.write": _store_bytes,
    "store.read": _load_bytes,
    "parallel": _engine_jobs,
    "dse": _evaluations,
}


def _replace_everywhere(original: Callable, wrapper: Callable) -> None:
    """Point every loaded ``repro`` module's reference at the wrapper."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point; import what the wrappers need."""
    for module_name, cls_name, method, name in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        setattr(cls, method, _span_wrapper(
            recorder, name, getattr(cls, method), AFTER.get(name)))
    for module_name, function, name in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), function)
        _replace_everywhere(original, _span_wrapper(
            recorder, name, original, AFTER.get(name)))

    stagecache = importlib.import_module("repro.flow.stagecache")
    fetch = stagecache.StageMemo.fetch

    @functools.wraps(fetch)
    def counted_fetch(self, stage, key):
        value = fetch(self, stage, key)
        recorder.count("stage_hits" if value is not None
                       else "stage_misses")
        return value

    stagecache.StageMemo.fetch = counted_fetch

    # A pool task runs in a forked worker: record it as a root span there
    # and write the worker's spans out before the result goes back.
    pool = importlib.import_module("repro.parallel.pool")
    execute_task = pool._execute_task
    home = os.getpid()

    @functools.wraps(execute_task)
    def traced_task(*args, **kwargs):
        recorder.adopt()
        index = recorder.begin("task")
        try:
            return execute_task(*args, **kwargs)
        finally:
            recorder.end(index)
            if os.getpid() != home:
                recorder.flush()

    _replace_everywhere(execute_task, traced_task)


def collect(recorder: Recorder) -> List[dict]:
    """This process's segment plus every segment the workers wrote."""
    segments = [recorder.segment()]
    for path in sorted(recorder.out_dir.glob("*.jsonl")):
        with open(path) as stream:
            segments.extend(json.loads(line) for line in stream if line)
    return segments


# -- per-layer metrics --------------------------------------------------------

def summarize(segments: Sequence[dict]) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    total: Dict[str, float] = collections.defaultdict(float)
    own: Dict[str, float] = collections.defaultdict(float)
    calls: Dict[str, int] = collections.Counter()
    counters: Dict[str, int] = collections.Counter()
    sta_by_caller: Dict[str, int] = collections.Counter()
    flow_runs: List[float] = []
    store_bytes: Dict[str, int] = collections.Counter()
    read_hits = 0
    pools: List[Tuple[float, float, int]] = []
    tasks: List[Tuple[float, float]] = []
    evaluations = 0

    for segment in segments:
        counters.update(segment["counters"])
        spans = [tuple(span) for span in segment["spans"]]
        for span, self_s in zip(spans, stats.self_times(spans)):
            name, start, end, parent, attrs = span
            total[name] += end - start
            own[name] += self_s
            calls[name] += 1
            store_bytes[name] += attrs.get("bytes", 0)
            if name == "timing":
                caller = spans[parent][0] if parent is not None else None
                sta_by_caller[caller if caller in ("synth", "opt")
                              else "signoff"] += 1
            elif name == "flow":
                flow_runs.append(end - start)
            elif name == "store.read":
                read_hits += attrs["hit"]
            elif name == "parallel":
                pools.append((start, end, attrs["jobs"]))
            elif name == "task":
                tasks.append((start, end))
            elif name == "dse":
                evaluations += attrs["evaluations"]

    busy = sum(end - start for start, end in tasks)
    capacity = sum((end - start) * jobs for start, end, jobs in pools)
    # A task waits for the pool from the start of the engine call that
    # submitted it (the latest one to start before it) until it runs.
    wait = 0.0
    for start, _ in tasks:
        began = [p_start for p_start, _, _ in pools if p_start <= start]
        wait += start - max(began) if began else 0.0
    hits, misses = counters.get("stage_hits", 0), counters.get(
        "stage_misses", 0)

    return {
        "timing.run_s": total["timing"],
        "timing.runs": calls["timing"],
        "timing.runs.synth": sta_by_caller["synth"],
        "timing.runs.opt": sta_by_caller["opt"],
        "timing.runs.signoff": sta_by_caller["signoff"],
        "place.run_s": total["place"],
        "place.calls": calls["place"],
        "characterize.cell_s": total["characterize"],
        "characterize.cells": calls["characterize"],
        "power.run_s": total["power"],
        "power.calls": calls["power"],
        "route.run_s": total["route"],
        "route.calls": calls["route"],
        "opt.self_s": own["opt"],
        "opt.calls": calls["opt"],
        "opt.cts_s": total["cts"],
        "synth.self_s": own["synth"],
        "synth.calls": calls["synth"],
        "circuits.generate_s": total["circuits"],
        "check.audit_s": total["check"],
        "check.calls": calls["check"],
        "runtime.store_write_s": total["store.write"],
        "runtime.store_writes": calls["store.write"],
        "runtime.store_write_mb": store_bytes["store.write"] / MB,
        "runtime.store_read_s": total["store.read"],
        "runtime.store_reads": calls["store.read"],
        "runtime.store_read_mb": store_bytes["store.read"] / MB,
        "runtime.store_hit_ratio": stats.ratio(read_hits,
                                               calls["store.read"]),
        "flow.run_s.p50": stats.percentile(flow_runs, 50),
        "flow.run_s.p90": stats.percentile(flow_runs, 90),
        "flow.runs": calls["flow"],
        "flow.stage_hits": hits,
        "flow.stage_misses": misses,
        "flow.stage_hit_ratio": stats.ratio(hits, hits + misses),
        "flow.unattributed_s": own["flow"],
        "parallel.tasks": len(tasks),
        "parallel.busy_s": busy,
        "parallel.utilization": stats.ratio(busy, capacity),
        "parallel.wait_s": wait,
        "dse.explore_s": total["dse"],
        "dse.evaluations": evaluations,
        "dse.provenance_s": total["dse.provenance"],
        "cells.library_s": total["cells"],
        "cells.library_calls": calls["cells"],
        "experiments.self_s": own["experiments"],
    }
