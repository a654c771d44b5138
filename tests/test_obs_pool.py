"""Cross-process trace and journal merge, stage-resolved engine reports.

Runs real (tiny-scale) flows through the parallel engine under a live
tracer, so these sit with the parallel-pool tests among the slowest in
the suite — one small circuit, reused across assertions.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import runner
from repro.obs import Tracer
from repro.parallel import ParallelEngine, TaskGraph, comparison_task
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.session import override
from repro.runtime.supervisor import StageSupervisor

SCALE = 0.04


pytestmark = pytest.mark.usefixtures("fresh_session")


def _traced_run(store, jobs):
    """One traced engine session under a supervisor of its own; returns
    (tracer, counts, the supervisor's journal rows, report)."""
    tracer, supervisor = Tracer(), StageSupervisor()
    with override(tracer=tracer, supervisor=supervisor):
        engine = ParallelEngine(store=store, jobs=jobs)
        report = engine.execute(
            TaskGraph([comparison_task("fpu", scale=SCALE)]))
    return tracer, tracer.counts(), supervisor.journal.records, report


def _summed_walls(rows):
    walls = {}
    for row in rows:
        walls[row.stage] = walls.get(row.stage, 0.0) + row.wall_time_s
    return walls


def test_merged_trace_parity_and_digest_stability(tmp_path):
    """jobs=1 and jobs=2 sessions merge to the same session trace.

    Covers: per-stage TaskRecord timings at parity across job levels, the
    worker-side bundle round trip, digest equality across process
    placements, and digest stability when a second session over the same
    store replays the task from cache (bundle recovered from the store).
    """
    tracer1, counters1, rows1, report1 = _traced_run(
        CheckpointStore(tmp_path / "s1"), jobs=1)
    runner.clear_caches()
    store2 = CheckpointStore(tmp_path / "s2")
    tracer2, counters2, rows2, report2 = _traced_run(store2, jobs=2)

    # Structural digest: identical however the work was placed.
    assert tracer1.digest() == tracer2.digest()

    # The jobs=2 trace covers the worker process: its spans carry the
    # worker pid, wrapped in a synthetic task container span.
    parent_pid = os.getpid()
    worker_spans = [s for s in tracer2.snapshot() if s.pid != parent_pid]
    assert worker_spans, "merged trace must include worker-side spans"
    containers = [s for s in tracer2.snapshot() if s.category == "task"]
    assert len(containers) == 1
    assert containers[0].name.startswith("task:")

    # Stage-resolved records at parity: same stages, positive walls.
    stages1 = report1.records[0].stages
    stages2 = report2.records[0].stages
    assert set(stages1) == set(stages2)
    assert {"prepare", "synthesis", "layout", "post_route", "signoff",
            "power"} <= set(stages1)
    assert all(w > 0.0 for w in stages1.values())
    assert set(report1.stage_totals()) == set(report2.stage_totals())
    assert report1.summary()["stages"].keys() == \
        report2.summary()["stages"].keys()

    # Worker metrics and journal rows made it home: inline or pooled,
    # the parent's journal gains the task's rows once, and the record's
    # per-stage walls are those rows summed.
    for counters in (counters1, counters2):
        assert counters["placer.iterations"] > 0
        assert counters["sta.levelization_passes"] > 0
    assert counters1["placer.iterations"] == counters2["placer.iterations"]
    assert len(rows1) == len(rows2) > 0
    for rows, report in ((rows1, report1), (rows2, report2)):
        assert all(r.cpu_s >= 0.0 and r.peak_rss_kb > 0.0 for r in rows)
        assert report.stage_totals() == pytest.approx(_summed_walls(rows))

    # A replay over the same store serves the task from cache but merges
    # the stored bundle: the session digest is unchanged, the journal
    # gains the stored run's rows and the cached record recovers its
    # per-stage walls from them.
    runner.clear_caches()
    tracer3, _counters3, rows3, report3 = _traced_run(store2, jobs=2)
    assert report3.records[0].cached
    assert tracer3.digest() == tracer2.digest()
    assert set(report3.records[0].stages) == set(stages2)
    assert [r.to_dict() for r in rows3] == [r.to_dict() for r in rows2]
    assert report3.stage_totals() == pytest.approx(_summed_walls(rows3))


def test_untraced_run_ships_no_bundles(tmp_path):
    """Without observability the engine must not store trace bundles."""
    store = CheckpointStore(tmp_path)
    engine = ParallelEngine(store=store, jobs=1)
    supervisor = StageSupervisor()
    with override(supervisor=supervisor):
        report = engine.execute(
            TaskGraph([comparison_task("fpu", scale=SCALE)]))
    assert report.records[0].status == "ok"
    # Stage walls still resolve (journal-based, tracer-independent) ...
    assert report.records[0].stages
    assert report.stage_totals()
    # ... from the task's own journal: an inline task leaves the
    # caller's untouched ...
    assert supervisor.journal.records == []
    # ... and no trace bundle landed in the store (the result entry and
    # the workers' per-stage memo entries are expected).
    from repro.parallel.pool import _trace_key

    spec = next(iter(TaskGraph(
        [comparison_task("fpu", scale=SCALE)]).tasks.values()))
    assert store.load(spec.key) is not None
    assert store.load(_trace_key(spec.key)) is None
