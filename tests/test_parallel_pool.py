"""Parallel-engine tests: determinism, crashes, keep-going degradation.

These run real (tiny-scale) flows through worker processes, so they are
the slowest unit tests in the suite — each one sticks to a single small
circuit.
"""

import functools
import json
import multiprocessing
import os

import pytest

from repro.errors import TaskFailedError, WorkerCrashError
from repro.experiments import runner
from repro.experiments import table04_45nm_summary as table4
from repro.flow.design_flow import FlowConfig
from repro.parallel import (
    DeferredTasks,
    ParallelEngine,
    TaskGraph,
    comparison_task,
    flow_tasks,
)
from repro.parallel import pool as pool_mod
from repro.runtime import faults
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.session import (
    Session,
    current_session,
    override,
    use_session,
)
from repro.runtime.supervisor import StageSupervisor

SCALE = 0.04


pytestmark = pytest.mark.usefixtures("fresh_session")


def _crash_worker(result):
    # FaultSpec factory that kills the worker process outright — the
    # parent only ever sees a broken pool, like an OOM kill or segfault.
    os._exit(137)


def _bug_factory(result):
    # A non-Repro exception: stands in for a genuine bug in flow code.
    return ValueError("injected bug")


def test_rows_identical_sequential_vs_parallel_prefetch():
    rows_seq = json.dumps(table4.run(circuits=("fpu",), scale=SCALE),
                          sort_keys=True, default=str)
    graph = TaskGraph(table4.declare_tasks(circuits=("fpu",), scale=SCALE))

    for jobs in (1, 2):
        runner.clear_caches()
        report = runner.prefetch(graph, jobs=jobs)
        rows = table4.run(circuits=("fpu",), scale=SCALE)

        # The 2D run and its derived T-MI run.
        assert report.n_ok == len(report.records) == 2
        # One job runs the tasks inline in this process; more than one
        # dispatches them to pool workers.
        pids = {record.pid for record in report.records}
        if jobs == 1:
            assert pids == {os.getpid()}
        else:
            assert os.getpid() not in pids
        assert json.dumps(rows, sort_keys=True, default=str) == rows_seq


def test_inline_engine_reuses_store_and_serves_results(tmp_path):
    store = CheckpointStore(tmp_path)
    comparison = comparison_task("fpu", scale=SCALE)
    engine = ParallelEngine(store=store, jobs=1)

    first = engine.execute(TaskGraph([comparison]))
    assert [r.status for r in first.records] == ["ok", "ok"]
    assert all(not r.cached and r.stored for r in first.records)
    (spec_2d,) = comparison.requires
    assert engine.result(spec_2d).power.total_mw > 0.0

    # A second session over the same store hits the checkpoint entries.
    again = ParallelEngine(store=store, jobs=1).execute(
        TaskGraph([comparison]))
    assert all(r.cached for r in again.records)
    assert again.n_cached == 2


def test_deferred_tasks_resolve_with_base_values(tmp_path):
    base = comparison_task("fpu", scale=SCALE)
    seen = {}

    def derive(values):
        seen["clock"] = values[0].clock_ns
        return []

    graph = TaskGraph([base, DeferredTasks(requires=base.requires,
                                           derive=derive,
                                           label="noop-sweep")])
    ParallelEngine(store=CheckpointStore(tmp_path), jobs=1).execute(graph)
    assert seen["clock"] > 0.0


def test_spawn_started_pool_honors_timeout(tmp_path, monkeypatch):
    """The session's --timeout reaches workers in their WorkerContext,
    not by fork: a spawn-started pool times the slowed stage out too."""
    monkeypatch.setattr(
        pool_mod, "ProcessPoolExecutor",
        functools.partial(pool_mod.ProcessPoolExecutor,
                          mp_context=multiprocessing.get_context("spawn")))
    slow = faults.FaultSpec(stage="prepare", delay_s=1.0)
    configs = [FlowConfig(circuit="fpu", scale=0.03, is_3d=is_3d)
               for is_3d in (False, True)]
    with override(supervisor=StageSupervisor(timeout_s=0.2)):
        engine = ParallelEngine(store=CheckpointStore(tmp_path), jobs=2,
                                keep_going=True, worker_faults=(slow,))
        report = engine.execute(TaskGraph(flow_tasks(configs)))
    assert [r.error for r in report.records] == ["StageTimeoutError"] * 2


def test_inline_run_keeps_the_callers_fault_plan(tmp_path):
    """An inline task runs under the engine's worker faults alone: it
    neither fires the caller's plan nor removes it."""
    outer = faults.FaultSpec(stage="prepare", error="PlacementError",
                             times=faults.ALWAYS)
    inner = faults.FaultSpec(stage="prepare", error="RoutingError",
                             times=faults.ALWAYS)
    with faults.inject(outer) as plan:
        engine = ParallelEngine(store=CheckpointStore(tmp_path), jobs=1,
                                keep_going=True, worker_faults=(inner,))
        report = engine.execute(TaskGraph(flow_tasks(
            [FlowConfig(circuit="fpu", scale=0.03)])))
        assert current_session().faults is plan
    assert [r.error for r in report.records] == ["RoutingError"]
    assert plan.fired() == 0


def test_worker_crash_exhausts_retry_budget(tmp_path):
    crash = faults.FaultSpec(stage="synthesis", factory=_crash_worker,
                             times=faults.ALWAYS)
    engine = ParallelEngine(store=CheckpointStore(tmp_path), jobs=2,
                            max_crash_retries=1, worker_faults=(crash,))
    with pytest.raises(WorkerCrashError) as excinfo:
        engine.execute(TaskGraph([comparison_task("fpu", scale=SCALE)]))
    # max_crash_retries=1 allows the initial attempt plus one retry.
    assert excinfo.value.attempts == 2


def test_worker_crash_keep_going_records_and_continues(tmp_path):
    crash = faults.FaultSpec(stage="synthesis", factory=_crash_worker,
                             times=faults.ALWAYS)
    engine = ParallelEngine(store=CheckpointStore(tmp_path), jobs=2,
                            max_crash_retries=1, keep_going=True,
                            worker_faults=(crash,))
    report = engine.execute(
        TaskGraph([comparison_task("fpu", scale=SCALE)]))
    assert [r.status for r in report.records] == ["crashed"]
    assert report.records[0].attempts == 2
    assert report.crash_rebuilds == 2


def test_worker_failure_raises_without_keep_going(tmp_path):
    fail = faults.FaultSpec(stage="layout", error="RoutingError",
                            times=faults.ALWAYS)
    engine = ParallelEngine(store=CheckpointStore(tmp_path), jobs=2,
                            worker_faults=(fail,))
    with pytest.raises(TaskFailedError):
        engine.execute(TaskGraph([comparison_task("fpu", scale=SCALE)]))


def test_shared_2d_task_pairs_each_request_with_its_own_config(
        monkeypatch):
    """scn4t's two comparisons differ only in fold knobs, which a 2D run
    ignores: they share one 2D task, whose stored result carries the
    2-tier request's config.  Each T-MI task must still derive from its
    own request, so the warm phase leaves nothing for the experiment
    driver to run."""
    from repro.experiments import scn_quad_tier
    from repro.flow import compare, design_flow

    scale = 0.03
    rows_seq = scn_quad_tier.run(scale=scale)
    runner.clear_caches()
    report = runner.prefetch(
        TaskGraph(scn_quad_tier.declare_tasks(scale=scale)), jobs=1)
    assert report.n_ok == len(report.records) == 3
    (key_2d,) = [r.key for r in report.records if "-2D" in r.label]
    assert current_session().flows[key_2d].config.tiers == 2

    calls = []

    def counting(config):
        calls.append(config)
        return design_flow.run_flow(config)

    monkeypatch.setattr(runner, "run_flow", counting)
    monkeypatch.setattr(compare, "run_flow", counting)
    assert scn_quad_tier.run(scale=scale) == rows_seq
    assert calls == []


def test_keep_going_prefetch_degrades_to_error_rows():
    # Fault only tasks whose label mentions aes: fpu must still produce a
    # real row while the aes failure becomes an error-marked row carrying
    # the worker-side exception.
    fail = faults.FaultSpec(stage="layout", error="RoutingError",
                            times=faults.ALWAYS)
    runner.set_keep_going(True)
    graph = TaskGraph(table4.declare_tasks(circuits=("fpu", "aes"),
                                           scale=SCALE))
    report = runner.prefetch(graph, jobs=2, worker_faults=(fail,),
                             fault_label_filter="aes")

    statuses = {r.label.split(":")[1].split("@")[0]: r.status
                for r in report.records}
    assert statuses["fpu"] == "ok" and statuses["aes"] == "failed"
    assert runner.task_failures()

    rows = table4.run(circuits=("fpu", "aes"), scale=SCALE)
    assert len(rows) == 2
    assert "error" not in rows[0]
    assert "error" in rows[1] and "RoutingError" in rows[1]["error"]
    errors = runner.session_errors()
    assert len(errors) == 1 and "aes" in errors[0].label


# The stable part of a TaskRecord: everything except per-run timings and
# the worker process id.  Per-stage walls are timings too, but the stage
# *names* reached before the failure must still agree.
_VOLATILE_RECORD_KEYS = ("wall_s", "pid")


@pytest.mark.parametrize("fault_kwargs, expect_repro", [
    ({"error": "RoutingError"}, True),
    ({"factory": _bug_factory}, False),
])
def test_failure_record_shape_identical_inline_vs_pool(
        tmp_path, fault_kwargs, expect_repro):
    # The same failure must produce the same record whether it happened
    # inline (jobs=1) or on a pooled worker — identical keys and values
    # up to wall clock and pid.
    fail = faults.FaultSpec(stage="layout", times=faults.ALWAYS,
                            **fault_kwargs)
    shapes = []
    for jobs in (1, 2):
        engine = ParallelEngine(store=CheckpointStore(tmp_path / str(jobs)),
                                jobs=jobs, keep_going=True,
                                worker_faults=(fail,))
        report = engine.execute(
            TaskGraph([comparison_task("fpu", scale=SCALE)]))
        (record,) = report.records
        assert record.status == "failed"
        assert record.repro_error is expect_repro
        shape = record.to_dict()
        for key in _VOLATILE_RECORD_KEYS:
            shape.pop(key)
        shape["stages"] = sorted(shape["stages"])
        shapes.append(shape)
    assert shapes[0] == shapes[1]


def test_keep_going_error_rows_identical_sequential_vs_parallel():
    # A ReproError failure degrades to the same error row whether it was
    # raised sequentially inside row assembly or on a pooled worker.
    fail = faults.FaultSpec(stage="layout", error="RoutingError",
                            times=faults.ALWAYS)
    runner.set_keep_going(True)

    with faults.inject(fail):
        rows_seq = table4.run(circuits=("fpu",), scale=SCALE)
    seq_errors = [e.summary() for e in runner.session_errors()]

    with use_session(Session(keep_going=True)):
        graph = TaskGraph(table4.declare_tasks(circuits=("fpu",),
                                               scale=SCALE))
        runner.prefetch(graph, jobs=2, worker_faults=(fail,))
        rows_par = table4.run(circuits=("fpu",), scale=SCALE)
        par_errors = [e.summary() for e in runner.session_errors()]

    assert rows_seq == rows_par
    assert seq_errors == par_errors


def test_keep_going_reraises_non_repro_worker_failure():
    # Sequentially a ValueError aborts row assembly even under
    # keep-going (only ReproError degrades); the same bug on a worker
    # must abort too, not hide as an error row.
    bug = faults.FaultSpec(stage="layout", factory=_bug_factory,
                           times=faults.ALWAYS)
    runner.set_keep_going(True)
    graph = TaskGraph(table4.declare_tasks(circuits=("fpu",), scale=SCALE))
    runner.prefetch(graph, jobs=2, worker_faults=(bug,))

    with pytest.raises(TaskFailedError) as excinfo:
        table4.run(circuits=("fpu",), scale=SCALE)
    assert excinfo.value.worker_is_repro is False
    assert excinfo.value.worker_error == "ValueError"
    assert not runner.session_errors()
