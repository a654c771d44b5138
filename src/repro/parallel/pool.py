"""Process-pool execution of deduplicated task graphs.

The engine runs the unique tasks of a :class:`~repro.parallel.plan.TaskGraph`
on a :class:`concurrent.futures.ProcessPoolExecutor` and exchanges results
through a shared :class:`repro.runtime.checkpoint.CheckpointStore`: each
worker writes its completed ``LayoutResult``/``ComparisonResult`` into the
store (the create-rename writes make concurrent writers safe) and returns
only lightweight metadata; the parent loads values back from the store on
demand.  This keeps large results off the result-queue pickling path and
means a crashed session leaves every completed run reusable on disk.
At ``jobs == 1`` there is no pool: the tasks run inline, one after
another, on the same code path a worker runs.

Failure semantics mirror the sequential session:

* a **task failure** (any :class:`repro.errors.ReproError` in the worker)
  is captured and, under the session's keep-going policy, recorded as a
  failed :class:`~repro.parallel.report.TaskRecord` — the drivers later
  turn it into an error-marked row; without keep-going the engine raises
  :class:`repro.errors.TaskFailedError` at the first failure, like a
  sequential run raising out of the row.  A *non*-Repro exception (a
  genuine bug) is contained to the same record shape but flagged
  (``TaskRecord.repro_error=False``), and row assembly re-raises it so
  keep-going never hides a bug that would abort a sequential session.
* a **worker crash** (the process dies — OOM kill, segfault, ``os._exit``)
  breaks the pool; the engine rebuilds it and re-runs the tasks that were
  still pending, each charged one attempt.  A task pending across more
  than ``max_crash_retries`` rebuilds is abandoned as ``crashed``
  (keep-going) or raises :class:`repro.errors.WorkerCrashError`.  Results
  a dying worker managed to store are recovered instead of re-run.

Determinism: workers compute exactly the cache entries the drivers read
(same canonical keys, same seeded flows), so tables built after a
parallel warm phase are byte-identical to a sequential session's.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import (
    CheckpointError,
    ReproError,
    TaskFailedError,
    WorkerCrashError,
)
from repro.obs.trace import NULL_TRACER, TraceBundle, Tracer
from repro.parallel.plan import (
    KIND_COMPARISON,
    KIND_FLOW,
    DeferredTasks,
    TaskGraph,
    TaskSpec,
)
from repro.parallel.report import (
    STATUS_CRASHED,
    STATUS_FAILED,
    STATUS_OK,
    EngineReport,
    TaskRecord,
)
from repro.runtime.checkpoint import CheckpointStore, config_key
from repro.runtime.faults import NULL_PLAN, FaultPlan
from repro.runtime.session import (
    Session,
    current_session,
    install_session,
    override,
    use_session,
)
from repro.runtime.supervisor import StageRecord, StageSupervisor

logger = logging.getLogger(__name__)


# -- worker side -----------------------------------------------------------

@dataclass
class WorkerContext:
    """What a worker and its tasks need besides the spec: the pool
    initializer binds the store, and every task is sent the context
    with its spec."""

    store_root: str
    schema_version: int
    timeout_s: Optional[float] = None  # the session's --timeout
    fault_specs: Tuple = ()           # repro.runtime.faults.FaultSpec, ...
    fault_label_filter: Optional[str] = None
    # Observability: when the parent session runs traced, each task
    # records into its own tracer and ships a TraceBundle (with its
    # run-journal rows) home through the store (see _execute_task).
    trace_enabled: bool = False


def _init_worker(context: WorkerContext) -> None:
    """Pool initializer: a fresh session bound to the shared store.

    Stage-level checkpoints flow through the same store, so a worker
    reuses flow stages another worker (or an earlier session) already
    computed, not just whole task results.
    """
    install_session(Session(store=CheckpointStore(
        Path(context.store_root), schema_version=context.schema_version)))


def _compute(spec: TaskSpec) -> object:
    from repro.flow.compare import run_iso_performance_comparison
    from repro.flow.design_flow import run_flow

    if spec.kind == KIND_COMPARISON:
        call = spec.payload
        return run_iso_performance_comparison(
            call.circuit, node_name=call.node_name, scale=call.scale,
            **call.kwargs)
    if spec.kind == KIND_FLOW:
        return run_flow(spec.payload)
    raise ValueError(f"unknown task kind: {spec.kind!r}")


def _trace_key(task_key: str) -> str:
    """Store key of a task's :class:`TraceBundle`, next to its result."""
    return config_key("trace", task_key)


def _stage_walls(rows: Iterable[StageRecord]) -> Dict[str, float]:
    """Per-stage wall time of a task's journal rows, summed over attempts."""
    walls: Dict[str, float] = {}
    for record in rows:
        walls[record.stage] = walls.get(record.stage, 0.0) \
            + record.wall_time_s
    return walls


def _ship_bundle(store: CheckpointStore, spec: TaskSpec, tracer: Tracer,
                 rows: List[StageRecord]) -> None:
    """Export this task's spans, counts and journal rows; store them."""
    bundle = tracer.export_bundle(label=spec.label)
    bundle.journal = rows
    store.try_store(_trace_key(spec.key), bundle)


def _execute_task(spec: TaskSpec, context: WorkerContext
                  ) -> Dict[str, object]:
    """Run one task in a worker; returns metadata, not the result.

    The result crosses the process boundary through the checkpoint store;
    only if the store write fails is the value shipped back inline so a
    computed run is never discarded.  Inline or in a worker, the task
    runs with the same handles on its session: a fresh supervisor with
    the context's timeout and an empty journal (so its rows are its
    alone), the context's fault plan when the task's label matches its
    filter (else none), and under observability a fresh tracer whose
    :class:`TraceBundle` travels home through the store — the parent
    merges the bundles, journal rows included, after the run.
    """
    store = current_session().store
    start = time.perf_counter()
    base: Dict[str, object] = {"key": spec.key, "pid": os.getpid()}

    cached = store.load(spec.key)
    if cached is not None:
        base.update(status=STATUS_OK, cached=True, stored=True,
                    wall_s=time.perf_counter() - start)
        return base

    plan = NULL_PLAN
    if context.fault_specs and (
            context.fault_label_filter is None
            or context.fault_label_filter in spec.label):
        plan = FaultPlan(list(context.fault_specs))
    supervisor = StageSupervisor(timeout_s=context.timeout_s)
    rows = supervisor.journal.records
    tracer = Tracer() if context.trace_enabled else NULL_TRACER
    try:
        with override(supervisor=supervisor, tracer=tracer, faults=plan):
            value = _compute(spec)
    except ReproError as exc:
        base.update(status=STATUS_FAILED, cached=False, stored=False,
                    error=type(exc).__name__, message=str(exc),
                    repro_error=True,
                    wall_s=time.perf_counter() - start,
                    stages=_stage_walls(rows))
        return base
    except Exception as exc:
        # A non-Repro exception is a genuine bug.  Contain it to the same
        # record shape (so jobs=1 and pooled sessions produce identical
        # records) but flag it, so row assembly re-raises it instead of
        # degrading it into an error row under keep-going.
        base.update(status=STATUS_FAILED, cached=False, stored=False,
                    error=type(exc).__name__, message=str(exc),
                    repro_error=False,
                    wall_s=time.perf_counter() - start,
                    stages=_stage_walls(rows))
        return base
    finally:
        if tracer.enabled:
            _ship_bundle(store, spec, tracer, rows)

    stored = store.try_store(spec.key, value) is not None
    base.update(status=STATUS_OK, cached=False, stored=stored,
                wall_s=time.perf_counter() - start,
                stages=_stage_walls(rows))
    if not stored:
        base["value"] = value
    return base


# -- parent side -----------------------------------------------------------

@dataclass
class _PendingTask:
    spec: TaskSpec
    attempts: int = 0


class ParallelEngine:
    """Execute a task graph on a process pool, results via the store."""

    def __init__(self,
                 store: CheckpointStore,
                 jobs: Optional[int] = None,
                 max_crash_retries: int = 2,
                 keep_going: bool = False,
                 worker_faults: Sequence = (),
                 fault_label_filter: Optional[str] = None):
        self.store = store
        self.jobs = max(1, jobs if jobs is not None
                        else (os.cpu_count() or 1))
        self.max_crash_retries = max_crash_retries
        self.keep_going = keep_going
        self.worker_faults = tuple(worker_faults)
        self.fault_label_filter = fault_label_filter
        self._values: Dict[str, object] = {}

    # -- results -----------------------------------------------------------

    def result(self, spec: TaskSpec) -> object:
        """The computed value for ``spec`` (inline or from the store)."""
        value = self.value_for(spec.key)
        if value is None:
            raise CheckpointError(
                f"no stored result for completed task {spec.label!r}")
        return value

    def value_for(self, key: str) -> Optional[object]:
        """The computed value under ``key``, or ``None`` if absent."""
        if key in self._values:
            return self._values[key]
        value = self.store.load(key)
        if value is not None:
            self._values[key] = value
        return value

    # -- execution ---------------------------------------------------------

    def execute(self, graph: TaskGraph) -> EngineReport:
        """Run every task (and resolved deferral) of ``graph``."""
        start = time.perf_counter()
        records: Dict[str, TaskRecord] = {}
        crash_rebuilds = 0
        pending: Dict[str, _PendingTask] = {
            key: _PendingTask(spec) for key, spec in graph.tasks.items()}
        deferred = list(graph.deferred)

        while pending or deferred:
            if pending:
                crash_rebuilds += self._run_batch(pending, records)
                self._enforce_policy(records)
            progressed = False
            still: List[DeferredTasks] = []
            for deferral in deferred:
                ready = all(req.key in records for req in deferral.requires)
                if not ready:
                    still.append(deferral)
                    continue
                progressed = True
                failed = [req for req in deferral.requires
                          if records[req.key].status != STATUS_OK]
                if failed:
                    logger.warning(
                        "dropping deferred tasks %s: base task(s) %s failed",
                        deferral.label or deferral,
                        ", ".join(r.label for r in failed))
                    continue
                values = [self.result(req) for req in deferral.requires]
                derived = TaskGraph(deferral.derive(values))
                for key, spec in derived.tasks.items():
                    if key not in records and key not in pending:
                        pending[key] = _PendingTask(spec)
                still.extend(derived.deferred)
            deferred = still
            if not pending and deferred and not progressed:
                unmet = {req.label for d in deferred for req in d.requires
                         if req.key not in records}
                raise TaskFailedError(
                    "deferred", "PlanError",
                    f"unresolvable deferred tasks; missing bases: {unmet}")

        self._merge_observability(records)

        return EngineReport(
            jobs=self.jobs,
            wall_s=time.perf_counter() - start,
            records=list(records.values()),
            crash_rebuilds=crash_rebuilds,
        )

    # -- internals ---------------------------------------------------------

    def _context(self) -> WorkerContext:
        session = current_session()
        return WorkerContext(
            store_root=str(self.store.root),
            schema_version=self.store.schema_version,
            timeout_s=session.supervisor.timeout_s,
            fault_specs=self.worker_faults,
            fault_label_filter=self.fault_label_filter,
            trace_enabled=session.tracer.enabled,
        )

    def _merge_observability(self, records: Dict[str, TaskRecord]) -> None:
        """Fold task trace bundles into the session's observability.

        Bundles are merged sorted by task key, so the merged trace — and
        its structural digest — is independent of completion order and of
        how tasks landed on workers; each bundle's journal rows join the
        session supervisor's journal and its counts add to the session
        tracer's.  A cache-hit task whose bundle is
        still in the store contributes the spans and rows of the run that
        computed it, keeping traced resumes digest-comparable.
        """
        session = current_session()
        tracer = session.tracer
        if not tracer.enabled:
            return
        for key in sorted(records):
            record = records[key]
            bundle = self.store.load(_trace_key(key))
            if not isinstance(bundle, TraceBundle):
                continue
            tracer.merge_bundle(bundle,
                                container_name=f"task:{record.label}",
                                task=record.label, kind=record.kind)
            session.supervisor.journal.extend(bundle.journal)
            if not record.stages:
                record.stages = _stage_walls(bundle.journal)

    def _record(self, records: Dict[str, TaskRecord], task: _PendingTask,
                payload: Dict[str, object]) -> None:
        value = payload.pop("value", None)
        if value is not None:
            self._values[task.spec.key] = value
        records[task.spec.key] = TaskRecord(
            key=task.spec.key,
            label=task.spec.label,
            kind=task.spec.kind,
            status=payload["status"],
            wall_s=float(payload.get("wall_s", 0.0)),
            pid=payload.get("pid"),
            cached=bool(payload.get("cached", False)),
            stored=bool(payload.get("stored", False)),
            attempts=task.attempts + 1,
            error=payload.get("error"),
            message=str(payload.get("message", "")),
            repro_error=bool(payload.get("repro_error", True)),
            stages=dict(payload.get("stages") or {}),
        )

    def _run_batch(self, pending: Dict[str, _PendingTask],
                   records: Dict[str, TaskRecord]) -> int:
        """Run every pending task to a record; returns pool rebuild count.

        Inline at ``jobs == 1``, else on the crash-tolerant process pool:
        each broken pool is rebuilt for the tasks it left pending.
        """
        if self.jobs == 1:
            self._run_inline(pending, records)
            return 0
        rebuilds = 0
        context = self._context()
        while pending:
            if not self._run_pool_round(pending, records, context):
                break
            rebuilds += 1
            self._absorb_crash(pending, records)
        return rebuilds

    def _run_inline(self, pending: Dict[str, _PendingTask],
                    records: Dict[str, TaskRecord]) -> None:
        """Run the tasks in this process, each as a worker would: with
        the engine's worker context, in a session of its own bound to
        the engine's store."""
        context = self._context()
        with use_session(Session(store=self.store)):
            for key in list(pending):
                task = pending.pop(key)
                self._record(records, task,
                             _execute_task(task.spec, context))

    def _run_pool_round(self, pending: Dict[str, _PendingTask],
                        records: Dict[str, TaskRecord],
                        context: WorkerContext) -> bool:
        """One pool lifetime; True if it broke (worker crash)."""
        futures: Dict[object, _PendingTask] = {}
        try:
            with ProcessPoolExecutor(
                    max_workers=min(self.jobs, len(pending)),
                    initializer=_init_worker,
                    initargs=(context,)) as pool:
                futures = {pool.submit(_execute_task, task.spec,
                                       context): task
                           for task in pending.values()}
                not_done = set(futures)
                while not_done:
                    done, not_done = wait(not_done,
                                          return_when=FIRST_COMPLETED)
                    for future in done:
                        task = futures[future]
                        try:
                            payload = future.result()
                        except BrokenProcessPool:
                            raise
                        except Exception as exc:
                            # A non-Repro exception escaped the worker
                            # wrapper (e.g. the payload itself failed to
                            # unpickle): contained as a task failure with
                            # the same record shape as a worker-side one.
                            payload = {
                                "key": task.spec.key,
                                "status": STATUS_FAILED,
                                "cached": False,
                                "stored": False,
                                "wall_s": 0.0,
                                "pid": None,
                                "error": type(exc).__name__,
                                "message": str(exc),
                                "repro_error": False,
                            }
                        self._record(records, task, payload)
                        pending.pop(task.spec.key, None)
        except BrokenProcessPool:
            # Harvest any futures that finished before the break.
            for future, task in futures.items():
                if task.spec.key not in pending:
                    continue
                if future.done() and not future.cancelled():
                    try:
                        payload = future.result()
                    except Exception:
                        continue
                    self._record(records, task, payload)
                    pending.pop(task.spec.key, None)
            return True
        return False

    def _absorb_crash(self, pending: Dict[str, _PendingTask],
                      records: Dict[str, TaskRecord]) -> None:
        """Charge an attempt to every task left pending by a pool break."""
        for key in list(pending):
            task = pending[key]
            task.attempts += 1
            # ``_record`` adds one for an in-flight attempt; the crashed
            # attempt is already counted, so back it out when recording
            # here rather than on a later resubmission.
            # A dying worker may have stored its result before the crash
            # took the pool down; recover it instead of re-running.
            value = self.store.load(key)
            if value is not None:
                self._values[key] = value
                task.attempts -= 1
                self._record(records, task, {
                    "key": key, "status": STATUS_OK,
                    "cached": True, "stored": True,
                })
                pending.pop(key)
                continue
            if task.attempts > self.max_crash_retries:
                logger.error(
                    "abandoning task %s after %d crash attempt(s)",
                    task.spec.label, task.attempts)
                message = (f"worker process crashed on all "
                           f"{task.attempts} attempt(s)")
                task.attempts -= 1
                self._record(records, task, {
                    "key": key, "status": STATUS_CRASHED,
                    "error": "WorkerCrashError",
                    "message": message,
                })
                pending.pop(key)

    def _enforce_policy(self, records: Dict[str, TaskRecord]) -> None:
        """Without keep-going, the first failure aborts like a sequential
        session; with it, failures stay recorded for the drivers."""
        if self.keep_going:
            return
        for record in records.values():
            if record.status == STATUS_CRASHED:
                raise WorkerCrashError(record.label, record.attempts)
            if record.status == STATUS_FAILED:
                raise TaskFailedError(record.label,
                                      record.error or "ReproError",
                                      record.message,
                                      worker_is_repro=record.repro_error)
