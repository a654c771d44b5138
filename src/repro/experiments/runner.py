"""Cached, resilient execution of flow runs for the experiment drivers.

A bench session touches many tables that share the same underlying layout
runs (e.g. Tables 4, 13, 16 and Fig. 3 all need the 45 nm comparisons).
There is one cache, of whole flow runs, keyed on each run's stage-digest
chain (:func:`repro.flow.stagecache.run_key`, so configs differing only
in knobs the run ignores share one entry).  A comparison is its two
cached runs: the 2D run, then the T-MI run paired with it
(:func:`repro.flow.compare.paired_config`).  The cache has two levels:

* **in-process** — the current session's memo
  (:attr:`repro.runtime.session.Session.flows`);
* **on disk** (opt-in via :func:`use_persistent_cache`, the CLI's
  ``--resume``) — the session's :class:`repro.runtime.CheckpointStore`,
  so a bench session killed mid-experiment resumes without recomputing
  any completed run.

The module also carries the session's **graceful-degradation policy**
(:func:`set_keep_going`, the CLI's ``--keep-going``): experiment drivers
route their per-row work through :func:`resilient_rows`, which under
keep-going converts a failed row into an error-marked row plus a session
error record instead of aborting the whole bench session.

For multi-experiment sessions there is a **parallel warm phase**
(:func:`prefetch`, the CLI's ``--jobs``): the deduplicated task graph of
everything the requested experiments declared runs on a process pool
(:mod:`repro.parallel`), results land in the flow cache through the
shared checkpoint store, and the experiment drivers then assemble their rows
sequentially from a warm cache — byte-identical to a sequential
session.  A task that failed in a worker is remembered
(:func:`task_failures`); asking for its result raises
:class:`repro.errors.TaskFailedError` carrying the worker-side error,
which :func:`resilient_rows` degrades into the same error-marked row a
sequential failure would produce.
"""

from __future__ import annotations

import logging
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Union

from repro.errors import ReproError, TaskFailedError
from repro.flow.compare import ComparisonResult, paired_config
from repro.flow.design_flow import FlowConfig, LayoutResult, run_flow
from repro.flow.stagecache import run_key
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.session import RowError, current_session

logger = logging.getLogger(__name__)

# Default benchmark scales for experiment runs: the largest sizes that keep
# a full bench session in minutes.  Recorded in EXPERIMENTS.md.
DEFAULT_SCALES: Dict[str, float] = {
    "fpu": 0.5,
    "aes": 0.25,
    "ldpc": 0.12,
    "des": 0.15,
    "m256": 0.06,
    # Scenario workload (not a paper benchmark): a 3x3 router mesh,
    # ~5.6k cells — comparable to the scaled paper netlists above.
    "noc": 0.1,
}


def default_scale(circuit: str) -> float:
    return DEFAULT_SCALES.get(circuit.lower(), 0.1)


# -- persistent store -----------------------------------------------------

def use_persistent_cache(path: Union[str, Path, None] = None
                         ) -> CheckpointStore:
    """Bind an on-disk checkpoint store to the current session (the
    ``--resume`` path).

    The same store also backs the stage-level incremental cache
    (:mod:`repro.flow.stagecache`), so a whole-run miss can still reuse
    every stage checkpoint an earlier, slightly different run left.
    """
    store = CheckpointStore(Path(path) if path is not None else None)
    current_session().store = store
    return store


def disable_persistent_cache() -> None:
    current_session().store = None


def persistent_store() -> Optional[CheckpointStore]:
    return current_session().store


def _cache_lookup(key: str) -> Optional[object]:
    session = current_session()
    value = session.flows.get(key)
    if value is None and session.store is not None:
        value = session.store.load(key)
        if value is not None:
            session.flows[key] = value
    return value


def _cache_insert(key: str, value: object) -> None:
    session = current_session()
    session.flows[key] = value
    store = session.store
    if store is not None:
        # Best-effort: a disk-write failure must not discard a fully
        # computed result — the in-process entry above stays usable.
        store.try_store(key, value)


# -- parallel warm phase ---------------------------------------------------

def record_task_failure(key: str, label: str, error: str,
                        message: str, repro_error: bool = True) -> None:
    """Remember a parallel task failure for this session.

    The cached call sites consult these records, so a driver's request
    for that result raises immediately (with the original error) instead
    of recomputing a known failure.
    """
    current_session().failed_tasks[key] = (label, error, message,
                                            repro_error)


def task_failures() -> Dict[str, tuple]:
    return dict(current_session().failed_tasks)


def _check_failed(key: str) -> None:
    failure = current_session().failed_tasks.get(key)
    if failure is not None:
        label, error, message, repro_error = failure
        raise TaskFailedError(label, error, message,
                              worker_is_repro=repro_error)


def prefetch(tasks: object, jobs: Optional[int] = None,
             **engine_options) -> "object":
    """Warm the flow cache by running a task graph on the process pool.

    ``tasks`` is a :class:`repro.parallel.TaskGraph` or any iterable of
    task specs / deferrals (see :mod:`repro.parallel.plan`).  Results are
    exchanged through the persistent checkpoint store when one is active
    (``--resume``), else through an ephemeral session store that is
    removed afterwards.  Under keep-going, worker failures are recorded
    via :func:`record_task_failure`; otherwise the engine raises on the
    first failure, like a sequential session.  Returns the engine's
    :class:`repro.parallel.EngineReport`.
    """
    import shutil
    import tempfile

    from repro.parallel import ParallelEngine, TaskGraph

    graph = tasks if isinstance(tasks, TaskGraph) else TaskGraph(tasks)
    session = current_session()
    ephemeral_root: Optional[str] = None
    store = session.store
    if store is None:
        ephemeral_root = tempfile.mkdtemp(prefix="repro-parallel-")
        store = CheckpointStore(Path(ephemeral_root))
    try:
        engine = ParallelEngine(store=store, jobs=jobs,
                                keep_going=session.keep_going,
                                **engine_options)
        report = engine.execute(graph)
        for record in report.records:
            if record.status != "ok":
                record_task_failure(record.key, record.label,
                                    record.error or "ReproError",
                                    record.message,
                                    repro_error=record.repro_error)
                continue
            value = engine.value_for(record.key)
            if value is not None:
                session.flows[record.key] = value
        return report
    finally:
        if ephemeral_root is not None:
            shutil.rmtree(ephemeral_root, ignore_errors=True)


# -- cached execution -----------------------------------------------------

def comparison_config(circuit: str, node_name: str = "45nm",
                      scale: Optional[float] = None,
                      **kwargs) -> FlowConfig:
    """The 2D config of one comparison request; ``scale`` defaults to
    the circuit's bench scale and ``kwargs`` are ``FlowConfig`` fields."""
    scale = scale if scale is not None else default_scale(circuit)
    return FlowConfig(circuit=circuit, node_name=node_name, is_3d=False,
                      scale=scale, **kwargs)


def cached_comparison(circuit: str, node_name: str = "45nm",
                      scale: Optional[float] = None,
                      **kwargs) -> ComparisonResult:
    """Run (or fetch) an iso-performance 2D vs T-MI comparison: the 2D
    run, then the T-MI run paired with it, each through
    :func:`cached_flow`."""
    config_2d = comparison_config(circuit, node_name, scale, **kwargs)
    result_2d = cached_flow(config_2d)
    result_3d = cached_flow(paired_config(config_2d, result_2d))
    return ComparisonResult(result_2d=result_2d, result_3d=result_3d)


def cached_flow(config: FlowConfig) -> LayoutResult:
    """Run (or fetch) a single flow configuration."""
    key = run_key(config)
    value = _cache_lookup(key)
    if value is None:
        _check_failed(key)
        value = run_flow(config)
        _cache_insert(key, value)
    if isinstance(value, LayoutResult) and value.config != config:
        # Computed under a config that differs only in knobs the run
        # ignores: the caller gets its own, which drivers derive from.
        value = replace(value, config=config)
    return value


def flow_cached(key: str) -> bool:
    """Whether a flow result for ``key`` is already warm.

    True when the in-process memo or the bound persistent store holds
    the whole-run result — the lookup the DSE engine uses to count an
    evaluation as a cache hit before lowering it into the planner.
    """
    session = current_session()
    if key in session.flows:
        return True
    return session.store is not None and key in session.store


def clear_caches(disk: bool = False) -> None:
    """Drop the in-process memos (and, with ``disk=True``, the store)."""
    session = current_session()
    session.flows.clear()
    session.failed_tasks.clear()
    if disk and session.store is not None:
        session.store.clear()


# -- graceful degradation (--keep-going) ----------------------------------

def set_keep_going(flag: bool) -> None:
    """Enable/disable row-level graceful degradation for this session."""
    current_session().keep_going = flag


def keep_going_enabled() -> bool:
    return current_session().keep_going


def session_errors() -> List[RowError]:
    return list(current_session().errors)


def _describe_error(exc: ReproError) -> tuple:
    """(class name, message) — unwrapping worker-side task failures so a
    row failed in a parallel warm phase reads like the sequential one."""
    if isinstance(exc, TaskFailedError):
        return exc.worker_error, exc.worker_message
    return type(exc).__name__, str(exc)


def _error_row(label: str, exc: ReproError) -> Dict[str, object]:
    error, message = _describe_error(exc)
    return {"circuit": str(label).upper(), "error": f"{error}: {message}"}


def resilient_rows(items: Iterable[object],
                   row_fn: Callable[[object], Union[Dict[str, object],
                                                    List[Dict[str, object]]]],
                   label: Callable[[object], str] = str,
                   error_row: Callable[[str, ReproError],
                                       Dict[str, object]] = _error_row,
                   ) -> List[Dict[str, object]]:
    """Build table rows item by item, honoring the keep-going policy.

    ``row_fn(item)`` returns one row dict or a list of them.  Without
    keep-going a :class:`ReproError` propagates (aborting the
    experiment, as before); with it, the failure becomes an error-marked
    row and a session error record, and the remaining items still run.

    Parallel-aware: a row whose underlying task already failed in a
    ``--jobs`` warm phase raises :class:`TaskFailedError` out of the
    cached call site (no recompute); its error row and session record
    carry the *worker-side* exception, so a pool failure and a
    sequential failure produce the same degraded output.
    """
    rows: List[Dict[str, object]] = []
    for item in items:
        try:
            out = row_fn(item)
        except ReproError as exc:
            if (isinstance(exc, TaskFailedError)
                    and not exc.worker_is_repro):
                # The worker died on a non-Repro exception — a genuine
                # bug.  Sequentially the same exception would abort even
                # under keep-going (only ReproError is caught here), so
                # re-raise for identical parallel/sequential semantics.
                raise
            session = current_session()
            if not session.keep_going:
                raise
            name = label(item)
            error, message = _describe_error(exc)
            session.errors.append(RowError(
                label=name, error=error, message=message))
            rows.append(error_row(name, exc))
        else:
            rows.extend(out if isinstance(out, list) else [out])
    return rows
