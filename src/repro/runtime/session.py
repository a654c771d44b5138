"""Run-scoped state: the one home for what a session binds.

A *session* is one CLI invocation (or one test, one script run, or one
pool task): the checkpoint store it reads and writes through, its
graceful-degradation policy, the handles its stages run under, and
everything it accumulates while running —

* ``store`` — the bound :class:`~repro.runtime.checkpoint.CheckpointStore`
  (``None``: in-process memoization only).  The whole-run caches in
  :mod:`repro.experiments.runner`, the stage cache
  (:class:`repro.flow.stagecache.StageMemo`) and the parallel engine's
  workers all read it from here;
* ``keep_going`` and ``errors`` — the ``--keep-going`` policy and the
  :class:`RowError` records it produced;
* ``flows`` — the in-process memo of finished flow runs, keyed by run
  key (:func:`repro.flow.stagecache.run_key`); a comparison is two of
  them;
* ``failed_tasks`` — parallel tasks that failed in a warm phase, so a
  driver asking for that result re-raises the worker's error instead of
  recomputing a known failure;
* ``supervisor`` — the :class:`~repro.runtime.supervisor.StageSupervisor`
  the flow runs its stages under (its ``--timeout`` and its run
  journal), a fresh one per session;
* ``tracer`` — the observability layer (spans and counters,
  :mod:`repro.obs.trace`), :data:`~repro.obs.trace.NULL_TRACER` unless
  the run is traced;
* ``faults`` — the :class:`~repro.runtime.faults.FaultPlan` stage and
  store operations consult, :data:`~repro.runtime.faults.NULL_PLAN`
  unless a test injects one;
* ``captures`` — the open :func:`repro.check.audit.capture_artifacts`
  buckets; a flow run deposits its artifacts into every one.

One module-level instance is current at a time (:func:`current_session`);
:func:`use_session` swaps one in for a scope and restores the caller's
on exit, and a pool worker installs its own at start-up.
:func:`override` sets some fields of the current session for a scope and
restores exactly those on exit.  The session is a plain global rather
than a context variable on purpose: a run is single-threaded (a stage
timeout is a deadline checked on the stage's own thread, see
:mod:`repro.runtime.supervisor`), so a context variable would isolate
nothing and only add a lookup to every ``kernel()`` entry.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.obs.trace import NULL_TRACER, Tracer
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.faults import NULL_PLAN, FaultPlan
from repro.runtime.supervisor import StageSupervisor


@dataclass
class RowError:
    """One failed experiment row recorded under keep-going."""

    label: str
    error: str
    message: str

    def summary(self) -> str:
        return f"{self.label}: {self.error}: {self.message}"


@dataclass
class Session:
    """Everything one run binds or accumulates (see module docstring)."""

    store: Optional[CheckpointStore] = None
    keep_going: bool = False
    errors: List[RowError] = field(default_factory=list)
    flows: Dict[str, object] = field(default_factory=dict)
    # key -> (label, worker error class name, message, was-a-ReproError)
    failed_tasks: Dict[str, tuple] = field(default_factory=dict)
    supervisor: StageSupervisor = field(default_factory=StageSupervisor)
    tracer: Tracer = NULL_TRACER
    faults: FaultPlan = NULL_PLAN
    captures: List[list] = field(default_factory=list)


_CURRENT = Session()


def current_session() -> Session:
    """The session every cache, policy and handle lookup reads."""
    return _CURRENT


def install_session(session: Session) -> Session:
    """Make ``session`` current for the rest of the process."""
    global _CURRENT
    _CURRENT = session
    return session


@contextmanager
def use_session(session: Session) -> Iterator[Session]:
    """Scope a session: installed on entry, previous restored on exit."""
    previous = _CURRENT
    install_session(session)
    try:
        yield session
    finally:
        install_session(previous)


@contextmanager
def override(**fields: object) -> Iterator[Session]:
    """Set ``fields`` on the current session for a ``with`` block.

    Exactly the named fields are restored on exit; the session itself
    is not copied, so anything else bound inside the block (a store, a
    row error) stays bound.
    """
    session = _CURRENT
    previous = {name: getattr(session, name) for name in fields}
    for name, value in fields.items():
        setattr(session, name, value)
    try:
        yield session
    finally:
        for name, value in previous.items():
            setattr(session, name, value)
