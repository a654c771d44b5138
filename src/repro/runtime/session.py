"""Run-scoped state: the one home for what a session binds.

A *session* is one CLI invocation (or one test, or one script run): the
checkpoint store it reads and writes through, its graceful-degradation
policy, and everything it accumulates while running —

* ``store`` — the bound :class:`~repro.runtime.checkpoint.CheckpointStore`
  (``None``: in-process memoization only).  The whole-run caches in
  :mod:`repro.experiments.runner`, the stage cache
  (:class:`repro.flow.stagecache.StageMemo`) and the parallel engine's
  workers all read it from here;
* ``keep_going`` and ``errors`` — the ``--keep-going`` policy and the
  :class:`RowError` records it produced;
* ``comparisons`` and ``flows`` — the in-process memos of finished
  comparisons and flow runs, keyed by canonical checkpoint key;
* ``failed_tasks`` — parallel tasks that failed in a warm phase, so a
  driver asking for that result re-raises the worker's error instead of
  recomputing a known failure.

One module-level instance is current at a time (:func:`current_session`);
:func:`use_session` swaps one in for a scope and restores the caller's
on exit, and a pool worker installs its own at start-up.  It is a plain
global rather than a context variable on purpose: with ``--timeout`` the
supervisor runs stage bodies on a fresh ``threading.Thread``, which would
not see a context variable's value.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.runtime.checkpoint import CheckpointStore


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
    comparisons: Dict[str, object] = field(default_factory=dict)
    flows: Dict[str, object] = field(default_factory=dict)
    # key -> (label, worker error class name, message, was-a-ReproError)
    failed_tasks: Dict[str, tuple] = field(default_factory=dict)


_CURRENT = Session()


def current_session() -> Session:
    """The session every cache and policy lookup reads."""
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
