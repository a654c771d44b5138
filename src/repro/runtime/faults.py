"""Deterministic fault injection at flow-stage and filesystem boundaries.

The stage supervisor consults the current session's :class:`FaultPlan`
(:attr:`repro.runtime.session.Session.faults`, :data:`NULL_PLAN` unless
a test injects one) every time a stage runs: once on entry
(``where="before"``) and once after the stage body returns
(``where="after"``).  A :class:`FaultSpec` names the stage it targets,
which occurrences fire (skip the first ``skip`` hits, then fire
``times`` times), and what happens: raise a named repro exception, call
a custom exception factory (handy for :class:`CongestionError` faults
that need the attempt's partial result attached), or just sleep
``delay_s`` seconds — long enough to trip a stage timeout (under a
timeout the supervisor cuts the sleep at the stage's deadline and
raises there).

The checkpoint store consults the same plan for **filesystem faults**
(:class:`FsFaultSpec`): torn writes, partial renames, ``ENOSPC``,
generic IO errors, stale locks, and bit-flipped payloads.  The store
asks :func:`fs_fault` at each operation point and *implements* the
matched behaviour itself (it owns the file layout), so every recovery
path — quarantine, fsck repair, cache-off degradation — has a
deterministic test.

Usage::

    from repro.runtime import faults

    with faults.inject(faults.FaultSpec(stage="layout", error="RoutingError",
                                        times=2)):
        run_flow(config)          # first two layout attempts fail

    with faults.inject(faults.FsFaultSpec(kind="torn_write")):
        store.store(key, value)   # the entry lands truncated on disk

:func:`inject` puts a fresh plan on the current session for a ``with``
block and restores the previous one on exit.  Counting is per-plan (a
run is single-threaded), so a plan is deterministic and reusable only
within one ``inject`` scope.  Both spec kinds are picklable
dataclasses: a pool task gets its specs through
:class:`repro.parallel.pool.WorkerContext` and runs them as a plan of
its own.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from repro import errors

# Specs with times=ALWAYS fire on every matching occurrence.
ALWAYS = -1

# Filesystem fault classes (FsFaultSpec.kind).  The checkpoint store
# implements each behaviour at the matching operation point:
#   torn_write     — the entry file is truncated mid-write, then renamed
#                    into place (a corrupt entry under a valid name)
#   partial_rename — the temp file is written but never renamed (an
#                    orphaned .tmp, the footprint of a killed writer)
#   enospc         — the write raises OSError(ENOSPC)
#   io_error       — the operation raises OSError(EIO)
#   stale_lock     — lock acquisition behaves as if another (dead)
#                    writer holds the lock past the patience budget
#   bit_flip       — one payload byte is flipped after a clean write
#                    (silent media corruption; only the checksum sees it)
FS_FAULT_KINDS = ("torn_write", "partial_rename", "enospc", "io_error",
                  "stale_lock", "bit_flip")

# Store operations that consult the plan (FsFaultSpec.op): a load never
# does, so a load fault could not fire.
FS_FAULT_OPS = ("store", "lock")


def _resolve_error(name: str) -> type:
    """Map an exception-class name to the class in :mod:`repro.errors`."""
    cls = getattr(errors, name, None)
    if not (isinstance(cls, type) and issubclass(cls, BaseException)):
        raise ValueError(f"unknown repro error class: {name!r}")
    return cls


@dataclass
class FaultSpec:
    """One deterministic fault: where it fires, how often, and what it does.

    Exactly one behaviour applies per firing, checked in order:
    ``factory`` (called with the stage result, ``None`` for before-hooks,
    must return the exception to raise), then ``error`` (an exception
    class name from :mod:`repro.errors`), else the spec only sleeps
    ``delay_s`` and lets the stage proceed — a pure slowdown fault for
    exercising timeouts.
    """

    stage: str
    error: Optional[str] = None
    factory: Optional[Callable[[object], BaseException]] = None
    times: int = 1
    skip: int = 0
    delay_s: float = 0.0
    where: str = "before"         # "before" or "after" the stage body

    def __post_init__(self) -> None:
        if self.where not in ("before", "after"):
            raise ValueError(f"bad fault location: {self.where!r}")
        if self.error is not None:
            _resolve_error(self.error)   # fail fast on typos

    def build_exception(self, result: object) -> Optional[BaseException]:
        if self.factory is not None:
            return self.factory(result)
        if self.error is not None:
            cls = _resolve_error(self.error)
            return cls(f"injected {self.error} at stage {self.stage!r}")
        return None


@dataclass
class FsFaultSpec:
    """One deterministic filesystem fault against the checkpoint store.

    ``kind`` names the failure class (see :data:`FS_FAULT_KINDS`); ``op``
    restricts it to one store operation (``"store"`` or ``"lock"``, see
    :data:`FS_FAULT_OPS`; ``None`` matches both); ``key_filter``
    restricts it to store keys containing the substring.  Occurrence
    counting (``skip``/``times``) works exactly like :class:`FaultSpec`.
    """

    kind: str
    op: Optional[str] = None
    key_filter: Optional[str] = None
    times: int = 1
    skip: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FS_FAULT_KINDS:
            raise ValueError(f"unknown filesystem fault kind: {self.kind!r}")
        if self.op is not None and self.op not in FS_FAULT_OPS:
            raise ValueError(f"unknown store operation: {self.op!r}")

    def matches(self, op: str, key: str) -> bool:
        if self.op is not None and self.op != op:
            return False
        return self.key_filter is None or self.key_filter in key


def _count_hit(spec: FaultSpec | FsFaultSpec, hits: Dict[int, int],
               i: int) -> bool:
    """Count one hit of spec ``i``; True when it falls in the spec's
    firing window (past ``skip``, within ``times``)."""
    occurrence = hits[i] - spec.skip
    hits[i] += 1
    return occurrence >= 0 and (spec.times == ALWAYS or
                                occurrence < spec.times)


class FaultPlan:
    """An ordered set of fault specs plus per-spec hit counters.

    Holds both stage specs (:class:`FaultSpec`, consulted by the
    supervisor via :meth:`check`) and filesystem specs
    (:class:`FsFaultSpec`, consulted by the checkpoint store via
    :meth:`fs_fault`).
    """

    def __init__(self, specs: List[object]):
        self.specs = [s for s in specs if isinstance(s, FaultSpec)]
        self.fs_specs = [s for s in specs if isinstance(s, FsFaultSpec)]
        unknown = [s for s in specs
                   if not isinstance(s, (FaultSpec, FsFaultSpec))]
        if unknown:
            raise TypeError(f"not fault specs: {unknown!r}")
        self._hits: Dict[int, int] = {i: 0 for i in range(len(self.specs))}
        self._fired: Dict[int, int] = {i: 0 for i in range(len(self.specs))}
        self._fs_hits: Dict[int, int] = {
            i: 0 for i in range(len(self.fs_specs))}
        self._fs_fired: Dict[int, int] = {
            i: 0 for i in range(len(self.fs_specs))}

    def fired(self, stage: Optional[str] = None) -> int:
        """How many stage faults have fired (optionally for one stage)."""
        return sum(n for i, n in self._fired.items()
                   if stage is None or self.specs[i].stage == stage)

    def fs_fired(self, kind: Optional[str] = None) -> int:
        """How many filesystem faults have fired (optionally one kind)."""
        return sum(n for i, n in self._fs_fired.items()
                   if kind is None or self.fs_specs[i].kind == kind)

    def check(self, stage: str, where: str, result: object = None,
              sleep: Callable[[float], None] = time.sleep) -> None:
        """Fire any matching spec; called by the supervisor, which
        passes its deadline-bounded ``sleep`` for ``delay_s``."""
        for i, spec in enumerate(self.specs):
            if spec.stage != stage or spec.where != where or \
                    not _count_hit(spec, self._hits, i):
                continue
            self._fired[i] += 1
            if spec.delay_s > 0.0:
                sleep(spec.delay_s)
            exc = spec.build_exception(result)
            if exc is not None:
                raise exc

    def fs_fault(self, op: str, key: str) -> Optional[str]:
        """The fault kind to apply to this store operation, or ``None``.

        The first matching spec within its occurrence window fires; the
        checkpoint store implements the returned kind's behaviour.
        """
        for i, spec in enumerate(self.fs_specs):
            if not spec.matches(op, key):
                continue
            if _count_hit(spec, self._fs_hits, i):
                self._fs_fired[i] += 1
                return spec.kind
        return None


class _NullPlan(FaultPlan):
    def __init__(self) -> None:
        super().__init__([])

    def check(self, stage: str, where: str, result: object = None,
              sleep: Callable[[float], None] = time.sleep) -> None:
        return None

    def fs_fault(self, op: str, key: str) -> Optional[str]:
        return None


NULL_PLAN = _NullPlan()


@contextmanager
def inject(*specs: object) -> Iterator[FaultPlan]:
    """Context manager: put a plan of ``specs`` on the current session,
    restore the previous plan on exit.

    Accepts any mix of :class:`FaultSpec` and :class:`FsFaultSpec`.
    """
    from repro.runtime.session import override

    with override(faults=FaultPlan(list(specs))) as session:
        yield session.faults


def check(stage: str, where: str = "before", result: object = None,
          sleep: Callable[[float], None] = time.sleep) -> None:
    """Hook for the supervisor: fire matching faults of the session plan."""
    from repro.runtime.session import current_session

    current_session().faults.check(stage, where, result, sleep)


def fs_fault(op: str, key: str) -> Optional[str]:
    """Hook for the checkpoint store: the fault kind to apply, or None."""
    from repro.runtime.session import current_session

    return current_session().faults.fs_fault(op, key)
