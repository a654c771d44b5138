"""Flow metrics: named counters with mergeable snapshots.

The registry names the quantities the flow's hot engines already track
implicitly — placer refinement iterations, router spills/rip-ups, STA
levelization passes, checkpoint hits/misses, audit findings — and makes
them observable per session.  Canonical metric names are listed in
``docs/architecture.md`` ("Observability").  Timings are not metrics:
per-stage wall/CPU/RSS live in the stage supervisor's run journal, span
durations in the tracer.

Like tracing (see :mod:`repro.obs.trace`), metrics are **opt-in and free
when off**: the default registry is :data:`NULL_METRICS`, whose
instruments are shared no-op singletons, so an increment on a hot path
costs one global read and one method call on an empty body.

Snapshots are plain dicts, picklable, and mergeable: the parallel engine
ships each worker's snapshot home in its trace bundle and folds it into
the session registry, where the counts add.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

__all__ = [
    "Counter",
    "MetricsRegistry",
    "NULL_METRICS",
    "current_metrics",
    "install_metrics",
    "use_metrics",
    "counter",
]

# Canonical counter names of the checkpoint/store subsystem (the full
# metric table lives in docs/architecture.md).  Stage hit/miss counters
# also emit per-stage variants suffixed ``.<stage>``.
CHECKPOINT_COUNTERS: Tuple[str, ...] = (
    "checkpoint.hits",          # whole-entry store loads that verified
    "checkpoint.misses",        # absent, stale-schema, or corrupt loads
    "checkpoint.stage_hits",    # flow stages restored from the store
    "checkpoint.stage_misses",  # flow stages that had to compute
    "store.repairs",            # fsck quarantines/evictions/sweeps
    "store.evictions",          # gc LRU evictions
    "store.lock_timeouts",      # advisory write locks abandoned
    "store.degraded",           # store flips to cache-off (ENOSPC etc.)
)

# Canonical counter names of the design-space-exploration engine
# (:mod:`repro.dse`).
DSE_COUNTERS: Tuple[str, ...] = (
    "dse.evaluations",          # sweep points actually evaluated
    "dse.rounds",               # propose/evaluate/refine rounds run
    "dse.dedup_skips",          # proposals collapsed onto evaluated keys
    "dse.cache_hits",           # warm whole-run results + frontier-replay
                                # stage checkpoint hits
)


class Counter:
    """Monotonically non-decreasing count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value


class MetricsRegistry:
    """Named counters, created on first use, snapshot/merge-able."""

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter(name)
        return inst

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """A plain-dict, picklable view of every counter."""
        with self._lock:
            counters = dict(self._counters)
        return {"counters": {n: c.value
                             for n, c in sorted(counters.items())}}

    def merge_snapshot(self, snap: Dict[str, Dict[str, int]]) -> None:
        """Fold another registry's snapshot in (worker -> session)."""
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(int(value))


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        return None


class _NullMetrics(MetricsRegistry):
    """Default registry: every counter is one shared no-op singleton."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter("null")

    def counter(self, name: str) -> Counter:
        return self._null_counter

    def merge_snapshot(self, snap: Dict[str, Dict[str, int]]) -> None:
        return None


NULL_METRICS = _NullMetrics()
_ACTIVE: MetricsRegistry = NULL_METRICS


def current_metrics() -> MetricsRegistry:
    """The registry obs-instrumented code counts into."""
    return _ACTIVE


def install_metrics(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install (or with ``None``, reset to the null registry) globally."""
    global _ACTIVE
    _ACTIVE = registry if registry is not None else NULL_METRICS
    return _ACTIVE


@contextmanager
def use_metrics(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope a registry: installed on entry, previous restored on exit."""
    previous = _ACTIVE
    install_metrics(registry)
    try:
        yield registry
    finally:
        install_metrics(previous)


def counter(name: str) -> Counter:
    """The active registry's counter (no-op singleton when disabled)."""
    return _ACTIVE.counter(name)
