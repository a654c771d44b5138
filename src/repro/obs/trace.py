"""Span-based tracing of flow stages, kernels, and parallel tasks.

A :class:`Tracer` records **spans** — named intervals with a monotonic
start, a duration, a category (``stage``, ``kernel``, ``task``, …), and
free-form attributes — nested: a span opened while another is open
becomes its child (a run is single-threaded, so one stack per tracer
holds the open spans).  Spans carry **events**
(point-in-time annotations such as a supervisor retry) and serialize to
plain JSON or to the Chrome ``traceEvents`` format (load the file at
``chrome://tracing`` / https://ui.perfetto.dev — zero dependencies).
The tracer also keeps the flow's named **counters** (placer iterations,
router spills/rip-ups, STA levelization passes, checkpoint hits/misses,
audit findings; the table is in ``docs/architecture.md``,
"Observability"): one opt-in layer holds both.

Tracing is **opt-in and free when off**: the current session's tracer
(:attr:`repro.runtime.session.Session.tracer`) defaults to
:data:`NULL_TRACER`, whose :meth:`~Tracer.span` returns one shared,
do-nothing context manager and whose :meth:`~Tracer.counter` returns one
shared no-op counter — no allocation and no clock read on the hot paths
(guarded by a no-op test).  ``repro --profile`` and ``repro
trace`` put a real tracer on the session.

Cross-process traces: a worker exports its finished spans as a
:class:`TraceBundle` (pid, wall-clock epoch, spans, plus the task's
counts and run-journal rows riding along); the parent merges bundles with
:meth:`Tracer.merge_bundle`, shifting each worker's monotonic timeline
by the wall-clock offset between the two processes so one session trace
covers every worker, and adding the counts in.  The **structural
digest** (:meth:`Tracer.digest`) hashes the span forest with ids, pids,
and times stripped and siblings canonically sorted, so two runs of the
same seeded session are digest-equal even though their timings differ;
counts do not enter it.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

if TYPE_CHECKING:                   # the runtime package imports this module
    from repro.runtime.supervisor import StageRecord

__all__ = [
    "Counter",
    "Span",
    "SpanEvent",
    "TraceBundle",
    "Tracer",
    "NULL_TRACER",
    "counter",
    "kernel",
]


@dataclass
class SpanEvent:
    """A point-in-time annotation on a span (e.g. a supervisor retry)."""

    name: str
    t_us: float
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "t_us": round(self.t_us, 3),
                "attrs": dict(self.attrs)}


@dataclass
class Span:
    """One named interval of the trace."""

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    start_us: float
    dur_us: float = 0.0
    pid: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)
    events: List[SpanEvent] = field(default_factory=list)

    @property
    def end_us(self) -> float:
        return self.start_us + self.dur_us

    def set(self, key: str, value: object) -> None:
        """Attach (or overwrite) one attribute."""
        self.attrs[key] = value

    def event(self, name: str, t_us: Optional[float] = None,
              **attrs: object) -> None:
        """Annotate the span with a point-in-time event."""
        self.events.append(SpanEvent(
            name=name,
            t_us=t_us if t_us is not None else self.start_us,
            attrs=attrs))

    def to_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start_us": round(self.start_us, 3),
            "dur_us": round(self.dur_us, 3),
            "pid": self.pid,
            "attrs": dict(self.attrs),
            "events": [e.to_dict() for e in self.events],
        }


class _NullSpan:
    """The span handed out by the null tracer: accepts, records nothing."""

    __slots__ = ()

    def set(self, key: str, value: object) -> None:
        return None

    def event(self, name: str, t_us: Optional[float] = None,
              **attrs: object) -> None:
        return None


class _NullSpanContext:
    """One shared, reusable no-op context manager — zero per-call cost."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc: object) -> None:
        return None


NULL_SPAN = _NullSpan()
_NULL_SPAN_CONTEXT = _NullSpanContext()


class Counter:
    """Monotonically non-decreasing count."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str):
        self.name = name
        self._value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self._value += n

    @property
    def value(self) -> int:
        return self._value


class _NullCounter(Counter):
    """The counter handed out by the null tracer: accepts, counts nothing."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        return None


_NULL_COUNTER = _NullCounter("null")


@dataclass
class TraceBundle:
    """A worker's finished spans plus riders, shipped through the store."""

    label: str
    pid: int
    wall_epoch_s: float            # time.time() at the worker tracer's zero
    spans: List[Span] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    journal: List["StageRecord"] = field(default_factory=list)


class _SpanContext:
    """Context manager opening one span on the tracer's span stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, *exc: object) -> None:
        self._tracer._pop(self._span)


class Tracer:
    """Collects nested spans; exportable and mergeable."""

    enabled = True

    def __init__(self,
                 clock: Optional[Callable[[], float]] = None,
                 wall: Callable[[], float] = time.time):
        self._clock = clock if clock is not None else time.perf_counter
        self._epoch = self._clock()
        self.wall_epoch_s = wall()
        self._stack: List[Span] = []     # open spans, innermost last
        self._next_id = 1
        self.spans: List[Span] = []      # finished spans, closing order
        self._counters: Dict[str, Counter] = {}

    # -- clock -------------------------------------------------------------

    def now_us(self) -> float:
        """Microseconds since this tracer's epoch (monotonic)."""
        return (self._clock() - self._epoch) * 1e6

    # -- span stack --------------------------------------------------------

    def _push(self, span: Span) -> None:
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        span.dur_us = self.now_us() - span.start_us
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
        else:                             # unbalanced exit; drop if present
            try:
                stack.remove(span)
            except ValueError:
                pass
        self.spans.append(span)

    def current_span(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def span(self, name: str, category: str = "span",
             **attrs: object) -> _SpanContext:
        """Open a span; use as ``with tracer.span("stage:layout") as s:``."""
        span_id = self._next_id
        self._next_id += 1
        parent = self.current_span()
        span = Span(
            span_id=span_id,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            category=category,
            start_us=self.now_us(),
            pid=os.getpid(),
            attrs=dict(attrs),
        )
        return _SpanContext(self, span)

    # -- counters ----------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The named counter, created on first use."""
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def counts(self) -> Dict[str, int]:
        """A plain-dict, picklable view of every counter, by name."""
        return {name: c.value for name, c in sorted(self._counters.items())}

    # -- merging -----------------------------------------------------------

    def export_bundle(self, label: str = "") -> TraceBundle:
        """Snapshot the finished spans and the counts for shipping to
        another process."""
        return TraceBundle(label=label, pid=os.getpid(),
                           wall_epoch_s=self.wall_epoch_s,
                           spans=list(self.spans), counts=self.counts())

    def merge_bundle(self, bundle: TraceBundle,
                     container_name: Optional[str] = None,
                     **container_attrs: object) -> int:
        """Fold a worker's bundle into this trace; returns spans added.

        Each bundle span's monotonic start is shifted by the wall-clock
        offset between the worker's epoch and ours, so all processes
        share one timeline.  A synthetic ``task`` container span wrapping
        the bundle is added when ``container_name`` is given; bundle
        roots are re-parented under it.  The bundle's counts add to
        this tracer's.
        """
        for name, value in bundle.counts.items():
            self.counter(name).inc(int(value))
        offset_us = (bundle.wall_epoch_s - self.wall_epoch_s) * 1e6
        id_map: Dict[int, int] = {}
        for span in bundle.spans:
            id_map[span.span_id] = self._next_id
            self._next_id += 1
        container: Optional[Span] = None
        if container_name is not None:
            starts = [s.start_us + offset_us for s in bundle.spans]
            ends = [s.end_us + offset_us for s in bundle.spans]
            start = min(starts) if starts else offset_us
            end = max(ends) if ends else offset_us
            container = Span(
                span_id=self._next_id,
                parent_id=None,
                name=container_name,
                category="task",
                start_us=start,
                dur_us=end - start,
                pid=bundle.pid,
                attrs=dict(container_attrs),
            )
            self._next_id += 1
        added = 0
        for span in bundle.spans:
            parent_id = (id_map.get(span.parent_id)
                         if span.parent_id is not None else None)
            if parent_id is None and container is not None:
                parent_id = container.span_id
            self.spans.append(Span(
                span_id=id_map[span.span_id],
                parent_id=parent_id,
                name=span.name,
                category=span.category,
                start_us=span.start_us + offset_us,
                dur_us=span.dur_us,
                pid=span.pid,
                attrs=dict(span.attrs),
                events=[SpanEvent(e.name, e.t_us + offset_us,
                                  dict(e.attrs)) for e in span.events],
            ))
            added += 1
        if container is not None:
            self.spans.append(container)
            added += 1
        return added

    # -- export ------------------------------------------------------------

    def snapshot(self) -> List[Span]:
        return list(self.spans)

    def to_dict(self) -> Dict[str, object]:
        spans = self.snapshot()
        return {
            "wall_epoch_s": self.wall_epoch_s,
            "n_spans": len(spans),
            "digest": self.digest(),
            "spans": [s.to_dict() for s in sorted(
                spans, key=lambda s: (s.start_us, s.span_id))],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_chrome_trace(self) -> Dict[str, object]:
        """The Chrome/Perfetto ``traceEvents`` document (complete events).

        Span events ride along as zero-duration instant events (``ph: i``)
        on the same track.  A run is single-threaded, so each process
        gets one track: ``tid`` is the pid.
        """
        events: List[Dict[str, object]] = []
        for span in sorted(self.snapshot(),
                           key=lambda s: (s.start_us, s.span_id)):
            events.append({
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": round(span.start_us, 3),
                "dur": round(span.dur_us, 3),
                "pid": span.pid,
                "tid": span.pid,
                "args": dict(span.attrs),
            })
            for ev in span.events:
                events.append({
                    "name": f"{span.name}:{ev.name}",
                    "cat": span.category,
                    "ph": "i",
                    "ts": round(ev.t_us, 3),
                    "pid": span.pid,
                    "tid": span.pid,
                    "s": "t",
                    "args": dict(ev.attrs),
                })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    # -- structural digest -------------------------------------------------

    def digest(self) -> str:
        """SHA-256 over the span forest's *structure*.

        Ids, pids, and every timing value are stripped; siblings
        are sorted canonically (not by time), so identical seeded
        sessions hash identically however their spans interleaved.
        """
        spans = self.snapshot()
        children: Dict[Optional[int], List[Span]] = {}
        for span in spans:
            children.setdefault(span.parent_id, []).append(span)
        known = {s.span_id for s in spans}

        def node(span: Span) -> Dict[str, object]:
            kids = [node(c) for c in children.get(span.span_id, [])]
            kids.sort(key=lambda n: json.dumps(n, sort_keys=True))
            return {
                "name": span.name,
                "category": span.category,
                "attrs": {k: span.attrs[k] for k in sorted(span.attrs)},
                "events": sorted(
                    ({"name": e.name,
                      "attrs": {k: e.attrs[k] for k in sorted(e.attrs)}}
                     for e in span.events),
                    key=lambda n: json.dumps(n, sort_keys=True)),
                "children": kids,
            }

        # Roots: no parent, or a parent that never closed (not exported).
        roots = [s for s in spans
                 if s.parent_id is None or s.parent_id not in known]
        forest = [node(s) for s in roots]
        forest.sort(key=lambda n: json.dumps(n, sort_keys=True))
        text = json.dumps(forest, sort_keys=True, separators=(",", ":"),
                          default=str)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    # -- summaries ---------------------------------------------------------

    def totals(self, category: Optional[str] = None) -> Dict[str, float]:
        """Summed duration (seconds) per span name, optionally filtered."""
        totals: Dict[str, float] = {}
        for span in self.snapshot():
            if category is not None and span.category != category:
                continue
            totals[span.name] = totals.get(span.name, 0.0) + \
                span.dur_us / 1e6
        return totals


class _NullTracer(Tracer):
    """Always installed by default; every operation is free."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(clock=lambda: 0.0, wall=lambda: 0.0)

    def span(self, name: str, category: str = "span",
             **attrs: object) -> _NullSpanContext:  # type: ignore[override]
        return _NULL_SPAN_CONTEXT

    def counter(self, name: str) -> Counter:
        return _NULL_COUNTER

    def merge_bundle(self, bundle: TraceBundle,
                     container_name: Optional[str] = None,
                     **container_attrs: object) -> int:
        return 0


NULL_TRACER = _NullTracer()


def kernel(name: str, **attrs: object):
    """Hot-kernel timer: a ``kernel`` span, or the shared no-op when off.

    Every entry is also a stage-timeout check: once the session
    supervisor's armed deadline has passed it raises
    :class:`~repro.errors.StageTimeoutError` and opens no span.  The
    disabled path is one session lookup, one ``is None`` test and one
    attribute check — cheap enough to sit inside placement/routing/STA
    inner drivers.
    """
    from repro.runtime.session import current_session

    session = current_session()
    if session.supervisor.deadline is not None:
        session.supervisor.check_deadline()
    tracer = session.tracer
    if not tracer.enabled:
        return _NULL_SPAN_CONTEXT
    return tracer.span(name, category="kernel", **attrs)


def counter(name: str) -> Counter:
    """The current session tracer's counter (the shared no-op when off)."""
    from repro.runtime.session import current_session

    return current_session().tracer.counter(name)
