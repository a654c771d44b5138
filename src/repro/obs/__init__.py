"""Flow observability: span tracing with flow counters, one opt-in layer.

:mod:`repro.obs.trace` holds both halves on one :class:`Tracer`:

* nested spans with monotonic start/duration and stage/design
  attributes, recorded by the stage supervisor (one span per stage
  attempt, retries/timeouts annotated as events) and by named hot-kernel
  timers inside placement, routing, and STA.  Exports plain JSON and the
  Chrome ``traceEvents`` format; worker-side spans travel through the
  shared checkpoint store as :class:`TraceBundle`\\ s and merge into one
  session trace with per-process clock offsets;
* counters for placer iterations, router spills/rip-ups, STA
  levelization passes, checkpoint hits/misses, and audit findings
  (:func:`counter`), which ride in the same bundles and add up on merge.

The layer is off unless the current session carries a real tracer
(:attr:`repro.runtime.session.Session.tracer`, default
:data:`NULL_TRACER`), and free when off.  Per-stage wall time, CPU time
and peak RSS are not an obs layer: the stage supervisor's run journal
(:mod:`repro.runtime.supervisor`) records them for every attempt,
always.  ``repro --profile`` and ``repro trace <experiment>`` turn the
layer on and print the journal's per-stage table;
``scripts/trace_overhead.py`` keeps its cost under the documented
overhead budget.
"""

from repro.obs.trace import (            # noqa: F401
    NULL_TRACER,
    Counter,
    Span,
    SpanEvent,
    TraceBundle,
    Tracer,
    counter,
    kernel,
)
