"""Flow observability: span tracing and flow counters.

Two individually opt-in layers, both free when off:

* :mod:`repro.obs.trace` — nested spans with monotonic start/duration
  and stage/design attributes, recorded by the stage supervisor (one
  span per stage attempt, retries/timeouts annotated as events) and by
  named hot-kernel timers inside placement, routing, and STA.  Exports
  plain JSON and the Chrome ``traceEvents`` format; worker-side spans
  travel through the shared checkpoint store as :class:`TraceBundle`\\ s
  and merge into one session trace with per-process clock offsets.
* :mod:`repro.obs.metrics` — counters for placer iterations, router
  spills/rip-ups, STA levelization passes, checkpoint hits/misses, and
  audit findings.

Per-stage wall time, CPU time and peak RSS are not an obs layer: the
stage supervisor's run journal (:mod:`repro.runtime.supervisor`) records
them for every attempt, always.  ``repro --profile`` and ``repro trace
<experiment>`` install both layers and print the journal's per-stage
table; ``scripts/trace_overhead.py`` keeps their cost under the
documented overhead budget.
"""

from repro.obs.metrics import (          # noqa: F401
    Counter,
    MetricsRegistry,
    NULL_METRICS,
    current_metrics,
    install_metrics,
    use_metrics,
)
from repro.obs.trace import (            # noqa: F401
    NULL_TRACER,
    Span,
    SpanEvent,
    TraceBundle,
    Tracer,
    current_tracer,
    install_tracer,
    kernel,
    use_tracer,
)
