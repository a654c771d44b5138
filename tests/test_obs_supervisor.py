"""Supervisor <-> observability regression tests (no flows; fast).

Retries, timeouts, and degradations driven by deterministic fault
injection (:mod:`repro.runtime.faults`) must surface as annotated span
events on the stage-attempt spans, alongside the run journal's
per-attempt records and the supervisor counters on the tracer.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import RoutingError, StageTimeoutError
from repro.obs import Tracer
from repro.obs.trace import kernel
from repro.runtime import faults
from repro.runtime.session import override
from repro.runtime.supervisor import StagePolicy, StageSupervisor


@pytest.fixture()
def tracer():
    with override(tracer=Tracer()) as session:
        yield session.tracer


def _stage_spans(tracer, stage):
    spans = [s for s in tracer.snapshot() if s.name == f"stage:{stage}"]
    return sorted(spans, key=lambda s: s.attrs["attempt"])


def test_retries_appear_as_span_events(tracer):
    supervisor = StageSupervisor()
    policy = StagePolicy(max_attempts=3, retry_on=(RoutingError,))

    with faults.inject(faults.FaultSpec(stage="layout",
                                        error="RoutingError", times=2)):
        with supervisor.run_context("fpu-2D"):
            result = supervisor.run_stage("layout", lambda: 42,
                                          policy=policy)
    assert result == 42

    spans = _stage_spans(tracer, "layout")
    assert [s.attrs["outcome"] for s in spans] == \
        ["retried", "retried", "ok"]
    assert all(s.attrs["run"] == "fpu-2D" for s in spans)
    retry_events = [e for s in spans for e in s.events
                    if e.name == "retry"]
    assert len(retry_events) == 2
    assert all(e.attrs["error"] == "RoutingError" for e in retry_events)
    assert [e.attrs["next_attempt"] for e in retry_events] == [2, 3]
    assert tracer.counter("supervisor.retries").value == 2
    # One journal record per attempt, tagged with the run label and
    # carrying its CPU time and the process's peak RSS.
    records = supervisor.journal.records
    assert [r.attempt for r in records] == [1, 2, 3]
    assert all(r.stage == "layout" and r.run == "fpu-2D"
               for r in records)
    assert all(r.cpu_s >= 0.0 and r.peak_rss_kb > 0.0 for r in records)
    assert [r.outcome for r in records].count("ok") == 1


def test_timeout_appears_as_span_event(tracer):
    supervisor = StageSupervisor(timeout_s=0.05)
    policy = StagePolicy(max_attempts=2, retry_on=(StageTimeoutError,))

    # A pure slowdown fault on the first attempt only: it trips the
    # stage deadline, the retry then runs clean.
    with faults.inject(faults.FaultSpec(stage="power", delay_s=0.5,
                                        times=1)):
        result = supervisor.run_stage("power", lambda: "done",
                                      policy=policy)
    assert result == "done"

    spans = _stage_spans(tracer, "power")
    assert [s.attrs["outcome"] for s in spans] == ["timeout", "ok"]
    timeout_events = [e for e in spans[0].events if e.name == "timeout"]
    assert len(timeout_events) == 1
    assert timeout_events[0].attrs["timeout_s"] == pytest.approx(0.05)
    assert any(e.name == "retry" for e in spans[0].events)
    assert tracer.counter("supervisor.timeouts").value == 1
    assert tracer.counter("supervisor.retries").value == 1


def test_timeout_exhaustion_keeps_annotated_spans(tracer):
    supervisor = StageSupervisor(timeout_s=0.05)

    with faults.inject(faults.FaultSpec(stage="signoff", delay_s=0.5,
                                        times=1)):
        with pytest.raises(StageTimeoutError):
            supervisor.run_stage("signoff", lambda: "never")

    (span,) = _stage_spans(tracer, "signoff")
    assert span.attrs["outcome"] == "timeout"
    assert not any(e.name == "retry" for e in span.events)
    assert tracer.counter("supervisor.timeouts").value == 1
    assert tracer.counter("supervisor.retries").value == 0


def test_degraded_outcome_annotated(tracer):
    supervisor = StageSupervisor()
    policy = StagePolicy(max_attempts=2, retry_on=(RoutingError,),
                         degrade=True)

    def congested(result):
        exc = RoutingError("congested")
        exc.partial = "partial-layout"
        return exc

    with faults.inject(faults.FaultSpec(stage="layout", factory=congested,
                                        times=faults.ALWAYS)):
        result = supervisor.run_stage("layout", lambda: "clean",
                                      policy=policy)
    assert result == "partial-layout"

    spans = _stage_spans(tracer, "layout")
    assert [s.attrs["outcome"] for s in spans] == ["retried", "degraded"]
    assert any(e.name == "degraded" for e in spans[-1].events)


def test_timed_stage_kernel_spans_nest_and_stop_at_deadline(tracer):
    """A timed stage runs its body in line: a kernel span opened there
    hangs off the attempt span, and the first kernel entry past the
    deadline raises without opening a span."""
    supervisor = StageSupervisor(timeout_s=0.05)

    def body():
        with kernel("sta.levelize"):
            pass
        time.sleep(0.1)
        with kernel("sta.propagate"):
            pass
        return "late"

    with override(supervisor=supervisor), \
            pytest.raises(StageTimeoutError):
        supervisor.run_stage("signoff", body)
    spans = {s.name: s for s in tracer.snapshot()}
    assert spans["sta.levelize"].parent_id == \
        spans["stage:signoff"].span_id
    assert spans["sta.levelize"].category == "kernel"
    assert "sta.propagate" not in spans
    assert spans["stage:signoff"].attrs["outcome"] == "timeout"
