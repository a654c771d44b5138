"""Supervised execution of design-flow stages.

The :class:`StageSupervisor` wraps each stage of
:func:`repro.flow.design_flow.run_flow` with

* one wall-clock **timeout** (:attr:`StageSupervisor.timeout_s`, the
  ``--timeout`` flag) applied to every stage: each attempt arms a
  deadline, and :meth:`StageSupervisor.check_deadline` raises
  :class:`~repro.errors.StageTimeoutError` on the stage's own thread at
  the stage boundaries, at the end of a delay fault and at every
  :func:`repro.obs.trace.kernel` entry.  A run is single-threaded; a
  body runs on until its next check, so a timeout fires late by at most
  the longest stretch between two checks,
* **bounded retries** for the exception classes the stage's
  :class:`StagePolicy` declares retryable — this generalizes the
  congestion-retry loop that used to live ad hoc in
  ``design_flow.run_flow``,
* **graceful degradation**: a retryable exception may carry a
  ``partial`` result (see :class:`repro.errors.CongestionError`); when
  retries are exhausted and the policy allows it, the supervisor returns
  that partial result instead of raising — the paper's "proceed with
  routing detours" move, and
* a structured **run journal** recording stage, attempt, wall time,
  CPU time, peak RSS, outcome, and exception class for every attempt —
  the one per-attempt record; ``repro --profile`` prints its per-stage
  table.

The supervisor the flow uses is the current session's
(:attr:`repro.runtime.session.Session.supervisor`); a pool task runs
under a fresh one carrying the timeout from its
:class:`~repro.parallel.pool.WorkerContext`.  Every attempt records into
the session's tracer and consults the session's fault plan
(:mod:`repro.runtime.faults`).
"""

from __future__ import annotations

import logging
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import RetryExhaustedError, StageTimeoutError
from repro.runtime import faults

try:
    import resource
except ImportError:                      # pragma: no cover - non-POSIX
    resource = None

logger = logging.getLogger(__name__)

# ru_maxrss is kilobytes on Linux, bytes on macOS.
_RSS_TO_KB = 1024 if sys.platform == "darwin" else 1


def peak_rss_kb() -> float:
    """The process's resident-set high-water mark, in kB (0 if unknown)."""
    if resource is None:
        return 0.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / _RSS_TO_KB


@dataclass
class StagePolicy:
    """Retry/degradation policy for one stage (the timeout is the
    supervisor's)."""

    max_attempts: int = 1
    retry_on: Tuple[type, ...] = ()
    # When retries are exhausted and the final exception carries a
    # non-None ``partial`` attribute, return it instead of raising.
    degrade: bool = False


_SINGLE_ATTEMPT = StagePolicy()


@dataclass
class StageRecord:
    """One journal line: a single attempt of a single stage."""

    stage: str
    attempt: int
    outcome: str                  # ok | retried | degraded | error | timeout
    wall_time_s: float
    # Process CPU time over the attempt (a run is single-threaded, so
    # it is the attempt's own) and the process's peak RSS at its end.
    cpu_s: float = 0.0
    peak_rss_kb: float = 0.0
    run: str = ""                 # run label (e.g. "aes-2D"), if any
    error: Optional[str] = None   # exception class name
    message: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "stage": self.stage,
            "attempt": self.attempt,
            "outcome": self.outcome,
            "wall_time_s": round(self.wall_time_s, 6),
            "cpu_s": round(self.cpu_s, 6),
            "peak_rss_kb": round(self.peak_rss_kb, 1),
            "run": self.run,
            "error": self.error,
            "message": self.message,
        }


class RunJournal:
    """Structured, append-only record of supervised stage attempts."""

    def __init__(self) -> None:
        self.records: List[StageRecord] = []

    def record(self, record: StageRecord) -> None:
        self.records.append(record)

    def extend(self, records: Sequence[StageRecord]) -> None:
        """Append attempts journaled elsewhere (a pool task's rows)."""
        self.records.extend(records)

    def for_stage(self, stage: str) -> List[StageRecord]:
        return [r for r in self.records if r.stage == stage]

    def outcomes(self, stage: str) -> List[str]:
        return [r.outcome for r in self.for_stage(stage)]

    def stage_table(self, order: Sequence[str]) -> List[Dict[str, object]]:
        """Per-stage rows in ``order`` for ``format_table`` (``repro
        --profile``): walls and CPU summed over attempts, peak RSS the
        max; stages with no attempt are left out."""
        rows = []
        for stage in order:
            attempts = self.for_stage(stage)
            if not attempts:
                continue
            rows.append({
                "stage": stage,
                "wall (s)": round(sum(r.wall_time_s for r in attempts), 3),
                "cpu (s)": round(sum(r.cpu_s for r in attempts), 3),
                "peak RSS (MB)": round(
                    max(r.peak_rss_kb for r in attempts) / 1024.0, 1),
                "attempts": len(attempts),
            })
        return rows


class StageSupervisor:
    """Run stage callables under their policies and one timeout,
    journaling attempts."""

    def __init__(self, timeout_s: Optional[float] = None):
        self.timeout_s = timeout_s
        self.journal = RunJournal()
        self._run_label = ""
        # The running attempt's deadline (a perf_counter() reading) and
        # stage; None when no timeout is armed.
        self.deadline: Optional[float] = None
        self._deadline_stage = ""

    # -- run labelling ---------------------------------------------------

    @contextmanager
    def run_context(self, label: str) -> Iterator[None]:
        """Tag journal records made in this scope with a run label."""
        previous = self._run_label
        self._run_label = label
        try:
            yield
        finally:
            self._run_label = previous

    @property
    def run_label(self) -> str:
        return self._run_label

    # -- deadline ----------------------------------------------------------

    @contextmanager
    def _armed(self, stage: str) -> Iterator[None]:
        """Arm this attempt's deadline when a timeout is set; restore
        the previous one on exit."""
        previous = (self.deadline, self._deadline_stage)
        if self.timeout_s is not None:
            self.deadline = time.perf_counter() + self.timeout_s
            self._deadline_stage = stage
        try:
            yield
        finally:
            self.deadline, self._deadline_stage = previous

    def check_deadline(self) -> None:
        """Raise :class:`StageTimeoutError` once the clock has reached
        the armed deadline (a no-op when none is armed)."""
        if self.deadline is not None and \
                time.perf_counter() >= self.deadline:
            raise StageTimeoutError(self._deadline_stage, self.timeout_s)

    def sleep(self, seconds: float) -> None:
        """Sleep ``seconds``, but no later than the armed deadline, then
        check it: a delay fault that outlasts the timeout raises at the
        deadline instead of sleeping on."""
        if self.deadline is not None:
            seconds = min(seconds,
                          max(0.0, self.deadline - time.perf_counter()))
        time.sleep(seconds)
        self.check_deadline()

    # -- execution ---------------------------------------------------------

    def run_stage(self, stage: str, fn: Callable[[], object], *,
                  policy: Optional[StagePolicy] = None,
                  on_retry: Optional[Callable[[int, BaseException],
                                              None]] = None) -> object:
        """Run one stage under its policy (one attempt by default) and
        the supervisor's timeout.

        ``fn`` takes no arguments (bind stage inputs with a closure or
        ``functools.partial``).  ``on_retry(attempt, exc)`` runs between a
        retryable failure and the next attempt — the design flow uses it
        to lower the placement utilization between congestion retries.

        The deadline is checked before ``fn`` and after it returns (a
        late result is journaled ``timeout`` and dropped); inside ``fn``
        only :func:`repro.obs.trace.kernel` entries check it, and they
        read the session's supervisor (``current_session().supervisor``,
        the one the flow runs under).
        """
        from repro.runtime.session import current_session

        policy = policy if policy is not None else _SINGLE_ATTEMPT
        attempts = max(1, policy.max_attempts)
        tracer = current_session().tracer
        for attempt in range(1, attempts + 1):
            clocks = (time.perf_counter(), time.process_time())
            with tracer.span(f"stage:{stage}", category="stage",
                             stage=stage, attempt=attempt,
                             run=self._run_label) as span:
                try:
                    with self._armed(stage):
                        faults.check(stage, "before", sleep=self.sleep)
                        self.check_deadline()
                        result = fn()
                        self.check_deadline()
                        faults.check(stage, "after", result,
                                     sleep=self.sleep)
                except StageTimeoutError as exc:
                    # ``exc`` is not kept past its handler: its traceback
                    # holds this frame, so a reference from a local
                    # would keep the failed attempt's state (a congestion
                    # error carries a whole layout) alive until the next
                    # full garbage collection.
                    retryable = StageTimeoutError in policy.retry_on or \
                        any(issubclass(StageTimeoutError, cls)
                            for cls in policy.retry_on)
                    self._note(stage, attempt, "timeout", clocks, exc)
                    span.set("outcome", "timeout")
                    span.event("timeout", timeout_s=self.timeout_s)
                    tracer.counter("supervisor.timeouts").inc()
                    if not retryable or attempt >= attempts:
                        raise
                    span.event("retry", error=type(exc).__name__,
                               next_attempt=attempt + 1)
                    tracer.counter("supervisor.retries").inc()
                    if on_retry is not None:
                        on_retry(attempt, exc)
                except policy.retry_on as exc:    # type: ignore[misc]
                    if attempt >= attempts:
                        partial = getattr(exc, "partial", None)
                        if policy.degrade and partial is not None:
                            self._note(stage, attempt, "degraded", clocks,
                                       exc)
                            span.set("outcome", "degraded")
                            span.event("degraded",
                                       error=type(exc).__name__)
                            logger.warning(
                                "stage %s degraded after %d attempt(s): "
                                "%s", stage, attempt, exc)
                            return partial
                        self._note(stage, attempt, "error", clocks, exc)
                        span.set("outcome", "error")
                        span.set("error", type(exc).__name__)
                        raise RetryExhaustedError(stage, attempt,
                                                  exc) from exc
                    self._note(stage, attempt, "retried", clocks, exc)
                    span.set("outcome", "retried")
                    span.event("retry", error=type(exc).__name__,
                               next_attempt=attempt + 1)
                    tracer.counter("supervisor.retries").inc()
                    if on_retry is not None:
                        on_retry(attempt, exc)
                except Exception as exc:
                    self._note(stage, attempt, "error", clocks, exc)
                    span.set("outcome", "error")
                    span.set("error", type(exc).__name__)
                    raise
                else:
                    self._note(stage, attempt, "ok", clocks, None)
                    span.set("outcome", "ok")
                    return result
        # Unreachable: every loop path returns or raises.
        raise RetryExhaustedError(stage, attempts)

    def _note(self, stage: str, attempt: int, outcome: str,
              clocks: Tuple[float, float],
              exc: Optional[BaseException]) -> None:
        """Journal one attempt; ``clocks`` are the wall-clock and
        process-CPU readings taken when it started."""
        wall0, cpu0 = clocks
        self.journal.record(StageRecord(
            stage=stage,
            attempt=attempt,
            outcome=outcome,
            wall_time_s=time.perf_counter() - wall0,
            cpu_s=time.process_time() - cpu0,
            peak_rss_kb=peak_rss_kb(),
            run=self._run_label,
            error=type(exc).__name__ if exc is not None else None,
            message=str(exc) if exc is not None else "",
        ))
