"""Exception hierarchy for the repro package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors.

Taxonomy
--------

``ReproError``
    ├── ``TechnologyError``        bad node / stack / interconnect setup
    ├── ``LibraryError``           cell-library problems
    ├── ``NetlistError``           malformed netlists
    ├── ``ExtractionError``        parasitic extraction
    ├── ``CharacterizationError``  cell characterization
    │     └── ``SimulationError``  transient simulation did not converge
    ├── ``SynthesisError``         synthesis
    ├── ``PlacementError``         placement
    ├── ``RoutingError``           routing
    │     └── ``CongestionError``  routing congestion above the retry
    │                              trigger (carries the partial layout so
    │                              the supervisor can degrade gracefully)
    ├── ``TimingError``            sign-off STA
    ├── ``PowerError``             power analysis
    ├── ``CheckpointError``        persistent checkpoint store failures
    ├── ``DseError``               invalid design-space-exploration setup
    │                              (unknown sweep axis, bad cost function,
    │                              malformed space file)
    └── ``FlowError``              end-to-end flow failures
          ├── ``StageTimeoutError``    a supervised stage exceeded its
          │                            wall-clock budget
          ├── ``RetryExhaustedError``  a supervised stage failed on every
          │                            permitted attempt
          ├── ``TaskFailedError``      a task of a parallel experiment
          │                            session failed in a worker (carries
          │                            the worker-side error class/message)
          └── ``WorkerCrashError``     a parallel worker process died and
                                       the task exhausted its crash-retry
                                       budget

The runtime errors (``StageTimeoutError``, ``RetryExhaustedError``,
``CheckpointError``) are raised by :mod:`repro.runtime`, the parallel
errors (``TaskFailedError``, ``WorkerCrashError``) by
:mod:`repro.parallel`; everything else comes from the flow subsystems
themselves.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TechnologyError(ReproError):
    """Invalid or inconsistent technology configuration."""


class LibraryError(ReproError):
    """Problem with a cell library (unknown cell, missing pin, bad table)."""


class NetlistError(ReproError):
    """Malformed gate-level or transistor-level netlist."""


class ExtractionError(ReproError):
    """Parasitic extraction failure."""


class CharacterizationError(ReproError):
    """Cell characterization (simulation) failure."""


class SynthesisError(ReproError):
    """Synthesis could not produce a legal netlist."""


class PlacementError(ReproError):
    """Placement failure (e.g. cells do not fit the core area)."""


class RoutingError(ReproError):
    """Routing failure (e.g. unroutable congestion)."""


class CongestionError(RoutingError):
    """Routing congestion above the retry trigger.

    Raised by the ``layout`` stage of the design flow when the busiest
    routing tile overflows past ``CONGESTION_TRIGGER``.  Carries the
    attempt's partial layout state in :attr:`partial` so the stage
    supervisor can retry at a lower utilization or, once retries are
    exhausted, degrade gracefully and proceed with routing detours —
    exactly the paper's LDPC fallback.
    """

    def __init__(self, message: str, *, partial: object = None,
                 overflow: Optional[float] = None):
        super().__init__(message)
        self.partial = partial
        self.overflow = overflow


class TimingError(ReproError):
    """Static timing analysis failure."""


class PowerError(ReproError):
    """Power analysis failure."""


class CheckpointError(ReproError):
    """Persistent checkpoint store failure (corrupt or unwritable entry)."""


class DseError(ReproError):
    """Invalid design-space-exploration setup.

    Raised by :mod:`repro.dse` for axes that are not registered flow
    inputs, malformed space files, unknown objectives, or cost-function
    parameters that cannot be evaluated.
    """


class FlowError(ReproError):
    """End-to-end design-flow failure (e.g. timing cannot be closed)."""


class StageTimeoutError(FlowError):
    """A supervised flow stage exceeded its wall-clock budget."""

    def __init__(self, stage: str, timeout_s: float):
        super().__init__(
            f"stage {stage!r} exceeded its {timeout_s:g} s timeout")
        self.stage = stage
        self.timeout_s = timeout_s


class RetryExhaustedError(FlowError):
    """A supervised flow stage failed on every permitted attempt."""

    def __init__(self, stage: str, attempts: int,
                 last_error: Optional[BaseException] = None):
        detail = (f": last error {type(last_error).__name__}: {last_error}"
                  if last_error is not None else "")
        super().__init__(
            f"stage {stage!r} failed after {attempts} attempt(s){detail}")
        self.stage = stage
        self.attempts = attempts
        self.last_error = last_error


class TaskFailedError(FlowError):
    """A parallel experiment task failed in a worker process.

    Raised by :mod:`repro.parallel` (and by the cached-execution layer
    when a driver asks for a result whose prefetch task already failed),
    carrying the worker-side exception class and message so keep-going
    sessions can mark the row with the *original* failure.
    """

    def __init__(self, label: str, error: str, message: str,
                 worker_is_repro: bool = True):
        super().__init__(f"task {label!r} failed in worker: "
                         f"{error}: {message}")
        self.label = label
        self.worker_error = error
        self.worker_message = message
        # Whether the worker-side exception was a ReproError.  A non-Repro
        # failure (a genuine bug) must abort row assembly exactly like the
        # same exception raised sequentially, instead of degrading into an
        # error row just because it happened on a worker.
        self.worker_is_repro = worker_is_repro


class WorkerCrashError(FlowError):
    """A parallel worker process died (crash, not a Python exception).

    Raised when a task was pending across more pool rebuilds than the
    engine's crash-retry budget allows.
    """

    def __init__(self, label: str, attempts: int):
        super().__init__(
            f"task {label!r}: worker process crashed on all "
            f"{attempts} attempt(s)")
        self.label = label
        self.attempts = attempts


class SimulationError(CharacterizationError):
    """Transient circuit simulation did not converge or is ill-formed."""
