"""Parallel experiment execution: deduplicated task graphs on a pool.

Three cooperating pieces:

* :mod:`repro.parallel.plan` — experiment drivers *declare* the flow
  runs they need (``declare_tasks()``); the planner dedupes them across
  all requested experiments into a :class:`TaskGraph` of unique flow
  tasks keyed by their run keys, with :class:`DeferredTasks` for runs
  whose configs depend on base results (a comparison's T-MI run, sweep
  grids).
* :mod:`repro.parallel.pool` — a :class:`ParallelEngine` runs the graph
  on a ``ProcessPoolExecutor`` (inline at ``jobs == 1``), exchanging
  results through the shared :class:`repro.runtime.CheckpointStore`,
  recovering from worker crashes with a bounded retry budget, and
  honoring the session's keep-going policy (per-task failures become
  error records, not a pool abort).
* :mod:`repro.parallel.report` — per-task timing, worker utilization,
  and speedup aggregates, JSON-serializable for ``repro bench
  --report``.  Performance numbers come from the benchmark in
  ``perfbench/`` (``perfbench/BASELINE.md``), not from these reports.

The cached-execution layer (:func:`repro.experiments.runner.prefetch`,
the CLI's ``--jobs``) uses all three to warm the caches before drivers
assemble their rows, which keeps parallel table output byte-identical to
a sequential session.
"""

from repro.parallel.plan import (            # noqa: F401
    DeferredTasks,
    TaskGraph,
    TaskSpec,
    build_plan,
    comparison_task,
    flow_task,
    flow_tasks,
)
from repro.parallel.pool import (            # noqa: F401
    ParallelEngine,
    WorkerContext,
)
from repro.parallel.report import (          # noqa: F401
    EngineReport,
    TaskRecord,
)
