"""Timing and utilization reporting for parallel engine runs.

Every task executed by :class:`repro.parallel.pool.ParallelEngine` yields
a :class:`TaskRecord` (wall clock, worker pid, cache/store status,
attempts, outcome); an :class:`EngineReport` aggregates them into total
wall time, worker utilization, and the effective speedup over
serializing the same task set — and serializes to JSON for ``repro
bench --report``.  The repository's performance numbers come from the
benchmark in ``perfbench/`` (see ``perfbench/BASELINE.md``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_CRASHED = "crashed"


@dataclass
class TaskRecord:
    """One executed (or abandoned) task of an engine run."""

    key: str
    label: str
    status: str                    # ok | failed | crashed
    wall_s: float = 0.0
    pid: Optional[int] = None      # worker process id, None before dispatch
    cached: bool = False           # satisfied from the checkpoint store
    stored: bool = True            # result landed in the store
    attempts: int = 1              # 1 + crash-rebuild rounds spent pending
    error: Optional[str] = None    # exception class name, failures only
    message: str = ""
    repro_error: bool = True       # failure was a ReproError (vs a bug)
    # Supervised-stage wall time inside this task (stage -> seconds,
    # summed over attempts); empty for cache hits that carried no
    # stored trace bundle.
    stages: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "label": self.label,
            "status": self.status,
            "wall_s": round(self.wall_s, 6),
            "pid": self.pid,
            "cached": self.cached,
            "stored": self.stored,
            "attempts": self.attempts,
            "error": self.error,
            "message": self.message,
            "repro_error": self.repro_error,
            "stages": {s: round(w, 6)
                       for s, w in sorted(self.stages.items())},
        }


@dataclass
class EngineReport:
    """Aggregate result of one ``ParallelEngine.execute`` call."""

    jobs: int
    wall_s: float
    records: List[TaskRecord] = field(default_factory=list)
    crash_rebuilds: int = 0        # how many times the pool was rebuilt

    # -- aggregates --------------------------------------------------------

    def by_status(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.status] = counts.get(record.status, 0) + 1
        return counts

    @property
    def n_tasks(self) -> int:
        return len(self.records)

    @property
    def n_ok(self) -> int:
        return sum(1 for r in self.records if r.status == STATUS_OK)

    @property
    def n_cached(self) -> int:
        return sum(1 for r in self.records if r.cached)

    @property
    def total_task_s(self) -> float:
        """Summed per-task wall clock — the serialized cost of the set."""
        return sum(r.wall_s for r in self.records)

    @property
    def utilization(self) -> float:
        """Busy fraction of the worker slots over the run's wall clock."""
        if self.wall_s <= 0.0 or self.jobs <= 0:
            return 0.0
        return self.total_task_s / (self.jobs * self.wall_s)

    @property
    def effective_speedup(self) -> float:
        """Serialized task cost over achieved wall clock."""
        if self.wall_s <= 0.0:
            return 0.0
        return self.total_task_s / self.wall_s

    def stage_totals(self) -> Dict[str, float]:
        """Summed supervised wall time per stage across every record.

        Resolves the utilization numbers by flow stage — which stages the
        workers actually spent their busy time in, not just task totals.
        """
        totals: Dict[str, float] = {}
        for record in self.records:
            for stage, wall in record.stages.items():
                totals[stage] = totals.get(stage, 0.0) + wall
        return totals

    # -- serialization -----------------------------------------------------

    def summary(self) -> Dict[str, object]:
        return {
            "jobs": self.jobs,
            "wall_s": round(self.wall_s, 3),
            "tasks": self.n_tasks,
            "by_status": self.by_status(),
            "cached": self.n_cached,
            "crash_rebuilds": self.crash_rebuilds,
            "total_task_s": round(self.total_task_s, 3),
            "utilization": round(self.utilization, 4),
            "effective_speedup": round(self.effective_speedup, 3),
            "stages": {s: round(w, 6)
                       for s, w in sorted(self.stage_totals().items())},
        }

    def to_dict(self) -> Dict[str, object]:
        data = self.summary()
        data["records"] = [r.to_dict() for r in self.records]
        return data

    def write_json(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2,
                                   sort_keys=True) + "\n")
        return path
