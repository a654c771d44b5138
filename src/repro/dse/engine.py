"""The exploration engine: strategies, evaluation, provenance.

An exploration is rounds of *propose → evaluate → extract frontier*:

* :class:`GridStrategy` proposes the whole declared grid at once (one
  round, budget-capped in product order);
* :class:`AdaptiveStrategy` starts from a coarse subgrid (axis
  endpoints plus medians) and then **bisects around the current
  frontier**: for every front member and every refinable (float) axis
  it proposes the midpoints toward the nearest already-evaluated
  values on either side, so evaluations concentrate where the
  trade-off curve actually bends instead of being spent uniformly.

Every evaluation lowers into the existing machinery rather than
running flows directly: points become
:func:`repro.parallel.plan.flow_task` specs on their canonical
checkpoint keys (so duplicate and re-proposed points collapse in the
planner, and ``--jobs`` fans a round out over the worker pool via
:func:`repro.experiments.runner.prefetch`), and results come back
through :func:`~repro.experiments.runner.cached_flow` — the same
cache the tables read, warm stage checkpoints and all.  The engine
binds an ephemeral checkpoint store for the session when none is
active, so stage-level reuse works even without ``--resume``.

The final **provenance pass** re-runs every frontier member through
``run_flow`` against the warm stage store and records its per-point
checkpoint evidence: stage hit/miss counts (a healthy store replays
every persisted stage as a hit — the proof the frontier is
reproducible from checkpoints without recomputing), the structural
trace digest, and a replay check that the objectives re-derive
byte-equal.  These counts are deterministic — independent of job
count and completion order — which is what lets the frontier report
compare byte-identical across ``--jobs`` levels.
"""

from __future__ import annotations

import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.dse.cost import CostFunction, Objective, resolve_objectives
from repro.dse.pareto import pareto_front
from repro.dse.space import SweepSpace
from repro.errors import DseError, ReproError, TaskFailedError
from repro.flow.stagecache import run_key
from repro.obs.trace import Tracer, counter
from repro.runtime.session import override

SOURCE_GRID = "grid"
SOURCE_REFINE = "refine"


def _round_value(value: float) -> float:
    """Canonical rounding for refined axis values: 6 significant digits
    keeps midpoint arithmetic deterministic across platforms and stops
    keys from drifting on representation noise."""
    return float(f"{value:.6g}")


@dataclass
class EvaluatedPoint:
    """One evaluated configuration of the space."""

    index: int
    assignment: Dict[str, object]      # axis name -> value
    config: object                     # FlowConfig
    key: str                           # canonical flow checkpoint key
    objectives: Dict[str, float]
    round: int
    source: str                        # grid | refine
    cost: float = 0.0                  # filled after scoring

    def vector(self, names: Sequence[str]) -> Tuple[float, ...]:
        return tuple(self.objectives[name] for name in names)


@dataclass
class PointFailure:
    """One point that failed to evaluate (recorded under keep-going)."""

    assignment: Dict[str, object]
    key: str
    error: str
    message: str


class GridStrategy:
    """Exhaustive enumeration of the declared grid."""

    name = "grid"

    def initial(self, space: SweepSpace) -> List[Dict[str, object]]:
        return space.assignments()

    def refine(self, space: SweepSpace,
               points: Sequence[EvaluatedPoint],
               front: Sequence[int]) -> List[Dict[str, object]]:
        return []


class AdaptiveStrategy:
    """Coarse subgrid first, then bisection around frontier members."""

    name = "adaptive"

    def __init__(self, max_rounds: int = 6):
        if max_rounds < 1:
            raise DseError("adaptive strategy needs max_rounds >= 1")
        self.max_rounds = max_rounds
        self._rounds = 0

    def initial(self, space: SweepSpace) -> List[Dict[str, object]]:
        """Endpoints (plus the median declared value) per axis.

        Non-refinable axes are categorical — every declared value stays,
        there is nothing between them to bisect later.
        """
        import itertools

        self._rounds = 1
        pools = []
        for axis in space.axes:
            if not axis.refinable:
                pools.append(list(dict.fromkeys(axis.values)))
                continue
            distinct = sorted(set(axis.values))
            coarse = [distinct[0], distinct[-1]]
            if len(distinct) >= 3:
                coarse.insert(1, distinct[len(distinct) // 2])
            pools.append(coarse)
        return [dict(zip((a.name for a in space.axes), combo))
                for combo in itertools.product(*pools)]

    def refine(self, space: SweepSpace,
               points: Sequence[EvaluatedPoint],
               front: Sequence[int]) -> List[Dict[str, object]]:
        """Midpoints between each front member and its evaluated
        neighbors, one proposal per (member, refinable axis, side)."""
        if self._rounds >= self.max_rounds:
            return []
        self._rounds += 1
        # Per-axis pool of every value the exploration has evaluated.
        pools: Dict[str, List[float]] = {}
        for axis in space.axes:
            if axis.refinable:
                pools[axis.name] = sorted(
                    {point.assignment[axis.name] for point in points})
        proposals: List[Dict[str, object]] = []
        for index in front:
            member = points[index]
            for axis_name, pool in pools.items():
                value = member.assignment[axis_name]
                position = pool.index(value)
                neighbors = []
                if position > 0:
                    neighbors.append(pool[position - 1])
                if position + 1 < len(pool):
                    neighbors.append(pool[position + 1])
                for neighbor in neighbors:
                    midpoint = _round_value((value + neighbor) / 2.0)
                    if midpoint in pool:
                        continue
                    candidate = dict(member.assignment)
                    candidate[axis_name] = midpoint
                    if space.contains(candidate):
                        proposals.append(candidate)
        return proposals


STRATEGIES = {"grid": GridStrategy, "adaptive": AdaptiveStrategy}


def make_strategy(name: str) -> object:
    key = (name or "").strip().lower()
    if key not in STRATEGIES:
        known = ", ".join(sorted(STRATEGIES))
        raise DseError(f"unknown strategy {name!r}; known: {known}")
    return STRATEGIES[key]()


class DseEngine:
    """Run one exploration of a sweep space."""

    def __init__(self, space: SweepSpace,
                 objectives: Sequence[str] = ("power", "delay"),
                 cost: Optional[CostFunction] = None,
                 strategy: object = None,
                 budget: Optional[int] = None,
                 jobs: int = 1):
        self.space = space
        self.objectives: List[Objective] = resolve_objectives(objectives)
        self.cost = cost if cost is not None else CostFunction()
        self.strategy = strategy if strategy is not None else GridStrategy()
        if budget is not None and budget < 1:
            raise DseError("budget must be at least 1 evaluation")
        self.budget = budget
        self.jobs = max(1, int(jobs))
        self.points: List[EvaluatedPoint] = []
        self.failures: List[PointFailure] = []
        self.dedup_skips = 0
        self.prewarm_hits = 0
        self.rounds = 0

    # -- store binding -----------------------------------------------------

    @contextmanager
    def _session_store(self) -> Iterator[None]:
        """Ensure a checkpoint store is bound for the exploration.

        Stage-level reuse (and the provenance pass) need a store; when
        the session already runs one (``--resume``), use it — warm
        entries from earlier sessions are free evaluations.  Otherwise
        bind an ephemeral store for the exploration and remove it after.
        """
        from repro.experiments import runner

        if runner.persistent_store() is not None:
            yield
            return
        root = tempfile.mkdtemp(prefix="repro-dse-")
        runner.use_persistent_cache(root)
        try:
            yield
        finally:
            runner.disable_persistent_cache()
            shutil.rmtree(root, ignore_errors=True)

    # -- exploration -------------------------------------------------------

    def explore(self) -> "DseResult":
        from repro.dse.report import DseResult

        names = [objective.name for objective in self.objectives]
        with self._session_store():
            proposals = self.strategy.initial(self.space)
            while proposals:
                fresh = self._dedupe(proposals)
                if self.budget is not None:
                    fresh = fresh[:max(0, self.budget - len(self.points))]
                if not fresh:
                    break
                self._evaluate(fresh)
                self.rounds += 1
                if (self.budget is not None
                        and len(self.points) >= self.budget):
                    break
                front = pareto_front(
                    [point.vector(names) for point in self.points])
                proposals = self.strategy.refine(self.space, self.points,
                                                 front)
            vectors = [point.vector(names) for point in self.points]
            front = pareto_front(vectors)
            self._score(vectors, names)
            provenance = self._provenance(front)

        cache_hits = sum(row["stage_hits"] for row in provenance)
        counter("dse.evaluations").inc(len(self.points))
        counter("dse.rounds").inc(self.rounds)
        counter("dse.dedup_skips").inc(self.dedup_skips)
        counter("dse.cache_hits").inc(
            self.prewarm_hits + cache_hits)

        return DseResult(
            space=self.space,
            objective_names=names,
            cost=self.cost,
            strategy=getattr(self.strategy, "name",
                             type(self.strategy).__name__),
            budget=self.budget,
            rounds=self.rounds,
            points=self.points,
            front=front,
            failures=self.failures,
            provenance=provenance,
            dedup_skips=self.dedup_skips,
            cache_hits=cache_hits,
        )

    # -- internals ---------------------------------------------------------

    def _dedupe(self, proposals: Sequence[Dict[str, object]]
                ) -> List[Tuple[Dict[str, object], object, str]]:
        """Resolve proposals to (assignment, config, key), dropping
        duplicates within the batch and against evaluated points —
        the same canonical-key collapse the task planner applies."""
        seen = {point.key for point in self.points}
        seen.update(failure.key for failure in self.failures)
        fresh: List[Tuple[Dict[str, object], object, str]] = []
        for assignment in proposals:
            config = self.space.config_for(assignment)
            key = run_key(config)
            if key in seen:
                self.dedup_skips += 1
                continue
            seen.add(key)
            fresh.append((assignment, config, key))
        return fresh

    def _evaluate(self, fresh: Sequence[Tuple[Dict[str, object],
                                              object, str]]) -> None:
        """Run one round's fresh points through the planner + caches."""
        from repro.experiments import runner
        from repro.parallel import TaskGraph, flow_tasks

        source = SOURCE_GRID if self.rounds == 0 else SOURCE_REFINE
        for _, _, key in fresh:
            if runner.flow_cached(key):
                self.prewarm_hits += 1
        if self.jobs > 1 and len(fresh) > 1:
            graph = TaskGraph(flow_tasks(
                [config for _, config, _ in fresh]))
            runner.prefetch(graph, jobs=self.jobs)
        for assignment, config, key in fresh:
            try:
                result = runner.cached_flow(config)
            except ReproError as exc:
                if (isinstance(exc, TaskFailedError)
                        and not exc.worker_is_repro):
                    raise
                if not runner.keep_going_enabled():
                    raise
                error = (exc.worker_error
                         if isinstance(exc, TaskFailedError)
                         else type(exc).__name__)
                message = (exc.worker_message
                           if isinstance(exc, TaskFailedError)
                           else str(exc))
                self.failures.append(PointFailure(
                    assignment=dict(assignment), key=key,
                    error=error, message=message))
                continue
            self.points.append(EvaluatedPoint(
                index=len(self.points),
                assignment=dict(assignment),
                config=config,
                key=key,
                objectives={objective.name: objective.value(result)
                            for objective in self.objectives},
                round=self.rounds,
                source=source,
            ))

    def _score(self, vectors: Sequence[Tuple[float, ...]],
               names: Sequence[str]) -> None:
        if not vectors:
            return
        # Reference normalization scales by the set's ideal point: a
        # cost of 1.0 would be best-in-set on every objective at once.
        reference = tuple(min(vector[k] for vector in vectors)
                          for k in range(len(names)))
        scores = self.cost.score_all(vectors, names, reference=reference)
        for point, score in zip(self.points, scores):
            point.cost = score

    def _provenance(self, front: Sequence[int]) -> List[Dict[str, object]]:
        """Replay every frontier member against the warm stage store."""
        from repro.flow.design_flow import run_flow

        rows: List[Dict[str, object]] = []
        for index in front:
            point = self.points[index]
            tracer = Tracer()
            with override(tracer=tracer):
                replay = run_flow(point.config)
            counters = tracer.counts()
            replayed = {objective.name: objective.value(replay)
                        for objective in self.objectives}
            rows.append({
                "index": index,
                "key": point.key,
                "stage_hits": int(
                    counters.get("checkpoint.stage_hits", 0)),
                "stage_misses": int(
                    counters.get("checkpoint.stage_misses", 0)),
                "trace_digest": tracer.digest(),
                "replay_ok": replayed == point.objectives,
            })
        return rows
