"""Deduplicated task graphs for a bench session.

A bench session regenerates many tables/figures whose rows funnel through
the same underlying flow runs — Tables 4, 13, 16 and Fig. 3 all need the
same five 45 nm 2D-vs-T-MI comparisons.  This module turns the
*declarations* of that work into a deduplicated set of executable tasks:

* :class:`TaskSpec` — one unit of work, a single flow run, named by the
  key the cached-execution layer stores it under
  (:func:`repro.flow.stagecache.run_key`).  Two experiments that need
  the same run therefore declare the same key, and the graph keeps one
  task.
* :class:`DeferredTasks` — tasks whose configs derive from a *base*
  run's results (the closed clock, the final utilization).  A deferred
  declaration names its required base specs and a ``derive`` callable
  that receives the base results and returns the follow-on specs; the
  engine resolves it as soon as the bases complete.  A comparison is
  one (:func:`comparison_task`): its 2D task now, the paired T-MI task
  once the 2D run has closed; sweeps (Fig. 4's clock sweep, Table 8's
  pin-cap grid, ...) derive their grids the same way.
* :class:`TaskGraph` — the deduplicated collection; :func:`build_plan`
  assembles one from experiment ids by calling each driver's
  ``declare_tasks()`` hook.

Key discipline: a spec builder resolves configs exactly the way the
cached call site does (:func:`~repro.experiments.runner.comparison_config`
and :func:`~repro.flow.compare.paired_config`), so a task computed by a
worker is *guaranteed* to be the cache entry the driver later reads —
that is what makes parallel row output byte-identical to sequential.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.experiments.runner import comparison_config
from repro.flow.compare import paired_config
from repro.flow.design_flow import FlowConfig, LayoutResult
from repro.flow.stagecache import run_key


@dataclass(frozen=True)
class TaskSpec:
    """One deduplicatable flow run, named by its run key."""

    key: str                                   # run_key(config)
    label: str                                 # human-readable, for reports
    config: FlowConfig


@dataclass
class DeferredTasks:
    """Follow-on tasks whose specs depend on base-task results.

    ``derive(values)`` runs in the parent process once every spec in
    ``requires`` has completed; ``values`` holds the corresponding
    results in order.  It returns further :class:`TaskSpec` /
    :class:`DeferredTasks` items (or ``None``).  If any required task
    failed, the deferral is dropped and the affected rows degrade at the
    driver level instead.
    """

    requires: Sequence[TaskSpec]
    derive: Callable[[List[object]], Optional[Iterable[object]]]
    label: str = ""


def flow_task(config: FlowConfig) -> TaskSpec:
    """Declare one single-configuration flow run."""
    return TaskSpec(
        key=run_key(config),
        label=(f"flow:{config.circuit}@{config.node_name}-{config.style()}"
               f"x{config.scale:g}"),
        config=config,
    )


def _paired_task(config_2d: FlowConfig,
                 values: List[LayoutResult]) -> List[TaskSpec]:
    return [flow_task(paired_config(config_2d, values[0]))]


def comparison_task(circuit: str, node_name: str = "45nm",
                    scale: Optional[float] = None,
                    **kwargs) -> DeferredTasks:
    """Declare one iso-performance comparison: its 2D flow task now, the
    paired T-MI flow task once the 2D run has closed.

    Mirrors :func:`repro.experiments.runner.cached_comparison` exactly —
    the same 2D config, the same pairing rule — so the workers' results
    land on the keys the experiment driver reads.  The T-MI config derives from
    this request's own 2D config, never from the 2D result's: requests
    that differ only in knobs a 2D run ignores share one 2D task, whose
    result carries the config of whichever request declared it first.
    """
    config_2d = comparison_config(circuit, node_name, scale, **kwargs)
    extras = "".join(f",{k}={v}" for k, v in sorted(kwargs.items()))
    return DeferredTasks(
        requires=(flow_task(config_2d),),
        derive=partial(_paired_task, config_2d),
        label=f"cmp:{circuit}@{node_name}x{config_2d.scale:g}{extras}",
    )


def flow_tasks(configs: Iterable[FlowConfig]) -> List[TaskSpec]:
    """Declare a batch of flow runs, deduplicated by canonical key.

    The lowering used by the design-space-exploration engine: a round of
    sweep points becomes one spec per *unique* configuration, so
    overlapping points (shared grid corners, re-proposed refinements)
    collapse before they ever reach the pool.
    """
    specs: List[TaskSpec] = []
    seen = set()
    for config in configs:
        spec = flow_task(config)
        if spec.key in seen:
            continue
        seen.add(spec.key)
        specs.append(spec)
    return specs


class TaskGraph:
    """A deduplicated set of tasks plus unresolved deferred declarations."""

    def __init__(self, items: Optional[Iterable[object]] = None):
        self.tasks: Dict[str, TaskSpec] = {}
        self.deferred: List[DeferredTasks] = []
        if items is not None:
            self.add(items)

    def add(self, item: object) -> "TaskGraph":
        """Add a spec, a deferral, or any nested iterable of them."""
        if item is None:
            return self
        if isinstance(item, TaskSpec):
            self.tasks.setdefault(item.key, item)
        elif isinstance(item, DeferredTasks):
            for spec in item.requires:
                self.add(spec)
            self.deferred.append(item)
        elif isinstance(item, Iterable) and not isinstance(item, (str, bytes)):
            for sub in item:
                self.add(sub)
        else:
            raise TypeError(f"cannot add {type(item).__name__} to TaskGraph")
        return self

    def __len__(self) -> int:
        return len(self.tasks)

    def __contains__(self, key: str) -> bool:
        return key in self.tasks

    def labels(self) -> List[str]:
        return [spec.label for spec in self.tasks.values()]


def build_plan(experiment_ids: Iterable[str]) -> TaskGraph:
    """Assemble the deduplicated graph for a set of experiment ids.

    Each driver that supports parallel execution exposes
    ``declare_tasks()`` returning its specs/deferrals at the driver's
    default parameters (the ones ``run()`` uses).  Drivers without the
    hook contribute nothing and simply run sequentially later.
    """
    from repro.experiments import EXPERIMENTS

    graph = TaskGraph()
    for experiment_id in experiment_ids:
        module_name = EXPERIMENTS.get(experiment_id)
        if module_name is None:
            raise KeyError(f"unknown experiment id: {experiment_id!r}")
        module = importlib.import_module(f"repro.experiments.{module_name}")
        declare = getattr(module, "declare_tasks", None)
        if declare is not None:
            graph.add(declare())
    return graph
