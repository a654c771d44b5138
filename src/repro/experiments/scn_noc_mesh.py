"""Scenario: the mesh-NoC workload through the iso-performance flow.

Not a paper table — a scenario-space extension.  The NoC's wiring is
dominated by regular medium-range inter-router channels instead of the
paper benchmarks' local random-logic clusters, so its T-MI benefit
probes a different operating point.  Two rows: the 2-tier paper fold
and the ``noc-quad`` scenario's 4-tier interleaved fold.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.runner import cached_comparison, resilient_rows
from repro.flow.scenario import get_scenario

CIRCUIT = "noc"
SCALE = 0.05

VARIANTS = (
    (2, {}),
    (4, {"tiers": 4, "fold_style": "interleave"}),
)


def run(node_name: str = "45nm",
        scale: Optional[float] = None) -> List[Dict[str, object]]:
    """One summary row per fold variant."""
    scale = SCALE if scale is None else scale

    def one(variant):
        tiers, kwargs = variant
        cmp = cached_comparison(CIRCUIT, node_name=node_name,
                                scale=scale, **kwargs)
        row = {"tiers": tiers}
        row.update(cmp.summary_row())
        return row

    return resilient_rows(VARIANTS, one,
                          label=lambda v: f"{CIRCUIT}@{v[0]}t")


def declare_tasks(node_name: str = "45nm",
                  scale: Optional[float] = None):
    """The comparisons ``run`` needs, for the parallel planner."""
    from repro.parallel import comparison_task

    scale = SCALE if scale is None else scale
    return [comparison_task(CIRCUIT, node_name=node_name, scale=scale,
                            **kwargs)
            for _tiers, kwargs in VARIANTS]


def reference() -> List[Dict[str, object]]:
    """No paper reference: the scenario extends beyond the paper."""
    description, _values = get_scenario("noc-quad")
    return [{"note": f"scenario 'noc-quad': {description}; "
                     f"no published reference"}]
