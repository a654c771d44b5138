"""Scenario: 4-tier folding vs the paper's 2-tier fold (AES, 45 nm).

Not a paper table — a scenario-space extension.  The iso-performance
comparison harness runs twice on the same synthesized AES netlist: once
with the paper's 2-tier fold, once with the ``quad-tier`` scenario's
4-tier fold and widened MIV keep-out.  Rows report the usual Table 4
percentage differences of T-MI over 2D, one row per tier count, so the
golden pins how the power benefit responds to deeper folding.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.runner import cached_comparison, resilient_rows
from repro.flow.scenario import get_scenario

CIRCUIT = "aes"
SCALE = 0.08

# (tiers, fold kwargs forwarded to both FlowConfigs); 2-tier passes no
# kwargs, so it is the paper run.  Both variants share one 2D run: a 2D
# run ignores the fold knobs.
VARIANTS = (
    (2, {}),
    (4, {"tiers": 4, "miv_koz_diameters": 1.0}),
)


def run(node_name: str = "45nm",
        scale: Optional[float] = None) -> List[Dict[str, object]]:
    """One summary row per tier count."""
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
    description, _values = get_scenario("quad-tier")
    return [{"note": f"scenario 'quad-tier': {description}; "
                     f"no published reference"}]
