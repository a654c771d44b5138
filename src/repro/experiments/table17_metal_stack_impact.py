"""Table 17 (supplement): impact of the T-MI+M metal stack (7 nm).

Moving two of the extra T-MI layers from the local to the intermediate
class (Fig. 9(c)) — the paper finds a small (~2-3 %) total power
improvement for LDPC and M256, concluding the T-MI metal stack should be
chosen carefully.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.experiments.runner import (
    cached_comparison,
    cached_flow,
    resilient_rows,
)
from repro.flow.compare import paired_config
from repro.flow.reports import percentage_diff

CIRCUITS = ("ldpc", "m256")

# Paper: circuit -> (WL delta %, total power delta %) for T-MI+M vs T-MI.
PAPER = {
    "ldpc": (-1.6, -2.4),
    "m256": (+1.0, -2.8),
}


def run(circuits=CIRCUITS,
        scale: Optional[float] = None) -> List[Dict[str, object]]:
    def one(circuit):
        cmp = cached_comparison(circuit, node_name="7nm", scale=scale)
        base = cmp.result_3d
        config_m = replace(base.config, metal_stack="tmi+m")
        modified = cached_flow(config_m)
        return {
            "design": f"{circuit.upper()}-3D vs +M",
            "WL (um)": round(base.total_wirelength_um, 0),
            "WL +M": round(modified.total_wirelength_um, 0),
            "WL delta (%)": round(percentage_diff(
                modified.total_wirelength_um,
                base.total_wirelength_um), 1),
            "power (mW)": round(base.power.total_mw, 4),
            "power +M": round(modified.power.total_mw, 4),
            "power delta (%)": round(percentage_diff(
                modified.power.total_mw, base.power.total_mw), 1),
        }

    return resilient_rows(circuits, one)


def _modified_stack_tasks(config_2d, values):
    """Derive the T-MI+M re-run of the base comparison's T-MI config."""
    from repro.parallel import flow_task

    config_3d = paired_config(config_2d, values[0])
    return [flow_task(replace(config_3d, metal_stack="tmi+m"))]


def declare_tasks(circuits=CIRCUITS, scale: Optional[float] = None):
    """Base 7 nm comparisons now; each +M flow once its 2D base closes."""
    from functools import partial

    from repro.parallel import DeferredTasks, comparison_task

    items = []
    for circuit in circuits:
        base = comparison_task(circuit, node_name="7nm", scale=scale)
        (base_2d,) = base.requires
        items.append(base)
        items.append(DeferredTasks(
            requires=base.requires,
            derive=partial(_modified_stack_tasks, base_2d.config),
            label=f"table17-stack:{circuit}"))
    return items


def reference() -> List[Dict[str, object]]:
    return [
        {"design": f"{c.upper()}-3D vs +M", "WL delta (%)": v[0],
         "power delta (%)": v[1]}
        for c, v in PAPER.items()
    ]
