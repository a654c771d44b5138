"""Table 9: impact of 50 % lower local/intermediate resistivity (M256, 7 nm).

The paper's conclusion: better interconnect materials do *not* shrink the
T-MI power benefit — total power drops for both styles but the reduction
percentage holds.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.runner import cached_comparison

# Paper rows: suffix -> (WL 2D mm, WL 3D mm, total 2D, total 3D, red %).
PAPER = {
    "": (795.0, 612.0, 30.55, 25.12, 17.8),
    "-m": (795.0, 613.0, 27.57, 22.67, 17.8),
}


def run(circuit: str = "m256",
        scale: Optional[float] = None) -> List[Dict[str, object]]:
    rows = []
    base = cached_comparison(circuit, node_name="7nm", scale=scale)
    for rho_scale, suffix in ((1.0, ""), (0.5, "-m")):
        if rho_scale == 1.0:
            cmp = base
        else:
            # The paper's "-m" rows keep the design targets and only swap
            # the interconnect material.
            cmp = cached_comparison(
                circuit, node_name="7nm", scale=scale,
                local_resistivity_scale=rho_scale,
                target_clock_ns=base.clock_ns,
                target_utilization=base.result_2d.utilization_target)
        rows.append({
            "design": f"{circuit.upper()}{suffix}",
            "resistivity scale": rho_scale,
            "WL 3D/2D (%)": round(
                cmp.diff("total_wirelength_um") + 100.0, 1),
            "total 2D (mW)": round(cmp.result_2d.power.total_mw, 4),
            "total 3D (mW)": round(cmp.result_3d.power.total_mw, 4),
            "total reduction (%)": round(-cmp.power_diff("total_mw"), 1),
        })
    return rows


def _material_tasks(circuit: str, scale, values):
    """Derive the low-resistivity variant from the base 2D run."""
    from repro.parallel import comparison_task

    base_2d = values[0]
    return [comparison_task(
        circuit, node_name="7nm", scale=scale,
        local_resistivity_scale=0.5,
        target_clock_ns=base_2d.clock_ns,
        target_utilization=base_2d.utilization_target)]


def declare_tasks(circuit: str = "m256", scale: Optional[float] = None):
    """Base comparison now; the "-m" material variant once it closes."""
    from functools import partial

    from repro.parallel import DeferredTasks, comparison_task

    base = comparison_task(circuit, node_name="7nm", scale=scale)
    return [base,
            DeferredTasks(requires=base.requires,
                          derive=partial(_material_tasks, circuit, scale),
                          label=f"table9-material:{circuit}")]


def reference() -> List[Dict[str, object]]:
    return [
        {"design": f"M256{suffix}",
         "total 2D (mW)": v[2], "total 3D (mW)": v[3],
         "total reduction (%)": v[4]}
        for suffix, v in PAPER.items()
    ]


def reduction_rate_holds(rows: Optional[List[Dict[str, object]]] = None
                         ) -> bool:
    """Lower resistivity does not change the reduction rate much."""
    rows = rows if rows is not None else run()
    return abs(rows[0]["total reduction (%)"]
               - rows[1]["total reduction (%)"]) < 5.0
