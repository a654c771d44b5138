"""Table 8: impact of reduced cell pin cap at 7 nm (DES).

The paper's counter-intuitive finding: shrinking pin caps does NOT grow
the T-MI benefit — net power falls, cell power dominates, and the
reduction rate shrinks.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.runner import cached_comparison

SCALES = ((1.0, ""), (0.8, "-p20"), (0.6, "-p40"), (0.4, "-p60"))

# Paper: suffix -> (WL 2D mm, total 2D mW, total 3D mW, reduction %).
PAPER = {
    "": (81.2, 15.11, 14.60, 3.4),
    "-p20": (81.3, 14.38, 14.12, 1.8),
    "-p40": (81.2, 13.54, 13.17, 2.7),
    "-p60": (81.3, 12.74, 12.45, 2.3),
}


def run(circuit: str = "des",
        scale: Optional[float] = None) -> List[Dict[str, object]]:
    rows = []
    base = cached_comparison(circuit, node_name="7nm", scale=scale)
    base_clock = base.clock_ns
    base_util = base.result_2d.utilization_target
    for pin_scale, suffix in SCALES:
        if pin_scale == 1.0:
            cmp = base
        else:
            # Same clock and floorplan policy for every pin-cap setting,
            # as the paper's Table 8 designs share them.
            cmp = cached_comparison(circuit, node_name="7nm", scale=scale,
                                    pin_cap_scale=pin_scale,
                                    target_clock_ns=base_clock,
                                    target_utilization=base_util)
        rows.append({
            "design": f"{circuit.upper()}{suffix}",
            "pin cap scale": pin_scale,
            "total 2D (mW)": round(cmp.result_2d.power.total_mw, 4),
            "total 3D (mW)": round(cmp.result_3d.power.total_mw, 4),
            "net 2D (mW)": round(cmp.result_2d.power.net_mw, 4),
            "net 3D (mW)": round(cmp.result_3d.power.net_mw, 4),
            "total reduction (%)": round(-cmp.power_diff("total_mw"), 1),
        })
    return rows


def _sweep_tasks(circuit: str, scale, values):
    """Derive the pin-cap grid from the base 2D run (mirrors ``run``)."""
    from repro.parallel import comparison_task

    base_2d = values[0]
    base_clock = base_2d.clock_ns
    base_util = base_2d.utilization_target
    return [comparison_task(circuit, node_name="7nm", scale=scale,
                            pin_cap_scale=pin_scale,
                            target_clock_ns=base_clock,
                            target_utilization=base_util)
            for pin_scale, _suffix in SCALES if pin_scale != 1.0]


def declare_tasks(circuit: str = "des", scale: Optional[float] = None):
    """Base comparison now; the pin-cap grid once its clock is known."""
    from functools import partial

    from repro.parallel import DeferredTasks, comparison_task

    base = comparison_task(circuit, node_name="7nm", scale=scale)
    return [base,
            DeferredTasks(requires=base.requires,
                          derive=partial(_sweep_tasks, circuit, scale),
                          label=f"table8-sweep:{circuit}")]


def reference() -> List[Dict[str, object]]:
    return [
        {"design": f"DES{suffix}", "WL 2D (mm)": v[0],
         "total 2D (mW)": v[1], "total 3D (mW)": v[2],
         "total reduction (%)": v[3]}
        for suffix, v in PAPER.items()
    ]


def benefit_does_not_grow(rows: Optional[List[Dict[str, object]]] = None
                          ) -> bool:
    """The paper's finding: reduced pin cap does not increase the benefit."""
    rows = rows if rows is not None else run()
    base = rows[0]["total reduction (%)"]
    smallest_pins = rows[-1]["total reduction (%)"]
    return smallest_pins <= base + 1.5
