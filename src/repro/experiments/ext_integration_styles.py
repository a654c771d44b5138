"""Extension study: 2D vs G-MI vs T-MI integration styles.

The paper's introduction defines both monolithic styles and focuses on
T-MI; the prior works of its Table 5 ([2], [8]) are G-MI-like.  This
extension runs all three styles on the same netlist at the same clock,
reproducing the qualitative landscape: G-MI reaches ~30 % footprint
reduction with planar cells and per-net MIVs, T-MI reaches ~40 % with
folded cells and in-cell MIVs and the larger wirelength/power benefit.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.experiments.runner import cached_comparison, cached_flow
from repro.flow.reports import percentage_diff


def run(circuit: str = "aes", node_name: str = "45nm",
        scale: Optional[float] = None) -> List[Dict[str, object]]:
    cmp = cached_comparison(circuit, node_name=node_name, scale=scale)
    r2, r3 = cmp.result_2d, cmp.result_3d
    # G-MI takes the 2D run's clock and utilization, as T-MI does.
    gmi = cached_flow(replace(
        r2.config, is_3d=True, fold_style="gate",
        target_clock_ns=r2.clock_ns,
        target_utilization=r2.utilization_target))

    def row(name, fp, wl, power, extra=""):
        return {
            "style": name,
            "footprint (um2)": round(fp, 0),
            "footprint vs 2D": f"{percentage_diff(fp, r2.footprint_um2):+.1f}%",
            "WL (um)": round(wl, 0),
            "WL vs 2D": f"{percentage_diff(wl, r2.total_wirelength_um):+.1f}%",
            "power (mW)": round(power, 4),
            "power vs 2D": f"{percentage_diff(power, r2.power.total_mw):+.1f}%",
            "MIVs": extra,
        }

    return [
        row("2D", r2.footprint_um2, r2.total_wirelength_um,
            r2.power.total_mw, "none"),
        row("G-MI", gmi.footprint_um2, gmi.total_wirelength_um,
            gmi.power.total_mw,
            f"{gmi.crossing_nets} nets "
            f"({gmi.crossing_nets / gmi.n_cells * 100:.0f}%)"),
        row("T-MI", r3.footprint_um2, r3.total_wirelength_um,
            r3.power.total_mw, "in every cell"),
    ]


def reference() -> List[Dict[str, object]]:
    """Qualitative expectations from the paper's Sections 1 and 4.2."""
    return [
        {"style": "2D", "footprint vs 2D": "baseline"},
        {"style": "G-MI", "footprint vs 2D": "~-30% (per [2])",
         "note": "planar cells, MIVs on inter-tier nets only"},
        {"style": "T-MI", "footprint vs 2D": "~-40..-43%",
         "note": "folded cells, MIVs embedded in cells"},
    ]
