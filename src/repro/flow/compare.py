"""Iso-performance 2D vs T-MI comparison (the paper's core experiment).

The 2D design is synthesized and laid out first; its clock period becomes
the *shared* target for the T-MI run, so both designs are timing-closed at
the same performance and only power/area/wirelength differ — the paper's
"iso-performance" methodology (Section 1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from repro.flow.design_flow import FlowConfig, LayoutResult, run_flow
from repro.flow.reports import percentage_diff


@dataclass
class ComparisonResult:
    """Paired 2D / T-MI layout results at the same clock."""

    result_2d: LayoutResult
    result_3d: LayoutResult

    @property
    def clock_ns(self) -> float:
        return self.result_2d.clock_ns

    def diff(self, attribute: str) -> float:
        """% difference (T-MI over 2D) of a LayoutResult attribute."""
        base = getattr(self.result_2d, attribute)
        new = getattr(self.result_3d, attribute)
        return percentage_diff(new, base)

    def power_diff(self, component: str) -> float:
        base = getattr(self.result_2d.power, component)
        new = getattr(self.result_3d.power, component)
        return percentage_diff(new, base)

    def summary_row(self) -> Dict[str, object]:
        """One Table 4 / Table 7 row."""
        return {
            "circuit": self.result_2d.config.circuit.upper(),
            "footprint": f"{self.diff('footprint_um2'):+.1f}%",
            "wirelen.": f"{self.diff('total_wirelength_um'):+.1f}%",
            "total power": f"{self.power_diff('total_mw'):+.1f}%",
            "cell": f"{self.power_diff('cell_mw'):+.1f}%",
            "net": f"{self.power_diff('net_mw'):+.1f}%",
            "leakage": f"{self.power_diff('leakage_mw'):+.1f}%",
        }

    def detail_rows(self):
        """Two Table 13 / Table 14 rows."""
        return [self.result_2d.summary_row(), self.result_3d.summary_row()]


def paired_config(config_2d: FlowConfig,
                  result_2d: LayoutResult) -> FlowConfig:
    """The T-MI config paired with a closed 2D run: iso-performance AND
    iso-floorplan-policy.

    The T-MI design takes the 2D design's closed clock and its final
    (possibly congestion-lowered) utilization target, as the paper does
    per circuit.  ``config_2d`` is passed separately because a cached or
    pooled 2D result may carry another request's config: 2D configs that
    differ only in the knobs a 2D run ignores (``tiers``, ``fold_style``,
    ``miv_koz_diameters``) share one result.
    """
    return replace(config_2d, is_3d=True,
                   target_clock_ns=result_2d.clock_ns,
                   target_utilization=result_2d.utilization_target)


def run_iso_performance_comparison(circuit: str, node_name: str = "45nm",
                                   scale: float = 0.1,
                                   **config_kwargs) -> ComparisonResult:
    """Run the paired 2D / T-MI flow for one benchmark.

    Extra keyword arguments are ``FlowConfig`` fields forwarded to both
    runs (clock target, pin-cap scale, resistivity scale, metal stack,
    activities, fold knobs, ...).
    """
    config_2d = FlowConfig(circuit=circuit, node_name=node_name,
                           is_3d=False, scale=scale, **config_kwargs)
    result_2d = run_flow(config_2d)
    result_3d = run_flow(paired_config(config_2d, result_2d))
    return ComparisonResult(result_2d=result_2d, result_3d=result_3d)
