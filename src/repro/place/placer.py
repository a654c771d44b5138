"""Top-level placer: floorplan -> quadratic solve -> spread -> legalize."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.circuits.netlist import Module
from repro.kernels.arrays import sequential_sum
from repro.obs.trace import kernel
from repro.place.floorplan import Floorplan, NetPoints
from repro.place.quadratic import place_global
from repro.place.legalize import legalize


@dataclass
class PlacementResult:
    """Placement outcome: positions live on the module's instances."""

    floorplan: Floorplan
    hpwl_um: float
    utilization: float


class Placer:
    """Analytic standard-cell placer (Encounter placement substitute)."""

    def __init__(self, library, target_utilization: float = 0.80,
                 tiers: int = 1, area_overhead: float = 1.0) -> None:
        self.library = library
        self.target_utilization = target_utilization
        # Tiers of planar cells sharing each row (G-MI), and the core's
        # area over the ideal 1/tiers core (Floorplan.for_module).
        self.tiers = tiers
        self.area_overhead = area_overhead

    def run(self, module: Module,
            floorplan: Optional[Floorplan] = None) -> PlacementResult:
        fp = floorplan or Floorplan.for_module(
            module, self.library, self.target_utilization,
            tiers=self.tiers, area_overhead=self.area_overhead)
        x, y = place_global(module, self.library, fp)
        with kernel("place.legalize", instances=len(module.instances)):
            legalize(module, self.library, fp, x, y,
                     capacity_factor=float(self.tiers))
        return PlacementResult(
            floorplan=fp,
            hpwl_um=total_hpwl(module, fp),
            utilization=fp.utilization_of(module, self.library),
        )


def total_hpwl(module: Module, floorplan: Floorplan) -> float:
    """Half-perimeter wirelength over all signal nets, um."""
    points = NetPoints(module, floorplan)
    x = np.array([inst.x_um for inst in module.instances])
    y = np.array([inst.y_um for inst in module.instances])
    px, py = points.coords(x, y)
    # Nets of two or more points, each one segment of the point arrays.
    wide = points.counts >= 2
    counts = points.counts[wide]
    if not counts.size:
        return 0.0
    keep = wide[points.row]
    px = px[keep]
    py = py[keep]
    starts = np.cumsum(counts) - counts
    span = ((np.maximum.reduceat(px, starts) - np.minimum.reduceat(px, starts))
            + (np.maximum.reduceat(py, starts)
               - np.minimum.reduceat(py, starts)))
    return float(sequential_sum(span))
