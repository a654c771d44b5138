"""Top-level placer: floorplan -> quadratic solve -> spread -> legalize."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.circuits.netlist import Module
from repro.kernels.arrays import sequential_sum
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

    def __init__(self, library, target_utilization: float = 0.80) -> None:
        self.library = library
        self.target_utilization = target_utilization

    def run(self, module: Module,
            floorplan: Optional[Floorplan] = None) -> PlacementResult:
        fp = floorplan or Floorplan.for_module(
            module, self.library, self.target_utilization)
        x, y = place_global(module, self.library, fp)
        legalize(module, self.library, fp, x, y)
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
