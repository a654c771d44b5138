"""Routing grid: tiles and per-layer-class track capacity.

A tile's capacity for one layer class is the total wirelength the class
can carry through it: (number of layers in the class) x (tracks per tile)
x (tile span), derated by the usual global-routing fill limit.  The T-MI
stack's three extra *local* layers raise local capacity only — the
mechanism behind the 7 nm LDPC congestion discussion (Section 6) and the
Table 17 stack study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.errors import RoutingError
from repro.tech.metal import LayerClass, MetalStack

# Usable fraction of theoretical track capacity (blockages, vias, power).
FILL_LIMIT = 0.75
# Tiles per core edge (the paper's layouts are a few hundred tiles wide;
# a fixed count keeps runtime scale-independent).
TILES_PER_EDGE = 32


@dataclass
class RoutingGrid:
    """Tile grid over the core with per-class capacity."""

    width_um: float
    height_um: float
    n_x: int
    n_y: int
    # class -> wirelength capacity per tile, um.
    tile_capacity_um: Dict[LayerClass, float]
    # class -> demand map, um of wire per tile.
    demand: Dict[LayerClass, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for cls in self.tile_capacity_um:
            self.demand[cls] = np.zeros((self.n_x, self.n_y))

    @classmethod
    def for_core(cls, width_um: float, height_um: float,
                 stack: MetalStack,
                 local_capacity_scale: float = 1.0) -> "RoutingGrid":
        """Build the grid; ``local_capacity_scale`` derates the LOCAL
        class only (MIV keep-out zones block local tracks — exactly 1.0
        leaves capacities byte-identical to the unscaled grid)."""
        if width_um <= 0 or height_um <= 0:
            raise RoutingError("core dimensions must be positive")
        if local_capacity_scale <= 0.0:
            raise RoutingError("local capacity scale must be positive")
        n_x = n_y = TILES_PER_EDGE
        tile_w = width_um / n_x
        capacity: Dict[LayerClass, float] = {}
        for layer_class in (LayerClass.LOCAL, LayerClass.INTERMEDIATE,
                            LayerClass.GLOBAL):
            layers = stack.layers_in_class(layer_class)
            if not layers:
                continue
            cap = 0.0
            for layer in layers:
                tracks = tile_w / layer.pitch_um
                cap += tracks * tile_w * FILL_LIMIT
            if layer_class is LayerClass.LOCAL \
                    and local_capacity_scale != 1.0:
                cap = cap * local_capacity_scale
            capacity[layer_class] = cap
        return cls(width_um=width_um, height_um=height_um,
                   n_x=n_x, n_y=n_y, tile_capacity_um=capacity)

    # -- congestion metrics -----------------------------------------------------

    def overflow_ratio(self, layer_class: LayerClass) -> float:
        """Mean over tiles of demand/capacity (1.0 = full)."""
        cap = self.tile_capacity_um.get(layer_class)
        if not cap:
            return 0.0
        return float(self.demand[layer_class].mean() / cap)

    def peak_overflow_ratio(self, layer_class: LayerClass) -> float:
        """Mean demand/capacity over the busiest 5 % of tiles.

        Robust to both uniform demand (equals ~p95) and sparse hot rows
        (where a plain percentile would read zero).
        """
        cap = self.tile_capacity_um.get(layer_class)
        if not cap:
            return 0.0
        flat = np.sort(self.demand[layer_class].ravel())
        top = flat[-max(1, flat.size // 20):]
        return float(top.mean() / cap)

    def worst_overflow(self) -> float:
        """Worst 95th-percentile overflow across classes."""
        return max((self.peak_overflow_ratio(c)
                    for c in self.tile_capacity_um), default=0.0)

    def density_map(self, layer_class: LayerClass) -> np.ndarray:
        """Demand/capacity per tile (the Fig. 3 / Fig. 10 visual)."""
        cap = self.tile_capacity_um.get(layer_class)
        if not cap:
            return np.zeros((self.n_x, self.n_y))
        return self.demand[layer_class] / cap
