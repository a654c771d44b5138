"""Floorplanning: core area from utilization, row geometry, I/O placement.

The core is square (as the paper's layouts are, Fig. 3/8), sized so the
synthesized cell area sits at the target utilization.  Rows have the
library's cell height — 1.4 um for 2D, 0.84 um for T-MI at 45 nm — which
is where the ~40-43 % footprint reduction of Table 4 comes from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import PlacementError
from repro.circuits.netlist import Module
from repro.kernels.arrays import as_f64, as_index


@dataclass
class Floorplan:
    """Core geometry for placement."""

    width_um: float
    height_um: float
    row_height_um: float
    target_utilization: float
    io_positions: Dict[int, Tuple[float, float]] = field(default_factory=dict)

    @property
    def area_um2(self) -> float:
        return self.width_um * self.height_um

    @property
    def n_rows(self) -> int:
        return max(1, int(self.height_um / self.row_height_um))

    @classmethod
    def for_module(cls, module: Module, library,
                   target_utilization: float = 0.80, tiers: int = 1,
                   area_overhead: float = 1.0) -> "Floorplan":
        """Size the core for a netlist at a target utilization.

        ``tiers`` tiers of planar cells share the core (G-MI), which
        shrinks it to 1/tiers, derated by ``area_overhead``.
        """
        if not (0.05 < target_utilization <= 1.0):
            raise PlacementError(
                f"unreasonable utilization {target_utilization}")
        total_area = sum(library.cell(i.cell_name).area_um2
                         for i in module.instances)
        if total_area <= 0.0:
            raise PlacementError("module has no cell area")
        # Fold-aware row height when the library carries a fold spec
        # (N-tier T-MI); synthetic test libraries without one fall back
        # to the node's 2-tier / 2D heights.
        row_height = getattr(library, "row_height_um", None)
        if row_height is None:
            row_height = library.node.tmi_cell_height_um if library.is_3d \
                else library.node.cell_height_um
        core_area = total_area / target_utilization / tiers * area_overhead
        # Square core, height snapped to a whole number of rows.
        dim = math.sqrt(core_area)
        n_rows = max(1, int(round(dim / row_height)))
        height = n_rows * row_height
        width = core_area / height
        fp = cls(
            width_um=width,
            height_um=height,
            row_height_um=row_height,
            target_utilization=target_utilization,
        )
        fp.place_ios(module)
        return fp

    def place_ios(self, module: Module) -> None:
        """Distribute primary I/O evenly around the core boundary."""
        io_nets: List[int] = list(module.primary_inputs) + \
            list(module.primary_outputs)
        if not io_nets:
            return
        perimeter = 2.0 * (self.width_um + self.height_um)
        spacing = perimeter / len(io_nets)
        for k, net_idx in enumerate(io_nets):
            s = k * spacing
            if s < self.width_um:
                pos = (s, 0.0)
            elif s < self.width_um + self.height_um:
                pos = (self.width_um, s - self.width_um)
            elif s < 2.0 * self.width_um + self.height_um:
                pos = (2.0 * self.width_um + self.height_um - s,
                       self.height_um)
            else:
                pos = (0.0, perimeter - s)
            self.io_positions[net_idx] = pos

    def utilization_of(self, module: Module, library) -> float:
        """Actual placement density of the module in this core."""
        total_area = sum(library.cell(i.cell_name).area_um2
                         for i in module.instances)
        return total_area / self.area_um2


class NetPoints:
    """Where the pins of a set of nets sit, as CSR arrays read from the
    module's pin-table snapshot (:meth:`Module.connectivity`).

    The points of net ``nets[r]`` are ``off[r]:off[r + 1]``: its driver,
    then its sinks in ``net.sinks`` order.  An instance pin sits at its
    instance (``inst``); a primary I/O pin sits at the net's pad in
    ``Floorplan.io_positions`` (``inst`` -1, coordinates in ``pad_x``/
    ``pad_y``) and is left out where the net has no pad.  ``row`` gives
    each point's net as its position in ``nets``.
    """

    def __init__(self, module: Module, floorplan: Floorplan,
                 include_clock: bool = False) -> None:
        conn = module.connectivity()
        nets = np.arange(conn.n_nets, dtype=np.intp) if include_clock \
            else np.flatnonzero(~conn.is_clock)
        off, inst = conn.net_pins(nets)
        row = np.repeat(np.arange(nets.size, dtype=np.intp), np.diff(off))
        has_pad = np.zeros(conn.n_nets, dtype=bool)
        pad_x = np.zeros(conn.n_nets)
        pad_y = np.zeros(conn.n_nets)
        io = floorplan.io_positions
        if io:
            keys = as_index(list(io))
            xy = as_f64(list(io.values()))
            has_pad[keys] = True
            pad_x[keys] = xy[:, 0]
            pad_y[keys] = xy[:, 1]
        keep = (inst >= 0) | has_pad[nets[row]]
        self.nets = nets
        self.inst = np.maximum(inst[keep], -1)
        self.row = row[keep]
        self.counts = np.bincount(self.row, minlength=nets.size)
        self.off = np.concatenate(([0], np.cumsum(self.counts)))
        pad = self.inst < 0
        self.pad_x = np.where(pad, pad_x[nets[self.row]], 0.0)
        self.pad_y = np.where(pad, pad_y[nets[self.row]], 0.0)

    def coords(self, x: np.ndarray, y: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Every point's (x, y), instances at ``x``/``y``."""
        cell = self.inst >= 0
        px = self.pad_x.copy()
        py = self.pad_y.copy()
        px[cell] = x[self.inst[cell]]
        py[cell] = y[self.inst[cell]]
        return px, py
