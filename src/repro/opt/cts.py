"""Clock-tree synthesis: recursive-partitioning buffered tree.

Flip-flop clock pins are grouped by recursive median partitioning; each
leaf group gets a CLKBUF at its centroid, and upper levels are buffered
recursively up to the clock root.  The tree's wirelength scales with the
core dimension, so T-MI designs get a proportionally smaller (and
cheaper) clock network — part of the footprint-driven power benefit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.circuits.netlist import Module
from repro.place.floorplan import Floorplan
from repro.place.legalize import place_instance_near

LEAF_GROUP_SIZE = 24
TRUNK_GROUP_SIZE = 8
LEAF_BUFFER = "CLKBUF_X4"
TRUNK_BUFFER = "CLKBUF_X8"


@dataclass
class CTSResult:
    """Clock-tree statistics."""

    n_buffers: int
    n_levels: int
    n_sinks: int


def _partition(points: List[Tuple[float, float, Tuple[int, str]]],
               groups: List[List[Tuple[float, float, Tuple[int, str]]]],
               by_x: bool, group_size: int = LEAF_GROUP_SIZE) -> None:
    if len(points) <= group_size:
        groups.append(points)
        return
    key = (lambda p: p[0]) if by_x else (lambda p: p[1])
    pts = sorted(points, key=key)
    mid = len(pts) // 2
    _partition(pts[:mid], groups, not by_x, group_size)
    _partition(pts[mid:], groups, not by_x, group_size)


def synthesize_clock_tree(module: Module, library,
                          floorplan: Floorplan) -> CTSResult:
    """Build the buffered clock tree in place; returns statistics."""
    if module.clock_net is None:
        return CTSResult(n_buffers=0, n_levels=0, n_sinks=0)
    root_net = module.nets[module.clock_net]
    # Collect sequential clock sinks currently on the root net.
    sinks: List[Tuple[float, float, Tuple[int, str]]] = []
    for sink in list(root_net.sinks):
        inst_idx, pin = sink
        if inst_idx < 0:
            continue
        cell = library.cell(module.instances[inst_idx].cell_name)
        pin_obj = cell.pins.get(pin)
        if pin_obj is None or not pin_obj.is_clock:
            continue
        inst = module.instances[inst_idx]
        sinks.append((inst.x_um, inst.y_um, sink))
    if not sinks:
        return CTSResult(n_buffers=0, n_levels=0, n_sinks=0)

    groups: List[List[Tuple[float, float, Tuple[int, str]]]] = []
    _partition(sinks, groups, True)

    n_buffers = 0
    # Leaf level: one buffer per group.
    level_points: List[Tuple[float, float, Tuple[int, str]]] = []
    for group in groups:
        cx = sum(p[0] for p in group) / len(group)
        cy = sum(p[1] for p in group) / len(group)
        buf = module.insert_buffer(
            module.clock_net, LEAF_BUFFER, [p[2] for p in group])
        place_instance_near(module, library, floorplan, buf, cx, cy)
        n_buffers += 1
        module.mark_clock_net(buf.pin_nets["Z"])
        level_points.append((cx, cy, (buf.index, "A")))

    # Trunk levels: buffer groups of leaf buffers until one driver remains.
    n_levels = 1
    while len(level_points) > TRUNK_GROUP_SIZE:
        next_level: List[Tuple[float, float, Tuple[int, str]]] = []
        trunk_groups: List[List[Tuple[float, float, Tuple[int, str]]]] = []
        _partition(level_points, trunk_groups, True,
                   group_size=TRUNK_GROUP_SIZE)
        if len(trunk_groups) <= 1:
            break
        for group in trunk_groups:
            cx = sum(p[0] for p in group) / len(group)
            cy = sum(p[1] for p in group) / len(group)
            buf = module.insert_buffer(
                module.clock_net, TRUNK_BUFFER, [p[2] for p in group])
            place_instance_near(module, library, floorplan, buf, cx, cy)
            n_buffers += 1
            module.mark_clock_net(buf.pin_nets["Z"])
            next_level.append((cx, cy, (buf.index, "A")))
        level_points = next_level
        n_levels += 1

    return CTSResult(n_buffers=n_buffers, n_levels=n_levels,
                     n_sinks=len(sinks))
