"""Gate-level monolithic 3D integration (G-MI) — extension study.

The paper's introduction defines two monolithic styles: transistor-level
(T-MI, the paper's focus) and gate-level (G-MI), where *planar* 2D cells
are placed on two tiers and connected by MIVs, as in TSV-based 3D but
with nano-scale vias.  The prior works the paper compares against ([2],
[8]) study G-MI-like flows; this module implements the style so the three
integration levels can be compared head-to-head:

* footprint: two tiers of planar cells halve the core area (no P/N-split
  penalty, so G-MI beats T-MI's 40 % footprint cut at ~50 %),
* wirelength: scales with the smaller core, like T-MI,
* MIVs: only nets crossing tiers need one (T-MI embeds MIVs in every
  cell); the tier partitioner keeps connected cells together to bound
  the crossing count,
* cells: unchanged 2D cells — no T-MI cell-internal RC effects at all.

A G-MI run is ``FlowConfig(is_3d=True, fold_style="gate")`` through
:func:`repro.flow.design_flow.run_flow`, which reads :data:`GATE_LEVEL`
at the steps where G-MI departs from the 2D and T-MI flow.  At sign-off
the connectivity-driven tier partitioner below splits the placed cells,
and every net it cuts gets one MIV's parasitics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.circuits.netlist import Module
from repro.tech.miv import MIVModel

# Partitioning overhead over the ideal half-area core: tier balancing,
# MIV keep-out, and power-network duplication keep real G-MI footprint
# reductions near ~30 % (the paper's Section 4.2 quotes [2] at ~30 %,
# vs ~40-42 % for T-MI), not the ideal 50 %.
GMI_AREA_OVERHEAD = 1.40


@dataclass(frozen=True)
class IntegrationStyle:
    """Where an integration style's flow departs from 2D's.

    2D and T-MI place one tier of cells and read :data:`CELL_LEVEL`,
    whose values leave every step bit-identical (``x / 1 * 1.0`` is
    exact); G-MI reads :data:`GATE_LEVEL`.  With more than one tier of
    cells, sign-off adds an MIV to every net between cells on different
    tiers.
    """

    # Cell area the synthesis WLM sizes its core from, per unit of
    # netlist cell area.
    wlm_area_scale: float = 1.0
    # Device tiers of planar cells sharing the core: the core is 1/tiers
    # of the planar one and each row holds tiers x its width of cells.
    tiers: int = 1
    # Core area over that ideal 1/tiers core.
    area_overhead: float = 1.0
    # Re-optimize and re-route after the first routing.
    post_route_opt: bool = True


CELL_LEVEL = IntegrationStyle()
# A ~two-tier WLM length scale, a half-area core derated by the
# partitioning overhead, and no post-route optimization.
GATE_LEVEL = IntegrationStyle(wlm_area_scale=0.6, tiers=2,
                              area_overhead=GMI_AREA_OVERHEAD,
                              post_route_opt=False)


def partition_tiers(module: Module, library) -> Dict[int, int]:
    """Connectivity-driven bipartition: instance index -> tier (0/1).

    Greedy BFS growth: start from a seed, absorb the most-connected
    frontier cells into tier 0 until it holds half the cell area; the
    rest go to tier 1.  Keeps clusters together so few nets cross tiers.
    """
    n = len(module.instances)
    if n == 0:
        return {}
    areas = [library.cell(i.cell_name).area_um2 for i in module.instances]
    half_area = sum(areas) / 2.0
    # Instance adjacency via small nets.
    neighbors: List[List[int]] = [[] for _ in range(n)]
    for net in module.nets:
        members = [i for i, _p in
                   ([net.driver] if net.driver and net.driver[0] >= 0
                    else []) + [s for s in net.sinks if s[0] >= 0]]
        if len(members) > 8 or net.is_clock:
            continue
        for a in members:
            for b in members:
                if a != b:
                    neighbors[a].append(b)

    tier = {}
    grown = 0.0
    frontier = deque([0])
    visited: Set[int] = set()
    while grown < half_area:
        if not frontier:
            # Disconnected component: seed from any unassigned cell.
            remaining = next((i for i in range(n) if i not in visited),
                             None)
            if remaining is None:
                break
            frontier.append(remaining)
        idx = frontier.popleft()
        if idx in visited:
            continue
        visited.add(idx)
        tier[idx] = 0
        grown += areas[idx]
        for nb in neighbors[idx]:
            if nb not in visited:
                frontier.append(nb)
    for idx in range(n):
        if idx not in tier:
            tier[idx] = 1
    return tier


def crossing_nets(module: Module, tier: Dict[int, int]) -> List[int]:
    """Indices of the nets whose pins span both tiers, in net order
    (each needs >= 1 MIV)."""
    crossing = []
    for net in module.nets:
        tiers = set()
        if net.driver is not None and net.driver[0] >= 0:
            tiers.add(tier.get(net.driver[0], 0))
        for inst_idx, _pin in net.sinks:
            if inst_idx >= 0:
                tiers.add(tier.get(inst_idx, 0))
        if len(tiers) > 1:
            crossing.append(net.index)
    return crossing


def with_mivs(module: Module, library, resistances_kohm: Dict[int, float],
              capacitances_ff: Dict[int, float]
              ) -> Tuple[Dict[int, float], Dict[int, float], int]:
    """Routed net R/C plus one MIV on every net the tier partition cuts.

    Returns new (resistance kOhm, capacitance fF) maps and the number
    of crossing nets.
    """
    miv = MIVModel(library.node)
    extra_r = miv.resistance_ohm / 1000.0
    extra_c = miv.capacitance_ff
    ress = dict(resistances_kohm)
    caps = dict(capacitances_ff)
    crossing = crossing_nets(module, partition_tiers(module, library))
    for net in crossing:
        caps[net] = caps.get(net, 0.0) + extra_c
        ress[net] = ress.get(net, 0.0) + extra_r
    return ress, caps, len(crossing)
