"""Frozen scalar reference for the placement, routing, STA and MNA
characterization kernels.

A verbatim copy of the loop-per-element implementations that the array
kernels replaced: the quadratic-system assembly, recursive spreading,
pin adjacency and median sweep of ``repro.place.quadratic``, the Tetris
legalizer and wirelength sum of ``repro.place``, the global router's
net points, passes and L-route demand booking (``repro.route``), the
timing graph's netlist scan (``repro.timing.graph.CombGraph``), the STA
propagation and endpoint accounting of ``repro.timing.sta``, the solo
backward-Euler loop of ``MNACircuit.transient`` (with its Jacobian
stamp and ground-padding helpers), the one-transient-at-a-time
characterization grid of ``repro.characterize.charlib`` that runs it,
the net-by-net pass of the DRV fixer (``repro.opt.drv.fix_drv``) and
the instance-by-instance overload check of synthesis sizing
(``Synthesizer._upsize_overloaded``).
``test_kernel_equivalence.py`` demands that the array code reproduce
these results bit for bit on the same inputs, so this module must not
change with it.

Deliberate edits, none of which touches the arithmetic:

* methods became functions taking the object they were bound to
  (``router``, ``grid``, ``analyzer``, ``circuit``), and
  ``CombGraph.__init__`` became the constructor of
  :class:`CombGraphScan`;
* the trace spans and metric counters are gone: the whole-flow checks
  run the oracle beside the flow, where they would add to its trace;
* ``_upsize_overloaded`` lost its ``analyzer`` parameter, which it
  never read;
* helpers the array kernels still call (layer preference, pin loads,
  cell-circuit assembly, measurement windows, leakage, ``levelize``,
  the MOSFET bank ``_DeviceBank``, the DRV fixer's one-net fix
  ``_fix_one_net``) are imported from ``repro``; the
  numeric constants the loops read are copied.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.linalg import cg

from repro.cells.logic import is_combinational, sensitizing_vector
from repro.cells.netlist import CellNetlist
from repro.characterize.charlib import (
    CharacterizationSetup,
    _build_circuit,
    _leakage_mw,
    _window_ns,
    preferred_arc,
)
from repro.characterize.liberty import (
    CellCharacterization,
    NLDMTable,
    TimingArc,
)
from repro.characterize.mna import (
    MNACircuit,
    TransientResult,
    _DeviceBank,
)
from repro.characterize.waveforms import (
    RampStimulus,
    constant,
    measure_delay_slew,
)
from repro.circuits.netlist import Module, Net, PIN_DRIVER, PO_SINK
from repro.errors import (CharacterizationError, PlacementError,
                          RoutingError, SimulationError, TimingError)
from repro.extraction.rc import CellParasitics
from repro.kernels.arrays import as_index
from repro.opt.drv import _fix_one_net
from repro.place.floorplan import Floorplan
from repro.route.grid import RoutingGrid
from repro.route.router import RoutingResult
from repro.route.steiner import MAX_EXACT_PINS, rsmt_edges, rsmt_length_um
from repro.tech.metal import LayerClass
from repro.timing.graph import levelize
from repro.timing.sta import TimingReport

# -- placement (repro.place.quadratic) ---------------------------------------

ANCHOR_WEIGHT = 1.0e-4
CG_TOL = 1.0e-5
CG_MAX_ITER = 400
LEAF_CELLS = 4
HOLD_WEIGHTS = (0.1, 0.4, 1.6, 4.0)
MEDIAN_ROUNDS = 5
MEDIAN_SWEEPS_PER_ROUND = 3
MEDIAN_STEP = 0.8


def build_system(module: Module, floorplan: Floorplan,
                 anchor_x: Optional[np.ndarray] = None,
                 anchor_y: Optional[np.ndarray] = None,
                 anchor_weight: float = ANCHOR_WEIGHT
                 ) -> Tuple[csr_matrix, np.ndarray, np.ndarray]:
    """Laplacian and pad/hold-anchor right-hand sides for x and y.

    When ``anchor_x``/``anchor_y`` are given, every cell is pulled toward
    its anchor with ``anchor_weight`` — the hold force that alternates with
    spreading in the placement loop.
    """
    n = len(module.instances)
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    diag = np.full(n, anchor_weight)
    if anchor_x is not None and anchor_y is not None:
        bx = anchor_weight * anchor_x.copy()
        by = anchor_weight * anchor_y.copy()
    else:
        bx = np.full(n, anchor_weight * floorplan.width_um / 2.0)
        by = np.full(n, anchor_weight * floorplan.height_um / 2.0)

    for net in module.nets:
        if net.is_clock:
            continue
        members: List[int] = []
        pads: List[Tuple[float, float]] = []
        if net.driver is not None:
            if net.driver[0] >= 0:
                members.append(net.driver[0])
            elif net.driver[0] == PIN_DRIVER:
                pos = floorplan.io_positions.get(net.index)
                if pos is not None:
                    pads.append(pos)
        for inst_idx, _pin in net.sinks:
            if inst_idx >= 0:
                members.append(inst_idx)
            elif inst_idx == PO_SINK:
                pos = floorplan.io_positions.get(net.index)
                if pos is not None:
                    pads.append(pos)
        k = len(members) + len(pads)
        if k < 2:
            continue
        w = 1.0 / (k - 1)
        # Clique over movable members (star collapsed for small nets).
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                a, b = members[i], members[j]
                diag[a] += w
                diag[b] += w
                rows.append(a)
                cols.append(b)
                vals.append(-w)
                rows.append(b)
                cols.append(a)
                vals.append(-w)
        for (px, py) in pads:
            for a in members:
                diag[a] += w
                bx[a] += w * px
                by[a] += w * py

    lap = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    lap = lap + csr_matrix(
        (diag, (np.arange(n), np.arange(n))), shape=(n, n))
    return lap, bx, by


def quadratic_solve(module: Module, floorplan: Floorplan,
                    anchor_x: Optional[np.ndarray] = None,
                    anchor_y: Optional[np.ndarray] = None,
                    anchor_weight: float = ANCHOR_WEIGHT
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Solve the quadratic placement; returns (x, y) arrays."""
    n = len(module.instances)
    if n == 0:
        raise PlacementError("no instances to place")
    lap, bx, by = build_system(module, floorplan, anchor_x, anchor_y,
                               anchor_weight)
    if anchor_x is not None:
        x0, y0 = anchor_x.copy(), anchor_y.copy()
    else:
        x0 = np.full(n, floorplan.width_um / 2.0)
        y0 = np.full(n, floorplan.height_um / 2.0)
    x, info_x = cg(lap, bx, x0=x0, rtol=CG_TOL, maxiter=CG_MAX_ITER)
    y, info_y = cg(lap, by, x0=y0, rtol=CG_TOL, maxiter=CG_MAX_ITER)
    # CG non-convergence still yields a usable (if suboptimal) seed; the
    # spreading stage tolerates it.
    np.clip(x, 0.0, floorplan.width_um, out=x)
    np.clip(y, 0.0, floorplan.height_um, out=y)
    return x, y


def spread(module: Module, library, floorplan: Floorplan,
           x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Recursive area bisection: distribute cells uniformly, keep order."""
    n = len(module.instances)
    areas = np.array([library.cell(i.cell_name).area_um2
                      for i in module.instances])
    order = np.arange(n)
    out_x = np.empty(n)
    out_y = np.empty(n)

    def recurse(idx: np.ndarray, x0: float, y0: float,
                x1: float, y1: float, vertical_cut: bool) -> None:
        if idx.size == 0:
            return
        if idx.size <= LEAF_CELLS:
            # Scatter within the leaf region, ordered by the QP solution.
            xs = x[idx]
            sub = idx[np.argsort(xs, kind="stable")]
            for k, cell_idx in enumerate(sub):
                frac = (k + 0.5) / sub.size
                out_x[cell_idx] = x0 + frac * (x1 - x0)
                out_y[cell_idx] = (y0 + y1) / 2.0
            return
        if vertical_cut:
            keys = x[idx]
        else:
            keys = y[idx]
        sorted_idx = idx[np.argsort(keys, kind="stable")]
        csum = np.cumsum(areas[sorted_idx])
        half = csum[-1] / 2.0
        split = int(np.searchsorted(csum, half))
        split = min(max(split, 1), sorted_idx.size - 1)
        left = sorted_idx[:split]
        right = sorted_idx[split:]
        frac = csum[split - 1] / csum[-1]
        if vertical_cut:
            xm = x0 + frac * (x1 - x0)
            recurse(left, x0, y0, xm, y1, False)
            recurse(right, xm, y0, x1, y1, False)
        else:
            ym = y0 + frac * (y1 - y0)
            recurse(left, x0, y0, x1, ym, True)
            recurse(right, x0, ym, x1, y1, True)

    recurse(order, 0.0, 0.0, floorplan.width_um, floorplan.height_um,
            floorplan.width_um >= floorplan.height_um)
    return out_x, out_y


def _cell_pin_adjacency(module: Module, floorplan: Floorplan):
    """Per cell: list of (neighbor index or -1, pad x, pad y) tuples.

    Neighbor index -1 marks a fixed pad position stored in the second and
    third slots.
    """
    adjacency: List[List[Tuple[int, float, float]]] = [
        [] for _ in module.instances]
    for net in module.nets:
        if net.is_clock:
            continue
        members: List[int] = []
        pads: List[Tuple[float, float]] = []
        if net.driver is not None:
            if net.driver[0] >= 0:
                members.append(net.driver[0])
            else:
                pos = floorplan.io_positions.get(net.index)
                if pos is not None:
                    pads.append(pos)
        for inst_idx, _pin in net.sinks:
            if inst_idx >= 0:
                members.append(inst_idx)
            else:
                pos = floorplan.io_positions.get(net.index)
                if pos is not None:
                    pads.append(pos)
        if len(members) + len(pads) < 2 or len(members) > 12:
            continue
        for a in members:
            for b in members:
                if a != b:
                    adjacency[a].append((b, 0.0, 0.0))
            for (px, py) in pads:
                adjacency[a].append((-1, px, py))
    return adjacency


def median_sweep(module: Module, floorplan: Floorplan,
                 x: np.ndarray, y: np.ndarray,
                 adjacency, sweeps: int) -> None:
    """Move each cell toward the median of its connected pins, in place.

    The half-step damping plus the interleaved spreading keeps density
    under control (GordianL-style linearization of the objective).
    """
    n = len(module.instances)
    for _ in range(sweeps):
        for i in range(n):
            neigh = adjacency[i]
            if not neigh:
                continue
            xs = [x[j] if j >= 0 else px for (j, px, _py) in neigh]
            ys = [y[j] if j >= 0 else py for (j, _px, py) in neigh]
            xs.sort()
            ys.sort()
            mx = xs[len(xs) // 2]
            my = ys[len(ys) // 2]
            x[i] += MEDIAN_STEP * (mx - x[i])
            y[i] += MEDIAN_STEP * (my - y[i])


def place_global(module: Module, library, floorplan: Floorplan
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Full global placement.

    Quadratic solve, then alternating hold-anchored QP refinement and
    spreading, then median-improvement rounds (linear-wirelength local
    refinement) each followed by a spreading pass to restore density.
    """
    x, y = quadratic_solve(module, floorplan)
    x, y = spread(module, library, floorplan, x, y)
    for hold in HOLD_WEIGHTS:
        x, y = quadratic_solve(module, floorplan, anchor_x=x,
                               anchor_y=y, anchor_weight=hold)
        x, y = spread(module, library, floorplan, x, y)
    adjacency = _cell_pin_adjacency(module, floorplan)
    for _ in range(MEDIAN_ROUNDS):
        median_sweep(module, floorplan, x, y, adjacency,
                     MEDIAN_SWEEPS_PER_ROUND)
        x, y = spread(module, library, floorplan, x, y)
    # One final gentle median pass; the closing spread restores the
    # uniform density the Tetris legalizer needs.
    median_sweep(module, floorplan, x, y, adjacency, 1)
    x, y = spread(module, library, floorplan, x, y)
    return x, y


# -- legalization and wirelength (repro.place.legalize, .placer) -------------

Y_COST_WEIGHT = 2.0
ROW_SEARCH_RADIUS = 6


def legalize(module: Module, library, floorplan: Floorplan,
             x: np.ndarray, y: np.ndarray,
             capacity_factor: float = 1.0) -> None:
    """Assign legal positions in place (writes inst.x_um / inst.y_um).

    ``capacity_factor`` scales each row's width capacity — 2.0 models a
    two-tier (G-MI) core where planar cells on both tiers share x/y.
    """
    n = len(module.instances)
    if n == 0:
        return
    widths = np.array([library.cell(i.cell_name).width_um
                       for i in module.instances])
    # Effective widths shrink when rows host multiple tiers.
    widths = widths / capacity_factor
    row_h = floorplan.row_height_um
    n_rows = floorplan.n_rows
    capacity = floorplan.width_um
    edges = np.zeros(n_rows)          # current right edge per row
    used = np.zeros(n_rows)           # occupied width per row

    order = np.argsort(x, kind="stable")
    for i in order:
        w = widths[i]
        desired_x = x[i]
        desired_row = min(max(int(y[i] / row_h), 0), n_rows - 1)
        best_row = -1
        best_cost = float("inf")
        best_pos = 0.0
        radius = ROW_SEARCH_RADIUS
        while best_row < 0:
            lo = max(desired_row - radius, 0)
            hi = min(desired_row + radius, n_rows - 1)
            for r in range(lo, hi + 1):
                if used[r] + w > capacity:
                    continue
                pos = max(edges[r], min(desired_x - w / 2.0,
                                        capacity - w))
                if pos + w > capacity:
                    continue
                dx = abs(pos + w / 2.0 - desired_x)
                dy = abs((r + 0.5) * row_h - y[i])
                cost = dx + Y_COST_WEIGHT * dy
                if cost < best_cost:
                    best_cost = cost
                    best_row = r
                    best_pos = pos
            if best_row < 0:
                if lo == 0 and hi == n_rows - 1:
                    # Gap fragmentation left no row with edge space near
                    # the desired x: fall back to the emptiest row,
                    # left-packed.  Some row must fit at <= 100 % density.
                    for r in range(n_rows):
                        if edges[r] + w <= capacity:
                            pos = edges[r]
                            dy = abs((r + 0.5) * row_h - y[i])
                            cost = abs(pos + w / 2.0 - desired_x) \
                                + Y_COST_WEIGHT * dy
                            if cost < best_cost:
                                best_cost = cost
                                best_row = r
                                best_pos = pos
                    if best_row < 0:
                        # Last resort: tolerate a small overlap at the
                        # right edge of the least-used row rather than
                        # fail — harmless at global-routing abstraction.
                        best_row = int(np.argmin(used))
                        best_pos = max(capacity - w, 0.0)
                    break
                radius *= 2
        inst = module.instances[i]
        inst.x_um = best_pos + w / 2.0
        inst.y_um = (best_row + 0.5) * row_h
        edges[best_row] = best_pos + w
        used[best_row] += w


def total_hpwl(module: Module, floorplan: Floorplan) -> float:
    """Half-perimeter wirelength over all signal nets, um."""
    total = 0.0
    for net in module.nets:
        if net.is_clock:
            continue
        xs, ys = [], []
        if net.driver is not None and net.driver[0] >= 0:
            inst = module.instances[net.driver[0]]
            xs.append(inst.x_um)
            ys.append(inst.y_um)
        elif net.driver is not None:
            pos = floorplan.io_positions.get(net.index)
            if pos:
                xs.append(pos[0])
                ys.append(pos[1])
        for inst_idx, _pin in net.sinks:
            if inst_idx >= 0:
                inst = module.instances[inst_idx]
                xs.append(inst.x_um)
                ys.append(inst.y_um)
            else:
                pos = floorplan.io_positions.get(net.index)
                if pos:
                    xs.append(pos[0])
                    ys.append(pos[1])
        if len(xs) >= 2:
            total += (max(xs) - min(xs)) + (max(ys) - min(ys))
    return total


# -- routing (repro.route.grid, repro.route.router) --------------------------

MB1_NET_FRACTION = 0.04
MB1_LENGTH_SHARE = 0.20


def tile_of(grid: RoutingGrid, x_um: float, y_um: float) -> Tuple[int, int]:
    tx = min(max(int(x_um / grid.width_um * grid.n_x), 0), grid.n_x - 1)
    ty = min(max(int(y_um / grid.height_um * grid.n_y), 0), grid.n_y - 1)
    return tx, ty


def add_edge_demand(grid: RoutingGrid, layer_class: LayerClass,
                    x0: float, y0: float, x1: float, y1: float) -> None:
    """Book an edge's wirelength over the tiles it crosses.

    Probabilistic L-routing: half the demand follows the lower-L
    (horizontal first), half the upper-L (vertical first), the usual
    congestion-estimation smoothing.  Each tile is charged the actual
    length the leg runs inside it.
    """
    if layer_class not in grid.demand:
        raise RoutingError(f"no {layer_class.value} capacity in grid")
    book_l(grid, layer_class, x0, y0, x1, y1, 0.5)
    book_l(grid, layer_class, x1, y1, x0, y0, 0.5)


def book_l(grid: RoutingGrid, layer_class: LayerClass, x0: float,
           y0: float, x1: float, y1: float, weight: float) -> None:
    """One L route: horizontal at y0 from x0..x1, vertical at x1."""
    dm = grid.demand[layer_class]
    tile_w = grid.width_um / grid.n_x
    tile_h = grid.height_um / grid.n_y
    _tx, ty0 = tile_of(grid, x0, y0)
    xa, xb = sorted((x0, x1))
    tx_lo, _ = tile_of(grid, xa, y0)
    tx_hi, _ = tile_of(grid, xb, y0)
    for tx in range(tx_lo, tx_hi + 1):
        seg_lo = max(xa, tx * tile_w)
        seg_hi = min(xb, (tx + 1) * tile_w)
        if seg_hi > seg_lo:
            dm[tx, ty0] += (seg_hi - seg_lo) * weight
    tx1, _ = tile_of(grid, x1, y0)
    ya, yb = sorted((y0, y1))
    _, ty_lo = tile_of(grid, x1, ya)
    _, ty_hi = tile_of(grid, x1, yb)
    for ty in range(ty_lo, ty_hi + 1):
        seg_lo = max(ya, ty * tile_h)
        seg_hi = min(yb, (ty + 1) * tile_h)
        if seg_hi > seg_lo:
            dm[tx1, ty] += (seg_hi - seg_lo) * weight


def router_net_points(router, module: Module, net: Net
                      ) -> List[Tuple[float, float]]:
    points = []
    if net.driver is not None:
        if net.driver[0] >= 0:
            inst = module.instances[net.driver[0]]
            points.append((inst.x_um, inst.y_um))
        else:
            pos = router.floorplan.io_positions.get(net.index)
            if pos:
                points.append(pos)
    for inst_idx, _pin in net.sinks:
        if inst_idx >= 0:
            inst = module.instances[inst_idx]
            points.append((inst.x_um, inst.y_um))
        else:
            pos = router.floorplan.io_positions.get(net.index)
            if pos:
                points.append(pos)
    return points


def route(router, module: Module,
          include_clock: bool = True) -> RoutingResult:
    """:meth:`GlobalRouter.run` as one net at a time."""
    grid = RoutingGrid.for_core(router.floorplan.width_um,
                                router.floorplan.height_um,
                                router.interconnect.stack,
                                router.capacity_scale)
    # Pass 1: topologies and preferred classes.
    net_length: Dict[int, float] = {}
    net_points: Dict[int, List[Tuple[float, float]]] = {}
    for net in module.nets:
        if net.is_clock and not include_clock:
            continue
        points = router_net_points(router, module, net)
        length = rsmt_length_um(points)
        net_length[net.index] = length
        net_points[net.index] = points

    # Layer assignment: each net first tries the class its length
    # prefers (long nets avoid the resistive local layers — the
    # Section 6 router preference), then spills along a class-specific
    # order while classes are under the fill target; once everything
    # is full, overflow is balanced by fill ratio.  Shortest nets go
    # first, as in track-assignment order.
    class_cap_total = {
        cls: cap * grid.n_x * grid.n_y
        for cls, cap in grid.tile_capacity_um.items()
    }
    class_used = {cls: 0.0 for cls in class_cap_total}
    assignment: Dict[int, LayerClass] = {}
    fill_order = [cls for cls in (LayerClass.LOCAL,
                                  LayerClass.INTERMEDIATE,
                                  LayerClass.GLOBAL)
                  if cls in class_cap_total]
    spill = {
        LayerClass.LOCAL: (LayerClass.LOCAL, LayerClass.INTERMEDIATE,
                           LayerClass.GLOBAL),
        LayerClass.INTERMEDIATE: (LayerClass.INTERMEDIATE,
                                  LayerClass.LOCAL,
                                  LayerClass.GLOBAL),
        LayerClass.GLOBAL: (LayerClass.GLOBAL,
                            LayerClass.INTERMEDIATE,
                            LayerClass.LOCAL),
    }
    fill_target = 0.85
    for net_idx in sorted(net_length, key=net_length.get):
        length = net_length[net_idx]
        preferred = router._preferred_class(length)
        chosen = None
        for cls in spill.get(preferred, tuple(fill_order)):
            if cls not in class_cap_total:
                continue
            if (class_used[cls] + length
                    <= class_cap_total[cls] * fill_target):
                chosen = cls
                break
        if chosen is None:
            # Everything is at the fill target: balance the
            # overflow across classes by current fill ratio.
            chosen = min(fill_order,
                         key=lambda c: class_used[c]
                         / class_cap_total[c])
        assignment[net_idx] = chosen
        class_used[chosen] += length

    # Pass 2: book tile demand along L-routed tree edges.
    for net_idx, points in net_points.items():
        if len(points) < 2:
            continue
        cls = assignment[net_idx]
        if cls not in grid.tile_capacity_um:
            continue
        if len(points) <= MAX_EXACT_PINS:
            for a, b in rsmt_edges(points):
                add_edge_demand(grid, cls, points[a][0], points[a][1],
                                points[b][0], points[b][1])
        else:
            xs = [p[0] for p in points]
            ys = [p[1] for p in points]
            add_edge_demand(grid, cls, min(xs), min(ys), max(xs), max(ys))

    # Per-class detour factors from that class's peak overflow.
    detour_by_class: Dict[LayerClass, float] = {}
    for cls in class_cap_total:
        over = max(0.0, grid.peak_overflow_ratio(cls) - 1.0)
        detour_by_class[cls] = min(1.0 + router.detour_coeff * over, 1.35)
    detour = max(detour_by_class.values()) if detour_by_class else 1.0

    lengths: Dict[int, float] = {}
    res: Dict[int, float] = {}
    cap: Dict[int, float] = {}
    by_class: Dict[LayerClass, float] = {
        cls: 0.0 for cls in class_cap_total}
    total = 0.0
    for net_idx, base_len in net_length.items():
        cls = assignment[net_idx]
        length = base_len * detour_by_class.get(cls, 1.0)
        rc = router.interconnect.class_rc(cls) \
            if cls in grid.tile_capacity_um \
            else router.interconnect.class_rc(LayerClass.LOCAL)
        lengths[net_idx] = length
        res[net_idx] = length * rc.resistance_kohm_per_um
        cap[net_idx] = length * rc.capacitance_ff_per_um
        by_class[cls] = by_class.get(cls, 0.0) + length
        total += length

    # MB1 usage for T-MI: the shortest nets dip to the bottom tier.
    mb1_len = 0.0
    if router.interconnect.stack.is_3d and net_length:
        ordered = sorted(net_length, key=net_length.get)
        take = max(1, int(len(ordered) * MB1_NET_FRACTION))
        for net_idx in ordered[:take]:
            mb1_len += lengths.get(net_idx, 0.0) * MB1_LENGTH_SHARE

    return RoutingResult(
        lengths_um=lengths,
        resistances_kohm=res,
        capacitances_ff=cap,
        layer_class=assignment,
        grid=grid,
        total_wirelength_um=total,
        wirelength_by_class=by_class,
        mb1_wirelength_um=mb1_len,
        detour_factor=detour,
    )


# -- timing graph (repro.timing.graph) ----------------------------------------


class CombGraphScan:
    """:class:`repro.timing.graph.CombGraph`'s attributes, built by one
    walk over the ``Instance`` and ``Net`` objects."""

    def __init__(self, module: Module, library) -> None:
        n_inst = len(module.instances)
        n_nets = len(module.nets)
        self.module = module
        self.n_inst = n_inst
        self.n_nets = n_nets

        meta_of = library.timing_meta
        cell_names = [inst.cell_name for inst in module.instances]
        metas = [meta_of(name) for name in cell_names]
        is_seq_l = [m.is_sequential for m in metas]
        self.is_seq = np.array(is_seq_l, dtype=bool) if n_inst \
            else np.zeros(0, dtype=bool)
        self.comb = ~self.is_seq

        # Nets: readiness, combinational sinks (the Kahn successors) and
        # load-bearing sink pins.  Pin names are interned to small ids.
        ready = np.zeros(n_nets, dtype=bool)
        sink_counts = [0] * n_nets
        sink_flat: List[int] = []
        pin_ids: Dict[str, int] = {}
        load_net: List[int] = []
        load_inst: List[int] = []
        load_pin: List[int] = []
        for net in module.nets:
            ni = net.index
            if net.is_clock:
                ready[ni] = True
            else:
                drv = net.driver
                if drv is None:
                    raise TimingError(f"net {net.name!r} has no driver")
                d0 = drv[0]
                if d0 == PIN_DRIVER or (d0 >= 0 and is_seq_l[d0]):
                    ready[ni] = True
            c = 0
            for sink_idx, sink_pin in net.sinks:
                if sink_idx >= 0:
                    if not is_seq_l[sink_idx]:
                        sink_flat.append(sink_idx)
                        c += 1
                    pid = pin_ids.get(sink_pin)
                    if pid is None:
                        pid = pin_ids[sink_pin] = len(pin_ids)
                elif sink_idx == PO_SINK:
                    pid = -1
                else:
                    continue
                load_net.append(ni)
                load_inst.append(sink_idx)
                load_pin.append(pid)
            sink_counts[ni] = c
        self.net_ready = ready
        self.sink_arr = as_index(sink_flat)
        self.sink_off = np.concatenate(
            ([0], np.cumsum(as_index(sink_counts))))
        self.pin_names = list(pin_ids)
        self.load_net = as_index(load_net)
        self.load_inst = as_index(load_inst)
        self.load_pin = as_index(load_pin)

        # Instances: CSR pin maps, sequential outputs and data pins.
        in_counts = [0] * n_inst
        in_flat: List[int] = []
        out_counts = [0] * n_inst
        out_flat: List[int] = []
        seq_out_inst: List[int] = []
        seq_out_nets: List[int] = []
        endpoints: List[Tuple[int, str]] = []
        endpoint_nets: List[int] = []
        data_pins_of: Dict[str, FrozenSet[str]] = {}
        comb_count = 0
        for inst in module.instances:
            idx = inst.index
            meta = metas[idx]
            outs = meta.output_pins
            if meta.is_sequential:
                name = cell_names[idx]
                data = data_pins_of.get(name)
                if data is None:
                    data = data_pins_of[name] = frozenset(
                        p.name for p in library.cell(name).input_pins())
                for pin_name, net_idx in inst.pin_nets.items():
                    if pin_name in outs:
                        seq_out_inst.append(idx)
                        seq_out_nets.append(net_idx)
                    elif pin_name in data:
                        endpoints.append((idx, pin_name))
                        endpoint_nets.append(net_idx)
                continue
            comb_count += 1
            ins = meta.input_pins
            ic = oc = 0
            for pin_name, net_idx in inst.pin_nets.items():
                if pin_name in ins:
                    in_flat.append(net_idx)
                    ic += 1
                elif pin_name in outs:
                    out_flat.append(net_idx)
                    oc += 1
            in_counts[idx] = ic
            out_counts[idx] = oc
        self.comb_count = comb_count
        self.in_counts = as_index(in_counts)
        self.in_arr = as_index(in_flat)
        self.in_off = np.concatenate(
            ([0], np.cumsum(self.in_counts)))
        self.out_counts = as_index(out_counts)
        self.out_arr = as_index(out_flat)
        self.out_off = np.concatenate(
            ([0], np.cumsum(self.out_counts)))
        self.seq_out_inst = as_index(seq_out_inst)
        self.seq_out_nets = as_index(seq_out_nets)

        # Endpoints: sequential data pins, then primary outputs.
        self.n_seq_endpoints = len(endpoints)
        self.endpoint_inst = as_index([idx for idx, _pin in endpoints])
        for net_idx in module.primary_outputs:
            endpoints.append((PO_SINK, module.nets[net_idx].name))
            endpoint_nets.append(net_idx)
        self.endpoints = endpoints
        self.endpoint_nets = as_index(endpoint_nets)
        self.pi_nets = as_index([idx for idx in module.primary_inputs
                                 if not module.nets[idx].is_clock])

        # Initial in-degree: input nets not sourced by a start point.
        if self.in_arr.size:
            inst_of_in = np.repeat(
                np.arange(n_inst, dtype=np.intp), self.in_counts)
            pending = inst_of_in[~ready[self.in_arr]]
            self.indegree0 = np.bincount(
                pending, minlength=n_inst).astype(np.intp)
        else:
            self.indegree0 = np.zeros(n_inst, dtype=np.intp)



# -- static timing (repro.timing.sta) ----------------------------------------

LN2 = math.log(2.0)
DEFAULT_CLOCK_SLEW_PS = 30.0


def wire_delay_slew(analyzer, net: Net, slew_in: float
                    ) -> Tuple[float, float]:
    r, c_wire = analyzer.net_model.net_rc(net)
    c_pins = analyzer._sink_pin_cap_ff(net)
    delay = LN2 * r * (c_wire / 2.0 + c_pins)
    degraded = math.sqrt(slew_in * slew_in
                         + (2.2 * r * (c_wire / 2.0 + c_pins)) ** 2)
    return delay, degraded


def sta_run(analyzer) -> TimingReport:
    """:meth:`TimingAnalyzer.run` as one instance at a time."""
    module = analyzer.module
    library = analyzer.library
    order = levelize(module, library)
    is_seq = [library.cell(i.cell_name).is_sequential
              for i in module.instances]

    arrival: Dict[int, float] = {}
    slew: Dict[int, float] = {}
    loads: Dict[int, float] = {}

    # Start points: primary inputs.
    for net_idx in module.primary_inputs:
        net = module.nets[net_idx]
        if net.is_clock:
            continue
        wire_d, wire_s = wire_delay_slew(analyzer, net,
                                         analyzer.input_slew_ps)
        arrival[net_idx] = wire_d
        slew[net_idx] = wire_s

    # Start points: sequential outputs (clk -> Q).
    for inst in module.instances:
        if not is_seq[inst.index]:
            continue
        cell = library.cell(inst.cell_name)
        for pin_name, net_idx in inst.pin_nets.items():
            if cell.pin(pin_name).direction.value != "output":
                continue
            net = module.nets[net_idx]
            load = analyzer.net_load_ff(net)
            loads[net_idx] = load
            d = cell.delay_ps(DEFAULT_CLOCK_SLEW_PS, load)
            s = cell.output_slew_ps(DEFAULT_CLOCK_SLEW_PS, load)
            wire_d, wire_s = wire_delay_slew(analyzer, net, s)
            prev = arrival.get(net_idx, -1.0)
            if d + wire_d > prev:
                arrival[net_idx] = d + wire_d
                slew[net_idx] = wire_s

    # Combinational propagation.
    for inst_idx in order:
        inst = module.instances[inst_idx]
        cell = library.cell(inst.cell_name)
        in_arrival = 0.0
        in_slew = analyzer.input_slew_ps
        for pin_name, net_idx in inst.pin_nets.items():
            if cell.pin(pin_name).direction.value != "input":
                continue
            a = arrival.get(net_idx, 0.0)
            if a >= in_arrival:
                in_arrival = a
                in_slew = slew.get(net_idx, analyzer.input_slew_ps)
        for pin_name, net_idx in inst.pin_nets.items():
            if cell.pin(pin_name).direction.value != "output":
                continue
            net = module.nets[net_idx]
            load = analyzer.net_load_ff(net)
            loads[net_idx] = load
            d = cell.delay_ps(in_slew, load)
            s = cell.output_slew_ps(in_slew, load)
            wire_d, wire_s = wire_delay_slew(analyzer, net, s)
            a = in_arrival + d + wire_d
            if a > arrival.get(net_idx, -1.0):
                arrival[net_idx] = a
                slew[net_idx] = wire_s

    return finish_report(analyzer, arrival, slew, loads)


def finish_report(analyzer, arrival: Dict[int, float],
                  slew: Dict[int, float],
                  loads: Dict[int, float]) -> TimingReport:
    """Endpoint slack / WNS / TNS from propagated arrivals."""
    module = analyzer.module
    library = analyzer.library
    meta_of = library.timing_meta
    is_seq = [meta_of(i.cell_name).is_sequential
              for i in module.instances]
    endpoint_slack: Dict[Tuple[int, str], float] = {}
    wns = float("inf")
    tns = 0.0
    critical = None
    for inst in module.instances:
        if not is_seq[inst.index]:
            continue
        cell = library.cell(inst.cell_name)
        setup = (cell.characterization.setup_time_ps
                 if cell.characterization else 0.0)
        for pin_name, net_idx in inst.pin_nets.items():
            pin = cell.pin(pin_name)
            if pin.direction.value != "input" or pin.is_clock:
                continue
            a = arrival.get(net_idx, 0.0)
            slack = analyzer.clock_ps - setup - a
            endpoint_slack[(inst.index, pin_name)] = slack
            if slack < wns:
                wns = slack
                critical = (inst.index, pin_name)
            if slack < 0.0:
                tns += slack
    for net_idx in module.primary_outputs:
        a = arrival.get(net_idx, 0.0)
        slack = analyzer.clock_ps - a
        endpoint_slack[(PO_SINK, module.nets[net_idx].name)] = slack
        if slack < wns:
            wns = slack
            critical = (PO_SINK, module.nets[net_idx].name)
        if slack < 0.0:
            tns += slack
    if wns == float("inf"):
        wns = analyzer.clock_ps
    return TimingReport(
        clock_ps=analyzer.clock_ps,
        arrival_ps=arrival,
        slew_ps=slew,
        endpoint_slack_ps=endpoint_slack,
        wns_ps=wns,
        tns_ps=tns,
        critical_endpoint=critical,
        load_ff=loads,
    )


# -- transient solver (repro.characterize.mna.MNACircuit) --------------------

FD_STEP_V = 1.0e-4
MAX_NEWTON_ITERS = 60
NEWTON_TOL_V = 1.0e-6
NEWTON_TOL_I_MA = 1.0e-7
MAX_DELTA_V = 0.3


def _volts_at(volts: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Node voltages with ground (-1) mapped to 0."""
    padded = np.append(volts, 0.0)
    return padded[idx]


def transient(circuit: MNACircuit, t_stop_ns: float, dt_ns: float,
              record: Optional[Sequence[str]] = None,
              initial: Optional[Dict[str, float]] = None
              ) -> TransientResult:
    """Run a fixed-step backward-Euler transient from t = 0.

    ``record`` limits stored waveforms (all nodes by default);
    ``initial`` seeds node voltages (driven nodes always follow their
    waveforms).
    """
    if circuit._n_nodes == 0:
        raise SimulationError("circuit has no nodes")
    if dt_ns <= 0.0 or t_stop_ns <= dt_ns:
        raise SimulationError("bad transient time parameters")
    n = circuit._n_nodes
    bank = _DeviceBank(circuit._mos_params, circuit._mos_widths,
                       [t[0] for t in circuit._mos_terms],
                       [t[1] for t in circuit._mos_terms],
                       [t[2] for t in circuit._mos_terms])
    free = np.ones(n, dtype=bool)
    for idx in circuit._drivers:
        free[idx] = False
    free_idx = np.where(free)[0]

    # Static (linear) conductance matrix: resistors + BE capacitors.
    g_static = np.zeros((n, n))
    for a, b, r in circuit._resistors:
        g = 1.0 / r
        if a >= 0:
            g_static[a, a] += g
            if b >= 0:
                g_static[a, b] -= g
        if b >= 0:
            g_static[b, b] += g
            if a >= 0:
                g_static[b, a] -= g
    geq_caps = []
    for a, b, c in circuit._capacitors:
        geq = c / dt_ns * 1.0e-3   # mA per V
        geq_caps.append(geq)
        if a >= 0:
            g_static[a, a] += geq
            if b >= 0:
                g_static[a, b] -= geq
        if b >= 0:
            g_static[b, b] += geq
            if a >= 0:
                g_static[b, a] -= geq

    volts = np.zeros(n)
    if initial:
        for name, v in initial.items():
            idx = circuit._node_index.get(name)
            if idx is not None and idx >= 0:
                volts[idx] = v
    for idx, wf in circuit._drivers.items():
        volts[idx] = wf(0.0)

    steps = int(np.ceil(t_stop_ns / dt_ns))
    record_names = list(record) if record is not None \
        else circuit.node_names()
    rec_idx = {name: circuit._node_index[name] for name in record_names
               if circuit._node_index.get(name, -1) >= 0}
    times = np.zeros(steps + 1)
    waves = {name: np.zeros(steps + 1) for name in rec_idx}
    supply_i = np.zeros(steps + 1)
    for name, idx in rec_idx.items():
        waves[name][0] = volts[idx]

    energy_fj = 0.0
    v_prev = volts.copy()

    def residual(v: np.ndarray):
        """KCL residual (mA entering each node) with current volts."""
        f = np.zeros(n)
        # Linear part: f -= G_static * v  plus capacitor history term.
        f -= g_static @ v
        for (a, b, _c), geq in zip(circuit._capacitors, geq_caps):
            hist = geq * (_volt(v_prev, a) - _volt(v_prev, b))
            if a >= 0:
                f[a] += hist
            if b >= 0:
                f[b] -= hist
        if bank.n:
            vg = _volts_at(v, bank.gate)
            vd = _volts_at(v, bank.drain)
            vs = _volts_at(v, bank.source)
            i = bank.currents_ma(vg, vd, vs)
            np.add.at(f, bank.drain[bank.drain >= 0],
                      i[bank.drain >= 0])
            np.subtract.at(f, bank.source[bank.source >= 0],
                           i[bank.source >= 0])
        return f

    for step in range(1, steps + 1):
        t = step * dt_ns
        times[step] = t
        for idx, wf in circuit._drivers.items():
            volts[idx] = wf(t)
        converged = False
        for _ in range(MAX_NEWTON_ITERS):
            f = residual(volts)
            if np.max(np.abs(f[free_idx])) < NEWTON_TOL_I_MA:
                converged = True
                break
            jac = -g_static.copy()
            if bank.n:
                _stamp_device_jacobian(bank, volts, jac)
            j_free = jac[np.ix_(free_idx, free_idx)]
            try:
                delta = np.linalg.solve(j_free, -f[free_idx])
            except np.linalg.LinAlgError:
                delta = np.linalg.lstsq(j_free, -f[free_idx],
                                        rcond=None)[0]
            delta = np.clip(delta, -MAX_DELTA_V, MAX_DELTA_V)
            volts[free_idx] += delta
            if np.max(np.abs(delta)) < NEWTON_TOL_V:
                converged = True
                break
        if not converged:
            raise SimulationError(
                f"Newton failed to converge at t = {t:.4f} ns")
        f = residual(volts)
        i_vdd_ma = sum(-f[idx] for idx in circuit._supply_nodes)
        supply_i[step] = i_vdd_ma * 1.0e3
        v_vdd = (volts[circuit._supply_nodes[0]]
                 if circuit._supply_nodes else 0.0)
        # mA * V * ns = uJ*1e-6... 1 mA * 1 V * 1 ns = 1e-12 J = 1000 fJ.
        energy_fj += i_vdd_ma * v_vdd * dt_ns * 1000.0
        for name, idx in rec_idx.items():
            waves[name][step] = volts[idx]
        v_prev = volts.copy()

    return TransientResult(
        times_ns=times,
        voltages=waves,
        supply_current_ua=supply_i,
        supply_energy_fj=energy_fj,
    )


def _volt(v: np.ndarray, idx: int) -> float:
    return 0.0 if idx < 0 else float(v[idx])


def _stamp_device_jacobian(bank: _DeviceBank, volts: np.ndarray,
                           jac: np.ndarray) -> None:
    """Finite-difference device partials, vectorized over devices."""
    vg = _volts_at(volts, bank.gate)
    vd = _volts_at(volts, bank.drain)
    vs = _volts_at(volts, bank.source)
    i0 = bank.currents_ma(vg, vd, vs)
    partials = {
        "gate": (bank.currents_ma(vg + FD_STEP_V, vd, vs) - i0)
        / FD_STEP_V,
        "drain": (bank.currents_ma(vg, vd + FD_STEP_V, vs) - i0)
        / FD_STEP_V,
        "source": (bank.currents_ma(vg, vd, vs + FD_STEP_V) - i0)
        / FD_STEP_V,
    }
    for term, di in partials.items():
        col = getattr(bank, {"gate": "gate", "drain": "drain",
                             "source": "source"}[term])
        for k in range(bank.n):
            c = col[k]
            if c < 0:
                continue
            if bank.drain[k] >= 0:
                jac[bank.drain[k], c] += di[k]
            if bank.source[k] >= 0:
                jac[bank.source[k], c] -= di[k]


# -- characterization (repro.characterize.charlib) ---------------------------

SETUP_FRACTION_OF_CLK_Q = 0.6
_SEQ_SIDE_VALUES = {"RN": True, "SE": False, "SI": False}


def settle(circuit: MNACircuit, setup: CharacterizationSetup,
           initial: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Run the settling phase; returns final node voltages."""
    result = transient(circuit, setup.settle_ns, setup.settle_dt_ns,
                       initial=initial)
    return {name: float(wave[-1]) for name, wave in result.voltages.items()}


def measure_combinational(netlist: CellNetlist,
                          parasitics: Optional[CellParasitics],
                          cell_type: str, in_pin: str, out_pin: str,
                          slew_ps: float, load_ff: float,
                          setup: CharacterizationSetup
                          ) -> Tuple[float, float, float]:
    """(delay_ps, slew_ps, energy_fj) averaged over rise and fall."""
    node = setup.node
    vdd = node.vdd
    side = sensitizing_vector(cell_type, in_pin, out_pin)
    delays, slews, energies = [], [], []
    for input_rising in (True, False):
        circuit, far = _build_circuit(netlist, parasitics, node, load_ff,
                                      out_pin)
        v0 = 0.0 if input_rising else vdd
        for pin, value in side.items():
            circuit.drive(pin, constant(vdd if value else 0.0))
        circuit.drive(in_pin, constant(v0))
        initial = settle(circuit, setup)
        out_start = initial.get(far[out_pin], 0.0)
        output_rising = out_start < vdd / 2.0

        circuit2, far2 = _build_circuit(netlist, parasitics, node, load_ff,
                                        out_pin)
        for pin, value in side.items():
            circuit2.drive(pin, constant(vdd if value else 0.0))
        start_ns = 0.02
        stim = RampStimulus(v0=v0, v1=vdd - v0, start_ns=start_ns,
                            slew_ps=slew_ps)
        circuit2.drive(in_pin, stim)
        t_stop, dt = _window_ns(node, slew_ps, load_ff, setup)
        result = transient(circuit2, t_stop + start_ns, dt,
                           record=[far2[out_pin]], initial=initial)
        out_wave = result.voltage(far2[out_pin])
        delay_ps, out_slew_ps = measure_delay_slew(
            result.times_ns, out_wave, vdd, stim.mid_crossing_ns,
            output_rising)
        e_supply = result.supply_energy_fj
        # Subtract leakage baseline and, for a rising output, the energy
        # delivered into the external load (Liberty internal-power
        # convention).
        leak_fj = (_leakage_mw(netlist, node) * 1.0e3) * (t_stop + start_ns)
        e_int = e_supply - leak_fj
        if output_rising:
            e_int -= load_ff * vdd * vdd
        energies.append(max(e_int, 0.0))
        delays.append(delay_ps)
        slews.append(out_slew_ps)
    return (float(np.mean(delays)), float(np.mean(slews)),
            float(np.mean(energies)))


def measure_sequential(netlist: CellNetlist,
                       parasitics: Optional[CellParasitics],
                       clk_pin: str, out_pin: str,
                       slew_ps: float, load_ff: float,
                       setup: CharacterizationSetup
                       ) -> Tuple[float, float, float]:
    """Clock->Q measurement, averaged over Q rising and falling."""
    node = setup.node
    vdd = node.vdd
    data_pin = netlist.input_pins[0]
    delays, slews, energies = [], [], []
    for q_rising in (True, False):
        d_value = vdd if q_rising else 0.0
        circuit, far = _build_circuit(netlist, parasitics, node, load_ff,
                                      out_pin)
        circuit.drive(data_pin, constant(d_value))
        for pin in netlist.input_pins[1:]:
            held = _SEQ_SIDE_VALUES.get(pin, False)
            circuit.drive(pin, constant(vdd if held else 0.0))
        circuit.drive(clk_pin, constant(0.0))
        # Seed the slave latch in the *pre-edge* state (Q at the opposite
        # rail of its post-edge value) so the clock edge produces a
        # measurable output transition.  The feedback keeper then holds the
        # state through the settle phase.
        seed_s_in = vdd if q_rising else 0.0
        seed = {"s_in": seed_s_in, "s_in__w": seed_s_in,
                "s_fb": seed_s_in, "s_fb__w": seed_s_in,
                "s_out": vdd - seed_s_in, "s_out__w": vdd - seed_s_in}
        initial = settle(circuit, setup, initial=seed)

        circuit2, far2 = _build_circuit(netlist, parasitics, node, load_ff,
                                        out_pin)
        circuit2.drive(data_pin, constant(d_value))
        for pin in netlist.input_pins[1:]:
            held = _SEQ_SIDE_VALUES.get(pin, False)
            circuit2.drive(pin, constant(vdd if held else 0.0))
        start_ns = 0.02
        stim = RampStimulus(v0=0.0, v1=vdd, start_ns=start_ns,
                            slew_ps=slew_ps)
        circuit2.drive(clk_pin, stim)
        t_stop, dt = _window_ns(node, slew_ps, load_ff + 6.0, setup)
        result = transient(circuit2, t_stop + start_ns, dt,
                           record=[far2[out_pin]], initial=initial)
        out_wave = result.voltage(far2[out_pin])
        delay_ps, out_slew_ps = measure_delay_slew(
            result.times_ns, out_wave, vdd, stim.mid_crossing_ns, q_rising)
        leak_fj = (_leakage_mw(netlist, node) * 1.0e3) * (t_stop + start_ns)
        e_int = result.supply_energy_fj - leak_fj
        if q_rising:
            e_int -= load_ff * vdd * vdd
        energies.append(max(e_int, 0.0))
        delays.append(delay_ps)
        slews.append(out_slew_ps)
    return (float(np.mean(delays)), float(np.mean(slews)),
            float(np.mean(energies)))


def characterize_cell(netlist: CellNetlist,
                      parasitics: Optional[CellParasitics] = None,
                      setup: Optional[CharacterizationSetup] = None,
                      cell_type: Optional[str] = None
                      ) -> CellCharacterization:
    """Full-grid characterization of one cell, one transient at a time."""
    setup = setup or CharacterizationSetup()
    if cell_type is None:
        cell_type = netlist.cell_name.split("_X")[0]
    sequential = bool(netlist.clock_pins)
    in_pin, out_pin = preferred_arc(netlist, cell_type)
    slews: Sequence[float] = list(setup.seq_slews_ps if sequential
                                  else setup.slews_ps)
    loads: Sequence[float] = list(setup.loads_ff)

    if not sequential and not is_combinational(cell_type):
        raise CharacterizationError(
            f"cannot characterize cell type {cell_type!r}")
    delay = np.zeros((len(slews), len(loads)))
    oslew = np.zeros_like(delay)
    energy = np.zeros_like(delay)
    for i, slew_ps in enumerate(slews):
        for j, load_ff in enumerate(loads):
            if sequential:
                d, s, e = measure_sequential(
                    netlist, parasitics, in_pin, out_pin, slew_ps,
                    load_ff, setup)
            else:
                d, s, e = measure_combinational(
                    netlist, parasitics, cell_type, in_pin, out_pin,
                    slew_ps, load_ff, setup)
            delay[i, j] = d
            oslew[i, j] = s
            energy[i, j] = e

    arc = TimingArc(
        input_pin=in_pin,
        output_pin=out_pin,
        delay=NLDMTable(slews, loads, delay),
        output_slew=NLDMTable(slews, loads, oslew),
        internal_energy=NLDMTable(slews, loads, energy),
    )
    mid_delay = float(delay[len(slews) // 2, len(loads) // 2])
    return CellCharacterization(
        cell_name=netlist.cell_name,
        arcs={out_pin: arc},
        leakage_mw=_leakage_mw(netlist, setup.node),
        setup_time_ps=(SETUP_FRACTION_OF_CLK_Q * mid_delay
                       if sequential else 0.0),
    )


# -- DRV fixing (repro.opt.drv) ----------------------------------------------

MAX_PASSES = 4


def fix_drv(module: Module, library, floorplan: Floorplan,
            net_model) -> Tuple[int, int]:
    """Fix max-cap violations; returns (#upsized, #buffers inserted)."""
    n_upsized = 0
    n_buffers = 0
    start = 0
    for _pass in range(MAX_PASSES):
        end = len(module.nets)
        if start >= end:
            break
        pass_buffers = 0
        for net_idx in range(start, end):
            net = module.nets[net_idx]
            if net.is_clock or net.driver is None or net.driver[0] < 0:
                continue
            up, buf = _fix_one_net(module, library, floorplan, net_model,
                                   net)
            n_upsized += up
            n_buffers += buf
            pass_buffers += buf
        # First pass covers the original netlist; later passes only the
        # nets created by the previous one.
        start = end
        if pass_buffers == 0:
            break
    # Every buffered net was invalidated as it was split; upsizing moves
    # no pin, so no other estimate went stale.
    return n_upsized, n_buffers


# -- synthesis sizing (repro.synth.synthesis.Synthesizer) --------------------

LOAD_RATIO_LIMIT = 10.0


def upsize_overloaded(synthesizer, module: Module,
                      report: TimingReport) -> int:
    """Upsize drivers whose load/drive ratio is out of range."""
    changes = 0
    for inst in module.instances:
        cell = synthesizer.library.cell(inst.cell_name)
        for pin_name, net_idx in inst.pin_nets.items():
            if cell.pin(pin_name).direction.value != "output":
                continue
            load = report.load_ff.get(net_idx)
            if load is None:
                continue
            drive_cap = max(cell.max_input_cap_ff(), 0.05)
            if load > LOAD_RATIO_LIMIT * drive_cap:
                bigger = synthesizer.library.size_up(cell)
                if bigger is not None:
                    module.resize_instance(inst, bigger.name)
                    changes += 1
                    cell = bigger
    return changes
