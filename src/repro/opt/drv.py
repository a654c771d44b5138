"""Design-rule-violation (DRV) fixing: max-capacitance repair.

This is where most of a real flow's buffers come from — and the engine
behind the paper's buffer-count asymmetry (Table 13: LDPC 2D needs 13,374
buffers, T-MI only 6,868): a driver may only carry a bounded load, so a
net whose *wire* capacitance blows the budget gets split behind buffers,
and T-MI's ~25 % shorter wires push many nets back under the limit.

Strategy per violating net, mirroring Encounter's fixer:

1. upsize the driver while the load is pin-dominated (cheap, no new cell),
2. otherwise insert a buffer isolating the far sinks, halving the span.

The fixer runs a bounded number of passes: newly created buffer nets are
re-checked on the next pass, and buffers always move toward the farthest
sink so every generation strictly shrinks the span — guaranteeing
termination.

Each pass first checks every net's budget at once (:func:`_over_budget`)
and runs the scalar fix, in net order, only on the nets over it.  A fix
that upsizes a driver changes the pin caps of the nets its inputs sink
on and the budgets of its other outputs, so the pass reads those nets
again when it reaches them.  A buffer changes only the net it splits,
which the fix re-reads, and nets created in this pass, which the next
pass checks.  The result is the net-by-net scan's, edit for edit.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np

from repro.cells.library import instance_cells, pin_caps
from repro.circuits.netlist import Module, Net
from repro.obs.trace import kernel
from repro.opt.buffering import buffer_far_sinks, BUFFER_CELL
from repro.place.floorplan import Floorplan
from repro.place.legalize import place_instance_near
from repro.timing.netmodel import PlacedNetModel

# A driver may carry at most this multiple of its own worst input cap.
MAX_LOAD_RATIO = 12.0
# Fix attempts per net per pass.
MAX_FIX_ROUNDS = 3
# Snapshot passes: pass k fixes nets created during pass k-1.
MAX_PASSES = 4
# A net is wire-dominated when wire cap exceeds this fraction of the load.
WIRE_DOMINANCE = 0.5


def _net_load(module: Module, library, net_model: PlacedNetModel,
              net: Net) -> Tuple[float, float]:
    """(wire cap, pin cap) of a net, fF."""
    _r, c_wire = net_model.net_rc(net)
    c_pins = 0.0
    for inst_idx, pin in net.sinks:
        if inst_idx < 0:
            continue
        cell = library.cell(module.instances[inst_idx].cell_name)
        c_pins += cell.pin_cap_ff(pin)
    return c_wire, c_pins


def _farthest_sink_position(module: Module, floorplan: Floorplan,
                            net: Net, x0: float, y0: float):
    """Position of the sink farthest from (x0, y0), or None."""
    best = None
    best_d = -1.0
    for inst_idx, _pin in net.sinks:
        if inst_idx >= 0:
            inst = module.instances[inst_idx]
            pos = (inst.x_um, inst.y_um)
        else:
            pos = floorplan.io_positions.get(net.index)
            if pos is None:
                continue
        d = abs(pos[0] - x0) + abs(pos[1] - y0)
        if d > best_d:
            best_d = d
            best = pos
    return best


def _fix_one_net(module: Module, library, floorplan: Floorplan,
                 net_model: PlacedNetModel, net: Net) -> Tuple[int, int]:
    """Fix one net; returns (#upsized, #buffers)."""
    n_upsized = 0
    n_buffers = 0
    for _round in range(MAX_FIX_ROUNDS):
        if net.driver is None or net.driver[0] < 0:
            break
        driver_inst = module.instances[net.driver[0]]
        driver_cell = library.cell(driver_inst.cell_name)
        budget = MAX_LOAD_RATIO * max(driver_cell.max_input_cap_ff(), 0.1)
        c_wire, c_pins = _net_load(module, library, net_model, net)
        if c_wire + c_pins <= budget:
            break
        wire_dominated = c_wire > WIRE_DOMINANCE * (c_wire + c_pins)
        if not wire_dominated:
            bigger = library.size_up(driver_cell)
            if bigger is not None:
                module.resize_instance(driver_inst, bigger.name)
                n_upsized += 1
                continue
        added = 0
        if net.fanout >= 3:
            added = buffer_far_sinks(module, library, floorplan, net)
        if added == 0 and net.sinks:
            # Repeater toward the *farthest* sink: the child net's span
            # strictly shrinks, so the recursion across passes terminates.
            x0, y0 = driver_inst.x_um, driver_inst.y_um
            far = _farthest_sink_position(module, floorplan, net, x0, y0)
            if far is None:
                break
            buf = module.insert_buffer(net.index, BUFFER_CELL,
                                       list(net.sinks))
            place_instance_near(module, library, floorplan, buf,
                                (x0 + far[0]) / 2.0, (y0 + far[1]) / 2.0)
            added = 1
        if added == 0:
            break
        n_buffers += added
        net_model.invalidate(net.index)
    return n_upsized, n_buffers


def _fixable(net: Net) -> bool:
    """Whether the fixer may touch a net: not a clock net, and driven
    by an instance."""
    return not net.is_clock and net.driver is not None \
        and net.driver[0] >= 0


def _over_budget(module: Module, library, net_model: PlacedNetModel,
                 start: int, end: int) -> List[int]:
    """Nets in ``[start, end)`` that :func:`_fix_one_net` would act on.

    Array form of its first load check: wire caps from the net model's
    bulk estimate (bit-identical to ``net_rc``), sink pin caps from one
    ``bincount`` over the pin-table snapshot's sinks (in ``net.sinks``
    order, so each sum adds like :func:`_net_load`), and one budget per
    distinct cell.  Clock nets and nets without an instance driver are
    never fixed.
    """
    conn = module.connectivity()
    cid, cells = instance_cells(library, module.instances)
    budget = np.array([MAX_LOAD_RATIO * max(cell.max_input_cap_ff(), 0.1)
                       for cell in cells])

    _r, c_wire = net_model.net_rc_bulk(module.nets[start:end], end)
    lo, hi = conn.sink_off[start], conn.sink_off[end]
    real = conn.sink_inst[lo:hi] >= 0
    caps = pin_caps(cells, cid[conn.sink_inst[lo:hi][real]],
                    conn.sink_pin[lo:hi][real], conn.pin_names)
    c_pins = np.bincount(conn.sink_net[lo:hi][real] - start, weights=caps,
                         minlength=end - start)

    driver = conn.driver_inst[start:end]
    fixable = (driver >= 0) & ~conn.is_clock[start:end]
    load = c_wire[start:end] + c_pins
    over = np.zeros(end - start, dtype=bool)
    # ``<=`` negated, as the fix breaks on it (a NaN load is over).
    over[fixable] = ~(load[fixable] <= budget[cid[driver[fixable]]])
    return (np.flatnonzero(over) + start).tolist()


def fix_drv(module: Module, library, floorplan: Floorplan,
            net_model: PlacedNetModel) -> Tuple[int, int]:
    """Fix max-cap violations; returns (#upsized, #buffers inserted)."""
    n_upsized = 0
    n_buffers = 0
    start = 0
    for _pass in range(MAX_PASSES):
        end = len(module.nets)
        if start >= end:
            break
        pass_buffers = 0
        with kernel("opt.drv", nets=end - start):
            # A sorted list is a heap: pop the nets in order, and push
            # the later nets an upsize may have pushed over budget.
            pending = _over_budget(module, library, net_model, start, end)
            queued = set(pending)
            while pending:
                net = module.nets[heapq.heappop(pending)]
                up, buf = _fix_one_net(module, library, floorplan,
                                       net_model, net)
                n_upsized += up
                n_buffers += buf
                pass_buffers += buf
                if up:
                    driver = module.instances[net.driver[0]]
                    for net_idx in driver.pin_nets.values():
                        if net.index < net_idx < end \
                                and net_idx not in queued \
                                and _fixable(module.nets[net_idx]):
                            queued.add(net_idx)
                            heapq.heappush(pending, net_idx)
        # First pass covers the original netlist; later passes only the
        # nets created by the previous one.
        start = end
        if pass_buffers == 0:
            break
    # Every buffered net was invalidated as it was split; upsizing moves
    # no pin, so no other estimate went stale.
    return n_upsized, n_buffers
