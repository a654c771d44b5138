"""Combinational levelization of a gate-level netlist.

Produces a topological order of combinational instances: sequential cell
outputs and primary inputs are timing start points, sequential data pins
and primary outputs are endpoints.  Raises on combinational loops.
"""

from __future__ import annotations

from collections import deque
from typing import List, Set, Tuple

import numpy as np

from repro.errors import TimingError
from repro.circuits.netlist import Module, NO_DRIVER, PIN_DRIVER, PO_SINK
from repro.kernels.arrays import as_index, ranges
from repro.obs.trace import counter


def levelize(module: Module, library) -> List[int]:
    """Topological order (instance indices) of combinational cells.

    Sequential cells are excluded: their Q pins act as sources with known
    availability, their D pins as sinks.
    """
    counter("sta.levelization_passes").inc()
    is_seq = [library.cell(inst.cell_name).is_sequential
              for inst in module.instances]
    # In-degree = number of input nets driven by combinational cells.
    indegree = [0] * len(module.instances)
    ready = deque()
    net_ready: Set[int] = set()
    for net in module.nets:
        if net.is_clock:
            net_ready.add(net.index)
            continue
        drv = net.driver
        if drv is None:
            raise TimingError(f"net {net.name!r} has no driver")
        if drv[0] == PIN_DRIVER or (drv[0] >= 0 and is_seq[drv[0]]):
            net_ready.add(net.index)

    comb_count = 0
    for inst in module.instances:
        if is_seq[inst.index]:
            continue
        comb_count += 1
        cell = library.cell(inst.cell_name)
        pending = 0
        for pin_name, net_idx in inst.pin_nets.items():
            pin = cell.pin(pin_name)
            if pin.direction.value != "input":
                continue
            if net_idx not in net_ready:
                pending += 1
        indegree[inst.index] = pending
        if pending == 0:
            ready.append(inst.index)

    order: List[int] = []
    produced: Set[int] = set(net_ready)
    while ready:
        idx = ready.popleft()
        order.append(idx)
        inst = module.instances[idx]
        cell = library.cell(inst.cell_name)
        for pin_name, net_idx in inst.pin_nets.items():
            if cell.pin(pin_name).direction.value != "output":
                continue
            if net_idx in produced:
                continue
            produced.add(net_idx)
            for sink_idx, _sink_pin in module.nets[net_idx].sinks:
                if sink_idx < 0 or is_seq[sink_idx]:
                    continue
                indegree[sink_idx] -= 1
                if indegree[sink_idx] == 0:
                    ready.append(sink_idx)
    if len(order) != comb_count:
        stuck = [module.instances[i].name
                 for i in range(len(module.instances))
                 if not is_seq[i] and indegree[i] > 0][:5]
        raise TimingError(
            f"combinational loop detected; unresolved instances include "
            f"{stuck}")
    return order


def _gather_ragged(offsets: np.ndarray, flat: np.ndarray,
                   ids: np.ndarray) -> np.ndarray:
    """Concatenate the CSR-style segments ``offsets[id]:offsets[id+1]``."""
    counts = offsets[ids + 1] - offsets[ids]
    if int(counts.sum()) == 0:
        return np.zeros(0, dtype=flat.dtype)
    starts = np.repeat(offsets[ids], counts)
    return flat[starts + ranges(counts)]


class CombGraph:
    """Flat-array view of one module's timing graph.

    Built with array operations from the module's pin-table snapshot
    (:meth:`Module.connectivity`) and a table of pin facts by (cell id,
    pin-name id) from the library's interned per-cell metadata
    (:meth:`CellLibrary.timing_meta`): instance -> input/output net CSR
    maps in ``pin_nets`` order, net -> combinational-sink CSR,
    start-point readiness, and initial in-degrees for :meth:`levels`
    (the level-synchronous Kahn walk), plus what the vectorized STA
    engine reads on every run of the same topology: the start points
    (primary inputs, sequential outputs), the endpoints (sequential data
    pins, then primary outputs, in the reference engine's order), and
    every sink pin that loads a net, in net then sink order, by
    module-level pin-name id (``pin_names``; -1 for a primary output).
    Only connectivity is captured; cell names are re-read per run, so
    the graph stays valid across resizes that keep the pin footprint.
    """

    def __init__(self, module: Module, library) -> None:
        conn = module.connectivity()
        n_inst = conn.n_inst
        n_nets = conn.n_nets
        self.module = module
        self.n_inst = n_inst
        self.n_nets = n_nets
        self.pin_names = conn.pin_names

        # Pin facts by (cell id, pin-name id).
        cell_names = [inst.cell_name for inst in module.instances]
        cid_of = {name: k for k, name in enumerate(dict.fromkeys(cell_names))}
        cids = np.fromiter(map(cid_of.__getitem__, cell_names),
                           dtype=np.intp, count=n_inst)
        pin_ids = {name: k for k, name in enumerate(conn.pin_names)}
        shape = (len(cid_of), max(len(pin_ids), 1))
        seq_cell = np.zeros(shape[0], dtype=bool)
        is_in = np.zeros(shape, dtype=bool)
        is_out = np.zeros(shape, dtype=bool)
        is_data = np.zeros(shape, dtype=bool)
        for cid, name in enumerate(cid_of):
            meta = library.timing_meta(name)
            seq_cell[cid] = meta.is_sequential
            for pins, table in ((meta.input_pins, is_in),
                                (meta.output_pins, is_out)):
                table[cid, [pin_ids[p] for p in pins if p in pin_ids]] = True
            if meta.is_sequential:
                is_data[cid, [pin_ids[p.name]
                              for p in library.cell(name).input_pins()
                              if p.name in pin_ids]] = True
        is_seq = seq_cell[cids]
        self.is_seq = is_seq
        self.comb = ~is_seq

        # Nets: readiness, combinational sinks (the Kahn successors) and
        # load-bearing sink pins.
        drv = conn.driver_inst
        undriven = np.flatnonzero((drv == NO_DRIVER) & ~conn.is_clock)
        if undriven.size:
            name = module.nets[int(undriven[0])].name
            raise TimingError(f"net {name!r} has no driver")
        seq_driven = drv >= 0
        seq_driven[seq_driven] = is_seq[drv[seq_driven]]
        self.net_ready = conn.is_clock | (drv == PIN_DRIVER) | seq_driven
        sink_inst = conn.sink_inst
        comb_sink = sink_inst >= 0
        comb_sink[comb_sink] = ~is_seq[sink_inst[comb_sink]]
        self.sink_arr = sink_inst[comb_sink]
        self.sink_off = np.concatenate(([0], np.cumsum(np.bincount(
            conn.sink_net[comb_sink], minlength=n_nets))))
        self.load_net = conn.sink_net
        self.load_inst = sink_inst
        self.load_pin = np.where(sink_inst >= 0, conn.sink_pin, -1)

        # Instances: CSR pin maps, sequential outputs and data pins.
        owner = conn.pin_owner
        pcid = cids[owner]
        pid = conn.pin_id
        pin_net = conn.pin_net
        seq_pin = is_seq[owner]
        pin_in = is_in[pcid, pid]
        pin_out = is_out[pcid, pid]
        comb_in = ~seq_pin & pin_in
        comb_out = ~seq_pin & ~pin_in & pin_out
        seq_out = seq_pin & pin_out
        seq_data = seq_pin & ~pin_out & is_data[pcid, pid]
        self.comb_count = int(n_inst - np.count_nonzero(is_seq))
        self.in_counts = np.bincount(owner[comb_in], minlength=n_inst)
        self.in_arr = pin_net[comb_in]
        self.in_off = np.concatenate(([0], np.cumsum(self.in_counts)))
        self.out_counts = np.bincount(owner[comb_out], minlength=n_inst)
        self.out_arr = pin_net[comb_out]
        self.out_off = np.concatenate(([0], np.cumsum(self.out_counts)))
        self.seq_out_inst = owner[seq_out]
        self.seq_out_nets = pin_net[seq_out]

        # Endpoints: sequential data pins, then primary outputs.
        self.endpoint_inst = owner[seq_data]
        self.n_seq_endpoints = int(self.endpoint_inst.size)
        names = conn.pin_names
        endpoints: List[Tuple[int, str]] = [
            (i, names[p]) for i, p in zip(self.endpoint_inst.tolist(),
                                          pid[seq_data].tolist())]
        pos = as_index(module.primary_outputs)
        endpoints.extend((PO_SINK, module.nets[k].name)
                         for k in pos.tolist())
        self.endpoints = endpoints
        self.endpoint_nets = np.concatenate((pin_net[seq_data], pos))
        pis = as_index(module.primary_inputs)
        self.pi_nets = pis[~conn.is_clock[pis]]

        # Initial in-degree: input nets not sourced by a start point.
        if self.in_arr.size:
            inst_of_in = np.repeat(
                np.arange(n_inst, dtype=np.intp), self.in_counts)
            pending = inst_of_in[~self.net_ready[self.in_arr]]
            self.indegree0 = np.bincount(
                pending, minlength=n_inst).astype(np.intp)
        else:
            self.indegree0 = np.zeros(n_inst, dtype=np.intp)

    def levels(self) -> List[np.ndarray]:
        """Instances grouped by topological depth (see module doc).

        Each level lists its instances in the order :func:`levelize`
        visits them, so the concatenated levels are exactly its order:
        its FIFO queue takes level 0 by index and every later instance
        at the in-degree decrement that zeroes it, in (instance, output
        pin, sink) order.
        """
        counter("sta.levelization_passes").inc()
        indegree = self.indegree0.copy()
        produced = self.net_ready.copy()
        levels: List[np.ndarray] = []
        done_count = 0
        frontier = np.flatnonzero(self.comb & (indegree == 0))
        empty = np.zeros(0, dtype=np.intp)
        while frontier.size:
            levels.append(frontier)
            done_count += int(frontier.size)
            # Each net has exactly one driver, so the frontier's driven
            # nets are already duplicate-free; only the ready-seeded
            # ones need filtering.  The next frontier is exactly the
            # sinks whose in-degree just hit zero — touching only them
            # keeps a level's cost proportional to its fan-out, not to
            # the whole netlist.
            nets = _gather_ragged(self.out_off, self.out_arr, frontier)
            frontier = empty
            if nets.size:
                nets = nets[~produced[nets]]
                produced[nets] = True
                sinks = _gather_ragged(self.sink_off, self.sink_arr, nets)
                if sinks.size:
                    np.subtract.at(indegree, sinks, 1)
                    # Each sink's last decrement, counted from the end.
                    touched, from_end = np.unique(sinks[::-1],
                                                  return_index=True)
                    ready = indegree[touched] == 0
                    frontier = touched[ready][np.argsort(-from_end[ready])]
        if done_count != self.comb_count:
            module = self.module
            stuck = [module.instances[i].name
                     for i in range(len(module.instances))
                     if self.comb[i] and indegree[i] > 0][:5]
            raise TimingError(
                f"combinational loop detected; unresolved instances "
                f"include {stuck}")
        return levels


def levelize_levels(module: Module, library) -> List[np.ndarray]:
    """Level-synchronous :func:`levelize`: instances grouped by depth.

    Same graph, start points, and loop diagnostics as :func:`levelize`,
    but the Kahn frontier advances one whole level per round so the
    level-batched STA can propagate each level as one batch.  The
    concatenation of the returned levels is :func:`levelize`'s order.
    """
    return CombGraph(module, library).levels()
