"""Combinational levelization of a gate-level netlist.

Produces a topological order of combinational instances: sequential cell
outputs and primary inputs are timing start points, sequential data pins
and primary outputs are endpoints.  Raises on combinational loops.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Set, Tuple

import numpy as np

from repro.errors import TimingError
from repro.circuits.netlist import Module, PIN_DRIVER, PO_SINK
from repro.kernels.arrays import as_index, ranges
from repro.obs import metrics as obs_metrics


def levelize(module: Module, library) -> List[int]:
    """Topological order (instance indices) of combinational cells.

    Sequential cells are excluded: their Q pins act as sources with known
    availability, their D pins as sinks.
    """
    obs_metrics.counter("sta.levelization_passes").inc()
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

    Built in a single netlist scan from the library's interned per-cell
    metadata (:meth:`CellLibrary.timing_meta`): instance -> input/output
    net CSR maps in pin-declaration order, net -> combinational-sink
    CSR, start-point readiness, and initial in-degrees for :meth:`levels`
    (the level-synchronous Kahn walk), plus what the vectorized STA
    engine reads on every run of the same topology: the start points
    (primary inputs, sequential outputs), the endpoints (sequential data
    pins, then primary outputs, in the reference engine's order), and
    every sink pin that loads a net, in net then sink order.  Only
    connectivity is captured; cell names are re-read per run, so the
    graph stays valid across resizes that keep the pin footprint.
    """

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

    def levels(self) -> List[np.ndarray]:
        """Instances grouped by topological depth (see module doc).

        Each level lists its instances in the order :func:`levelize`
        visits them, so the concatenated levels are exactly its order:
        its FIFO queue takes level 0 by index and every later instance
        at the in-degree decrement that zeroes it, in (instance, output
        pin, sink) order.
        """
        obs_metrics.counter("sta.levelization_passes").inc()
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
