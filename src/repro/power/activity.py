"""Switching-activity propagation.

The paper's statistical power analysis assigns activity factors to primary
inputs (0.2) and sequential-cell outputs (0.1) and propagates them through
the combinational network (Section 2, Supplement S10).  We implement the
standard signal-probability + transition-density propagation (Najm): for
each gate output, the density is the sum over inputs of the input density
weighted by the probability that the gate's boolean difference w.r.t. that
input is true.

Clock nets carry density 2.0 (two transitions per cycle).

The walk is level-batched: one :class:`~repro.timing.graph.CombGraph`
level at a time, one :meth:`~repro.cells.logic.TruthTable.propagate`
call per group of instances sharing a cell type and a ``pin_nets``
order.  It gives the same numbers, bit for bit, as visiting the cells
one at a time in :func:`~repro.timing.graph.levelize` order:

* an output's density is ``0.0 + bd * d_in`` summed over the instance's
  connected inputs in ``pin_nets`` order; a declared input the instance
  leaves unconnected reads probability 0.5 and adds no term, and an
  output without a function-table entry reuses the first output's;
* a net keeps its first value unless a later density is larger.

Level order alone is not enough.  ``levelize`` treats every clock net as
ready, so a cell may be visited before the clock buffer that drives its
input; it then reads the defaults (density 0.0, probability 0.5), and a
cell visited after the buffer reads the buffer's value.  Clock-tree
synthesis creates leaf buffers before their trunk buffers, which is why
the leaves of a multi-level tree read density 0.0 (a known defect, kept
so results stay comparable).  Instances of one level that read a net
written in that level are therefore split into *waves* that keep
``levelize``'s visiting order: each wave reads every input before it
writes any output.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cells import logic
from repro.circuits.netlist import Module
from repro.errors import PowerError, LibraryError
from repro.kernels.arrays import as_index
from repro.timing.graph import CombGraph

DEFAULT_PI_ACTIVITY = 0.2
DEFAULT_SEQ_ACTIVITY = 0.1
CLOCK_ACTIVITY = 2.0


@dataclass
class ActivityReport:
    """Per-net switching activity, indexed by net index.

    Nets nothing drives keep density 0.0 and probability 0.5.
    """

    density: np.ndarray       # toggles/cycle
    probability: np.ndarray   # P(net = 1)

    def net_density(self, net_idx: int) -> float:
        return float(self.density[net_idx])


class _Group:
    """Instances of one cell type wired in one ``pin_nets`` order.

    ``inputs`` holds each member's connected input nets in pin order plus
    a sentinel column (the unconnected-pin net); ``outputs`` its output
    nets in pin order.
    """

    def __init__(self, table: logic.TruthTable, pins: Tuple[str, ...],
                 meta, members: np.ndarray, graph: CombGraph) -> None:
        in_pins = [p for p in pins if p in meta.input_pins]
        out_pins = [p for p in pins if p in meta.output_pins]
        for pin in in_pins:
            if pin not in table.inputs:
                raise LibraryError(
                    f"{table.cell_type}: pin {pin!r} is not an input")
        self.table = table
        # Column of each declared input (the sentinel if unconnected),
        # the declared index of each connected input, and the function
        # output of each output pin.
        self.prob_cols = as_index(
            [in_pins.index(p) if p in in_pins else len(in_pins)
             for p in table.inputs])
        self.in_decl = [table.inputs.index(p) for p in in_pins]
        self.out_fn = [table.outputs.index(p) if p in table.outputs else 0
                       for p in out_pins]
        n_in = len(in_pins)
        cols = np.arange(n_in, dtype=np.intp)
        inputs = np.empty((members.size, n_in + 1), dtype=np.intp)
        inputs[:, :n_in] = graph.in_arr[graph.in_off[members][:, None]
                                        + cols]
        inputs[:, n_in] = graph.n_nets
        self.inputs = inputs
        cols = np.arange(len(out_pins), dtype=np.intp)
        self.outputs = graph.out_arr[graph.out_off[members][:, None] + cols]

    def evaluate(self, rows: np.ndarray, density: np.ndarray,
                 prob: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(nets, densities, probabilities) the members at ``rows`` write,
        one column per output pin."""
        inputs = self.inputs[rows]
        out_p, bd = self.table.propagate(prob[inputs[:, self.prob_cols]])
        d_in = density[inputs]
        dens = np.empty((rows.size, len(self.out_fn)))
        for col, fn in enumerate(self.out_fn):
            d = np.zeros(rows.size)
            for j, k in enumerate(self.in_decl):
                d = d + bd[:, fn, k] * d_in[:, j]
            dens[:, col] = d
        return self.outputs[rows], dens, out_p[:, self.out_fn]


def _groups(module: Module, library, graph: CombGraph
            ) -> Tuple[List[_Group], np.ndarray, np.ndarray]:
    """The batch groups, plus every instance's group (-1: sequential or
    no boolean function) and row within it."""
    key_ids: Dict[Tuple[str, Tuple[str, ...]], int] = {}
    kid = as_index([key_ids.setdefault((inst.cell_name, tuple(inst.pin_nets)),
                                       len(key_ids))
                    for inst in module.instances])
    group_of: Dict[Tuple[str, Tuple[str, ...]], int] = {}
    plans: List[Tuple[str, Tuple[str, ...], object]] = []
    gid_of_key = np.full(len(key_ids), -1, dtype=np.intp)
    for (name, pins), k in key_ids.items():
        meta = library.timing_meta(name)
        for pin in pins:
            if pin not in meta.input_pins and pin not in meta.output_pins:
                library.cell(name).pin(pin)     # raises: no such pin
        cell_type = library.cell(name).cell_type
        if meta.is_sequential or not logic.is_combinational(cell_type):
            continue
        key = (cell_type, pins)
        if key not in group_of:
            group_of[key] = len(plans)
            plans.append((cell_type, pins, meta))
        gid_of_key[k] = group_of[key]
    gid = gid_of_key[kid]
    row = np.zeros(gid.size, dtype=np.intp)
    groups: List[_Group] = []
    for g, (cell_type, pins, meta) in enumerate(plans):
        members = np.flatnonzero(gid == g)
        row[members] = np.arange(members.size)
        groups.append(_Group(logic.truth_table(cell_type), pins, meta,
                             members, graph))
    return groups, gid, row


def _schedule(graph: CombGraph, gid: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray]:
    """The instances to evaluate, in visiting order, and each one's step.

    Steps run in order: level by level, and within a level wave by wave
    (see module doc).  In ``levelize``'s visiting order, a reader of a
    net written by an earlier instance of its level runs one wave after
    that writer; a writer whose net an earlier instance of its level
    reads runs in that reader's wave or later.  Only clock nets give a
    level such edges, so nearly every level is a single wave.
    """
    levels = graph.levels()
    if not levels:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    n_inst = graph.n_inst
    order = np.concatenate(levels)
    level_of = np.full(n_inst, -1, dtype=np.intp)
    level_of[order] = np.repeat(np.arange(len(levels), dtype=np.intp),
                                [lvl.size for lvl in levels])
    writes = gid >= 0
    out_inst = np.repeat(np.arange(n_inst, dtype=np.intp), graph.out_counts)
    writer = np.full(graph.n_nets, -1, dtype=np.intp)
    writer[graph.out_arr[writes[out_inst]]] = out_inst[writes[out_inst]]
    reader = np.repeat(np.arange(n_inst, dtype=np.intp), graph.in_counts)
    src = writer[graph.in_arr]
    same = (src >= 0) & writes[reader] & (src != reader)
    same[same] = level_of[src[same]] == level_of[reader[same]]

    wave = np.zeros(n_inst, dtype=np.intp)
    if same.any():
        pos = np.zeros(n_inst, dtype=np.intp)
        pos[order] = np.arange(order.size, dtype=np.intp)
        at = pos.tolist()
        reads_from: Dict[int, List[int]] = defaultdict(list)
        read_by: Dict[int, List[int]] = defaultdict(list)
        for w, r in zip(src[same].tolist(), reader[same].tolist()):
            reads_from[r].append(w)
            read_by[w].append(r)
        waves: Dict[int, int] = {}
        for x in sorted(set(reads_from) | set(read_by), key=at.__getitem__):
            w = 0
            for y in reads_from.get(x, ()):
                if at[y] < at[x]:
                    w = max(w, waves[y] + 1)
            for y in read_by.get(x, ()):
                if at[y] < at[x]:
                    w = max(w, waves[y])
            waves[x] = w
        wave[list(waves)] = list(waves.values())
    step = level_of * (int(wave.max()) + 1) + wave
    todo = order[writes[order]]
    return todo, step[todo]


def _runs(items: np.ndarray, keys: np.ndarray):
    """``(key, items)`` for each run of equal consecutive ``keys``."""
    cut = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    first = np.concatenate(([0], cut)) if items.size else cut
    return zip(keys[first].tolist(), np.split(items, cut))


def propagate_activity(module: Module, library,
                       pi_activity: float = DEFAULT_PI_ACTIVITY,
                       seq_activity: float = DEFAULT_SEQ_ACTIVITY,
                       graph: Optional[CombGraph] = None
                       ) -> ActivityReport:
    """Propagate switching activity through the netlist.

    ``graph`` reuses a :class:`CombGraph` the caller already built for
    the module as it is now.
    """
    if pi_activity < 0.0 or seq_activity < 0.0:
        raise PowerError("activity factors must be non-negative")
    if graph is None:
        graph = CombGraph(module, library)
    n_nets = graph.n_nets
    # Slot n_nets is the net of every unconnected input pin: never
    # written, it keeps the defaults.
    density = np.zeros(n_nets + 1)
    prob = np.full(n_nets + 1, 0.5)
    assigned = np.zeros(n_nets + 1, dtype=bool)
    pis = as_index(module.primary_inputs)
    clock = np.array([module.nets[i].is_clock for i in pis.tolist()],
                     dtype=bool)
    density[pis] = np.where(clock, CLOCK_ACTIVITY, pi_activity)
    assigned[pis] = True
    density[graph.seq_out_nets] = seq_activity
    assigned[graph.seq_out_nets] = True

    groups, gid, row = _groups(module, library, graph)
    todo, step = _schedule(graph, gid)
    order = np.lexsort((gid[todo], step))
    todo, step = todo[order], step[order]
    for _step, insts in _runs(todo, step):
        # A step reads every input before it writes any output.
        writes = [groups[g].evaluate(row[batch], density, prob)
                  for g, batch in _runs(insts, gid[insts])]
        nets, dens, probs = (np.concatenate([w[i].ravel() for w in writes])
                             for i in range(3))
        take = ~assigned[nets] | (dens > density[nets])
        nets = nets[take]
        density[nets] = dens[take]
        prob[nets] = probs[take]
        assigned[nets] = True
    return ActivityReport(density=density[:n_nets],
                          probability=prob[:n_nets])
