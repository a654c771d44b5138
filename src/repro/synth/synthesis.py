"""WLM-driven synthesis: the Design Compiler substitute.

The benchmark generators emit technology-mapped netlists at X1 strength;
synthesis then does what the paper uses DC for:

1. buffer high-fanout nets (buffer trees),
2. size gates against WLM-estimated loads to meet the target clock,
3. report the Table 12 statistics.

Because the T-MI WLM predicts shorter wires, the synthesized 2D and T-MI
netlists differ (fewer/weaker buffers for T-MI), as Section 3.4 notes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import SynthesisError
from repro.cells.library import instance_cells
from repro.circuits.netlist import Module, Net, PO_SINK
from repro.circuits.stats import NetlistStats, compute_stats
from repro.kernels.arrays import as_index
from repro.obs.trace import kernel
from repro.synth.wlm import WireLoadModel
from repro.timing.netmodel import WLMNetModel
from repro.timing.sta import TimingAnalyzer, TimingReport

# Nets with more sinks than this get a buffer tree.
MAX_FANOUT = 10
# Sinks per buffer leaf in a fanout tree.
TREE_GROUP = 8
# Sizing loop limits.
MAX_SIZING_PASSES = 12
# Upsize a cell when its load exceeds this multiple of its input cap.
LOAD_RATIO_LIMIT = 10.0
# Clock tightness presets: multiple of the post-synthesis critical path.
CLOCK_TIGHTNESS = {"fast": 1.00, "medium": 1.12, "slow": 1.40}


@dataclass
class SynthesisResult:
    """Synthesized netlist plus reporting."""

    module: Module
    clock_ns: float
    stats: NetlistStats
    wns_ps: float
    n_buffers_added: int
    sizing_passes: int

    @property
    def met(self) -> bool:
        return self.wns_ps >= 0.0


class Synthesizer:
    """Sizes and buffers a mapped netlist to a target clock under a WLM."""

    def __init__(self, library, wlm: WireLoadModel,
                 target_clock_ns: Optional[float] = None,
                 tightness: str = "medium") -> None:
        if tightness not in CLOCK_TIGHTNESS:
            raise SynthesisError(
                f"unknown tightness {tightness!r}; "
                f"use one of {sorted(CLOCK_TIGHTNESS)}")
        self.library = library
        self.wlm = wlm
        self.target_clock_ns = target_clock_ns
        self.tightness = tightness

    # -- fanout buffering --------------------------------------------------------

    def _buffer_high_fanout(self, module: Module) -> int:
        """Insert buffer trees on nets over the fanout limit."""
        added = 0
        buffer_cell = "BUF_X4"
        # Iterate over a snapshot: insert_buffer adds nets as we go.
        for net_idx in range(len(module.nets)):
            net = module.nets[net_idx]
            if net.is_clock or net.fanout <= MAX_FANOUT:
                continue
            while net.fanout > MAX_FANOUT:
                group = [s for s in net.sinks
                         if s[0] != PO_SINK][:TREE_GROUP]
                if not group:
                    break
                module.insert_buffer(net_idx, buffer_cell, group)
                added += 1
        return added

    # -- sizing --------------------------------------------------------------------

    def _upsize_overloaded(self, module: Module,
                           report: TimingReport) -> int:
        """Upsize drivers whose load/drive ratio is out of range.

        An array check over every instance output picks the instances
        with some output load over the limit of their current cell; the
        scalar body runs on those alone.  Loads come from the report, so
        no resize changes another instance's check, and an upsized
        instance's later outputs still compare against its new cell.
        """
        changes = 0
        for inst_idx in self._overloaded(module, report):
            inst = module.instances[inst_idx]
            cell = self.library.cell(inst.cell_name)
            for pin_name, net_idx in inst.pin_nets.items():
                if cell.pin(pin_name).direction.value != "output":
                    continue
                load = report.load_ff.get(net_idx)
                if load is None:
                    continue
                drive_cap = max(cell.max_input_cap_ff(), 0.05)
                if load > LOAD_RATIO_LIMIT * drive_cap:
                    bigger = self.library.size_up(cell)
                    if bigger is not None:
                        module.resize_instance(inst, bigger.name)
                        changes += 1
                        cell = bigger
        return changes

    def _overloaded(self, module: Module, report: TimingReport
                    ) -> List[int]:
        """Instances with an output load over their cell's limit, in
        index order (a missing load, like a NaN one, is not over)."""
        conn = module.connectivity()
        cid, cells = instance_cells(self.library, module.instances)
        limit = np.array([LOAD_RATIO_LIMIT * max(cell.max_input_cap_ff(),
                                                 0.05) for cell in cells])
        # Pin direction by (cell, pin name): 1 output, 0 other, -1 absent.
        direction = np.array(
            [[(cell.pins[p].direction.value == "output")
              if p in cell.pins else -1 for p in conn.pin_names]
             for cell in cells], dtype=np.int8
        ).reshape(len(cells), len(conn.pin_names))
        load = np.full(conn.n_nets, np.nan)
        load[as_index(list(report.load_ff))] = list(report.load_ff.values())
        owner = cid[conn.pin_owner]
        pin_dir = direction[owner, conn.pin_id]
        absent = np.flatnonzero(pin_dir < 0)
        if absent.size:
            k = int(absent[0])
            cells[owner[k]].pin(conn.pin_names[conn.pin_id[k]])
        over = (pin_dir > 0) & (load[conn.pin_net] > limit[owner])
        return np.unique(conn.pin_owner[over]).tolist()

    # -- main -----------------------------------------------------------------------

    def run(self, module: Module) -> SynthesisResult:
        n_buffers = self._buffer_high_fanout(module)
        net_model = WLMNetModel(self.wlm)

        # Initial clock guess for load-based sizing (the WNS value of the
        # first pass is only used relatively).
        clock_ns = self.target_clock_ns or 10.0
        passes = 0
        report = None
        # One analyzer for the sizing passes and the auto-clock
        # measurement: same module, net model and clock, so its timing
        # graph carries over between runs.
        analyzer = TimingAnalyzer(module, self.library, net_model, clock_ns)
        for passes in range(1, MAX_SIZING_PASSES + 1):
            report = analyzer.run()
            with kernel("synth.upsize"):
                changed = self._upsize_overloaded(module, report)
            if changed == 0:
                break

        if self.target_clock_ns is None:
            # Auto clock: tightness multiple of the critical path.
            critical_ps = analyzer.max_arrival_ps()
            clock_ns = (critical_ps / 1000.0
                        * CLOCK_TIGHTNESS[self.tightness])
            # Round up to a tidy 10 ps grid for reporting.
            clock_ns = math.ceil(clock_ns * 100.0) / 100.0

        analyzer = TimingAnalyzer(module, self.library, net_model, clock_ns)
        report = analyzer.run()
        stats = compute_stats(module, self.library)
        return SynthesisResult(
            module=module,
            clock_ns=clock_ns,
            stats=stats,
            wns_ps=report.wns_ps,
            n_buffers_added=n_buffers,
            sizing_passes=passes,
        )
