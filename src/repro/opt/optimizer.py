"""Pre-route / post-route optimization loop (Encounter IPO substitute).

Iterates STA -> fix until the target clock is met (iso-performance) or the
move budget is exhausted:

1. upsize cells along the critical path,
2. repeater-insert long nets on the critical path,
3. isolate far sinks of critical multi-fanout nets,

then runs a power-recovery pass (downsizing under a slack margin), which
is what converts T-MI's easier timing into lower *cell* power.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.netlist import Module
from repro.opt.buffering import (
    insert_repeaters,
    buffer_far_sinks,
    optimal_repeater_length_um,
)
from repro.opt.drv import fix_drv
from repro.opt.sizing import (
    trace_critical_path,
    upsize_critical,
    recover_power,
)
from repro.place.floorplan import Floorplan
from repro.timing.netmodel import PlacedNetModel
from repro.timing.sta import TimingAnalyzer, TimingReport

MAX_ITERATIONS = 40
RECOVERY_MARGIN_PS = 60.0


@dataclass
class OptimizationResult:
    """Outcome of an optimization run."""

    wns_ps: float
    iterations: int
    n_upsized: int
    n_buffers_added: int
    n_downsized: int
    report: TimingReport

    @property
    def met(self) -> bool:
        return self.wns_ps >= 0.0


class Optimizer:
    """Timing closure + power recovery over a placed design."""

    def __init__(self, library, interconnect, floorplan: Floorplan,
                 clock_ns: float,
                 max_iterations: int = MAX_ITERATIONS) -> None:
        self.library = library
        self.interconnect = interconnect
        self.floorplan = floorplan
        self.clock_ns = clock_ns
        self.max_iterations = max_iterations

    def run(self, module: Module, net_model: PlacedNetModel,
            recover: bool = True, fix_drvs: bool = True
            ) -> OptimizationResult:
        analyzer = TimingAnalyzer(module, self.library, net_model,
                                  self.clock_ns)
        opt_len = optimal_repeater_length_um(self.library,
                                             self.interconnect)
        n_upsized = 0
        n_buffers = 0
        if fix_drvs:
            drv_up, drv_buf = fix_drv(module, self.library, self.floorplan,
                                      net_model)
            n_upsized += drv_up
            n_buffers += drv_buf
        iterations = 0
        report = analyzer.run()
        for iterations in range(1, self.max_iterations + 1):
            if report.wns_ps >= 0.0:
                break
            changed = 0
            n_inst_before = len(module.instances)
            # 1. Sizing along the critical path.
            changed += upsize_critical(module, self.library, report)
            n_upsized += changed
            # 2. Buffering of critical-path nets.
            path = trace_critical_path(module, self.library, report)
            for inst_idx in path[:20]:
                inst = module.instances[inst_idx]
                cell = self.library.cell(inst.cell_name)
                for pin_name, net_idx in list(inst.pin_nets.items()):
                    if cell.pin(pin_name).direction.value != "output":
                        continue
                    net = module.nets[net_idx]
                    length = net_model.net_length_um(net)
                    added = insert_repeaters(module, self.library,
                                             self.floorplan, net, length,
                                             opt_len)
                    if added == 0 and net.fanout >= 3:
                        # The driver may already be maxed out (XOR2 tops
                        # out at X2): isolating the far sinks is the only
                        # remaining fix on a critical net, whatever its
                        # length.
                        load = analyzer.net_load_ff(net)
                        drive_cap = self.library.cell(
                            inst.cell_name).max_input_cap_ff()
                        if load > 4.0 * max(drive_cap, 0.1):
                            added = buffer_far_sinks(
                                module, self.library, self.floorplan, net)
                    n_buffers += added
                    changed += added
            if changed == 0:
                break
            # Only the buffered nets' pins moved (a resize moves none):
            # drop their wire estimates, now that the batch's reads of
            # the pre-batch estimates are done.
            for inst in module.instances[n_inst_before:]:
                for net_idx in inst.pin_nets.values():
                    net_model.invalidate(net_idx)
            report = analyzer.run()

        # Recovery and repair only resize cells: the wire estimates hold.
        n_downsized = 0
        if recover and report.wns_ps >= 0.0:
            for _pass in range(3):
                changed = recover_power(module, self.library, analyzer,
                                        report, RECOVERY_MARGIN_PS)
                if changed == 0:
                    break
                n_downsized += changed
                report = analyzer.run()
                if report.wns_ps < 0.0:
                    # Recovery overshot: repair with upsizing passes.
                    for _fix in range(4):
                        if upsize_critical(module, self.library,
                                           report) == 0:
                            break
                        report = analyzer.run()
                        if report.wns_ps >= 0.0:
                            break
                    break

        return OptimizationResult(
            wns_ps=report.wns_ps,
            iterations=iterations,
            n_upsized=n_upsized,
            n_buffers_added=n_buffers,
            n_downsized=n_downsized,
            report=report,
        )
