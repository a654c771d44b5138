"""The STA engine: arrival/slew propagation, slack, WNS/TNS.

Delay model per stage:

* cell delay and output slew from the cell's NLDM tables, indexed by the
  input slew at the cell and the total load on the output net (wire cap
  plus sink pin caps);
* wire delay as a lumped Elmore term ``ln2 * R_net * (C_net / 2 + C_pins)``
  added to every sink's arrival, with slew degradation
  ``slew' = sqrt(slew^2 + (2.2 R C)^2)``.

Endpoints are sequential D pins (checked against clock - setup) and
primary outputs (checked against the clock period).  The clock is ideal
(zero skew); clock-tree power is handled separately by CTS + power
analysis, matching the paper's scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import TimingError
from repro.circuits.netlist import Module, Net, PO_SINK
from repro.timing.graph import levelize
from repro.timing.netmodel import NetModel
from repro.timing.sta_numpy import run_numpy

LN2 = math.log(2.0)

# Default boundary conditions.
DEFAULT_INPUT_SLEW_PS = 20.0
DEFAULT_CLOCK_SLEW_PS = 30.0
DEFAULT_OUTPUT_LOAD_FF = 2.0
# Hold requirement as a fraction of the setup time (typical library ratio).
HOLD_FRACTION_OF_SETUP = 0.3


@dataclass
class TimingReport:
    """Result of one STA run."""

    clock_ps: float
    arrival_ps: Dict[int, float]          # net index -> arrival at sinks
    slew_ps: Dict[int, float]             # net index -> slew at sinks
    endpoint_slack_ps: Dict[Tuple[int, str], float]
    wns_ps: float
    tns_ps: float
    critical_endpoint: Optional[Tuple[int, str]]
    load_ff: Dict[int, float] = field(default_factory=dict)

    @property
    def met(self) -> bool:
        return self.wns_ps >= 0.0


class TimingAnalyzer:
    """Reusable STA over a module + library + net model.

    The analyzer keeps its timing graph and per-cell lookup tables
    between runs (see :mod:`repro.timing.sta_numpy`), so one analyzer
    per optimization loop re-times each edit batch without rebuilding
    what the batch left unchanged.
    """

    def __init__(self, module: Module, library, net_model: NetModel,
                 clock_ns: float,
                 input_slew_ps: float = DEFAULT_INPUT_SLEW_PS,
                 output_load_ff: float = DEFAULT_OUTPUT_LOAD_FF) -> None:
        if clock_ns <= 0.0:
            raise TimingError("clock period must be positive")
        self.module = module
        self.library = library
        self.net_model = net_model
        self.clock_ps = clock_ns * 1000.0
        self.input_slew_ps = input_slew_ps
        self.output_load_ff = output_load_ff
        self._incremental = None      # sta_numpy's state between runs

    # -- helpers ---------------------------------------------------------------

    def _sink_pin_cap_ff(self, net: Net) -> float:
        total = 0.0
        for inst_idx, pin in net.sinks:
            if inst_idx == PO_SINK:
                total += self.output_load_ff
                continue
            if inst_idx < 0:
                continue
            cell = self.library.cell(self.module.instances[inst_idx].cell_name)
            total += cell.pin_cap_ff(pin)
        return total

    def net_load_ff(self, net: Net) -> float:
        """Total load the driver sees: wire cap + sink pin caps."""
        _r, c_wire = self.net_model.net_rc(net)
        return c_wire + self._sink_pin_cap_ff(net)

    # -- main ---------------------------------------------------------------

    def run(self) -> TimingReport:
        """Level-batched setup STA (:mod:`repro.timing.sta_numpy`)."""
        return run_numpy(self)

    def run_min(self) -> Dict[Tuple[int, str], float]:
        """Hold-check slacks: min-path arrival minus hold requirement.

        Ideal clock (zero skew) as in the paper's flow, so the check is
        ``min_arrival >= hold`` at every sequential D pin, with the hold
        requirement taken as a fraction of the cell's setup time (the
        usual library ratio).  Returns endpoint -> hold slack (ps).
        """
        module = self.module
        library = self.library
        order = levelize(module, library)
        is_seq = [library.cell(i.cell_name).is_sequential
                  for i in module.instances]
        arrival: Dict[int, float] = {}

        for net_idx in module.primary_inputs:
            if module.nets[net_idx].is_clock:
                continue
            arrival[net_idx] = 0.0
        for inst in module.instances:
            if not is_seq[inst.index]:
                continue
            cell = library.cell(inst.cell_name)
            for pin_name, net_idx in inst.pin_nets.items():
                if cell.pin(pin_name).direction.value != "output":
                    continue
                net = module.nets[net_idx]
                load = self.net_load_ff(net)
                d = cell.delay_ps(DEFAULT_CLOCK_SLEW_PS, load)
                prev = arrival.get(net_idx)
                if prev is None or d < prev:
                    arrival[net_idx] = d

        for inst_idx in order:
            inst = module.instances[inst_idx]
            cell = library.cell(inst.cell_name)
            in_arrival = float("inf")
            for pin_name, net_idx in inst.pin_nets.items():
                if cell.pin(pin_name).direction.value != "input":
                    continue
                in_arrival = min(in_arrival,
                                 arrival.get(net_idx, 0.0))
            if in_arrival == float("inf"):
                in_arrival = 0.0
            for pin_name, net_idx in inst.pin_nets.items():
                if cell.pin(pin_name).direction.value != "output":
                    continue
                net = module.nets[net_idx]
                load = self.net_load_ff(net)
                d = cell.delay_ps(self.input_slew_ps, load)
                a = in_arrival + d
                prev = arrival.get(net_idx)
                if prev is None or a < prev:
                    arrival[net_idx] = a

        hold_slack: Dict[Tuple[int, str], float] = {}
        for inst in module.instances:
            if not is_seq[inst.index]:
                continue
            cell = library.cell(inst.cell_name)
            setup = (cell.characterization.setup_time_ps
                     if cell.characterization else 0.0)
            hold_req = HOLD_FRACTION_OF_SETUP * setup
            for pin_name, net_idx in inst.pin_nets.items():
                pin = cell.pin(pin_name)
                if pin.direction.value != "input" or pin.is_clock:
                    continue
                hold_slack[(inst.index, pin_name)] = \
                    arrival.get(net_idx, 0.0) - hold_req
        return hold_slack

    def worst_hold_slack_ps(self) -> float:
        """Smallest hold slack over all sequential endpoints."""
        slacks = self.run_min()
        return min(slacks.values()) if slacks else float("inf")

    def max_arrival_ps(self, report: Optional[TimingReport] = None) -> float:
        """Longest endpoint arrival (critical path delay), ps."""
        report = report or self.run()
        worst = 0.0
        for slack in report.endpoint_slack_ps.values():
            worst = max(worst, report.clock_ps - slack)
        return worst
