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
from repro.timing.netmodel import NetModel
from repro.timing.sta_numpy import run_numpy

LN2 = math.log(2.0)

# Default boundary conditions.
DEFAULT_INPUT_SLEW_PS = 20.0
DEFAULT_CLOCK_SLEW_PS = 30.0
DEFAULT_OUTPUT_LOAD_FF = 2.0


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

    def max_arrival_ps(self, report: Optional[TimingReport] = None) -> float:
        """Longest endpoint arrival (critical path delay), ps."""
        report = report or self.run()
        worst = 0.0
        for slack in report.endpoint_slack_ps.values():
            worst = max(worst, report.clock_ps - slack)
        return worst
