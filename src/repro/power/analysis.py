"""Power analysis: total / cell / net / leakage breakdown.

Follows the paper's reporting decomposition exactly:

* **net power** — switching of net capacitance, split into *wire* (routed
  metal) and *pin* (cell input caps) components (Table 16):
  ``P = 0.5 * density * C * V^2 / T`` per net;
* **cell power** — internal (within cell boundary) energy per output
  transition from the Liberty tables, times the output density; for
  sequential cells an added per-cycle clocking component (the master/slave
  clock inverters burn energy every cycle regardless of data activity);
* **leakage** — per-cell static power from the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.errors import PowerError
from repro.cells.library import instance_cells, pin_caps
from repro.circuits.netlist import Module
from repro.kernels.arrays import sequential_sum
from repro.power.activity import propagate_activity
from repro.timing.graph import CombGraph
from repro.timing.netmodel import NetModel

# Per-cycle internal clocking energy of a sequential cell, as a fraction of
# its characterized per-transition internal energy (two clock edges drive
# the master/slave transmission gates even when Q is quiet).
SEQ_CLOCK_ENERGY_FRACTION = 0.30
# Nominal slew for internal-energy lookups, ps (mid-table).
NOMINAL_SLEW_PS = 40.0


@dataclass
class PowerReport:
    """Full-chip power, mW, in the paper's decomposition."""

    total_mw: float
    cell_mw: float
    net_mw: float
    leakage_mw: float
    net_wire_mw: float
    net_pin_mw: float
    wire_cap_pf: float
    pin_cap_pf: float
    clock_mw: float

    def row(self) -> Dict[str, float]:
        return {
            "total power (mW)": self.total_mw,
            "cell power (mW)": self.cell_mw,
            "net power (mW)": self.net_mw,
            "leakage (mW)": self.leakage_mw,
        }


def _total(values: np.ndarray) -> float:
    return float(sequential_sum(values))


def analyze_power(module: Module, library, net_model: NetModel,
                  clock_ns: float,
                  pi_activity: float = 0.2,
                  seq_activity: float = 0.1) -> PowerReport:
    """Statistical power analysis of a placed/routed module.

    Array form of the per-net and per-instance sums: every total adds
    its terms sequentially in net or instance order, so the report is
    bit-identical to accumulating them one at a time.
    """
    if clock_ns <= 0.0:
        raise PowerError("clock period must be positive")
    graph = CombGraph(module, library)
    density = propagate_activity(module, library,
                                 pi_activity=pi_activity,
                                 seq_activity=seq_activity,
                                 graph=graph).density
    vdd = library.node.vdd
    v2 = vdd * vdd
    n_nets = graph.n_nets

    cid, cells = instance_cells(library, module.instances)

    # -- net switching power -------------------------------------------------
    # Sink pin caps in net-then-sink order; ``bincount`` adds each net's
    # sequentially from 0.0, like a per-net loop.
    _r, c_wire = net_model.net_rc_bulk(module.nets, n_nets)
    sinks = graph.load_inst >= 0
    sink_inst = graph.load_inst[sinks]
    sink_pin = graph.load_pin[sinks]
    caps = pin_caps(cells, cid[sink_inst], sink_pin, graph.pin_names)
    c_pins = np.bincount(graph.load_net[sinks], weights=caps,
                         minlength=n_nets)
    wire_cap_total = _total(c_wire)
    pin_cap_total = _total(c_pins)
    active = density > 0.0
    d_active = density[active]
    e_wire = 0.5 * d_active * c_wire[active] * v2
    e_pin = 0.5 * d_active * c_pins[active] * v2
    net_wire_fj = _total(e_wire)
    net_pin_fj = _total(e_pin)
    is_clock = np.array([net.is_clock for net in module.nets], dtype=bool)
    clock_net_fj = (e_wire + e_pin)[is_clock[active]]

    # -- cell internal power ----------------------------------------------------
    # (``leakage_mw`` raises for an uncharacterized cell.)
    leakage_mw = _total(
        np.array([cell.leakage_mw for cell in cells])[cid])
    # Each instance's first output pin in pin order drives its load.
    out_net = np.full(graph.n_inst, -1, dtype=np.intp)
    has_out = graph.out_counts > 0
    out_net[has_out] = graph.out_arr[graph.out_off[:-1][has_out]]
    seq_inst, first = np.unique(graph.seq_out_inst, return_index=True)
    out_net[seq_inst] = graph.seq_out_nets[first]
    driving = np.flatnonzero(out_net >= 0)
    nets = out_net[driving]
    load = c_wire[nets] + c_pins[nets]
    e_per_transition = np.empty(driving.size)
    kind = cid[driving]
    for c, cell in enumerate(cells):
        rows = np.flatnonzero(kind == c)
        if rows.size:
            table = cell.characterization.worst_arc().internal_energy
            e_per_transition[rows] = table.lookup_batch(
                np.full(rows.size, NOMINAL_SLEW_PS), load[rows])
    e = e_per_transition * density[nets]
    seq = np.array([cell.is_sequential for cell in cells], dtype=bool)[kind]
    e[seq] = e[seq] + e_per_transition[seq] * SEQ_CLOCK_ENERGY_FRACTION
    clkbuf = np.array([cell.cell_type == "CLKBUF" for cell in cells],
                      dtype=bool)[kind]
    cell_fj = _total(e)
    clock_fj = _total(np.concatenate((clock_net_fj, e[clkbuf])))

    # fJ per cycle / ns -> uW; convert to mW.
    to_mw = 1.0e-3 / clock_ns
    net_wire_mw = net_wire_fj * to_mw
    net_pin_mw = net_pin_fj * to_mw
    cell_mw = cell_fj * to_mw
    net_mw = net_wire_mw + net_pin_mw
    return PowerReport(
        total_mw=cell_mw + net_mw + leakage_mw,
        cell_mw=cell_mw,
        net_mw=net_mw,
        leakage_mw=leakage_mw,
        net_wire_mw=net_wire_mw,
        net_pin_mw=net_pin_mw,
        wire_cap_pf=wire_cap_total / 1000.0,
        pin_cap_pf=pin_cap_total / 1000.0,
        clock_mw=clock_fj * to_mw,
    )
