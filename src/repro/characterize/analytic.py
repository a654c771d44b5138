"""Fast analytical (switch-level) cell characterization.

Populating full 66-cell libraries for every node / integration style with
transient simulation would dominate runtime, so the layout flow uses this
calibrated switch-level model instead (the paper itself derives its 7 nm
library analytically from the characterized 45 nm one, Section S3).  One
test checks it against the MNA solver (``test_analytic_matches_mna_for_inv``:
INV delay within ±45 % at three slew/load points); over 63 cells,
analytic ÷ MNA spans 0.75–5.41 for energy and 0.57–2.08 for delay.

Model per output arc::

    delay(slew, load) = t_internal
                        + LN2 * R_out * (C_out + load)
                        + k_slew_in * slew
    slew_out(slew, load) = k_slew_out * R_out * (C_out + load) + 0.1 * slew
    energy(slew, load) = 0.5 * k_sw * C_internal * VDD^2
                         + k_sc * strength * slew * VDD / 1.1

with

* ``R_out`` — the worse-polarity output-path resistance, computed from the
  devices touching the output and the series stack depth found by walking
  the transistor netlist to the rail;
* ``C_out`` — junction caps at the output plus the output net's extracted
  parasitic capacitance;
* ``t_internal`` — the sum over internal driven nets of an RC stage delay
  (driver resistance of the devices driving that net times the net's total
  loading), which captures multi-stage cells (BUF, MUX, XOR, DFF);
* ``C_internal`` — everything inside the cell boundary: extracted wiring
  caps, gate caps, junction caps.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional, Sequence

import numpy as np

from repro.errors import CharacterizationError
from repro.cells.netlist import CellNetlist, VDD_NET, VSS_NET
from repro.cells.transistor import device_params_for
from repro.extraction.rc import CellParasitics
from repro.characterize.liberty import (
    NLDMTable,
    TimingArc,
    CellCharacterization,
)
from repro.characterize.charlib import (
    DEFAULT_SLEWS_PS,
    DEFAULT_SEQ_SLEWS_PS,
    DEFAULT_LOADS_FF,
    SETUP_FRACTION_OF_CLK_Q,
    _leakage_mw,
    preferred_arc,
)
from repro.tech.node import TechNode, NODE_45NM

LN2 = math.log(2.0)

# Input-slew sensitivity of delay (combinational / sequential).
K_SLEW_IN = 0.22
K_SLEW_IN_SEQ = 0.10
# Output slew per unit RC.
K_SLEW_OUT = 1.9
# Fraction of internal capacitance that switches per output transition.
K_SWITCHING = {"default": 0.72, "DFF": 1.05, "SDFF": 1.05, "DFFR": 1.05,
               "DLH": 0.88}
# Activity weight of the extracted *wiring* capacitance relative to the
# device capacitance: only part of the internal wiring swings on a given
# transition (the paper's characterized 3D:2D internal-power ratios are
# far gentler than the raw Table 1 capacitance ratios for this reason).
K_WIRING_ACTIVITY = 0.50
# Short-circuit energy coefficient, fJ per ps of input slew per X1 at 1.1 V.
K_SHORT_CIRCUIT = 0.0006
# Stage-delay multiplier for internal nets (tgate nets are slower).
K_INTERNAL_STAGE = 0.9


def _stack_depth(netlist: CellNetlist, start_net: str, to_rail: str,
                 is_pmos: bool) -> int:
    """Min number of series devices from a net to a rail (BFS)."""
    frontier = deque([(start_net, 0)])
    seen = {start_net}
    while frontier:
        net, depth = frontier.popleft()
        for dev in netlist.devices:
            if dev.is_pmos != is_pmos:
                continue
            if net == dev.drain:
                other = dev.source
            elif net == dev.source:
                other = dev.drain
            else:
                continue
            if other == to_rail:
                return depth + 1
            if other not in seen and other not in (VDD_NET, VSS_NET):
                seen.add(other)
                frontier.append((other, depth + 1))
    return 0


def _output_resistance_kohm(netlist: CellNetlist, out_pin: str,
                            node: TechNode) -> float:
    """Worse-polarity output-path effective resistance."""
    resistances = []
    for is_pmos, rail in ((True, VDD_NET), (False, VSS_NET)):
        touching = [d for d in netlist.devices
                    if d.is_pmos == is_pmos and out_pin in (d.drain, d.source)]
        if not touching:
            continue
        params = device_params_for(node, is_pmos)
        width = max(d.width_um for d in touching)
        depth = _stack_depth(netlist, out_pin, rail, is_pmos)
        depth = max(depth, 1)
        r_single = params.effective_resistance_kohm(width, node.vdd)
        resistances.append(r_single * depth)
    if not resistances:
        raise CharacterizationError(
            f"cell {netlist.cell_name!r}: no devices drive {out_pin!r}")
    return max(resistances)


def _net_loading_ff(netlist: CellNetlist, net: str, node: TechNode,
                    parasitics: Optional[CellParasitics]) -> float:
    """Total capacitance hanging on a net: wiring + gates + junctions."""
    c = 0.0
    if parasitics is not None and net in parasitics.nets:
        c += parasitics.nets[net].capacitance_ff
    for dev in netlist.devices:
        params = device_params_for(node, dev.is_pmos)
        if dev.gate == net:
            c += params.gate_cap_ff(dev.width_um)
        for term in (dev.drain, dev.source):
            if term == net:
                c += params.sd_cap_ff(dev.width_um)
    return c


def _internal_delay_ps(netlist: CellNetlist, out_pin: str, node: TechNode,
                       parasitics: Optional[CellParasitics]) -> float:
    """Sum of internal stage delays ahead of the output stage."""
    internal = [n for n in netlist.internal_nets()]
    total = 0.0
    for net in internal:
        drivers = [d for d in netlist.devices
                   if net in (d.drain, d.source)]
        if not drivers:
            continue
        params0 = device_params_for(node, drivers[0].is_pmos)
        width = max(d.width_um for d in drivers)
        r = params0.effective_resistance_kohm(width, node.vdd)
        c = _net_loading_ff(netlist, net, node, parasitics)
        total += K_INTERNAL_STAGE * LN2 * r * c   # kohm * fF = ps
    return total


def _internal_cap_ff(netlist: CellNetlist, node: TechNode,
                     parasitics: Optional[CellParasitics],
                     out_pin: str) -> float:
    """Energy-weighted capacitance inside the cell boundary.

    Device capacitance counts fully; extracted wiring capacitance is
    weighted by :data:`K_WIRING_ACTIVITY` (not all internal wiring swings
    on each output transition).
    """
    c = 0.0
    if parasitics is not None:
        c += parasitics.total_c_ff * K_WIRING_ACTIVITY
    for dev in netlist.devices:
        params = device_params_for(node, dev.is_pmos)
        c += params.gate_cap_ff(dev.width_um)
        for term in (dev.drain, dev.source):
            if term not in (VDD_NET, VSS_NET):
                c += params.sd_cap_ff(dev.width_um)
    return c


def pin_capacitance_ff(netlist: CellNetlist, pin: str,
                       node: TechNode,
                       parasitics: Optional[CellParasitics] = None) -> float:
    """Input pin capacitance: gate caps + junctions + pin wiring."""
    c = 0.0
    for dev in netlist.devices:
        params = device_params_for(node, dev.is_pmos)
        if dev.gate == pin:
            c += params.gate_cap_ff(dev.width_um)
        for term in (dev.drain, dev.source):
            if term == pin:
                c += params.sd_cap_ff(dev.width_um)
    if parasitics is not None and pin in parasitics.nets:
        c += parasitics.nets[pin].capacitance_ff * 0.5
    return c


def analytic_characterization(netlist: CellNetlist,
                              parasitics: Optional[CellParasitics] = None,
                              node: TechNode = NODE_45NM,
                              cell_type: Optional[str] = None,
                              strength: float = 1.0,
                              slews_ps: Optional[Sequence[float]] = None,
                              loads_ff: Optional[Sequence[float]] = None
                              ) -> CellCharacterization:
    """Build a full CellCharacterization from the switch-level model."""
    if cell_type is None:
        cell_type = netlist.cell_name.split("_X")[0]
    sequential = bool(netlist.clock_pins)
    slews = list(slews_ps if slews_ps is not None
                 else (DEFAULT_SEQ_SLEWS_PS if sequential
                       else DEFAULT_SLEWS_PS))
    loads = list(loads_ff if loads_ff is not None else DEFAULT_LOADS_FF)
    in_pin, out_pin = preferred_arc(netlist, cell_type)
    vdd = node.vdd

    r_out = _output_resistance_kohm(netlist, out_pin, node)
    c_out = _net_loading_ff(netlist, out_pin, node, parasitics) \
        - sum(device_params_for(node, d.is_pmos).gate_cap_ff(d.width_um)
              for d in netlist.devices if d.gate == out_pin)
    t_internal = _internal_delay_ps(netlist, out_pin, node, parasitics)
    c_internal = _internal_cap_ff(netlist, node, parasitics, out_pin)
    k_sw = K_SWITCHING.get(cell_type, K_SWITCHING["default"])
    k_slew = K_SLEW_IN_SEQ if sequential else K_SLEW_IN

    n_slews, n_loads = len(slews), len(loads)
    delay = np.zeros((n_slews, n_loads))
    oslew = np.zeros_like(delay)
    energy = np.zeros_like(delay)
    for i, s in enumerate(slews):
        for j, load in enumerate(loads):
            rc = r_out * (c_out + load)
            delay[i, j] = t_internal + LN2 * rc + k_slew * s
            oslew[i, j] = K_SLEW_OUT * rc + 0.1 * s
            energy[i, j] = (0.5 * k_sw * c_internal * vdd * vdd
                            + K_SHORT_CIRCUIT * strength * s * vdd / 1.1)

    arc = TimingArc(
        input_pin=in_pin,
        output_pin=out_pin,
        delay=NLDMTable(slews, loads, delay),
        output_slew=NLDMTable(slews, loads, oslew),
        internal_energy=NLDMTable(slews, loads, energy),
    )
    mid_delay = float(delay[n_slews // 2, n_loads // 2])
    return CellCharacterization(
        cell_name=netlist.cell_name,
        arcs={out_pin: arc},
        leakage_mw=_leakage_mw(netlist, node),
        setup_time_ps=(SETUP_FRACTION_OF_CLK_Q * mid_delay
                       if sequential else 0.0),
    )
