"""Library characterization: the Encounter Library Characterizer substitute.

For every cell, builds a simulation circuit from the transistor netlist
plus extracted parasitics, sweeps an input-slew x output-load grid, and
produces Liberty-style NLDM tables (delay, output slew, internal energy)
plus a leakage estimate.

Per grid point, both output transitions are simulated (the paper's tables
average rise and fall).  Combinational arcs hold the side inputs at
sensitizing values; sequential cells are characterized on the clock->Q arc
with the data input held, after a settling phase that establishes the
latch state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CharacterizationError
from repro.cells.logic import (
    is_combinational,
    sensitizing_vector,
)
from repro.cells.netlist import CellNetlist, VDD_NET, VSS_NET
from repro.cells.transistor import device_params_for
from repro.extraction.rc import CellParasitics
from repro.characterize.liberty import (
    NLDMTable,
    TimingArc,
    CellCharacterization,
)
from repro.characterize.mna import MNACircuit, TransientResult
from repro.characterize.mna_batch import TransientSpec, transient_batch
from repro.characterize.waveforms import (
    RampStimulus,
    constant,
    measure_delay_slew,
)
from repro.obs.trace import kernel
from repro.tech.node import TechNode, NODE_45NM

# Default characterization grid: the paper's fast/medium/slow corners
# (Table 2).  Sequential cells use the derated slews of the same table.
DEFAULT_SLEWS_PS = (7.5, 37.5, 150.0)
DEFAULT_SEQ_SLEWS_PS = (5.0, 28.1, 112.5)
DEFAULT_LOADS_FF = (0.8, 3.2, 12.8)

# Fraction of devices assumed leaking at any time (stacking factor).
LEAKAGE_STATE_FACTOR = 0.5

# Setup time as a fraction of clock->Q delay (typical master-slave DFF).
SETUP_FRACTION_OF_CLK_Q = 0.6

# Which arc represents the cell in Table-2-style studies.
_PREFERRED_ARC = {
    "MUX2": ("S", "Z"),
    "XOR2": ("A", "Z"),
    "XNOR2": ("A", "ZN"),
    "HA": ("A", "S"),
    "FA": ("A", "S"),
}

# Held values for sequential side pins during clock->Q characterization.
_SEQ_SIDE_VALUES = {"RN": True, "SE": False, "SI": False}

# Input edges start this long into a measurement run, ns.
_START_NS = 0.02


@dataclass
class CharacterizationSetup:
    """Grid and environment for a characterization run."""

    node: TechNode = NODE_45NM
    slews_ps: Sequence[float] = DEFAULT_SLEWS_PS
    seq_slews_ps: Sequence[float] = DEFAULT_SEQ_SLEWS_PS
    loads_ff: Sequence[float] = DEFAULT_LOADS_FF
    settle_ns: float = 0.8
    settle_dt_ns: float = 0.02
    # Measurement-window scale: multiplied by (slew + expected RC span).
    window_scale: float = 1.0


def _wire_node(net: str) -> str:
    return f"{net}__w"


def _build_circuit(netlist: CellNetlist, parasitics: Optional[CellParasitics],
                   node: TechNode, load_ff: float, output_pin: str
                   ) -> Tuple[MNACircuit, Dict[str, str]]:
    """Assemble the MNA circuit of one cell.

    Each net with extracted resistance is modeled as a pi segment: devices'
    drains/sources attach at the near node, gate terminals and external
    connections (stimulus, load) at the far node.  Returns the circuit and
    a map net -> far-node name (where pins are observed).
    """
    circuit = MNACircuit()
    vdd = node.vdd
    circuit.drive(VDD_NET, constant(vdd), is_supply=True)
    circuit.drive(VSS_NET, constant(0.0))

    far: Dict[str, str] = {}
    for net in netlist.nets():
        if net in (VDD_NET, VSS_NET):
            far[net] = net
            continue
        r_kohm = 0.0
        c_ff = 0.0
        if parasitics is not None and net in parasitics.nets:
            pn = parasitics.nets[net]
            r_kohm = pn.resistance_kohm
            c_ff = pn.capacitance_ff
        if r_kohm > 1.0e-6:
            wire = _wire_node(net)
            circuit.add_resistor(net, wire, r_kohm)
            circuit.add_capacitor(net, VSS_NET, c_ff / 2.0)
            circuit.add_capacitor(wire, VSS_NET, c_ff / 2.0)
            far[net] = wire
        else:
            circuit.add_capacitor(net, VSS_NET, c_ff)
            far[net] = net

    for dev in netlist.devices:
        params = device_params_for(node, dev.is_pmos)
        # Gates see the far (post-resistance) side of their net; S/D attach
        # at the near side.
        circuit.add_mosfet(params, dev.width_um, far[dev.gate],
                           dev.drain, dev.source)
        circuit.add_capacitor(far[dev.gate], VSS_NET,
                              params.gate_cap_ff(dev.width_um))
        for term in (dev.drain, dev.source):
            if term not in (VDD_NET, VSS_NET):
                circuit.add_capacitor(term, VSS_NET,
                                      params.sd_cap_ff(dev.width_um))

    if load_ff > 0.0:
        circuit.add_capacitor(far[output_pin], VSS_NET, load_ff)
    return circuit, far


def _window_ns(node: TechNode, slew_ps: float, load_ff: float,
               setup: CharacterizationSetup) -> Tuple[float, float]:
    """(t_stop_ns, dt_ns) for a measurement run."""
    # Expected span: input ramp + generous multiple of the drive RC.
    drive_kohm = 25.0 if node.name.startswith("45") else 12.0
    rc_ps = drive_kohm * (load_ff + 3.0)
    t_stop_ns = (slew_ps + 8.0 * rc_ps) / 1000.0 * setup.window_scale + 0.15
    dt_ns = max(slew_ps / 25.0, t_stop_ns * 1000.0 / 700.0) / 1000.0
    return t_stop_ns, dt_ns


def _leakage_mw(netlist: CellNetlist, node: TechNode) -> float:
    """Average leakage power, mW."""
    total_ua = 0.0
    for dev in netlist.devices:
        params = device_params_for(node, dev.is_pmos)
        total_ua += params.leakage_current_ua(dev.width_um)
    return total_ua * LEAKAGE_STATE_FACTOR * node.vdd * 1.0e-3


def preferred_arc(netlist: CellNetlist, cell_type: str) -> Tuple[str, str]:
    """(input pin, output pin) of the cell's representative timing arc."""
    if cell_type in _PREFERRED_ARC:
        return _PREFERRED_ARC[cell_type]
    if netlist.clock_pins:
        return netlist.clock_pins[0], netlist.output_pins[0]
    return netlist.input_pins[0], netlist.output_pins[0]


class _Sweep:
    """One cell's characterization grid, phase by phase.

    Runs the same simulations as a one-transient-at-a-time grid loop
    (the reference, frozen in ``tests/kernel_oracle.py``) but hands
    them to the batch engine: one settle per (direction, load) — the
    settle result does not depend on slew, so the loop's repeats are
    redundant — then every (slew, load, direction) measurement.  Table
    values are bit-identical to the scalar sweep.
    """

    def __init__(self, netlist: CellNetlist,
                 parasitics: Optional[CellParasitics] = None,
                 setup: Optional[CharacterizationSetup] = None,
                 cell_type: Optional[str] = None) -> None:
        self.netlist = netlist
        self.parasitics = parasitics
        self.setup = setup or CharacterizationSetup()
        if cell_type is None:
            cell_type = netlist.cell_name.split("_X")[0]
        self.sequential = bool(netlist.clock_pins)
        if not self.sequential and not is_combinational(cell_type):
            raise CharacterizationError(
                f"cannot characterize cell type {cell_type!r}")
        self.in_pin, self.out_pin = preferred_arc(netlist, cell_type)
        self.slews = list(self.setup.seq_slews_ps if self.sequential
                          else self.setup.slews_ps)
        self.loads = list(self.setup.loads_ff)
        self.side = ({} if self.sequential else
                     sensitizing_vector(cell_type, self.in_pin,
                                        self.out_pin))
        self.vdd = self.setup.node.vdd
        # Far-node map per settled (direction, load), and per measurement
        # (slew index, load index, stimulus, window, output rising, node).
        self.far: Dict[Tuple[bool, int], Dict[str, str]] = {}
        self.meta: List[tuple] = []

    def _circuit(self, load_ff: float, rising: bool
                 ) -> Tuple[MNACircuit, Dict[str, str]]:
        """The cell at one load with its side inputs driven."""
        circuit, far = _build_circuit(self.netlist, self.parasitics,
                                      self.setup.node, load_ff, self.out_pin)
        vdd = self.vdd
        if self.sequential:
            circuit.drive(self.netlist.input_pins[0],
                          constant(vdd if rising else 0.0))
            for pin in self.netlist.input_pins[1:]:
                held = _SEQ_SIDE_VALUES.get(pin, False)
                circuit.drive(pin, constant(vdd if held else 0.0))
        else:
            for pin, value in self.side.items():
                circuit.drive(pin, constant(vdd if value else 0.0))
        return circuit, far

    def settle_specs(self) -> List[TransientSpec]:
        """Settling runs, one per (direction, load)."""
        specs = []
        for rising in (True, False):
            for j, load_ff in enumerate(self.loads):
                circuit, self.far[rising, j] = self._circuit(load_ff, rising)
                seed = None
                if self.sequential:
                    circuit.drive(self.in_pin, constant(0.0))
                    s_in = self.vdd if rising else 0.0
                    seed = {"s_in": s_in, "s_in__w": s_in,
                            "s_fb": s_in, "s_fb__w": s_in,
                            "s_out": self.vdd - s_in,
                            "s_out__w": self.vdd - s_in}
                else:
                    circuit.drive(self.in_pin,
                                  constant(0.0 if rising else self.vdd))
                specs.append(TransientSpec(circuit, self.setup.settle_ns,
                                           self.setup.settle_dt_ns, None,
                                           seed))
        return specs

    def measure_specs(self, settled: Sequence[TransientResult]
                      ) -> List[TransientSpec]:
        """Every (slew, load, direction) measurement, from the settled
        states of :meth:`settle_specs`."""
        node, vdd = self.setup.node, self.vdd
        initial_map = {
            key: {name: float(wave[-1])
                  for name, wave in result.voltages.items()}
            for key, result in zip(self.far, settled)}
        specs = []
        for i, slew_ps in enumerate(self.slews):
            for j, load_ff in enumerate(self.loads):
                for rising in (True, False):
                    circuit, far = self._circuit(load_ff, rising)
                    initial = initial_map[rising, j]
                    if self.sequential:
                        stim = RampStimulus(v0=0.0, v1=vdd,
                                            start_ns=_START_NS,
                                            slew_ps=slew_ps)
                        t_stop, dt = _window_ns(node, slew_ps,
                                                load_ff + 6.0, self.setup)
                        output_rising = rising
                    else:
                        v0 = 0.0 if rising else vdd
                        stim = RampStimulus(v0=v0, v1=vdd - v0,
                                            start_ns=_START_NS,
                                            slew_ps=slew_ps)
                        t_stop, dt = _window_ns(node, slew_ps, load_ff,
                                                self.setup)
                        out_start = initial.get(
                            self.far[rising, j][self.out_pin], 0.0)
                        output_rising = out_start < vdd / 2.0
                    circuit.drive(self.in_pin, stim)
                    specs.append(TransientSpec(
                        circuit, t_stop + _START_NS, dt,
                        [far[self.out_pin]], initial))
                    self.meta.append((i, j, stim, t_stop, output_rising,
                                      far[self.out_pin]))
        return specs

    def characterization(self, measured: Sequence[TransientResult]
                         ) -> CellCharacterization:
        """Measurements and rise/fall averaging, scalar-path order."""
        vdd = self.vdd
        leak_mw = _leakage_mw(self.netlist, self.setup.node)
        shape = (len(self.slews), len(self.loads))
        delay = np.zeros(shape)
        oslew = np.zeros(shape)
        energy = np.zeros(shape)
        triples: Dict[Tuple[int, int], list] = {}
        for (i, j, stim, t_stop, output_rising, out_node), result in zip(
                self.meta, measured):
            delay_ps, out_slew_ps = measure_delay_slew(
                result.times_ns, result.voltage(out_node), vdd,
                stim.mid_crossing_ns, output_rising)
            leak_fj = (leak_mw * 1.0e3) * (t_stop + _START_NS)
            e_int = result.supply_energy_fj - leak_fj
            if output_rising:
                e_int -= self.loads[j] * vdd * vdd
            triples.setdefault((i, j), []).append(
                (delay_ps, out_slew_ps, max(e_int, 0.0)))
        for (i, j), vals in triples.items():
            delay[i, j] = float(np.mean([v[0] for v in vals]))
            oslew[i, j] = float(np.mean([v[1] for v in vals]))
            energy[i, j] = float(np.mean([v[2] for v in vals]))

        slews, loads = self.slews, self.loads
        arc = TimingArc(
            input_pin=self.in_pin,
            output_pin=self.out_pin,
            delay=NLDMTable(slews, loads, delay),
            output_slew=NLDMTable(slews, loads, oslew),
            internal_energy=NLDMTable(slews, loads, energy),
        )
        mid_delay = float(delay[len(slews) // 2, len(loads) // 2])
        return CellCharacterization(
            cell_name=self.netlist.cell_name,
            arcs={self.out_pin: arc},
            leakage_mw=leak_mw,
            setup_time_ps=(SETUP_FRACTION_OF_CLK_Q * mid_delay
                           if self.sequential else 0.0),
        )


def _run_batched(per_cell: List[List[TransientSpec]]
                 ) -> List[List[TransientResult]]:
    """One ``transient_batch`` call over every cell's specs."""
    results = iter(transient_batch([s for specs in per_cell for s in specs]))
    return [[next(results) for _ in specs] for specs in per_cell]


def characterize_cells(jobs: Sequence[tuple]) -> List[CellCharacterization]:
    """Full-grid characterization of several cells at once.

    ``jobs`` holds ``(netlist, parasitics, setup, cell_type)`` tuples,
    the arguments of :func:`characterize_cell` (trailing ones may be
    left out).  Every cell's settle runs go to the engine in one
    :func:`~repro.characterize.mna_batch.transient_batch` call and its
    measurements in a second, so the drive strengths of a cell type
    share lockstep groups.  Each result equals that cell's
    :func:`characterize_cell` bit for bit; a failing measurement raises
    for the first failing cell in ``jobs`` order.
    """
    sweeps = [_Sweep(*job) for job in jobs]
    with kernel("char.mna_sweep",
                points=sum(len(s.slews) * len(s.loads) for s in sweeps)):
        settled = _run_batched([s.settle_specs() for s in sweeps])
        measured = _run_batched([s.measure_specs(r)
                                 for s, r in zip(sweeps, settled)])
        return [s.characterization(r) for s, r in zip(sweeps, measured)]


def characterize_cell(netlist: CellNetlist,
                      parasitics: Optional[CellParasitics] = None,
                      setup: Optional[CharacterizationSetup] = None,
                      cell_type: Optional[str] = None
                      ) -> CellCharacterization:
    """Full-grid characterization of one cell.

    ``cell_type`` defaults to the prefix of the cell name before "_X".
    """
    return characterize_cells([(netlist, parasitics, setup, cell_type)])[0]
