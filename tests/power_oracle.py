"""Frozen scalar reference for switching activity and power analysis.

A verbatim copy of the one-instance-at-a-time activity walk and the
per-net / per-instance power loops that ``repro.power`` replaced with
level-batched arrays.  The oracle tests in ``test_power.py`` demand that
the array code reproduce these results bit for bit, so this module must
not change with it.

One deliberate edit: the instance loop's load sum is written as an
explicit left-to-right loop.  It was ``c_wire + sum(...)``, and Python
3.12 turned the built-in ``sum`` of floats into a compensated sum; the
loop keeps the oracle on the plain sequential addition that ``sum``
performed on the interpreters the results were recorded with.
"""

from __future__ import annotations

from itertools import product
from typing import Dict

from repro.cells import logic
from repro.circuits.netlist import Module
from repro.errors import LibraryError, PowerError
from repro.power.analysis import PowerReport
from repro.timing.graph import levelize
from repro.timing.netmodel import NetModel

CLOCK_ACTIVITY = 2.0
SEQ_CLOCK_ENERGY_FRACTION = 0.30
NOMINAL_SLEW_PS = 40.0


class ScalarActivity:
    """Per-net switching activity as the scalar walk leaves it."""

    def __init__(self) -> None:
        self.density: Dict[int, float] = {}
        self.probability: Dict[int, float] = {}

    def net_density(self, net_idx: int) -> float:
        return self.density.get(net_idx, 0.0)

    def net_probability(self, net_idx: int) -> float:
        return self.probability.get(net_idx, 0.5)


def output_probabilities(cell_type: str,
                         input_probs: Dict[str, float]) -> Dict[str, float]:
    pins, outs = logic._FUNCTIONS[cell_type]
    result = {name: 0.0 for name in outs}
    for values in product([False, True], repeat=len(pins)):
        p = 1.0
        for pin, val in zip(pins, values):
            prob = input_probs.get(pin, 0.5)
            p *= prob if val else (1.0 - prob)
        if p == 0.0:
            continue
        out_vals = logic.evaluate(cell_type, dict(zip(pins, values)))
        for name, val in out_vals.items():
            if val:
                result[name] += p
    return result


def boolean_difference_probability(cell_type: str, pin: str,
                                   output_pin: str,
                                   input_probs: Dict[str, float]) -> float:
    pins, _ = logic._FUNCTIONS[cell_type]
    if pin not in pins:
        raise LibraryError(f"{cell_type}: pin {pin!r} is not an input")
    others = [p for p in pins if p != pin]
    total = 0.0
    for values in product([False, True], repeat=len(others)):
        p = 1.0
        for other, val in zip(others, values):
            prob = input_probs.get(other, 0.5)
            p *= prob if val else (1.0 - prob)
        if p == 0.0:
            continue
        side = dict(zip(others, values))
        lo = logic.evaluate(cell_type, {**side, pin: False})[output_pin]
        hi = logic.evaluate(cell_type, {**side, pin: True})[output_pin]
        if lo != hi:
            total += p
    return total


def propagate_activity(module: Module, library,
                       pi_activity: float = 0.2,
                       seq_activity: float = 0.1) -> ScalarActivity:
    if pi_activity < 0.0 or seq_activity < 0.0:
        raise PowerError("activity factors must be non-negative")
    report = ScalarActivity()
    is_seq = [library.cell(i.cell_name).is_sequential
              for i in module.instances]

    for net_idx in module.primary_inputs:
        net = module.nets[net_idx]
        if net.is_clock:
            report.density[net_idx] = CLOCK_ACTIVITY
            report.probability[net_idx] = 0.5
        else:
            report.density[net_idx] = pi_activity
            report.probability[net_idx] = 0.5

    for inst in module.instances:
        if not is_seq[inst.index]:
            continue
        cell = library.cell(inst.cell_name)
        for pin_name, net_idx in inst.pin_nets.items():
            if cell.pin(pin_name).direction.value == "output":
                report.density[net_idx] = seq_activity
                report.probability[net_idx] = 0.5

    order = levelize(module, library)
    for inst_idx in order:
        inst = module.instances[inst_idx]
        cell = library.cell(inst.cell_name)
        cell_type = cell.cell_type
        if not logic.is_combinational(cell_type):
            continue
        input_probs: Dict[str, float] = {}
        input_density: Dict[str, float] = {}
        for pin_name, net_idx in inst.pin_nets.items():
            if cell.pin(pin_name).direction.value != "input":
                continue
            input_probs[pin_name] = report.probability.get(net_idx, 0.5)
            input_density[pin_name] = report.density.get(net_idx, 0.0)
        out_probs = output_probabilities(cell_type, input_probs)
        for pin_name, net_idx in inst.pin_nets.items():
            if cell.pin(pin_name).direction.value != "output":
                continue
            prob = out_probs.get(pin_name)
            if prob is None:
                prob = next(iter(out_probs.values()))
            density = 0.0
            for in_pin, d_in in input_density.items():
                out_pin_for_bd = pin_name if pin_name in out_probs \
                    else next(iter(out_probs))
                bd = boolean_difference_probability(
                    cell_type, in_pin, out_pin_for_bd, input_probs)
                density += bd * d_in
            prev = report.density.get(net_idx)
            if prev is None or density > prev:
                report.density[net_idx] = density
                report.probability[net_idx] = prob
    return report


def analyze_power(module: Module, library, net_model: NetModel,
                  clock_ns: float,
                  pi_activity: float = 0.2,
                  seq_activity: float = 0.1) -> PowerReport:
    if clock_ns <= 0.0:
        raise PowerError("clock period must be positive")
    activity = propagate_activity(module, library,
                                  pi_activity=pi_activity,
                                  seq_activity=seq_activity)
    vdd = library.node.vdd
    v2 = vdd * vdd

    net_wire_fj = 0.0
    net_pin_fj = 0.0
    clock_fj = 0.0
    wire_cap_total = 0.0
    pin_cap_total = 0.0
    for net in module.nets:
        density = activity.net_density(net.index)
        _r, c_wire = net_model.net_rc(net)
        c_pins = 0.0
        for inst_idx, pin in net.sinks:
            if inst_idx < 0:
                continue
            cell = library.cell(module.instances[inst_idx].cell_name)
            c_pins += cell.pin_cap_ff(pin)
        wire_cap_total += c_wire
        pin_cap_total += c_pins
        if density <= 0.0:
            continue
        e_wire = 0.5 * density * c_wire * v2
        e_pin = 0.5 * density * c_pins * v2
        net_wire_fj += e_wire
        net_pin_fj += e_pin
        if net.is_clock:
            clock_fj += e_wire + e_pin

    cell_fj = 0.0
    leakage_mw = 0.0
    for inst in module.instances:
        cell = library.cell(inst.cell_name)
        leakage_mw += cell.leakage_mw
        out_nets = [net_idx for pin, net_idx in inst.pin_nets.items()
                    if cell.pin(pin).direction.value == "output"]
        if not out_nets:
            continue
        net = module.nets[out_nets[0]]
        _r, c_wire = net_model.net_rc(net)
        sink_caps = 0
        for si, sp in net.sinks:
            if si >= 0:
                sink_caps = sink_caps + library.cell(
                    module.instances[si].cell_name).pin_cap_ff(sp)
        load = c_wire + sink_caps
        e_per_transition = cell.internal_energy_fj(NOMINAL_SLEW_PS, load)
        density = activity.net_density(net.index)
        e = e_per_transition * density
        if cell.is_sequential:
            e += e_per_transition * SEQ_CLOCK_ENERGY_FRACTION
        if cell.cell_type == "CLKBUF":
            clock_fj += e
        cell_fj += e

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
