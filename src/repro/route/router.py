"""Congestion-aware global router with layer assignment.

For every signal net the router builds a rectilinear Steiner topology over
its pin positions, picks a layer class by length preference (local for
short nets, intermediate for medium, global for long — the preference
Section 6 describes, driven by unit resistance), spills nets to adjacent
classes when a class fills up, books tile demand, and applies a detour
factor where tiles overflow.

Outputs per net: routed length, layer class, lumped R and C (unit values
of the class from the interconnect model); plus per-class wirelength
totals (Fig. 10), congestion maps (Fig. 3), and the MB1 share for T-MI
designs (the paper: ~0.3 % of wirelength).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.circuits.netlist import Module
from repro.place.floorplan import Floorplan
from repro.route.grid import RoutingGrid
from repro.route.router_numpy import run_numpy
from repro.tech.interconnect import InterconnectModel
from repro.tech.metal import LayerClass

# Via-stack delay penalty for reaching higher layer classes, ps: the
# cost a net must amortize before the lower unit resistance pays off.
VIA_PENALTY_INTERMEDIATE_PS = 5.0
VIA_PENALTY_GLOBAL_PS = 15.0
# Detour growth per unit of average overflow above 1.0.
DETOUR_COEFF = 0.35
# Share of the very shortest T-MI nets that dip onto MB1.
MB1_NET_FRACTION = 0.04
MB1_LENGTH_SHARE = 0.20   # of those nets' length


@dataclass
class RoutingResult:
    """Global-routing outcome."""

    lengths_um: Dict[int, float]
    resistances_kohm: Dict[int, float]
    capacitances_ff: Dict[int, float]
    layer_class: Dict[int, LayerClass]
    grid: RoutingGrid
    total_wirelength_um: float
    wirelength_by_class: Dict[LayerClass, float]
    mb1_wirelength_um: float
    detour_factor: float

    @property
    def congested(self) -> bool:
        return self.grid.worst_overflow() > 1.0

    def mb1_share(self) -> float:
        if self.total_wirelength_um <= 0.0:
            return 0.0
        return self.mb1_wirelength_um / self.total_wirelength_um


class GlobalRouter:
    """Route a placed module over a metal stack."""

    def __init__(self, library, interconnect: InterconnectModel,
                 floorplan: Floorplan,
                 detour_coeff: float = DETOUR_COEFF,
                 capacity_scale: float = 1.0) -> None:
        self.library = library
        self.interconnect = interconnect
        self.floorplan = floorplan
        # Detour growth per unit of overflow; a FlowConfig knob
        # (router_detour_coeff) so congestion-sensitivity sweeps can
        # vary routing without invalidating placement checkpoints.
        self.detour_coeff = detour_coeff
        # LOCAL-class capacity derate from MIV keep-out zones (1.0 = no
        # derate; 3D flows compute it from the fold's KOZ policy).
        self.capacity_scale = capacity_scale

    # -- helpers -----------------------------------------------------------

    def _class_crossover_um(self, lower: LayerClass, upper: LayerClass,
                            penalty_ps: float) -> float:
        """Net length beyond which the upper class is faster.

        Delay-based preference (the Section 6 router behaviour): the
        upper class costs a via-stack penalty but has lower unit RC, so
        there is a crossover length  L = sqrt(4 p / (ln2 (rl cl - ru cu))).
        At 45 nm local wires are benign and the crossover sits near the
        core dimension; at 7 nm the 638 ohm/um local layers push it down
        to tens of um — both emerge from the same formula.
        """
        try:
            lo = self.interconnect.class_rc(lower)
            hi = self.interconnect.class_rc(upper)
        except Exception:
            return float("inf")
        rc_lo = lo.resistance_kohm_per_um * lo.capacitance_ff_per_um
        rc_hi = hi.resistance_kohm_per_um * hi.capacitance_ff_per_um
        delta = rc_lo - rc_hi
        if delta <= 0.0:
            return float("inf")
        return math.sqrt(4.0 * penalty_ps / (math.log(2.0) * delta))

    def _preferred_class(self, length_um: float) -> LayerClass:
        if not hasattr(self, "_xover_local"):
            self._xover_local = self._class_crossover_um(
                LayerClass.LOCAL, LayerClass.INTERMEDIATE,
                VIA_PENALTY_INTERMEDIATE_PS)
            self._xover_intermediate = self._class_crossover_um(
                LayerClass.INTERMEDIATE, LayerClass.GLOBAL,
                VIA_PENALTY_GLOBAL_PS)
        if length_um <= self._xover_local:
            return LayerClass.LOCAL
        if length_um <= self._xover_intermediate:
            return LayerClass.INTERMEDIATE
        return LayerClass.GLOBAL

    # -- main ---------------------------------------------------------------

    def run(self, module: Module,
            include_clock: bool = True) -> RoutingResult:
        """Route the module's nets (:mod:`repro.route.router_numpy`)."""
        return run_numpy(self, module, include_clock)
