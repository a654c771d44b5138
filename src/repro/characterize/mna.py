"""Modified-nodal-analysis transient circuit simulation.

A small SPICE-like engine sufficient for standard-cell characterization:
nodes, resistors, capacitors (to ground or coupling), nonlinear MOSFETs
(alpha-power law from :mod:`repro.cells.transistor`), and driven nodes
(ideal voltage sources: supplies and input stimuli).

Integration is backward Euler with a damped Newton solve per step.  Device
evaluation is vectorized over all transistors (currents and the three
terminal partial derivatives via per-device finite differences), and
:mod:`repro.characterize.mna_batch` advances many circuits of one
topology in lockstep, which keeps characterization grids fast enough to
run inside the test suite.  Backward Euler's numerical damping is an
asset here: characterization needs monotone, robust waveforms rather
than high-order accuracy, and the fixed step is chosen well below the
fastest circuit time constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.cells.transistor import DeviceParams, V_THERMAL

# Finite-difference voltage step for device Jacobians, V.
FD_STEP_V = 1.0e-4
# Newton iteration limits.
MAX_NEWTON_ITERS = 60
NEWTON_TOL_V = 1.0e-6
NEWTON_TOL_I_MA = 1.0e-7
# Per-iteration voltage-change limit (Newton damping), V.
MAX_DELTA_V = 0.3


@dataclass
class TransientResult:
    """Waveforms from a transient run."""

    times_ns: np.ndarray
    voltages: Dict[str, np.ndarray]      # node name -> waveform
    supply_current_ua: np.ndarray        # current delivered by VDD
    supply_energy_fj: float              # integral of I_vdd * V_vdd

    def voltage(self, node: str) -> np.ndarray:
        try:
            return self.voltages[node]
        except KeyError:
            raise SimulationError(f"no recorded waveform for node {node!r}")


class _DeviceBank:
    """Vectorized alpha-power-law evaluation over all MOSFETs.

    ``widths`` is one width per device, or one row of widths per
    simulation of a lockstep batch (the devices' terminals are shared).
    """

    def __init__(self, params_list: List[DeviceParams],
                 widths: Sequence,
                 gates: List[int], drains: List[int],
                 sources: List[int]) -> None:
        n = len(params_list)
        self.n = n
        self.gate = np.asarray(gates, dtype=int)
        self.drain = np.asarray(drains, dtype=int)
        self.source = np.asarray(sources, dtype=int)
        w = np.asarray(widths, dtype=float)
        self.is_pmos = np.asarray([p.is_pmos for p in params_list])
        self.vth = np.asarray([p.vth for p in params_list])
        self.alpha = np.asarray([p.alpha for p in params_list])
        self.kw = np.asarray([p.k_sat_ua_per_um for p in params_list]) * w
        self.kv = np.asarray([p.k_vdsat for p in params_list])
        self.lam = np.asarray([p.channel_lambda for p in params_list])
        self.n_vt = np.asarray(
            [p.subthreshold_swing_mv / 1000.0 / np.log(10.0)
             for p in params_list])
        self.ioffw = np.asarray(
            [p.ioff_na_per_um * 1.0e-3 for p in params_list]) * w

    def currents_ma(self, vg: np.ndarray, vd: np.ndarray,
                    vs: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Signed current delivered by each device INTO its drain node, mA.

        The model is symmetric in drain/source; polarity handled per the
        device type (an NMOS pulling its drain low delivers negative
        current into the drain node).  ``rows`` picks the simulations of
        a per-simulation bank whose terminal voltages are given.
        """
        kw = self.kw[rows]
        ioffw = self.ioffw[rows]
        # Effective (vgs, vds) magnitudes with D/S symmetry:
        # NMOS: vgs = vg - min(vd, vs); PMOS: vgs = max(vd, vs) - vg.
        vmin = np.minimum(vd, vs)
        vmax = np.maximum(vd, vs)
        vgs = np.where(self.is_pmos, vmax - vg, vg - vmin)
        vds = vmax - vmin
        vov = vgs - self.vth
        vg_sub = np.minimum(vgs, self.vth)
        i_sub = (ioffw * 1.0e-3 * np.exp(
            np.clip(vg_sub / self.n_vt, -60.0, 60.0))
            * (1.0 - np.exp(-np.maximum(vds, 0.0) / V_THERMAL)))
        vov_pos = np.maximum(vov, 1.0e-12)
        i_sat = (kw * 1.0e-3 * vov_pos ** self.alpha
                 * (1.0 + self.lam * vds))
        v_dsat = self.kv * vov_pos ** (self.alpha / 2.0)
        x = np.minimum(vds / np.maximum(v_dsat, 1.0e-12), 1.0)
        i_strong = np.where(vov > 0.0, i_sat * np.where(
            vds >= v_dsat, 1.0, (2.0 - x) * x), 0.0)
        magnitude = i_strong + i_sub
        # Sign: current INTO the drain node.
        # NMOS with vd > vs pulls drain down: negative into drain.
        # PMOS with vs > vd pushes drain up: positive into drain.
        nmos_sign = np.where(vd >= vs, -1.0, 1.0)
        pmos_sign = np.where(vs >= vd, 1.0, -1.0)
        sign = np.where(self.is_pmos, pmos_sign, nmos_sign)
        return sign * magnitude


class MNACircuit:
    """A circuit under construction, then simulated with :meth:`transient`."""

    def __init__(self) -> None:
        self._node_index: Dict[str, int] = {"0": -1, "GND": -1}
        self._n_nodes = 0
        self._resistors: List[Tuple[int, int, float]] = []   # (a, b, kohm)
        self._capacitors: List[Tuple[int, int, float]] = []  # (a, b, fF)
        self._mos_params: List[DeviceParams] = []
        self._mos_widths: List[float] = []
        self._mos_terms: List[Tuple[int, int, int]] = []
        # Driven nodes: index -> waveform fn of time (ns) returning volts.
        self._drivers: Dict[int, Callable[[float], float]] = {}
        self._supply_nodes: List[int] = []

    # -- construction --------------------------------------------------------

    def node(self, name: str) -> int:
        """Get or create a node index (ground aliases return -1)."""
        if name in self._node_index:
            return self._node_index[name]
        idx = self._n_nodes
        self._node_index[name] = idx
        self._n_nodes += 1
        return idx

    def node_names(self) -> List[str]:
        return [n for n, i in self._node_index.items() if i >= 0]

    def add_resistor(self, a: str, b: str, r_kohm: float) -> None:
        if r_kohm <= 0.0:
            raise SimulationError("resistance must be positive")
        self._resistors.append((self.node(a), self.node(b), r_kohm))

    def add_capacitor(self, a: str, b: str, c_ff: float) -> None:
        if c_ff < 0.0:
            raise SimulationError("capacitance must be non-negative")
        if c_ff > 0.0:
            self._capacitors.append((self.node(a), self.node(b), c_ff))

    def add_mosfet(self, params: DeviceParams, width_um: float,
                   gate: str, drain: str, source: str) -> None:
        if width_um <= 0.0:
            raise SimulationError("transistor width must be positive")
        self._mos_params.append(params)
        self._mos_widths.append(width_um)
        self._mos_terms.append(
            (self.node(gate), self.node(drain), self.node(source)))

    def drive(self, name: str, waveform: Callable[[float], float],
              is_supply: bool = False) -> None:
        """Pin a node to an ideal voltage waveform (time in ns -> volts)."""
        idx = self.node(name)
        self._drivers[idx] = waveform
        if is_supply:
            self._supply_nodes.append(idx)

    # -- solver ---------------------------------------------------------------

    def transient(self, t_stop_ns: float, dt_ns: float,
                  record: Optional[Sequence[str]] = None,
                  initial: Optional[Dict[str, float]] = None
                  ) -> TransientResult:
        """Run a fixed-step backward-Euler transient from t = 0.

        ``record`` limits stored waveforms (all nodes by default);
        ``initial`` seeds node voltages (driven nodes always follow their
        waveforms).  The one-simulation case of
        :func:`~repro.characterize.mna_batch.transient_batch`.
        """
        from repro.characterize.mna_batch import TransientSpec, transient_batch

        return transient_batch(
            [TransientSpec(self, t_stop_ns, dt_ns, record, initial)])[0]
