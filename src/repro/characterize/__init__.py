"""Cell characterization: transient simulation into Liberty-style tables.

Substitute for SPICE + Cadence Encounter Library Characterizer (ELC) in the
paper's flow:

* :mod:`~repro.characterize.mna` — a modified-nodal-analysis transient
  solver (backward Euler + damped Newton) over nonlinear alpha-power-law
  MOSFETs plus extracted parasitic R/C,
* :mod:`~repro.characterize.waveforms` — stimuli and measurements (50 %
  delay, 30-70 % slew, per-transition energy from the supply),
* :mod:`~repro.characterize.liberty` — NLDM lookup tables with bilinear
  interpolation/extrapolation, as Liberty data tables behave,
* :mod:`~repro.characterize.charlib` — the ELC equivalent: sweep input
  slew x load capacitance for every cell and build a characterized library,
* :mod:`~repro.characterize.analytic` — a fast calibrated switch-level
  characterizer used to populate full libraries for the layout flow (one
  test checks INV delay against the MNA solver within ±45 % at three
  slew/load points; over 63 cells, analytic ÷ MNA spans 0.75–5.41 for
  energy and 0.57–2.08 for delay).
"""

from repro.characterize.liberty import NLDMTable, TimingArc, CellCharacterization
from repro.characterize.mna import MNACircuit, TransientResult
from repro.characterize.waveforms import RampStimulus, measure_delay_slew
from repro.characterize.charlib import characterize_cell, CharacterizationSetup
from repro.characterize.analytic import analytic_characterization

__all__ = [
    "NLDMTable",
    "TimingArc",
    "CellCharacterization",
    "MNACircuit",
    "TransientResult",
    "RampStimulus",
    "measure_delay_slew",
    "characterize_cell",
    "CharacterizationSetup",
    "analytic_characterization",
]
