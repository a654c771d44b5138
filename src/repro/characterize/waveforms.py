"""Stimuli and waveform measurements for characterization.

Liberty conventions used throughout:

* input slew = transition time measured between 30 % and 70 % of the rail,
  scaled to the full rail (i.e. divided by 0.4) — the Nangate library's
  slew derate;
* cell delay = time from the input's 50 % crossing to the output's 50 %
  crossing;
* internal energy = energy drawn from the supply during the transition,
  minus the energy delivered into the external load capacitor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import CharacterizationError

# Slew measurement thresholds (fraction of rail), scaled to full rail.
SLEW_LO = 0.3
SLEW_HI = 0.7
SLEW_DERATE = SLEW_HI - SLEW_LO


@dataclass(frozen=True)
class RampStimulus:
    """A saturated-ramp input: holds v0, ramps to v1, then holds v1.

    ``slew_ps`` is the Liberty (30-70 scaled) transition time; the actual
    0-100 ramp time equals the slew by the same convention the measurement
    applies.
    """

    v0: float
    v1: float
    start_ns: float
    slew_ps: float

    def __call__(self, t_ns: float) -> float:
        ramp_ns = self.slew_ps / 1000.0
        if t_ns <= self.start_ns:
            return self.v0
        if t_ns >= self.start_ns + ramp_ns:
            return self.v1
        frac = (t_ns - self.start_ns) / ramp_ns
        return self.v0 + (self.v1 - self.v0) * frac

    @property
    def mid_crossing_ns(self) -> float:
        """Time of the input's 50 % crossing."""
        return self.start_ns + self.slew_ps / 2000.0


@dataclass(frozen=True)
class Constant:
    """A constant-voltage waveform (the transient engine sets it once)."""

    value: float

    def __call__(self, _t_ns: float) -> float:
        return self.value


def constant(value: float) -> Constant:
    """A constant-voltage waveform."""
    return Constant(value)


def _crossing_time(times_ns: np.ndarray, wave: np.ndarray,
                   threshold: float, after_ns: float = 0.0,
                   rising: Optional[bool] = None) -> float:
    """First time the waveform crosses a threshold (linear interpolation)."""
    for k in range(1, times_ns.size):
        if times_ns[k] < after_ns:
            continue
        v0, v1 = wave[k - 1], wave[k]
        crossed_up = v0 < threshold <= v1
        crossed_dn = v0 > threshold >= v1
        if rising is True and not crossed_up:
            continue
        if rising is False and not crossed_dn:
            continue
        if crossed_up or crossed_dn:
            if v1 == v0:
                return float(times_ns[k])
            frac = (threshold - v0) / (v1 - v0)
            return float(times_ns[k - 1]
                         + frac * (times_ns[k] - times_ns[k - 1]))
    raise CharacterizationError(
        f"waveform never crosses {threshold:.3f} V after {after_ns:.3f} ns")


def measure_delay_slew(times_ns: np.ndarray, output: np.ndarray,
                       vdd: float, input_mid_ns: float,
                       output_rising: bool) -> Tuple[float, float]:
    """(delay_ps, output_slew_ps) of an output transition.

    Delay is input-50% to output-50%; slew is the 30-70 crossing interval
    scaled to the full rail.
    """
    mid = vdd * 0.5
    lo = vdd * SLEW_LO
    hi = vdd * SLEW_HI
    t_mid = _crossing_time(times_ns, output, mid, after_ns=input_mid_ns * 0.0,
                           rising=output_rising)
    if output_rising:
        t_lo = _crossing_time(times_ns, output, lo, rising=True)
        t_hi = _crossing_time(times_ns, output, hi, rising=True)
    else:
        t_hi = _crossing_time(times_ns, output, hi, rising=False)
        t_lo = _crossing_time(times_ns, output, lo, rising=False)
    delay_ps = (t_mid - input_mid_ns) * 1000.0
    slew_ps = abs(t_lo - t_hi) / SLEW_DERATE * 1000.0
    if delay_ps <= 0.0:
        raise CharacterizationError(
            "non-positive measured delay; output switched before input")
    return delay_ps, slew_ps


def settled(wave: np.ndarray, vdd: float, target_high: bool,
            tolerance: float = 0.05) -> bool:
    """True if the waveform's final value sits at the expected rail."""
    final = wave[-1]
    if target_high:
        return final >= vdd * (1.0 - tolerance)
    return final <= vdd * tolerance
