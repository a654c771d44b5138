"""Declarative scenario space over the flow's physical knobs.

The paper runs exactly one physical scenario: 2-tier T-MI folding on
the 45 nm / 7 nm nodes over the five Table 12 benchmarks.  This module
names the axes that scenario sits on — tier count, fold style, MIV
keep-out, technology node, workload — and bundles points in that space
as :class:`ScenarioSpec` values that lower onto plain
:class:`~repro.flow.design_flow.FlowConfig` objects.

Two invariants make the space safe to explore:

* **Digest coverage** — every knob a ScenarioSpec can set is a
  ``FlowConfig`` field registered in the stage-digest registry
  (:mod:`repro.flow.stagecache`), so each knob is automatically
  sweepable by ``repro dse``, checkpointable by the stage cache, and
  reported by ``repro whatif``.  :func:`knob_coverage_findings` audits
  this and the conformance suite pins it.
* **Paper conformance** — :data:`SCENARIO_PAPER`'s FlowConfig equals a
  FlowConfig built with no scenario at all, field for field, so the
  golden tables are byte-identical under the scenario machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Tuple

from repro.cells.folding import FoldSpec
from repro.errors import FlowError
from repro.flow import stagecache
from repro.flow.design_flow import FlowConfig
from repro.tech.miv import MIV_KOZ_DEFAULT
from repro.tech.node import get_node

# FlowConfig fields a scenario is allowed to set.  Everything else
# (seed, clock, activities, ...) stays a per-run choice.
SCENARIO_KNOBS: Tuple[str, ...] = (
    "circuit", "scale", "node_name", "tiers", "fold_style",
    "miv_koz_diameters",
)


@dataclass(frozen=True)
class ScenarioSpec:
    """One named point in the scenario space.

    A scenario only pins the *physical* knobs; run-level choices
    (seed, clock target, activities) pass through ``to_flow_config``
    overrides untouched.
    """

    name: str
    description: str = ""
    circuit: str = "aes"
    scale: float = 0.08
    node_name: str = "45nm"
    tiers: int = 2
    fold_style: str = "pn"
    miv_koz_diameters: float = MIV_KOZ_DEFAULT

    def __post_init__(self) -> None:
        if not self.name:
            raise FlowError("scenario needs a name")
        # Validate through the same gates the flow itself uses.
        get_node(self.node_name)
        FoldSpec(tiers=self.tiers, style=self.fold_style,
                 koz_diameters=self.miv_koz_diameters)

    def fold_spec(self) -> FoldSpec:
        return FoldSpec(tiers=self.tiers, style=self.fold_style,
                        koz_diameters=self.miv_koz_diameters)

    def knobs(self) -> Dict[str, object]:
        """The FlowConfig fields this scenario pins, as a dict."""
        return {name: getattr(self, name) for name in SCENARIO_KNOBS}

    def to_flow_config(self, is_3d: bool = True,
                       **overrides) -> FlowConfig:
        """Lower the scenario onto a FlowConfig.

        ``overrides`` win over scenario knobs, so a caller can sweep
        one axis away from a named scenario.
        """
        values = self.knobs()
        values["is_3d"] = is_3d
        values.update(overrides)
        return FlowConfig(**values)


# -- the named scenarios ---------------------------------------------------

# The paper's own scenario: every knob at its FlowConfig default, which
# the conformance suite pins byte-for-byte against a bare FlowConfig.
SCENARIO_PAPER = ScenarioSpec(
    name="paper",
    description="the paper's 2-tier T-MI fold at 45 nm (Tables 2-16)")

SCENARIOS: Dict[str, ScenarioSpec] = {
    spec.name: spec for spec in (
        SCENARIO_PAPER,
        ScenarioSpec(
            name="quad-tier",
            description="4-tier fold with a widened MIV keep-out",
            tiers=4, miv_koz_diameters=1.0),
        ScenarioSpec(
            name="asap7-quad",
            description="4-tier fold on the ASAP7-style FinFET node",
            node_name="asap7", tiers=4),
        ScenarioSpec(
            name="noc-mesh",
            description="mesh-NoC workload, 2-tier paper fold",
            circuit="noc", scale=0.05),
        ScenarioSpec(
            name="noc-quad",
            description="mesh-NoC workload on a 4-tier interleaved fold",
            circuit="noc", scale=0.05, tiers=4,
            fold_style="interleave"),
    )
}


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise FlowError(f"unknown scenario {name!r} (known: {known})")


# -- coverage audit --------------------------------------------------------

def knob_coverage_findings() -> Tuple[str, ...]:
    """Scenario knobs the stage-digest registry does not cover.

    Empty iff every ScenarioSpec knob is a registered flow input —
    i.e. sweepable, checkpoint-keyed, and whatif-reportable.  Also
    flags knobs that are not FlowConfig fields at all (a scenario must
    never carry state the flow cannot see).
    """
    flow_fields = {f.name for f in fields(FlowConfig)}
    covered = set(stagecache.sweepable_fields())
    findings = []
    for knob in SCENARIO_KNOBS:
        if knob not in flow_fields:
            findings.append(f"{knob}: not a FlowConfig field")
        elif knob not in covered:
            findings.append(f"{knob}: not in the stage-digest registry")
    return tuple(findings)
