"""Named points in the scenario space over the flow's physical knobs.

The paper runs exactly one physical scenario: 2-tier T-MI folding on
the 45 nm / 7 nm nodes over the five Table 12 benchmarks.  The axes that
scenario sits on — tier count, fold style, MIV keep-out, technology
node, workload — are all :class:`~repro.flow.design_flow.FlowConfig`
fields, so a scenario is just a name for some ``FlowConfig`` field
values: :data:`SCENARIOS` maps each name to its description and to the
values it sets.  Every other field keeps its ``FlowConfig`` default, and
the paper scenario sets only the workload (AES at its bench scale), so
its config is a bare ``FlowConfig``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import FlowError

# name -> (description, FlowConfig field values the scenario sets).
SCENARIOS: Dict[str, Tuple[str, Dict[str, object]]] = {
    "paper": ("the paper's 2-tier T-MI fold at 45 nm (Tables 2-16)",
              {"circuit": "aes", "scale": 0.08}),
    "quad-tier": ("4-tier fold with a widened MIV keep-out",
                  {"circuit": "aes", "scale": 0.08, "tiers": 4,
                   "miv_koz_diameters": 1.0}),
    "asap7-quad": ("4-tier fold on the ASAP7-style FinFET node",
                   {"circuit": "aes", "scale": 0.08, "node_name": "asap7",
                    "tiers": 4}),
    "noc-mesh": ("mesh-NoC workload, 2-tier paper fold",
                 {"circuit": "noc", "scale": 0.05}),
    "noc-quad": ("mesh-NoC workload on a 4-tier interleaved fold",
                 {"circuit": "noc", "scale": 0.05, "tiers": 4,
                  "fold_style": "interleave"}),
}


def get_scenario(name: str) -> Tuple[str, Dict[str, object]]:
    """``(description, FlowConfig field values)`` of a named scenario."""
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise FlowError(f"unknown scenario {name!r} (known: {known})")
