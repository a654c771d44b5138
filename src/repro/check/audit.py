"""Audit orchestration: artifact capture, full-flow audits, injection.

Three layers:

* :class:`FlowArtifacts` — everything the checks need from one flow run
  (module, floorplan, routing, timing report, power report, models).
  ``run_flow`` deposits one bundle per run while a
  :func:`capture_artifacts` scope is active, which is how the standalone
  ``repro audit`` command gets at state the cached
  :class:`~repro.flow.design_flow.LayoutResult` does not carry.
* :func:`audit_artifacts` / :func:`audit_pair` — run every applicable
  check over one run (netlist, placement, routing, STA, power) or an
  iso-performance pair (both runs plus the 2D<->T-MI conservation and
  folded-MIV checks).
* :func:`inject_defect` — produce a deep-copied bundle with one defect
  class planted (``overlap``/``open``/``short``/``timing``/``power``),
  used by the CLI's ``--inject`` flag and the self-tests to prove each
  class is caught.  Injections perturb exactly one invariant so the
  audit's reaction is attributable.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, List

from repro.check import conservation
from repro.check.findings import (
    AuditFinding,
    AuditReport,
    SEV_ERROR,
    tagged,
)
from repro.check.placement import check_placement
from repro.check.power import check_power
from repro.check.routing import check_routing
from repro.check.timing import check_timing
from repro.errors import NetlistError
from repro.runtime.session import current_session

INJECTION_KINDS = ("overlap", "open", "short", "timing", "power")


@dataclass
class FlowArtifacts:
    """Everything one flow run produced that the checks inspect."""

    config: object            # FlowConfig
    library: object           # CellLibrary
    interconnect: object      # InterconnectModel
    module: object            # Module (final, post-CTS/opt)
    floorplan: object         # Floorplan
    routing: object           # RoutingResult (signoff-final)
    routed_model: object      # RoutedNetModel fed to STA and power
    timing_report: object     # TimingReport at the signoff clock
    clock_ns: float
    power: object             # PowerReport
    result: object = None     # LayoutResult, when available
    label: str = ""           # run label, e.g. "aes@45nm-2D"


@contextmanager
def capture_artifacts() -> Iterator[List[FlowArtifacts]]:
    """Collect the FlowArtifacts of every run_flow call in this scope.

    The bucket is open on the current session; scopes nest, and a run
    deposits into every open bucket.
    """
    bucket: List[FlowArtifacts] = []
    captures = current_session().captures
    captures.append(bucket)
    try:
        yield bucket
    finally:
        # By identity: nested buckets hold equal contents, so
        # ``list.remove`` could close the outer one instead.
        captures[:] = [b for b in captures if b is not bucket]


def collecting() -> bool:
    return bool(current_session().captures)


def deposit(artifacts: FlowArtifacts) -> None:
    """Called by run_flow at the end of each run while capturing."""
    for bucket in current_session().captures:
        bucket.append(artifacts)


# -- full audits ---------------------------------------------------------


def audit_artifacts(artifacts: FlowArtifacts,
                    library_checks: bool = True) -> AuditReport:
    """Every applicable invariant check over one flow run."""
    report = AuditReport()
    run = artifacts.label

    # Netlist structure (drivers, sinks, connections).
    report.n_checks += 1
    try:
        artifacts.module.validate()
    except NetlistError as exc:
        report.extend([AuditFinding(
            check="netlist.validate", severity=SEV_ERROR, stage="netlist",
            message=str(exc), run=run)])

    findings, checks = check_placement(
        artifacts.module, artifacts.library, artifacts.floorplan)
    report.extend(tagged(findings, run), checks)

    findings, checks = check_routing(
        artifacts.module, artifacts.floorplan, artifacts.routing,
        artifacts.interconnect)
    report.extend(tagged(findings, run), checks)

    findings, checks = check_timing(
        artifacts.module, artifacts.library, artifacts.timing_report,
        artifacts.clock_ns)
    report.extend(tagged(findings, run), checks)

    findings, checks = check_power(
        artifacts.power, artifacts.module, artifacts.library,
        artifacts.routed_model)
    report.extend(tagged(findings, run), checks)

    if library_checks:
        findings, checks = conservation.check_folded_mivs(artifacts.library)
        report.extend(tagged(findings, run), checks)

    return report


def audit_pair(art_2d: FlowArtifacts, art_3d: FlowArtifacts
               ) -> AuditReport:
    """Audit an iso-performance pair: both runs plus conservation."""
    report = audit_artifacts(art_2d)
    report.merge(audit_artifacts(art_3d))
    if art_2d.result is not None and art_3d.result is not None:
        findings, checks = conservation.check_pair(
            art_2d.result, art_3d.result,
            module_2d=art_2d.module, module_3d=art_3d.module)
        pair = f"{art_2d.label}<->{art_3d.label}"
        report.extend(tagged(findings, pair), checks)
    return report


# -- defect injection ----------------------------------------------------


def inject_defect(artifacts: FlowArtifacts, kind: str) -> FlowArtifacts:
    """A deep copy of ``artifacts`` with one defect class planted."""
    if kind not in INJECTION_KINDS:
        raise ValueError(f"unknown injection {kind!r}; "
                         f"choose from {', '.join(INJECTION_KINDS)}")
    art = copy.deepcopy(artifacts)
    art.label = f"{art.label}+{kind}" if art.label else kind

    if kind == "overlap":
        # Pile every cell onto the first row's center: legal row, inside
        # the core, but massively overlapping.
        row_y = art.floorplan.row_height_um * 0.5
        x = art.floorplan.width_um / 2.0
        for inst in art.module.instances:
            inst.x_um = x
            inst.y_um = row_y
    elif kind == "open":
        # Shrink the longest net's routed topology far below its pin
        # bounding box, keeping R/C consistent with the (bogus) length so
        # only the connectivity invariant trips.
        net_idx = max(art.routing.lengths_um,
                      key=art.routing.lengths_um.get)
        art.routing.lengths_um = dict(art.routing.lengths_um)
        art.routing.resistances_kohm = dict(art.routing.resistances_kohm)
        art.routing.capacitances_ff = dict(art.routing.capacitances_ff)
        old = art.routing.lengths_um[net_idx]
        new = old * 0.01
        art.routing.lengths_um[net_idx] = new
        art.routing.resistances_kohm[net_idx] *= 0.01
        art.routing.capacitances_ff[net_idx] *= 0.01
        art.routing.total_wirelength_um -= old - new
        cls = art.routing.layer_class.get(net_idx)
        if cls in art.routing.wirelength_by_class:
            art.routing.wirelength_by_class[cls] -= old - new
    elif kind == "short":
        # Blow up one net's capacitance without touching its length: the
        # lumped-extraction signature of a short to a neighbour.
        net_idx = max(art.routing.capacitances_ff,
                      key=art.routing.capacitances_ff.get)
        art.routing.capacitances_ff = dict(art.routing.capacitances_ff)
        art.routing.capacitances_ff[net_idx] *= 100.0
    elif kind == "timing":
        # Falsify the worst endpoint's slack: arithmetic no longer
        # closes against the report's own arrivals, and WNS is stale.
        report = art.timing_report
        report.endpoint_slack_ps = dict(report.endpoint_slack_ps)
        key = min(report.endpoint_slack_ps,
                  key=report.endpoint_slack_ps.get)
        report.endpoint_slack_ps[key] -= 1000.0
    elif kind == "power":
        # Inflate the reported total; the components no longer sum.
        art.power = replace(art.power,
                            total_mw=art.power.total_mw * 1.25)

    return art
