"""STA graph-consistency and iso-performance audit.

The paper's comparisons are only meaningful at iso-performance: the T-MI
run must close the same clock the 2D run closed (Section 4).  This audit
re-derives what the timing report claims:

* **graph** — the timing graph levelizes (acyclic through combinational
  cells, every net driven), and the topological order covers every
  combinational cell (no dangling arcs dropped from propagation),
* **slack arithmetic** — every endpoint's reported slack equals
  ``clock - setup - arrival`` (sequential D pins) or ``clock - arrival``
  (primary outputs), recomputed from the report's own arrival times and
  the library's setup numbers; WNS/TNS must equal the min / negative-sum
  of the endpoint slacks,
* **clock** — the report was run at the clock the config claims,
* **iso-performance** — WNS meets the signoff tolerance at that clock
  (warning severity: a consistent report of a missed target is a quality
  outcome the tables carry, not an audit error).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.check.findings import AuditFinding, SEV_ERROR, SEV_WARNING
from repro.circuits.netlist import Module, PO_SINK
from repro.errors import NetlistError, TimingError
from repro.timing.graph import levelize
from repro.timing.sta import TimingReport

STAGE = "sta"

# Absolute tolerance for slack arithmetic, ps (pure float roundoff).
SLACK_ABS_TOL_PS = 1.0e-6
# Signoff tolerance: the flow accepts WNS down to -1 ps as "met".
WNS_MET_TOL_PS = -1.0
MAX_OBJECTS = 8


def _endpoint_name(module: Module, key: Tuple[int, str]) -> str:
    inst_idx, pin = key
    if inst_idx == PO_SINK:
        return f"PO:{pin}"
    if 0 <= inst_idx < len(module.instances):
        return f"{module.instances[inst_idx].name}/{pin}"
    return f"{inst_idx}/{pin}"


def check_timing(module: Module, library, report: TimingReport,
                 target_clock_ns: float
                 ) -> Tuple[List[AuditFinding], int]:
    """Audit one timing report; returns (findings, checks evaluated)."""
    findings: List[AuditFinding] = []
    checks = 0

    # 1. The timing graph is a levelizable DAG covering all comb cells.
    checks += 1
    try:
        order = levelize(module, library)
    except TimingError as exc:
        findings.append(AuditFinding(
            check="sta.graph", severity=SEV_ERROR, stage=STAGE,
            message=f"timing graph does not levelize: {exc}"))
        order = None
    if order is not None:
        n_seq = sum(1 for inst in module.instances
                    if library.cell(inst.cell_name).is_sequential)
        n_comb = module.n_cells - n_seq
        if len(order) != n_comb:
            findings.append(AuditFinding(
                check="sta.graph", severity=SEV_ERROR, stage=STAGE,
                message=(f"topological order covers {len(order)} of "
                         f"{n_comb} combinational cells (dangling arcs)"),
                measured=float(len(order)), bound=float(n_comb)))

    # 2. Endpoint slacks close against the report's own arrivals.
    checks += 1
    bad: List[str] = []
    worst_dev = 0.0
    for key, slack in report.endpoint_slack_ps.items():
        inst_idx, pin = key
        if inst_idx == PO_SINK:
            try:
                net_idx = module.net_by_name(pin).index
            except NetlistError:
                bad.append(_endpoint_name(module, key))
                continue
            setup = 0.0
        else:
            if not (0 <= inst_idx < len(module.instances)):
                bad.append(_endpoint_name(module, key))
                continue
            inst = module.instances[inst_idx]
            net_idx = inst.pin_nets.get(pin)
            if net_idx is None:
                bad.append(_endpoint_name(module, key))
                continue
            cell = library.cell(inst.cell_name)
            setup = (cell.characterization.setup_time_ps
                     if cell.characterization else 0.0)
        expected = report.clock_ps - setup - report.arrival_ps.get(
            net_idx, 0.0)
        dev = abs(slack - expected)
        if dev > SLACK_ABS_TOL_PS:
            worst_dev = max(worst_dev, dev)
            bad.append(_endpoint_name(module, key))
    if bad:
        findings.append(AuditFinding(
            check="sta.slack_arithmetic", severity=SEV_ERROR, stage=STAGE,
            message=(f"{len(bad)} endpoint slack(s) do not equal "
                     f"clock - setup - arrival"),
            objects=tuple(bad[:MAX_OBJECTS]),
            measured=worst_dev, bound=SLACK_ABS_TOL_PS))

    # 3. WNS/TNS summarize the endpoint slacks.
    checks += 1
    if report.endpoint_slack_ps:
        true_wns = min(report.endpoint_slack_ps.values())
        true_tns = sum(s for s in report.endpoint_slack_ps.values()
                       if s < 0.0)
        if abs(report.wns_ps - true_wns) > SLACK_ABS_TOL_PS:
            findings.append(AuditFinding(
                check="sta.wns", severity=SEV_ERROR, stage=STAGE,
                message="reported WNS is not the minimum endpoint slack",
                measured=report.wns_ps, bound=true_wns))
        if abs(report.tns_ps - true_tns) > max(
                SLACK_ABS_TOL_PS, 1e-9 * abs(true_tns)):
            findings.append(AuditFinding(
                check="sta.tns", severity=SEV_ERROR, stage=STAGE,
                message=("reported TNS is not the sum of negative "
                         "endpoint slacks"),
                measured=report.tns_ps, bound=true_tns))

    # 4. The report was run at the clock the config claims.
    checks += 1
    expected_clock_ps = target_clock_ns * 1000.0
    if abs(report.clock_ps - expected_clock_ps) > 1e-6:
        findings.append(AuditFinding(
            check="sta.clock", severity=SEV_ERROR, stage=STAGE,
            message=(f"report clock {report.clock_ps:.3f} ps differs from "
                     f"the configured {expected_clock_ps:.3f} ps"),
            measured=report.clock_ps, bound=expected_clock_ps))

    # 5. Iso-performance actually met at that clock.  A miss is a
    # *warning*, not an error: the report is internally consistent and
    # honestly says the optimizer fell short (the tables carry the miss);
    # errors are reserved for reports that contradict themselves.
    checks += 1
    if report.wns_ps < WNS_MET_TOL_PS:
        endpoint = ""
        if report.critical_endpoint is not None:
            endpoint = _endpoint_name(module, report.critical_endpoint)
        findings.append(AuditFinding(
            check="sta.iso_performance", severity=SEV_WARNING, stage=STAGE,
            message=(f"WNS {report.wns_ps:.1f} ps misses the target clock "
                     f"({target_clock_ns:.3f} ns)"),
            objects=(endpoint,) if endpoint else (),
            measured=report.wns_ps, bound=WNS_MET_TOL_PS))

    return findings, checks
