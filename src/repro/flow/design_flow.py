"""The end-to-end design and analysis flow (Fig. 1 of the paper).

Stages: library preparation -> benchmark netlist -> WLM synthesis ->
floorplan + placement -> pre-route optimization -> CTS -> global routing
(with the congestion-driven utilization fallback the paper applies to
LDPC) -> post-route optimization -> sign-off STA -> statistical power.

Every stage runs through the active
:class:`repro.runtime.supervisor.StageSupervisor` under the names
``prepare``, ``synthesis``, ``layout``, ``post_route``, ``signoff`` and
``power`` — which supplies per-stage timeouts, a structured run journal,
fault-injection hooks, and the congestion retry/degradation policy that
used to be an ad-hoc loop here: the ``layout`` stage raises
:class:`repro.errors.CongestionError` (carrying the attempt's partial
layout) when the busiest routing tile overflows past
``CONGESTION_TRIGGER``; the supervisor retries it up to
``MAX_ROUTE_RETRIES`` times, lowering the placement utilization by
``CONGESTION_UTIL_STEP`` between attempts, and finally degrades
gracefully — proceeding with routing detours, the paper's LDPC move.

All experiment knobs of the paper's studies are exposed on
:class:`FlowConfig`: node, integration style, metal stack variant
(Table 17), local-resistivity scale (Table 9), pin-cap scale (Table 8),
WLM style (Table 15), activity factors (Fig. 11), MIV/MB1 blockage
overhead (Fig. 7), and the target clock (Fig. 4).  The gate-level style
(G-MI, ``fold_style="gate"``) runs through the same stages, departing
from them where :data:`repro.flow.gmi.GATE_LEVEL` says.

When a checkpoint store is bound (``--resume``, parallel workers), each
supervised stage additionally consults the stage-level incremental
cache (:mod:`repro.flow.stagecache`): its result is keyed on the
digests of the upstream stages it consumes plus the config parameters
it reads, so a one-knob change (e.g. ``router_detour_coeff``) reuses
synthesis and placement checkpoints and recomputes only routing, STA
and power.  The audit stage is never cached — every run, warm or cold,
is re-verified.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cells.folding import FOLD_DEFAULT, FoldSpec
from repro.cells.nangate import build_nangate_library
from repro.check import audit as flow_audit
from repro.check.findings import AuditReport
from repro.check.placement import check_placement
from repro.check.power import check_power
from repro.check.routing import check_routing
from repro.check.timing import check_timing
from repro.circuits.generators import generate_benchmark
from repro.errors import CongestionError, RoutingError
from repro.flow import stagecache
from repro.flow.gmi import CELL_LEVEL, GATE_LEVEL, IntegrationStyle, with_mivs
from repro.obs.trace import counter
from repro.runtime.session import current_session
from repro.runtime.supervisor import StagePolicy, StageSupervisor
from repro.opt.cts import synthesize_clock_tree
from repro.opt.optimizer import Optimizer
from repro.place.placer import Placer
from repro.power.analysis import PowerReport, analyze_power
from repro.route.router import DETOUR_COEFF, GlobalRouter, RoutingResult
from repro.synth.synthesis import Synthesizer
from repro.synth.wlm import WireLoadModel
from repro.tech.interconnect import InterconnectModel
from repro.tech.metal import (
    build_stack_2d,
    build_stack_tmi,
    build_stack_tmi_modified,
)
from repro.tech.miv import MIV_KOZ_DEFAULT, routing_capacity_scale
from repro.tech.node import get_node
from repro.timing.netmodel import PlacedNetModel, RoutedNetModel
from repro.timing.sta import TimingAnalyzer

logger = logging.getLogger(__name__)

# Supervised stage order of one flow run — the canonical row order for
# profile tables (`repro --profile`) and per-stage engine reports.
FLOW_STAGES = ("prepare", "synthesis", "layout", "post_route", "signoff",
               "power", "audit")

# Congestion fallback: utilization multiplier per retry, max retries, and
# the busiest-tile overflow ratio that triggers a retry.
CONGESTION_UTIL_STEP = 0.65
MAX_ROUTE_RETRIES = 3
CONGESTION_TRIGGER = 1.10

# Supervisor policy for the layout stage: a CongestionError is retried
# (at lowered utilization, see run_flow's _on_congestion) and, once
# retries are exhausted, degraded to the congested partial layout.
LAYOUT_POLICY = StagePolicy(max_attempts=MAX_ROUTE_RETRIES,
                            retry_on=(RoutingError,),
                            degrade=True)

# Library cache: (node name, is_3d, fold spec) -> CellLibrary.
_LIBRARY_CACHE: Dict[Tuple[str, bool, FoldSpec], object] = {}


def library_for(node_name: str, is_3d: bool,
                fold: FoldSpec = FOLD_DEFAULT):
    """Build (or fetch) the characterized library for a node + style.

    ``fold`` selects the T-MI fold scenario; planar libraries (2D, and
    the gate fold of G-MI) normalize it away so every planar request
    shares one cache entry.
    """
    folded = is_3d and fold.style != "gate"
    key = (node_name, folded, fold if folded else FOLD_DEFAULT)
    if key not in _LIBRARY_CACHE:
        _LIBRARY_CACHE[key] = build_nangate_library(
            get_node(node_name), is_3d=folded, fold=key[2])
    return _LIBRARY_CACHE[key]


@dataclass
class FlowConfig:
    """Everything one flow run needs."""

    circuit: str
    node_name: str = "45nm"
    is_3d: bool = False
    scale: float = 0.1
    seed: int = 0
    target_clock_ns: Optional[float] = None
    tightness: str = "medium"
    target_utilization: float = 0.80
    metal_stack: str = "default"        # "default" or "tmi+m"
    local_resistivity_scale: float = 1.0
    pin_cap_scale: float = 1.0
    use_tmi_wlm: Optional[bool] = None
    pi_activity: float = 0.2
    seq_activity: float = 0.1
    # Scenario knobs (ROADMAP item 5): device tier count of the T-MI
    # fold, the fold style ("pn" or "interleave", or "gate" for G-MI's
    # planar cells on two tiers), and the MIV keep-out zone in diameters
    # per side (ISQED'23, arXiv 2304.13808).  The defaults reproduce the
    # paper's 2-tier scenario byte-for-byte; all three are ignored by 2D
    # runs.
    tiers: int = 2
    fold_style: str = "pn"
    miv_koz_diameters: float = MIV_KOZ_DEFAULT
    # Router detour growth per unit of overflow (the Section 6
    # congestion model).  A routing-only knob: changing it reuses the
    # synthesis and placement stage checkpoints and recomputes routing
    # onward (see repro.flow.stagecache).
    router_detour_coeff: float = DETOUR_COEFF

    def style(self) -> str:
        return "3D" if self.is_3d else "2D"

    def fold_spec(self) -> FoldSpec:
        """The fold scenario of this config (validates the knobs)."""
        return FoldSpec(tiers=self.tiers, style=self.fold_style,
                        koz_diameters=self.miv_koz_diameters)

    def integration(self) -> IntegrationStyle:
        """Where this run's flow departs from 2D's (G-MI only)."""
        if self.is_3d and self.fold_style == "gate":
            return GATE_LEVEL
        return CELL_LEVEL


@dataclass
class LayoutResult:
    """One Table 13/14 row plus everything the studies need."""

    config: FlowConfig
    clock_ns: float
    footprint_um2: float
    core_width_um: float
    core_height_um: float
    n_cells: int
    n_buffers: int
    utilization: float
    utilization_target: float
    total_wirelength_um: float
    wns_ps: float
    power: PowerReport
    routing: RoutingResult
    synthesis_cells: int
    cts_buffers: int
    opt_buffers: int
    # Nets between cells on different device tiers, one MIV each: G-MI
    # only, as T-MI keeps its MIVs inside the cells.
    crossing_nets: int = 0
    # Invariant-audit outcome of the run (see repro.check); None only
    # for results built outside run_flow (tests, synthetic fixtures).
    audit: Optional[AuditReport] = None

    @property
    def met(self) -> bool:
        return self.wns_ps >= -1.0   # 1 ps grace for table-edge noise

    @property
    def total_power_mw(self) -> float:
        return self.power.total_mw

    def summary_row(self) -> Dict[str, object]:
        return {
            "circuit": self.config.circuit,
            "type": self.config.style(),
            "clock (ns)": round(self.clock_ns, 2),
            "footprint (um2)": round(self.footprint_um2, 0),
            "#cells": self.n_cells,
            "#buffers": self.n_buffers,
            "utilization (%)": round(self.utilization * 100.0, 1),
            "total WL (um)": round(self.total_wirelength_um, 0),
            "WNS (ps)": round(self.wns_ps, 0),
            "total power (mW)": round(self.power.total_mw, 4),
            "cell power (mW)": round(self.power.cell_mw, 4),
            "net power (mW)": round(self.power.net_mw, 4),
            "leakage (mW)": round(self.power.leakage_mw, 4),
        }


def _stack_for(config: FlowConfig, node):
    if not config.is_3d:
        return build_stack_2d(node)
    if config.metal_stack == "tmi+m":
        return build_stack_tmi_modified(node)
    return build_stack_tmi(node)


def _count_buffers(module, library) -> int:
    n = 0
    for inst in module.instances:
        cell = library.cell(inst.cell_name)
        if cell.cell_type in ("BUF", "CLKBUF"):
            n += 1
    return n


@dataclass
class _LayoutAttempt:
    """State produced by one layout attempt (placement through routing)."""

    floorplan: object
    net_model: PlacedNetModel
    optimizer: Optimizer
    router: GlobalRouter
    routing: RoutingResult
    pre_opt_buffers: int
    utilization_target: float


def run_flow(config: FlowConfig) -> LayoutResult:
    """Run the full flow for one configuration (supervised stages).

    The stages journal under the run's label, ``circuit@node-style``
    (e.g. ``aes@45nm-2D``), and its captured artifacts carry the same.
    """
    supervisor = current_session().supervisor
    with supervisor.run_context(
            f"{config.circuit}@{config.node_name}-{config.style()}"):
        return _run_stages(config, supervisor)


def _run_stages(config: FlowConfig,
                supervisor: StageSupervisor) -> LayoutResult:
    # Stage-level incremental cache: pass-through unless a store is
    # bound (--resume / parallel workers).  Lookups happen *inside* the
    # supervised stage bodies, so the journal, tracing, and fault hooks
    # cover cached stages too; the audit stage is never cached.
    memo = stagecache.StageMemo(config)
    style = config.integration()

    def _prepare():
        node = get_node(config.node_name)
        library = library_for(config.node_name, config.is_3d,
                              fold=config.fold_spec())
        if config.pin_cap_scale != 1.0:
            library = library.scale_pin_caps(config.pin_cap_scale)
        stack = _stack_for(config, node)
        interconnect = InterconnectModel(
            stack, local_resistivity_scale=config.local_resistivity_scale)
        return library, interconnect

    library, interconnect = supervisor.run_stage("prepare", _prepare)

    # MIV keep-out derate on the LOCAL routing class: exactly 1.0 for 2D
    # runs and for the default KOZ, so the paper scenario routes on a
    # byte-identical grid.
    if config.is_3d:
        koz_capacity_scale = routing_capacity_scale(
            library.node, config.miv_koz_diameters, config.tiers)
    else:
        koz_capacity_scale = 1.0

    # -- synthesis -------------------------------------------------------------
    def _synthesis():
        def compute():
            module = generate_benchmark(config.circuit, scale=config.scale,
                                        seed=config.seed)
            pre_area = sum(library.cell(i.cell_name).area_um2
                           for i in module.instances)
            wlm = WireLoadModel.estimate(
                name=f"{config.circuit}-{config.style()}",
                total_cell_area_um2=pre_area * style.wlm_area_scale,
                utilization=config.target_utilization,
                interconnect=interconnect,
                is_3d=library.is_3d,
                use_tmi_lengths=config.use_tmi_wlm,
            )
            synthesizer = Synthesizer(library, wlm,
                                      target_clock_ns=config.target_clock_ns,
                                      tightness=config.tightness)
            synth = synthesizer.run(module)
            return module, synth.clock_ns

        return memo.cached("synthesis", compute)

    module, clock_ns = supervisor.run_stage("synthesis", _synthesis)
    synthesis_cells = module.n_cells

    # -- placement + optimization + routing, with congestion fallback ----------
    # One supervised attempt; congestion raises and the supervisor
    # retries at lowered utilization, or degrades to the congested
    # layout once MAX_ROUTE_RETRIES attempts are exhausted.
    utilization_target = config.target_utilization
    cts_buffers = 0
    attempt_no = 0
    layout_cached = False

    def _rebuild_layout(floorplan):
        """Live engine objects for a floorplan restored from the cache.

        They are stateless beyond their constructor arguments (and the
        placed net model is a pure cache that post_route invalidates
        anyway), so rebuilding them is equivalent to having computed
        them alongside the cached placement.
        """
        net_model = PlacedNetModel(module, interconnect,
                                   io_positions=floorplan.io_positions)
        optimizer = Optimizer(library, interconnect, floorplan, clock_ns)
        router = GlobalRouter(library, interconnect, floorplan,
                              detour_coeff=config.router_detour_coeff,
                              capacity_scale=koz_capacity_scale)
        return net_model, optimizer, router

    def _layout_attempt() -> _LayoutAttempt:
        nonlocal module, cts_buffers, attempt_no, layout_cached
        if memo.enabled and attempt_no == 0:
            # Composite checkpoint of the whole congestion loop: the
            # final module/floorplan/routing after any retries or
            # degradation, keyed on everything that can reach layout.
            payload = memo.fetch("layout", memo.key("layout"))
            if payload is not None:
                layout_cached = True
                module = payload["module"]
                cts_buffers = payload["cts_buffers"]
                floorplan = payload["floorplan"]
                net_model, optimizer, router = _rebuild_layout(floorplan)
                return _LayoutAttempt(
                    floorplan=floorplan,
                    net_model=net_model,
                    optimizer=optimizer,
                    router=router,
                    routing=payload["routing"],
                    pre_opt_buffers=payload["pre_opt_buffers"],
                    utilization_target=payload["utilization_target"],
                )
        attempt_no += 1
        placed = None
        pkey = None
        if memo.enabled:
            # Placement sub-checkpoint (placer + pre-route optimization
            # + CTS, i.e. everything before routing): a router-only
            # parameter change misses the composite above but hits
            # here, so only routing onward recomputes.
            pkey = memo.placement_key(utilization_target, attempt_no)
            placed = memo.fetch("placement", pkey)
        if placed is not None:
            module = placed["module"]
            floorplan = placed["floorplan"]
            cts_buffers += placed["cts_buffers"]
            pre_opt_buffers = placed["pre_opt_buffers"]
            net_model, optimizer, router = _rebuild_layout(floorplan)
        else:
            placer = Placer(library, target_utilization=utilization_target,
                            tiers=style.tiers,
                            area_overhead=style.area_overhead)
            placement = placer.run(module)
            floorplan = placement.floorplan
            net_model = PlacedNetModel(module, interconnect,
                                       io_positions=floorplan.io_positions)

            optimizer = Optimizer(library, interconnect, floorplan,
                                  clock_ns)
            pre_opt = optimizer.run(module, net_model)

            cts = synthesize_clock_tree(module, library, floorplan)
            # Buffers inserted for a dense floorplan stay across retries;
            # re-placement re-legalizes everything in the larger core.
            cts_buffers += cts.n_buffers
            pre_opt_buffers = pre_opt.n_buffers_added

            router = GlobalRouter(library, interconnect, floorplan,
                                  detour_coeff=config.router_detour_coeff,
                                  capacity_scale=koz_capacity_scale)
            if pkey is not None:
                memo.save(pkey, {
                    "module": module,
                    "floorplan": floorplan,
                    "cts_buffers": cts.n_buffers,
                    "pre_opt_buffers": pre_opt_buffers,
                })
        routing = router.run(module)
        attempt = _LayoutAttempt(
            floorplan=floorplan,
            net_model=net_model,
            optimizer=optimizer,
            router=router,
            routing=routing,
            pre_opt_buffers=pre_opt_buffers,
            utilization_target=utilization_target,
        )
        overflow = routing.grid.worst_overflow()
        if overflow > CONGESTION_TRIGGER and config.target_clock_ns is None:
            raise CongestionError(
                f"{config.circuit} {config.style()}: congestion overflow "
                f"{overflow:.2f} at utilization {utilization_target:.2f}",
                partial=attempt, overflow=overflow)
        # Paired run at an externally chosen clock: the floorplan policy
        # (utilization) is part of the experiment setup and must match
        # the lead run; congestion shows up as routing detours and
        # timing pressure instead (exactly the 7 nm T-MI congestion
        # effect Section 6 discusses).
        return attempt

    def _on_congestion(attempt_no: int, exc: BaseException) -> None:
        nonlocal utilization_target
        # The paper's move: lower placement utilization and redo layout
        # (LDPC went from 80 % to ~33 %).
        logger.info(
            "%s %s: congestion overflow %s at utilization %.2f; "
            "retrying at %.2f", config.circuit, config.style(),
            getattr(exc, "overflow", None), utilization_target,
            utilization_target * CONGESTION_UTIL_STEP)
        utilization_target *= CONGESTION_UTIL_STEP

    layout = supervisor.run_stage("layout", _layout_attempt,
                                  policy=LAYOUT_POLICY,
                                  on_retry=_on_congestion)
    floorplan = layout.floorplan
    net_model = layout.net_model
    optimizer = layout.optimizer
    router = layout.router
    utilization_target = layout.utilization_target
    if memo.enabled and not layout_cached:
        # The composite outcome is only known here: the supervisor may
        # have retried at stepped utilization or degraded to the
        # congested partial, and that final state is what must replay.
        memo.save(memo.key("layout"), {
            "module": module,
            "floorplan": floorplan,
            "routing": layout.routing,
            "pre_opt_buffers": layout.pre_opt_buffers,
            "utilization_target": utilization_target,
            "cts_buffers": cts_buffers,
        })

    # -- post-route optimization -------------------------------------------------
    def _post_route():
        if not style.post_route_opt:
            return {"module": module, "routing": layout.routing,
                    "opt_buffers": 0}

        def compute():
            net_model.invalidate()
            post_opt = optimizer.run(module, net_model)
            return {
                "module": module,
                "routing": router.run(module),
                "opt_buffers": post_opt.n_buffers_added,
            }

        return memo.cached("post_route", compute)

    post_route = supervisor.run_stage("post_route", _post_route)
    routing = post_route["routing"]
    post_opt_buffers = post_route["opt_buffers"]
    if post_route["module"] is not module:
        # Restored from the stage cache: rebind the module snapshot and
        # rebuild the net model that wraps it (fresh == invalidated).
        module = post_route["module"]
        net_model = PlacedNetModel(module, interconnect,
                                   io_positions=floorplan.io_positions)

    # -- sign-off -------------------------------------------------------------------
    def _signoff():
        return memo.cached("signoff", _signoff_compute)

    def _routed_model(route):
        """Sign-off net model of ``route`` and its count of MIV nets:
        with cells on two tiers, each net between them gets an MIV."""
        ress, caps = route.resistances_kohm, route.capacitances_ff
        crossing = 0
        if style.tiers > 1:
            ress, caps, crossing = with_mivs(module, library, ress, caps)
        return RoutedNetModel(route.lengths_um, ress, caps), crossing

    def _signoff_compute():
        clock = clock_ns
        route = routing
        opt = optimizer
        routed_model, crossing = _routed_model(route)
        # One-run analyzers stay temporaries: an analyzer keeps its
        # timing graph, which the retune's optimizer and router would
        # otherwise carry at the flow's memory peak.
        report = TimingAnalyzer(module, library, routed_model, clock).run()
        if config.target_clock_ns is None:
            retuned = False
            if report.wns_ps < 0.0:
                # The WLM estimate was optimistic for this layout; relax
                # the period to the achieved one (rounded up to 10 ps) so
                # the design signs off timing-clean, then hand the same
                # clock to the paired T-MI run for the iso-performance
                # comparison.
                clock = math.ceil(
                    (clock * 1000.0 - report.wns_ps) / 10.0) / 100.0
                retuned = True
            elif report.wns_ps > 0.04 * clock * 1000.0:
                # The WLM estimate was badly pessimistic: the achieved
                # layout is much faster than the requested clock, leaving
                # the design under no optimization pressure at all.
                # Re-target near the achieved critical path (keeping the
                # tightness margin) and re-optimize, as a designer
                # iterating on the clock would.
                achieved_ps = clock * 1000.0 - report.wns_ps
                margin = {"fast": 1.0, "medium": 1.05, "slow": 1.30}[
                    config.tightness]
                clock = math.ceil(achieved_ps * margin / 10.0) / 100.0
                opt = Optimizer(library, interconnect, floorplan, clock)
                net_model.invalidate()
                opt.run(module, net_model, fix_drvs=False)
                route = router.run(module)
                routed_model, crossing = _routed_model(route)
                retuned = True
            if retuned:
                report = TimingAnalyzer(module, library, routed_model,
                                        clock).run()
                if report.wns_ps < 0.0:
                    clock = math.ceil(
                        (clock * 1000.0 - report.wns_ps) / 10.0) / 100.0
                    report = TimingAnalyzer(module, library,
                                            routed_model, clock).run()
        # The retune branch may have mutated the module; snapshot it so
        # a cache hit replays the same post-signoff netlist state.
        return {
            "module": module,
            "clock_ns": clock,
            "report": report,
            "routing": route,
            "routed_model": routed_model,
            "crossing_nets": crossing,
        }

    signoff = supervisor.run_stage("signoff", _signoff)
    clock_ns = signoff["clock_ns"]
    report = signoff["report"]
    routing = signoff["routing"]
    routed_model = signoff["routed_model"]
    if signoff["module"] is not module:
        module = signoff["module"]

    # -- power -------------------------------------------------------------------
    def _power():
        def compute():
            return analyze_power(module, library, routed_model, clock_ns,
                                 pi_activity=config.pi_activity,
                                 seq_activity=config.seq_activity)

        return memo.cached("power", compute)

    power = supervisor.run_stage("power", _power)

    # -- invariant audit ----------------------------------------------------------
    # Machine-check what the stages claim (legal placement, connected
    # routing, closing slack arithmetic, summing power) on the final
    # state; the findings land on ``LayoutResult.audit``.  Errors do
    # not abort the flow — degraded runs are expected to carry findings
    # (congestion warnings, missed iso targets) and the tables report
    # them; `repro audit` is the command that turns them into a failure.
    def _audit() -> AuditReport:
        audit_report = AuditReport()
        findings, n = check_placement(module, library, floorplan)
        audit_report.extend(findings, n)
        findings, n = check_routing(module, floorplan, routing,
                                    interconnect)
        audit_report.extend(findings, n)
        findings, n = check_timing(module, library, report, clock_ns)
        audit_report.extend(findings, n)
        findings, n = check_power(power, module, library, routed_model)
        audit_report.extend(findings, n)
        if audit_report.findings:
            counter("audit.findings").inc(
                len(audit_report.findings))
        return audit_report

    audit = supervisor.run_stage("audit", _audit)

    result = LayoutResult(
        config=config,
        clock_ns=clock_ns,
        footprint_um2=floorplan.area_um2,
        core_width_um=floorplan.width_um,
        core_height_um=floorplan.height_um,
        n_cells=module.n_cells,
        n_buffers=_count_buffers(module, library),
        utilization=floorplan.utilization_of(module, library),
        utilization_target=utilization_target,
        total_wirelength_um=routing.total_wirelength_um,
        wns_ps=report.wns_ps,
        power=power,
        routing=routing,
        synthesis_cells=synthesis_cells,
        cts_buffers=cts_buffers,
        opt_buffers=layout.pre_opt_buffers + post_opt_buffers,
        crossing_nets=signoff["crossing_nets"],
        audit=audit,
    )
    if flow_audit.collecting():
        flow_audit.deposit(flow_audit.FlowArtifacts(
            config=config,
            library=library,
            interconnect=interconnect,
            module=module,
            floorplan=floorplan,
            routing=routing,
            routed_model=routed_model,
            timing_report=report,
            clock_ns=clock_ns,
            power=power,
            result=result,
            label=supervisor.run_label,
        ))
    return result
