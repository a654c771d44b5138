"""2D -> T-MI cell folding (Section 3.1 / Fig. 2 of the paper), N-tier.

Folding splits a standard cell across device tiers.  The paper's scenario
is the 2-tier P/N split: PMOS transistors (with their poly, contacts, and
an added bottom metal MB1) move to the bottom tier; NMOS transistors stay
on the top tier.  Every net that connects two tiers gets a monolithic
inter-tier via (MIV) per tier boundary crossed.  Consequences the model
reproduces:

* Cell height drops from 1.4 um to 0.84 um (40 %), not 50 %, because the
  P/N width mismatch leaves slack on the NMOS side and MIVs take top-tier
  space (Section 3.2).
* The long vertical poly and M1 runs between the PMOS and NMOS rows are
  replaced by short per-tier stubs plus an MIV stack
  (CTB - MB1 - MIV - CT - M1), so simple cells *lose* internal resistance.
* Each tier crossing pays the via-stack overhead and MB1/M1 landing
  detours; in wiring-dense cells (DFF) the crossings outnumber the poly
  savings and the 3D cell ends up with *more* internal RC than 2D, exactly
  the Table 1 behaviour.
* Direct source/drain contacts (Fig. 5(c)) shave one contact + landing off
  eligible crossings.

The generalization is driven by a :class:`FoldSpec`: tier count N in
[2, 8], a fold style assigning devices to tiers, and an MIV keep-out-zone
size (ISQED'23, arXiv 2304.13808).  The default spec specializes
*byte-for-byte* to the paper's 2-tier fold — the frozen 2-tier reference
implementation is kept below as :func:`_fold_cell_geometry_reference` and
the conformance suite pins the generalized path to it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.cells.geometry import (
    CellGeometry,
    WireSegment,
    ViaGroup,
    assign_columns,
    _net_column_extents,
    POLY_PITCH_45_UM,
    POLY_HROUTE_FRAC,
    M1_STUB_FRAC,
    MIN_CELL_PITCHES,
)
from repro.cells.netlist import CellNetlist, VDD_NET, VSS_NET
from repro.errors import TechnologyError
from repro.tech.miv import MIV_KOZ_DEFAULT
from repro.tech.node import TechNode, NODE_45NM, TMI_HEIGHT_RATIO

# Per-tier poly strip length as a fraction of the folded cell height: the
# gate only has to cross its own tier's diffusion, with the MIV landing
# directly on the gate (Fig. 2(b)).
TIER_POLY_FRAC = 0.18
# MB1 / M1 landing-pad run per MIV, in poly pitches.
LANDING_PITCHES = 0.45
# MIV sites available per poly column on the top tier (mid-cell strip plus
# the cell boundary row).  Each tier boundary brings its own site row.
MIV_SITES_PER_COLUMN = 2.0
# Detour growth once MIV demand exceeds available sites: extra horizontal
# routing per crossing, in poly pitches per unit of overflow ratio.
DETOUR_PITCHES_PER_OVERFLOW = 1.6
# Detour multiplier on the per-tier duplicated horizontal gate routing:
# MIV landings and the second tier's contacts block the straight path.
H_ROUTE_DETOUR = 1.50

# Known fold styles: "pn" stacks all PMOS below all NMOS (the paper's
# split, generalized to split each polarity across its half of the
# tiers); "interleave" alternates P and N tiers so crossings stay short.
# "gate" folds no cell: planar cells sit on two tiers (G-MI, the style
# the paper's introduction sets beside T-MI).
FOLD_STYLES = ("pn", "interleave", "gate")
MIN_FOLD_TIERS = 2
MAX_FOLD_TIERS = 8


@dataclass(frozen=True)
class FoldSpec:
    """How a 2D cell folds into tiers.

    The default spec (2 tiers, "pn" style, half-diameter keep-out) is the
    paper's scenario and reproduces the legacy fold byte-for-byte.
    """

    tiers: int = 2
    style: str = "pn"
    koz_diameters: float = MIV_KOZ_DEFAULT

    def __post_init__(self) -> None:
        if not (MIN_FOLD_TIERS <= self.tiers <= MAX_FOLD_TIERS):
            raise TechnologyError(
                f"fold tiers must be in [{MIN_FOLD_TIERS}, "
                f"{MAX_FOLD_TIERS}], got {self.tiers}")
        if self.style not in FOLD_STYLES:
            known = ", ".join(FOLD_STYLES)
            raise TechnologyError(
                f"unknown fold style {self.style!r}; known: {known}")
        if self.style == "gate" and self.tiers != 2:
            raise TechnologyError(
                f"the gate fold places cells on 2 tiers, got {self.tiers}")
        if self.koz_diameters < 0.0:
            raise TechnologyError("MIV keep-out must be non-negative")

    def folded_height_um(self, node: TechNode) -> float:
        """Folded cell height: the paper's 2-tier 40 % reduction, with
        each further tier halving the per-tier diffusion budget."""
        return node.cell_height_um * TMI_HEIGHT_RATIO * (2.0 / self.tiers)

    def tier_groups(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """(PMOS tiers, NMOS tiers) for this style, bottom-up."""
        if self.style == "pn":
            split = self.tiers // 2
            return (tuple(range(0, split)),
                    tuple(range(split, self.tiers)))
        return (tuple(range(0, self.tiers, 2)),
                tuple(range(1, self.tiers, 2)))


FOLD_DEFAULT = FoldSpec()


def device_tiers(netlist: CellNetlist, fold: FoldSpec) -> List[int]:
    """Tier of every device, in netlist device order.

    Devices round-robin across their polarity's tier group so wide cells
    spread diffusion evenly; at N=2 each group is a single tier and the
    assignment collapses to the paper's P-bottom / N-top split.
    """
    p_group, n_group = fold.tier_groups()
    counts = {True: 0, False: 0}
    tiers: List[int] = []
    for dev in netlist.devices:
        group = p_group if dev.is_pmos else n_group
        idx = counts[dev.is_pmos]
        counts[dev.is_pmos] = idx + 1
        tiers.append(group[idx % len(group)])
    return tiers


def tier_layers(tier: int, tiers: int) -> Tuple[str, str, str, str]:
    """(poly, metal, diffusion contact, poly contact) layer names of a
    tier.  The top tier keeps the unsuffixed 2D names and the bottom tier
    the paper's ``*B`` names, so 2-tier folds are byte-identical; middle
    tiers count up from the bottom (``PB2``, ``MB2``, ...)."""
    if tier == tiers - 1:
        return ("P", "M1", "CT", "PC")
    if tier == 0:
        return ("PB", "MB1", "CTB", "PCB")
    return (f"PB{tier + 1}", f"MB{tier + 1}",
            f"CTB{tier + 1}", f"PCB{tier + 1}")


def fold_cell_geometry(netlist: CellNetlist,
                       node: TechNode = NODE_45NM,
                       fold: FoldSpec = FOLD_DEFAULT) -> CellGeometry:
    """Produce the T-MI (folded) geometry of a cell for a fold spec."""
    tiers = fold.tiers
    scale = node.geometry_scale
    pitch = POLY_PITCH_45_UM * scale
    height = fold.folded_height_um(node)
    gate_columns, n_cols = assign_columns(netlist)
    width = max(n_cols + 0.5, MIN_CELL_PITCHES) * pitch

    extents = _net_column_extents(netlist, gate_columns)
    gate_nets = set(gate_columns)
    dev_tier = device_tiers(netlist, fold)

    # Tiers each net touches (through any gate or source/drain terminal
    # of a device folded onto that tier), bottom-up.
    net_tiers: Dict[str, List[int]] = {}
    for dev, tier in zip(netlist.devices, dev_tier):
        for terminal in (dev.gate, dev.drain, dev.source):
            touched = net_tiers.setdefault(terminal, [])
            if tier not in touched:
                touched.append(tier)
    for touched in net_tiers.values():
        touched.sort()

    # First pass: count tier-boundary crossings to size the congestion
    # detour.  A net spanning tiers [lo, hi] needs (hi - lo) MIVs.
    crossing_span: Dict[str, int] = {}
    miv_count = 0
    for net in extents:
        if net in (VDD_NET, VSS_NET):
            continue
        touched = net_tiers.get(net, [])
        span = touched[-1] - touched[0] if touched else 0
        if span > 0:
            crossing_span[net] = span
            miv_count += span
    sites = max(n_cols * MIV_SITES_PER_COLUMN * float(tiers - 1), 1.0)
    overflow = max(0.0, miv_count / sites - 0.75)
    detour_um = DETOUR_PITCHES_PER_OVERFLOW * overflow * pitch

    segments: List[WireSegment] = []
    vias: List[ViaGroup] = []
    landing_um = LANDING_PITCHES * pitch

    for net, (lo, hi, _touches_p, _touches_n) in extents.items():
        if net in (VDD_NET, VSS_NET):
            continue
        h_span = (hi - lo) * pitch
        touched = net_tiers.get(net, [])
        span = crossing_span.get(net, 0)
        if net in gate_nets:
            n_strips = len(gate_columns[net])
            strip_len = TIER_POLY_FRAC * height
            for tier in touched:
                poly, _metal, _ct, poly_contact = tier_layers(tier, tiers)
                segments.append(
                    WireSegment(poly, net, strip_len * n_strips))
                vias.append(ViaGroup(poly_contact, net, n_strips))
            if h_span > 0.0:
                # Horizontal gate distribution must be replicated on every
                # tier that has gates of this net: in 2D one poly/M1 run
                # serves both device rows, after folding each tier needs
                # its own.  This duplication is why wiring-dense cells
                # (DFF) end up with *more* internal RC in 3D (Table 1).
                h_eff = h_span * H_ROUTE_DETOUR
                for tier in touched:
                    poly, metal, _ct, _pc = tier_layers(tier, tiers)
                    segments.append(
                        WireSegment(poly, net, h_eff * POLY_HROUTE_FRAC))
                    segments.append(
                        WireSegment(metal, net,
                                    h_eff * (1.0 - POLY_HROUTE_FRAC)))
        is_sd_net = any(net in (d.drain, d.source) for d in netlist.devices)
        if is_sd_net:
            for tier in touched:
                n_contacts = sum(
                    1 for d, t in zip(netlist.devices, dev_tier)
                    if t == tier
                    for term in (d.drain, d.source) if term == net)
                if n_contacts:
                    _poly, metal, contact, _pc = tier_layers(tier, tiers)
                    segments.append(WireSegment(
                        metal, net, max(h_span, M1_STUB_FRAC * height)))
                    vias.append(ViaGroup(contact, net, n_contacts))
        if span > 0:
            # The MIV stack: landing pads on every tier crossed plus one
            # via per boundary, and congestion-driven detour when MIVs
            # outnumber their sites.
            for tier in range(touched[0], touched[-1] + 1):
                _poly, metal, _ct, _pc = tier_layers(tier, tiers)
                segments.append(
                    WireSegment(metal, net, landing_um + detour_um))
            vias.append(ViaGroup("MIV", net, span))
            if is_sd_net:
                # Direct S/D contact saves one landing on the top tier.
                vias.append(ViaGroup("DSCT", net, 1))

    top = tiers - 1
    lower_area = sum(d.width_um for d, t in zip(netlist.devices, dev_tier)
                     if t != top)
    top_area = sum(d.width_um for d, t in zip(netlist.devices, dev_tier)
                   if t == top)
    gate_len = node.drawn_length_nm / 1000.0
    side_um = ((1.0 + 2.0 * fold.koz_diameters)
               * node.miv_diameter_nm / 1000.0)
    miv_area = miv_count * side_um ** 2

    return CellGeometry(
        cell_name=netlist.cell_name,
        node_name=node.name,
        width_um=width,
        height_um=height,
        is_3d=True,
        segments=segments,
        vias=vias,
        n_columns=n_cols,
        miv_count=miv_count,
        bottom_tier_device_area_um2=lower_area * gate_len,
        top_tier_device_area_um2=top_area * gate_len + miv_area,
        tiers=tiers,
    )


def fold_library(netlists: Dict[str, CellNetlist],
                 node: TechNode = NODE_45NM,
                 fold: FoldSpec = FOLD_DEFAULT) -> Dict[str, CellGeometry]:
    """Fold every cell netlist of a library; returns name -> 3D geometry."""
    return {name: fold_cell_geometry(nl, node, fold)
            for name, nl in netlists.items()}


# ---------------------------------------------------------------------------
# Frozen 2-tier reference
# ---------------------------------------------------------------------------

def _fold_cell_geometry_reference(netlist: CellNetlist,
                                  node: TechNode = NODE_45NM
                                  ) -> CellGeometry:
    """The original hardcoded 2-tier fold, kept verbatim as the byte-level
    conformance oracle for the generalized path (do not edit)."""
    scale = node.geometry_scale
    pitch = POLY_PITCH_45_UM * scale
    height = node.tmi_cell_height_um
    gate_columns, n_cols = assign_columns(netlist)
    width = max(n_cols + 0.5, MIN_CELL_PITCHES) * pitch

    extents = _net_column_extents(netlist, gate_columns)
    gate_nets = set(gate_columns)

    crossing_nets: List[str] = []
    for net, (_, _, touches_p, touches_n) in extents.items():
        if net in (VDD_NET, VSS_NET):
            continue
        if touches_p and touches_n:
            crossing_nets.append(net)
    miv_count = len(crossing_nets)
    sites = max(n_cols * MIV_SITES_PER_COLUMN, 1.0)
    overflow = max(0.0, miv_count / sites - 0.75)
    detour_um = DETOUR_PITCHES_PER_OVERFLOW * overflow * pitch

    segments: List[WireSegment] = []
    vias: List[ViaGroup] = []
    landing_um = LANDING_PITCHES * pitch

    for net, (lo, hi, touches_p, touches_n) in extents.items():
        if net in (VDD_NET, VSS_NET):
            continue
        h_span = (hi - lo) * pitch
        crosses = touches_p and touches_n
        if net in gate_nets:
            n_strips = len(gate_columns[net])
            strip_len = TIER_POLY_FRAC * height
            if touches_p:
                segments.append(WireSegment("PB", net, strip_len * n_strips))
                vias.append(ViaGroup("PCB", net, n_strips))
            if touches_n:
                segments.append(WireSegment("P", net, strip_len * n_strips))
                vias.append(ViaGroup("PC", net, n_strips))
            if h_span > 0.0:
                h_eff = h_span * H_ROUTE_DETOUR
                if touches_p:
                    segments.append(
                        WireSegment("PB", net, h_eff * POLY_HROUTE_FRAC))
                    segments.append(
                        WireSegment("MB1", net,
                                    h_eff * (1.0 - POLY_HROUTE_FRAC)))
                if touches_n:
                    segments.append(
                        WireSegment("P", net, h_eff * POLY_HROUTE_FRAC))
                    segments.append(
                        WireSegment("M1", net,
                                    h_eff * (1.0 - POLY_HROUTE_FRAC)))
        is_sd_net = any(net in (d.drain, d.source) for d in netlist.devices)
        if is_sd_net:
            n_contacts_p = sum(
                1 for d in netlist.devices if d.is_pmos
                for t in (d.drain, d.source) if t == net)
            n_contacts_n = sum(
                1 for d in netlist.devices if not d.is_pmos
                for t in (d.drain, d.source) if t == net)
            if n_contacts_p:
                segments.append(WireSegment(
                    "MB1", net, max(h_span, M1_STUB_FRAC * height)))
                vias.append(ViaGroup("CTB", net, n_contacts_p))
            if n_contacts_n:
                segments.append(WireSegment(
                    "M1", net, max(h_span, M1_STUB_FRAC * height)))
                vias.append(ViaGroup("CT", net, n_contacts_n))
        if crosses:
            segments.append(WireSegment("MB1", net, landing_um + detour_um))
            segments.append(WireSegment("M1", net, landing_um + detour_um))
            vias.append(ViaGroup("MIV", net, 1))
            if is_sd_net:
                vias.append(ViaGroup("DSCT", net, 1))

    p_area = sum(d.width_um for d in netlist.devices if d.is_pmos)
    n_area = sum(d.width_um for d in netlist.devices if not d.is_pmos)
    gate_len = node.drawn_length_nm / 1000.0
    miv_area = miv_count * (2.0 * node.miv_diameter_nm / 1000.0) ** 2

    return CellGeometry(
        cell_name=netlist.cell_name,
        node_name=node.name,
        width_um=width,
        height_um=height,
        is_3d=True,
        segments=segments,
        vias=vias,
        n_columns=n_cols,
        miv_count=miv_count,
        bottom_tier_device_area_um2=p_area * gate_len,
        top_tier_device_area_um2=n_area * gate_len + miv_area,
    )
