"""The baseline standard-cell library (Nangate 45 nm open-cell substitute).

Defines the 66-cell set (logical types x drive strengths) the paper folds
into T-MI cells, and builds fully characterized :class:`CellLibrary`
objects for any node / integration style:

* 2D libraries use the planar geometry of
  :func:`~repro.cells.geometry.build_cell_geometry_2d`;
* T-MI libraries use :func:`~repro.cells.folding.fold_cell_geometry` and
  carry the folded cell's extracted parasitics (DIELECTRIC mode — the
  realistic case sits between DIELECTRIC and CONDUCTOR, and the paper's
  Table 2 shows the delta is small).

Characterization uses the fast analytical model by default; pass
``characterizer="mna"`` to run full transient characterization instead.
The analytical model is checked against the MNA transient solver in one
test only (``test_analytic_matches_mna_for_inv``): INV delay within
±45 % at three slew/load points.  Over the 63 cells the MNA path can
characterize (45 nm 2D, 40 ps slew, 4 fF load), analytic ÷ MNA spans
0.75–5.41 for energy and 0.57–2.08 for delay.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import LibraryError
from repro.cells.netlist import build_cell_netlist
from repro.cells.geometry import build_cell_geometry_2d
from repro.cells.folding import FOLD_DEFAULT, FoldSpec, fold_cell_geometry
from repro.cells.library import Cell, CellLibrary, Pin, PinDirection
from repro.extraction.rc import (
    CellParasitics,
    ExtractionMode,
    NetParasitics,
    extract_cell,
)
from repro.characterize.analytic import (
    analytic_characterization,
    pin_capacitance_ff,
)
from repro.characterize.charlib import (
    CharacterizationSetup,
    characterize_cells,
)
from repro.tech.node import TechNode, NODE_45NM

# The 66-cell set: (logical type, drive strengths).
CELL_DEFINITIONS: List[Tuple[str, Tuple[float, ...]]] = [
    ("INV", (1, 2, 4, 8, 16, 32)),
    ("BUF", (1, 2, 4, 8, 16, 32)),
    ("NAND2", (1, 2, 4)),
    ("NAND3", (1, 2, 4)),
    ("NAND4", (1, 2, 4)),
    ("NOR2", (1, 2, 4)),
    ("NOR3", (1, 2, 4)),
    ("NOR4", (1, 2, 4)),
    ("AND2", (1, 2, 4)),
    ("OR2", (1, 2, 4)),
    ("AOI21", (1, 2, 4)),
    ("OAI21", (1, 2, 4)),
    ("AOI22", (1, 2)),
    ("OAI22", (1, 2)),
    ("XOR2", (1, 2)),
    ("XNOR2", (1, 2)),
    ("MUX2", (1, 2)),
    ("HA", (1,)),
    ("FA", (1,)),
    ("DFF", (1, 2)),
    ("DFFR", (1, 2)),
    ("SDFF", (1, 2)),
    ("DLH", (1, 2)),
    ("TBUF", (1,)),
    ("CLKBUF", (1, 4, 8)),
]


def cell_count() -> int:
    """Total number of cells in the library definition (66)."""
    return sum(len(strengths) for _, strengths in CELL_DEFINITIONS)


def build_cell(cell_type: str, strength: float, node: TechNode,
               is_3d: bool, characterizer: str = "analytic",
               char_setup: Optional[CharacterizationSetup] = None,
               fold: FoldSpec = FOLD_DEFAULT) -> Cell:
    """Build one fully characterized cell."""
    return _build_cells([(cell_type, strength)], node, is_3d, characterizer,
                        char_setup, fold)[0]


def _build_cells(types: List[Tuple[str, float]], node: TechNode,
                 is_3d: bool, characterizer: str,
                 char_setup: Optional[CharacterizationSetup],
                 fold: FoldSpec) -> List[Cell]:
    """Build and characterize cells; the MNA path characterizes them all
    in one :func:`characterize_cells` call."""
    cells = []
    for cell_type, strength in types:
        name = f"{cell_type}_X{strength:g}"
        netlist = build_cell_netlist(cell_type, float(strength), node=node,
                                     cell_name=name)
        if is_3d:
            geometry = fold_cell_geometry(netlist, node, fold)
            parasitics = _average_3d_parasitics(geometry, node)
        else:
            geometry = build_cell_geometry_2d(netlist, node)
            parasitics = extract_cell(geometry, ExtractionMode.FLAT, node)

        pins: Dict[str, Pin] = {}
        for pin_name in netlist.input_pins:
            pins[pin_name] = Pin(
                name=pin_name,
                direction=PinDirection.INPUT,
                cap_ff=pin_capacitance_ff(netlist, pin_name, node,
                                          parasitics),
            )
        for pin_name in netlist.clock_pins:
            pins[pin_name] = Pin(
                name=pin_name,
                direction=PinDirection.INPUT,
                cap_ff=pin_capacitance_ff(netlist, pin_name, node,
                                          parasitics),
                is_clock=True,
            )
        for pin_name in netlist.output_pins:
            pins[pin_name] = Pin(
                name=pin_name,
                direction=PinDirection.OUTPUT,
                cap_ff=0.0,
            )
        cells.append((Cell(name=name, cell_type=cell_type,
                           strength=float(strength), netlist=netlist,
                           geometry=geometry, pins=pins), parasitics))

    if characterizer == "analytic":
        chars = [analytic_characterization(
            cell.netlist, parasitics, node, cell_type=cell.cell_type,
            strength=cell.strength) for cell, parasitics in cells]
    elif characterizer == "mna":
        setup = char_setup or CharacterizationSetup(node=node)
        chars = characterize_cells([
            (cell.netlist, parasitics, setup, cell.cell_type)
            for cell, parasitics in cells])
    else:
        raise LibraryError(f"unknown characterizer {characterizer!r}")
    for (cell, _parasitics), char in zip(cells, chars):
        cell.characterization = char
    return [cell for cell, _parasitics in cells]


def _average_3d_parasitics(geometry, node) -> CellParasitics:
    """Average of the dielectric / conductor extraction bounds.

    Section 3.2: "the real case would be between these two extreme
    cases" — library characterization uses the midpoint.
    """
    hi = extract_cell(geometry, ExtractionMode.DIELECTRIC, node)
    lo = extract_cell(geometry, ExtractionMode.CONDUCTOR, node)
    nets = {}
    for name, net_hi in hi.nets.items():
        net_lo = lo.nets[name]
        nets[name] = NetParasitics(
            net=name,
            resistance_kohm=net_hi.resistance_kohm,
            capacitance_ff=(net_hi.capacitance_ff
                            + net_lo.capacitance_ff) / 2.0,
            coupling_ff=(net_hi.coupling_ff + net_lo.coupling_ff) / 2.0,
        )
    return CellParasitics(cell_name=hi.cell_name,
                          mode=ExtractionMode.DIELECTRIC, nets=nets)


def build_nangate_library(node: TechNode = NODE_45NM, is_3d: bool = False,
                          characterizer: str = "analytic",
                          cell_subset: Optional[List[Tuple[str, float]]] = None,
                          fold: FoldSpec = FOLD_DEFAULT
                          ) -> CellLibrary:
    """Build the full (or a subset) library for one node + style.

    ``cell_subset`` limits construction to specific (type, strength)
    pairs — used by cell-level studies that only need a few cells.
    ``fold`` selects the T-MI fold (tier count / style / MIV keep-out);
    it is ignored for 2D libraries.
    """
    style = "T-MI" if is_3d else "2D"
    library = CellLibrary(name=f"nangate-{node.name}-{style}", node=node,
                          is_3d=is_3d, fold=fold)
    wanted = None
    if cell_subset is not None:
        wanted = {(t, float(s)) for t, s in cell_subset}
    types = [(cell_type, float(strength))
             for cell_type, strengths in CELL_DEFINITIONS
             for strength in strengths
             if wanted is None or (cell_type, float(strength)) in wanted]
    for cell in _build_cells(types, node, is_3d, characterizer, None, fold):
        library.add(cell)
    return library
