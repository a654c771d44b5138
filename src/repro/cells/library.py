"""Cell and cell-library containers.

A :class:`Cell` bundles everything the flow needs to know about one library
cell: its logical type and drive strength, transistor netlist, layout
geometry (2D or folded T-MI), pins with input capacitances, footprint, and
— once characterization has run — Liberty-style timing/power data.

A :class:`CellLibrary` is a named collection of cells for one technology
node and one integration style (2D or T-MI), with the sizing / buffering
queries the synthesis and optimization engines use.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import LibraryError
from repro.cells.netlist import CellNetlist, is_sequential_type
from repro.cells.folding import FOLD_DEFAULT, FoldSpec
from repro.cells.geometry import CellGeometry
from repro.characterize.liberty import CellCharacterization
from repro.tech.node import TechNode


class PinDirection(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"


@dataclass(frozen=True)
class Pin:
    """A cell pin with its input capacitance (fF; 0 for outputs)."""

    name: str
    direction: PinDirection
    cap_ff: float
    is_clock: bool = False


@dataclass
class Cell:
    """One library cell."""

    name: str
    cell_type: str              # logical type, e.g. "NAND2"
    strength: float             # drive multiplier (X1 = 1.0)
    netlist: CellNetlist
    geometry: CellGeometry
    pins: Dict[str, Pin]
    characterization: Optional[CellCharacterization] = None

    @property
    def is_sequential(self) -> bool:
        return is_sequential_type(self.cell_type)

    @property
    def width_um(self) -> float:
        return self.geometry.width_um

    @property
    def height_um(self) -> float:
        return self.geometry.height_um

    @property
    def area_um2(self) -> float:
        return self.geometry.footprint_um2

    @property
    def is_buffer(self) -> bool:
        return self.cell_type in ("BUF", "INV", "CLKBUF")

    def input_pins(self) -> List[Pin]:
        return [p for p in self.pins.values()
                if p.direction == PinDirection.INPUT and not p.is_clock]

    def output_pins(self) -> List[Pin]:
        return [p for p in self.pins.values()
                if p.direction == PinDirection.OUTPUT]

    def clock_pin(self) -> Optional[Pin]:
        for pin in self.pins.values():
            if pin.is_clock:
                return pin
        return None

    def primary_output(self) -> Pin:
        outs = self.output_pins()
        if not outs:
            raise LibraryError(f"cell {self.name!r} has no output pins")
        return outs[0]

    def pin(self, name: str) -> Pin:
        try:
            return self.pins[name]
        except KeyError:
            raise LibraryError(f"cell {self.name!r} has no pin {name!r}")

    def pin_cap_ff(self, name: str) -> float:
        return self.pin(name).cap_ff

    def max_input_cap_ff(self) -> float:
        inputs = self.input_pins()
        if not inputs:
            return 0.0
        return max(p.cap_ff for p in inputs)

    @property
    def leakage_mw(self) -> float:
        if self.characterization is None:
            raise LibraryError(f"cell {self.name!r} is not characterized")
        return self.characterization.leakage_mw

    def delay_ps(self, slew_ps: float, load_ff: float,
                 output_pin: Optional[str] = None) -> float:
        """Worst-arc (or named-arc) cell delay for given slew/load."""
        char = self._char()
        arc = (char.arc_for(output_pin) if output_pin
               else char.worst_arc())
        return arc.delay.lookup(slew_ps, load_ff)

    def output_slew_ps(self, slew_ps: float, load_ff: float,
                       output_pin: Optional[str] = None) -> float:
        char = self._char()
        arc = (char.arc_for(output_pin) if output_pin
               else char.worst_arc())
        return arc.output_slew.lookup(slew_ps, load_ff)

    def internal_energy_fj(self, slew_ps: float, load_ff: float,
                           output_pin: Optional[str] = None) -> float:
        char = self._char()
        arc = (char.arc_for(output_pin) if output_pin
               else char.worst_arc())
        return arc.internal_energy.lookup(slew_ps, load_ff)

    def _char(self) -> CellCharacterization:
        if self.characterization is None:
            raise LibraryError(f"cell {self.name!r} is not characterized")
        return self.characterization


@dataclass(frozen=True)
class CellTimingMeta:
    """Interned per-cell facts the batched timing kernels probe by name.

    Pin directions, caps, and sequential-ness never change after a cell
    is added, so the vectorized STA resolves them through one dict
    lookup per cell name instead of an attribute/enum chain per pin
    visit (the dominant cost of the graph-building loops at scale).
    """

    is_sequential: bool
    input_pins: FrozenSet[str]
    output_pins: FrozenSet[str]
    pin_caps: Dict[str, float]


class CellLibrary:
    """A characterized standard-cell library for one node + style."""

    def __init__(self, name: str, node: TechNode, is_3d: bool,
                 fold: FoldSpec = FOLD_DEFAULT) -> None:
        self.name = name
        self.node = node
        self.is_3d = is_3d
        self.fold = fold
        self._cells: Dict[str, Cell] = {}
        self._by_type: Dict[str, List[Cell]] = {}
        self._timing_meta: Dict[str, CellTimingMeta] = {}

    @property
    def row_height_um(self) -> float:
        """Placement row height: the folded height for T-MI libraries
        (exactly ``node.tmi_cell_height_um`` at the default 2-tier fold),
        the 2D cell height otherwise."""
        if self.is_3d:
            return self.fold.folded_height_um(self.node)
        return self.node.cell_height_um

    # -- construction --------------------------------------------------------

    def add(self, cell: Cell) -> None:
        if cell.name in self._cells:
            raise LibraryError(f"duplicate cell {cell.name!r}")
        self._cells[cell.name] = cell
        self._by_type.setdefault(cell.cell_type, []).append(cell)
        self._by_type[cell.cell_type].sort(key=lambda c: c.strength)

    # -- queries --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self):
        return iter(self._cells.values())

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def cell(self, name: str) -> Cell:
        try:
            return self._cells[name]
        except KeyError:
            raise LibraryError(
                f"library {self.name!r} has no cell {name!r}")

    def cell_names(self) -> List[str]:
        return sorted(self._cells)

    def timing_meta(self, name: str) -> CellTimingMeta:
        meta = self._timing_meta.get(name)
        if meta is None:
            cell = self.cell(name)
            pins = list(cell.pins.values())
            meta = CellTimingMeta(
                is_sequential=cell.is_sequential,
                input_pins=frozenset(
                    p.name for p in pins
                    if p.direction == PinDirection.INPUT),
                output_pins=frozenset(
                    p.name for p in pins
                    if p.direction == PinDirection.OUTPUT),
                pin_caps={p.name: p.cap_ff for p in pins},
            )
            self._timing_meta[name] = meta
        return meta

    def cells_of_type(self, cell_type: str) -> List[Cell]:
        """All strengths of a logical type, weakest first."""
        cells = self._by_type.get(cell_type)
        if not cells:
            raise LibraryError(
                f"library {self.name!r} has no cells of type {cell_type!r}")
        return list(cells)

    def smallest(self, cell_type: str) -> Cell:
        return self.cells_of_type(cell_type)[0]

    def buffers(self) -> List[Cell]:
        """Non-inverting buffers, weakest first."""
        return self.cells_of_type("BUF")

    def size_up(self, cell: Cell) -> Optional[Cell]:
        """Next stronger cell of the same type, or None at the top."""
        family = self.cells_of_type(cell.cell_type)
        idx = family.index(self._cells[cell.name])
        if idx + 1 < len(family):
            return family[idx + 1]
        return None

    def size_down(self, cell: Cell) -> Optional[Cell]:
        """Next weaker cell of the same type, or None at the bottom."""
        family = self.cells_of_type(cell.cell_type)
        idx = family.index(self._cells[cell.name])
        if idx > 0:
            return family[idx - 1]
        return None

    def scale_pin_caps(self, factor: float) -> "CellLibrary":
        """A copy of the library with all input pin caps scaled.

        Implements the Table 8 study (20/40/60 % reduced pin cap at 7 nm).
        Timing tables are left untouched: the study isolates the *net*
        capacitance effect, as the paper does.
        """
        if factor <= 0.0:
            raise LibraryError("pin-cap scale factor must be positive")
        clone = CellLibrary(f"{self.name}-pincap{factor:g}", self.node,
                            self.is_3d, fold=self.fold)
        for cell in self:
            new_pins = {
                name: Pin(pin.name, pin.direction, pin.cap_ff * factor
                          if pin.direction == PinDirection.INPUT else pin.cap_ff,
                          pin.is_clock)
                for name, pin in cell.pins.items()
            }
            clone.add(Cell(
                name=cell.name,
                cell_type=cell.cell_type,
                strength=cell.strength,
                netlist=cell.netlist,
                geometry=cell.geometry,
                pins=new_pins,
                characterization=cell.characterization,
            ))
        return clone

    def total_types(self) -> List[str]:
        return sorted(self._by_type)


def instance_cells(library: CellLibrary, instances
                   ) -> Tuple[np.ndarray, List[Cell]]:
    """``(ids, cells)``: the distinct cells of ``instances`` in order of
    first use, and each instance's index into ``cells``."""
    names: Dict[str, int] = {}
    ids = np.array([names.setdefault(inst.cell_name, len(names))
                    for inst in instances], dtype=np.intp)
    return ids, [library.cell(name) for name in names]


def pin_caps(cells: Sequence[Cell], cell_ids: np.ndarray,
             pin_ids: np.ndarray, pin_names: Sequence[str]) -> np.ndarray:
    """Cap of pin ``pin_names[pin_ids[k]]`` of ``cells[cell_ids[k]]``
    for every ``k``; a pin its cell lacks raises like :meth:`Cell.pin`."""
    table = np.array([[cell.pins[p].cap_ff if p in cell.pins else np.nan
                       for p in pin_names] for cell in cells]
                     ).reshape(len(cells), len(pin_names))
    caps = table[cell_ids, pin_ids]
    missing = np.flatnonzero(np.isnan(caps))
    if missing.size:
        k = int(missing[0])
        cells[cell_ids[k]].pin(pin_names[pin_ids[k]])
    return caps
