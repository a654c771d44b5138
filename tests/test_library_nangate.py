"""Cell library and Nangate-substitute tests."""

import pytest

from repro.errors import CharacterizationError, LibraryError
from repro.cells.library import PinDirection
from repro.cells.nangate import (
    CELL_DEFINITIONS,
    build_cell,
    build_nangate_library,
    cell_count,
)
from repro.tech.node import NODE_45NM


def test_library_has_66_cells(lib45_2d):
    # Supplement S1: "We created total 66 T-MI cells".
    assert cell_count() == 66
    assert len(lib45_2d) == 66


def test_all_cells_characterized(lib45_2d):
    for cell in lib45_2d:
        assert cell.characterization is not None
        assert cell.leakage_mw > 0.0
        arc = cell.characterization.worst_arc()
        assert arc.delay.lookup(37.5, 3.2) > 0.0


def test_pin_caps_positive_and_ordered(lib45_2d):
    inv1 = lib45_2d.cell("INV_X1")
    inv4 = lib45_2d.cell("INV_X4")
    assert inv1.pin_cap_ff("A") > 0.1
    assert inv4.pin_cap_ff("A") > inv1.pin_cap_ff("A")


def test_inv_input_cap_matches_table11(lib45_2d):
    # Table 11: 45 nm INV input cap 0.463 fF.
    assert lib45_2d.cell("INV_X1").pin_cap_ff("A") == pytest.approx(
        0.463, rel=0.35)


def test_strength_ordering_of_delay(lib45_2d):
    d1 = lib45_2d.cell("INV_X1").delay_ps(37.5, 6.4)
    d4 = lib45_2d.cell("INV_X4").delay_ps(37.5, 6.4)
    assert d4 < d1


def test_size_up_down(lib45_2d):
    inv1 = lib45_2d.cell("INV_X1")
    inv2 = lib45_2d.size_up(inv1)
    assert inv2.name == "INV_X2"
    assert lib45_2d.size_down(inv2).name == "INV_X1"
    assert lib45_2d.size_down(inv1) is None
    top = lib45_2d.cell("INV_X32")
    assert lib45_2d.size_up(top) is None


def test_buffers_query(lib45_2d):
    bufs = lib45_2d.buffers()
    assert [b.strength for b in bufs] == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    assert all(b.cell_type == "BUF" for b in bufs)


def test_sequential_flags(lib45_2d):
    assert lib45_2d.cell("DFF_X1").is_sequential
    assert not lib45_2d.cell("NAND2_X1").is_sequential
    clk = lib45_2d.cell("DFF_X1").clock_pin()
    assert clk is not None and clk.name == "CK"


def test_3d_library_cells_smaller(lib45_2d, lib45_3d):
    for name in ("INV_X1", "NAND2_X1", "DFF_X1"):
        c2 = lib45_2d.cell(name)
        c3 = lib45_3d.cell(name)
        assert c3.area_um2 == pytest.approx(c2.area_um2 * 0.6, rel=0.01)
        assert c3.geometry.is_3d


def test_3d_timing_close_to_2d(lib45_2d, lib45_3d):
    # Table 2's conclusion holds for the analytic library too.
    for name in ("INV_X1", "NAND2_X1", "MUX2_X1"):
        d2 = lib45_2d.cell(name).delay_ps(37.5, 3.2)
        d3 = lib45_3d.cell(name).delay_ps(37.5, 3.2)
        assert d3 / d2 == pytest.approx(1.0, abs=0.10)


def test_7nm_library_faster_and_lower_cap(lib45_2d, lib7_2d):
    inv45 = lib45_2d.cell("INV_X1")
    inv7 = lib7_2d.cell("INV_X1")
    assert inv7.pin_cap_ff("A") < inv45.pin_cap_ff("A") * 0.5
    assert inv7.delay_ps(19.0, 3.2) < inv45.delay_ps(19.0, 3.2)
    assert inv7.area_um2 < inv45.area_um2 * 0.05


def test_scale_pin_caps(lib7_2d):
    scaled = lib7_2d.scale_pin_caps(0.6)
    base_cap = lib7_2d.cell("NAND2_X1").pin_cap_ff("A")
    assert scaled.cell("NAND2_X1").pin_cap_ff("A") == pytest.approx(
        base_cap * 0.6)
    # Output pins unaffected; timing tables shared.
    assert scaled.cell("NAND2_X1").characterization is \
        lib7_2d.cell("NAND2_X1").characterization


def test_unknown_cell_raises(lib45_2d):
    with pytest.raises(LibraryError):
        lib45_2d.cell("NAND9_X9")
    with pytest.raises(LibraryError):
        lib45_2d.cells_of_type("NAND9")


def test_build_single_cell_mna_path():
    cell = build_cell("INV", 1.0, NODE_45NM, is_3d=False,
                      characterizer="analytic")
    assert cell.name == "INV_X1"
    with pytest.raises(LibraryError):
        build_cell("INV", 1.0, NODE_45NM, is_3d=False,
                   characterizer="spice")


@pytest.mark.parametrize("is_3d", [False, True])
def test_mna_library_equals_per_cell_characterization(is_3d):
    # One characterize_cells call for the library (every INV strength in
    # one lockstep group) gives each cell's own tables bit for bit.
    from repro.cells.nangate import _average_3d_parasitics
    from repro.characterize.charlib import (
        CharacterizationSetup,
        characterize_cell,
    )
    from repro.extraction.rc import ExtractionMode, extract_cell

    subset = [("INV", s) for s in (1, 2, 4, 8, 16, 32)]
    library = build_nangate_library(NODE_45NM, is_3d, characterizer="mna",
                                    cell_subset=subset)
    assert [cell.name for cell in library] == [
        f"INV_X{s}" for _t, s in subset]
    setup = CharacterizationSetup(node=NODE_45NM)
    for cell in library:
        parasitics = (_average_3d_parasitics(cell.geometry, NODE_45NM)
                      if is_3d else extract_cell(cell.geometry,
                                                 ExtractionMode.FLAT,
                                                 NODE_45NM))
        want = characterize_cell(cell.netlist, parasitics, setup, "INV")
        got = cell.characterization
        for arc_name, arc in want.arcs.items():
            other = got.arcs[arc_name]
            for table in ("delay", "output_slew", "internal_energy"):
                assert (getattr(other, table).values.tobytes()
                        == getattr(arc, table).values.tobytes())
        assert got.leakage_mw == want.leakage_mw
        assert got.setup_time_ps == want.setup_time_ps


def test_mna_library_raises_for_the_first_failing_cell():
    # DLH_X1's measurement never crosses mid-rail; the library call
    # raises that cell's error, as a cell-by-cell build does.
    with pytest.raises(CharacterizationError,
                       match=r"^waveform never crosses 0\.550 V after "
                             r"0\.000 ns$"):
        build_nangate_library(NODE_45NM, False, characterizer="mna",
                              cell_subset=[("INV", 1), ("DLH", 1)])


def test_definitions_cover_logic_and_sequential():
    types = {t for t, _s in CELL_DEFINITIONS}
    assert {"INV", "BUF", "NAND2", "NOR2", "XOR2", "MUX2", "FA", "DFF",
            "SDFF", "DLH", "CLKBUF"} <= types
