"""Differential tests: the array kernels vs the frozen scalar oracle.

Every hot kernel was once a loop-per-element implementation; those
loops are frozen in ``kernel_oracle.py``.  These tests pin the array
kernels to them bit-for-bit on seeded inputs and through whole flows,
plus property tests for the structural assumptions the array code
relies on (within-level permutation invariance of STA propagation, CG
residuals against a direct solve, monotone router demand booking).
"""

from __future__ import annotations

import copy
import inspect
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from repro.circuits.generators import generate_benchmark
from repro.circuits.netlist import Module
from repro.place.floorplan import Floorplan, NetPoints
from repro.place import quadratic
from repro.place.legalize import legalize
from repro.place.placer import total_hpwl
from repro.place.quadratic import place_global, spread
from repro.place.quadratic_numpy import MedianPlan, PlacementSystem
from repro.opt.drv import MAX_LOAD_RATIO, _net_load, fix_drv
from repro.place.placer import Placer
from repro.route.router import GlobalRouter
from repro.route.grid import RoutingGrid
from repro.tech.interconnect import InterconnectModel
from repro.tech.metal import build_stack_2d, build_stack_tmi
from repro.synth.synthesis import LOAD_RATIO_LIMIT, Synthesizer
from repro.synth.wlm import WLM_MAX_FANOUT, WireLoadModel
from repro.tech.node import get_node
from repro.timing.graph import CombGraph, levelize, levelize_levels
from repro.timing.netmodel import NetModel, PlacedNetModel, WLMNetModel
from repro.timing.sta import TimingAnalyzer, TimingReport
from tests import kernel_oracle as oracle


@pytest.fixture(scope="module")
def aes_small(lib45_2d):
    module = generate_benchmark("aes", scale=0.08, seed=3)
    floorplan = Floorplan.for_module(module, lib45_2d, 0.80)
    return module, floorplan


@pytest.fixture(scope="module")
def aes_placed(aes_small, lib45_2d):
    return _placed(*aes_small, lib45_2d)


def _placed(module, floorplan, library):
    x, y = place_global(module, library, floorplan)
    for inst, xi, yi in zip(module.instances, x, y):
        inst.x_um = float(xi)
        inst.y_um = float(yi)
    return module, floorplan


def _interconnect(is_3d: bool = False) -> InterconnectModel:
    node = get_node("45nm")
    stack = build_stack_tmi(node) if is_3d else build_stack_2d(node)
    return InterconnectModel(stack)


# -- placement kernels -------------------------------------------------------


def test_placement_system_matches_scalar_build(aes_small):
    module, floorplan = aes_small
    lap_py, bx_py, by_py = oracle.build_system(module, floorplan)
    lap_np, bx_np, by_np = PlacementSystem(module, floorplan).build(
        None, None, quadratic.ANCHOR_WEIGHT)
    # Bit-exact: the batched assembly emits COO entries and replays the
    # diagonal/rhs accumulations in the reference's element order, so
    # every float operation matches (CG amplifies even ulp drift into
    # visibly different placements).
    assert np.array_equal(lap_py.toarray(), lap_np.toarray())
    assert np.array_equal(bx_py, bx_np)
    assert np.array_equal(by_py, by_np)


def test_spread_bit_identical(aes_small, lib45_2d):
    module, floorplan = aes_small
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, floorplan.width_um, len(module.instances))
    y = rng.uniform(0.0, floorplan.height_um, len(module.instances))
    xp, yp = oracle.spread(module, lib45_2d, floorplan, x.copy(), y.copy())
    xn, yn = spread(module, lib45_2d, floorplan, x.copy(), y.copy())
    assert np.array_equal(xp, xn)
    assert np.array_equal(yp, yn)


def test_median_sweep_bit_identical(aes_small):
    module, floorplan = aes_small
    rng = np.random.default_rng(12)
    x0 = rng.uniform(0.0, floorplan.width_um, len(module.instances))
    y0 = rng.uniform(0.0, floorplan.height_um, len(module.instances))
    adjacency = oracle._cell_pin_adjacency(module, floorplan)
    xp, yp = x0.copy(), y0.copy()
    oracle.median_sweep(module, floorplan, xp, yp, adjacency, 3)
    xn, yn = x0.copy(), y0.copy()
    MedianPlan(module, floorplan).sweep(xn, yn, 3)
    assert np.array_equal(xp, xn)
    assert np.array_equal(yp, yn)


def _plan_entries(plan):
    """Each cell's median entries read back from a plan's waves, sorted:
    ``(neighbor, 0.0, 0.0)`` or ``(-1, pad x, pad y)``, as the scalar
    adjacency lists them."""
    n = plan.n
    entries = [[] for _ in range(n)]
    lower = [set() for _ in range(n)]
    for cells, src, _rows, _half in plan.waves:
        for i, row in zip(cells.tolist(), src.tolist()):
            for k in row:
                if k < 2 * n:
                    j = k if k < n else k - n
                    entries[i].append((j, 0.0, 0.0))
                    if k < n:
                        lower[i].add(j)
                elif k < plan.inf:
                    entries[i].append((-1, float(plan.pads[0, k - 2 * n]),
                                       float(plan.pads[1, k - 2 * n])))
    return [sorted(e) for e in entries], lower


@pytest.mark.parametrize("circuit,scale,seed", [
    ("aes", 0.08, 3), ("noc", 0.05, 5), ("ldpc", 0.05, 2)])
def test_median_plan_reads_the_pin_adjacency(lib45_2d, circuit, scale,
                                             seed):
    """The plan holds each cell's adjacency multiset (the order does not
    matter: the median sorts it) and reads exactly its lower-indexed
    neighbors post-update, in a wave after theirs."""
    module = generate_benchmark(circuit, scale=scale, seed=seed)
    floorplan = Floorplan.for_module(module, lib45_2d, 0.80)
    adjacency = oracle._cell_pin_adjacency(module, floorplan)
    plan = MedianPlan(module, floorplan)
    entries, lower = _plan_entries(plan)
    assert entries == [sorted(a) for a in adjacency]
    wave_of = {i: w for w, (cells, *_rest) in enumerate(plan.waves)
               for i in cells.tolist()}
    for i, neigh in enumerate(adjacency):
        below = {j for j, _x, _y in neigh if 0 <= j < i}
        assert lower[i] == below
        assert all(wave_of[j] < wave_of[i] for j in below)


def test_place_global_bit_identical(aes_small, lib45_2d):
    module, floorplan = aes_small
    xp, yp = oracle.place_global(module, lib45_2d, floorplan)
    xn, yn = place_global(module, lib45_2d, floorplan)
    assert np.array_equal(xp, xn)
    assert np.array_equal(yp, yn)


def _crowded(library):
    """Many cells piled on one spot of a nearly full core: the Tetris
    legalizer widens its row search and falls back to left-packing."""
    module = generate_benchmark("aes", scale=0.05, seed=4)
    floorplan = Floorplan.for_module(module, library, 0.97)
    n = len(module.instances)
    rng = np.random.default_rng(3)
    x = np.full(n, 0.9 * floorplan.width_um) + rng.uniform(0.0, 1.0, n)
    y = np.full(n, 0.5 * floorplan.height_um)
    return module, floorplan, x, y


# A core width and cell width for which fl(fl(capacity - w) + w) exceeds
# capacity: a cell wanted at the right edge fails the right-edge clamp in
# every row, so the left-packed scan places it.  The 7 nm G-MI flow
# behind the table7 and table14 goldens meets this pair.
ROUNDING_CORE_UM = 14.475644460144368
ROUNDING_CELL_UM = 0.16255555555555556


def _rounding():
    """A 20-row core of that width, its last cell wanted at the right
    edge (a library of one cell width; ``legalize`` reads nothing else)."""
    library = SimpleNamespace(
        cell=lambda _name: SimpleNamespace(width_um=ROUNDING_CELL_UM))
    module = Module("rounding")
    net = module.add_net("n")
    n = 8
    for k in range(n):
        inst = module.add_instance(f"u{k}", "CELL")
        module.connect(inst, "Z" if k == 0 else "A", net,
                       is_driver=k == 0)
    floorplan = Floorplan(width_um=ROUNDING_CORE_UM, height_um=20 * 1.4,
                          row_height_um=1.4, target_utilization=0.8)
    # The other cells sit in the lower rows, so the last one goes to an
    # empty row of its own.
    x = np.append(np.linspace(1.0, 13.0, n - 1), ROUNDING_CORE_UM)
    y = np.append(np.linspace(0.5, 10.0, n - 1), 27.5)
    return module, library, floorplan, x, y


@pytest.mark.parametrize("case",
                         ["aes", "noc", "gmi", "crowded", "rounding"])
def test_legalize_and_hpwl_bit_identical(aes_placed, noc_placed, lib45_2d,
                                         case):
    library = lib45_2d
    if case == "crowded":
        module, floorplan, x, y = _crowded(lib45_2d)
    elif case == "rounding":
        module, library, floorplan, x, y = _rounding()
    else:
        module, floorplan = noc_placed if case == "noc" else aes_placed
        x = np.array([inst.x_um for inst in module.instances])
        y = np.array([inst.y_um for inst in module.instances])
    # G-MI's two tiers share each row's width.
    factor = 2.0 if case == "gmi" else 1.0
    want = copy.deepcopy(module)
    got = copy.deepcopy(module)
    oracle.legalize(want, library, floorplan, x, y, capacity_factor=factor)
    legalize(got, library, floorplan, x, y, capacity_factor=factor)
    assert [(i.x_um, i.y_um) for i in got.instances] \
        == [(i.x_um, i.y_um) for i in want.instances]
    assert total_hpwl(got, floorplan) == oracle.total_hpwl(want, floorplan)
    if case == "rounding":
        # The cell wanted at the right edge went left-packed into an
        # empty row.
        assert got.instances[-1].x_um == ROUNDING_CELL_UM / 2.0


def _lines_run(func, *args, **kwargs):
    """The source lines of ``func`` that a call executes."""
    code = func.__code__
    seen = set()

    def tracer(frame, event, _arg):
        if frame.f_code is not code:
            return None
        if event == "line":
            seen.add(frame.f_lineno)
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        func(*args, **kwargs)
    finally:
        sys.settrace(previous)
    lines, first = inspect.getsourcelines(func)
    return {lines[k - first].strip() for k in seen}


def test_crowded_core_reaches_the_fallbacks(lib45_2d):
    # The cases above test the fallbacks only if both legalizers take
    # them: the widened row search, a placement by the scan of every row
    # for a left-packed spot, and the tolerated overlap.  The crowded
    # core widens its search and overlaps, but never finds a left-packed
    # spot; the rounding case finds one in the scan.
    for func in (oracle.legalize, legalize):
        module, floorplan, x, y = _crowded(lib45_2d)
        crowded = _lines_run(func, module, lib45_2d, floorplan, x, y)
        module, library, floorplan, x, y = _rounding()
        rounding = _lines_run(func, module, library, floorplan, x, y)
        assert "radius *= 2" in crowded & rounding
        assert "pos = edges[r]" in rounding - crowded
        assert "best_pos = max(capacity - w, 0.0)" in crowded - rounding


def test_cg_residual_bounded_by_direct_solve(aes_small):
    """Property: the CG placement solve stays near the exact solution."""
    module, floorplan = aes_small
    lap, bx, _by = PlacementSystem(module, floorplan).build(
        None, None, quadratic.ANCHOR_WEIGHT)
    x, _y = quadratic.quadratic_solve(module, floorplan)
    dense = lap.toarray()
    exact = np.linalg.solve(dense, bx)
    np.clip(exact, 0.0, floorplan.width_um, out=exact)
    residual = np.linalg.norm(dense @ np.linalg.solve(dense, bx) - bx)
    assert residual <= 1e-6 * np.linalg.norm(bx)
    # CG (clipped like the solver output) lands within the loose bound
    # the spreading stage assumes.
    assert np.max(np.abs(x - exact)) <= 1.0e-2 * floorplan.width_um


# -- timing kernels ----------------------------------------------------------


def test_levelize_levels_matches_levelize(aes_small, lib45_2d):
    module, floorplan = aes_small
    order = levelize(module, lib45_2d)
    levels = levelize_levels(module, lib45_2d)
    flat = np.concatenate([lvl for lvl in levels]) if levels \
        else np.zeros(0, dtype=np.intp)
    assert sorted(flat.tolist()) == sorted(order)
    # Every level only depends on nets produced by strictly earlier
    # levels: re-running the scalar oracle in level-concatenated order
    # must give a valid topological order (checked by position).
    pos = {int(i): k for k, lvl in enumerate(levels)
           for i in lvl.tolist()}
    produced_level = {}
    for inst in module.instances:
        if inst.index not in pos:
            continue
        cell = lib45_2d.cell(inst.cell_name)
        for pin_name, net_idx in inst.pin_nets.items():
            if cell.pin(pin_name).direction.value == "output":
                produced_level[net_idx] = pos[inst.index]
    for inst in module.instances:
        if inst.index not in pos:
            continue
        cell = lib45_2d.cell(inst.cell_name)
        for pin_name, net_idx in inst.pin_nets.items():
            if cell.pin(pin_name).direction.value != "input":
                continue
            if net_idx in produced_level:
                assert produced_level[net_idx] < pos[inst.index]


def test_levels_concatenate_to_levelize_order(aes_small, lib45_2d):
    from repro.opt.cts import synthesize_clock_tree

    module, _floorplan = aes_small
    flat = np.concatenate(levelize_levels(module, lib45_2d)).tolist()
    assert flat == levelize(module, lib45_2d)
    # A clock tree with a trunk level: its buffers all sit in level 0.
    clocked = generate_benchmark("m256", scale=0.02)
    tree = synthesize_clock_tree(
        clocked, lib45_2d, Floorplan.for_module(clocked, lib45_2d, 0.80))
    assert tree.n_levels >= 2
    levels = levelize_levels(clocked, lib45_2d)
    assert np.concatenate(levels).tolist() == levelize(clocked, lib45_2d)


def _assert_graphs_equal(got, want):
    """Attribute for attribute; load pins compared by name (the array
    graph numbers them module-wide, the scan by first appearance)."""
    for name in ("n_inst", "n_nets", "comb_count", "n_seq_endpoints",
                 "endpoints"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("is_seq", "comb", "net_ready", "sink_arr", "sink_off",
                 "load_net", "load_inst", "in_counts", "in_arr", "in_off",
                 "out_counts", "out_arr", "out_off", "seq_out_inst",
                 "seq_out_nets", "endpoint_inst", "endpoint_nets",
                 "pi_nets", "indegree0"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert [got.pin_names[p] if p >= 0 else None
            for p in got.load_pin.tolist()] \
        == [want.pin_names[p] if p >= 0 else None
            for p in want.load_pin.tolist()]


def test_comb_graph_matches_scan(aes_small, lib45_2d):
    from repro.opt.cts import synthesize_clock_tree

    module, _floorplan = aes_small
    _assert_graphs_equal(CombGraph(module, lib45_2d),
                         oracle.CombGraphScan(module, lib45_2d))
    # Clock buffers, rewired sinks and buffered outputs.
    clocked = generate_benchmark("m256", scale=0.02)
    synthesize_clock_tree(
        clocked, lib45_2d, Floorplan.for_module(clocked, lib45_2d, 0.80))
    _split_net(clocked)
    po = clocked.nets[clocked.primary_outputs[0]]
    clocked.insert_buffer(po.index, "BUF_X1", [s for s in po.sinks
                                               if s[0] < 0])
    _assert_graphs_equal(CombGraph(clocked, lib45_2d),
                         oracle.CombGraphScan(clocked, lib45_2d))


def test_comb_graph_raises_like_scan(lib45_2d):
    from repro.circuits.netlist import Module
    from repro.errors import TimingError

    m = Module("undriven")
    a = m.add_net("a")
    z = m.add_net("z")
    g = m.add_instance("g", "INV_X1")
    m.connect(g, "A", a)
    m.connect(g, "ZN", z, is_driver=True)
    m.mark_primary_output(z)
    with pytest.raises(TimingError) as want:
        oracle.CombGraphScan(m, lib45_2d)
    with pytest.raises(TimingError) as got:
        CombGraph(m, lib45_2d)
    assert str(got.value) == str(want.value)
    # A clock net needs no driver.
    m.mark_clock_net(a)
    _assert_graphs_equal(CombGraph(m, lib45_2d),
                         oracle.CombGraphScan(m, lib45_2d))


def test_nldm_lookup_batch_matches_scalar(lib45_2d):
    cell = lib45_2d.cell("INV_X1")
    arc = cell.characterization.worst_arc()
    rng = np.random.default_rng(5)
    slews = rng.uniform(1.0, 400.0, 257)       # beyond both axis ends
    loads = rng.uniform(0.05, 40.0, 257)
    for table in (arc.delay, arc.output_slew, arc.internal_energy):
        batch = table.lookup_batch(slews, loads)
        scalar = np.array([table.lookup(float(s), float(l))
                           for s, l in zip(slews, loads)])
        assert np.array_equal(batch, scalar)


@pytest.mark.parametrize("kind", ["placed", "wlm"])
def test_net_rc_bulk_matches_scalar(aes_placed, kind):
    module, floorplan = copy.deepcopy(aes_placed)
    # A net with no pins, beside nets over the WLM's fanout cap.
    module.add_net("floating")
    assert max(net.fanout for net in module.nets) > WLM_MAX_FANOUT
    interconnect = _interconnect()

    def model():
        if kind == "wlm":
            return WLMNetModel(WireLoadModel.estimate(
                "aes", 900.0, 0.8, interconnect, is_3d=False))
        return PlacedNetModel(module, interconnect,
                              io_positions=floorplan.io_positions)

    n = len(module.nets)
    subset = module.nets[n // 2::3] + module.nets[:5]
    for nets in (module.nets, subset, []):
        scalar_model = model()
        r, c = model().net_rc_bulk(nets, n)
        want_r = np.zeros(n)
        want_c = np.zeros(n)
        for net in nets:
            want_r[net.index], want_c[net.index] = scalar_model.net_rc(net)
        assert np.array_equal(r, want_r)
        assert np.array_equal(c, want_c)


def _sta_pair(module, library, floorplan, interconnect):
    """(oracle, kernel) reports of one fresh analyzer per engine."""
    def analyzer():
        model = PlacedNetModel(module, interconnect,
                               io_positions=floorplan.io_positions)
        return TimingAnalyzer(module, library, model, clock_ns=2.0)

    return oracle.sta_run(analyzer()), analyzer().run()


def test_sta_run_bit_identical(aes_placed, lib45_2d):
    module, floorplan = aes_placed
    rp, rn = _sta_pair(module, lib45_2d, floorplan, _interconnect())
    assert rp.arrival_ps == rn.arrival_ps
    assert rp.slew_ps == rn.slew_ps
    assert rp.load_ff == rn.load_ff
    assert rp.endpoint_slack_ps == rn.endpoint_slack_ps
    assert rp.wns_ps == rn.wns_ps
    assert rp.tns_ps == rn.tns_ps
    assert rp.critical_endpoint == rn.critical_endpoint


def test_propagate_invariant_to_within_level_order(aes_placed, lib45_2d,
                                                   monkeypatch):
    """Property: the scalar oracle's result does not depend on the order
    instances are visited *within* a topological level (the assumption
    level-batched propagation rests on)."""
    module, floorplan = aes_placed
    interconnect = _interconnect()

    def run():
        model = PlacedNetModel(module, interconnect,
                               io_positions=floorplan.io_positions)
        return oracle.sta_run(TimingAnalyzer(module, lib45_2d, model,
                                             clock_ns=2.0))

    baseline = run()
    levels = levelize_levels(module, lib45_2d)
    rng = np.random.default_rng(7)
    shuffled = []
    for lvl in levels:
        perm = lvl.copy()
        rng.shuffle(perm)
        shuffled.extend(int(i) for i in perm)
    monkeypatch.setattr(oracle, "levelize", lambda _m, _l: shuffled)
    permuted = run()
    assert permuted.arrival_ps == baseline.arrival_ps
    assert permuted.slew_ps == baseline.slew_ps
    assert permuted.wns_ps == baseline.wns_ps


# -- routing kernels ---------------------------------------------------------


def _assert_routes_equal(got, want):
    assert got.lengths_um == want.lengths_um
    assert list(got.lengths_um) == list(want.lengths_um)
    assert got.resistances_kohm == want.resistances_kohm
    assert got.capacitances_ff == want.capacitances_ff
    assert got.layer_class == want.layer_class
    assert list(got.layer_class) == list(want.layer_class)
    assert got.total_wirelength_um == want.total_wirelength_um
    assert got.wirelength_by_class == want.wirelength_by_class
    assert got.mb1_wirelength_um == want.mb1_wirelength_um
    assert got.detour_factor == want.detour_factor
    assert list(got.grid.demand) == list(want.grid.demand)
    for cls, demand in want.grid.demand.items():
        assert np.array_equal(got.grid.demand[cls], demand)


def _assert_router_matches_oracle(router, module):
    _assert_routes_equal(router.run(module), oracle.route(router, module))


def _assert_points_match_router_scan(module, floorplan):
    router = GlobalRouter(None, _interconnect(), floorplan)
    for include_clock in (True, False):
        points = NetPoints(module, floorplan, include_clock)
        px, py = points.coords(
            np.array([inst.x_um for inst in module.instances]),
            np.array([inst.y_um for inst in module.instances]))
        xy = list(zip(px.tolist(), py.tolist()))
        off = points.off.tolist()
        got = {net: xy[off[r]:off[r + 1]]
               for r, net in enumerate(points.nets.tolist())}
        want = {net.index: oracle.router_net_points(router, module, net)
                for net in module.nets
                if include_clock or not net.is_clock}
        assert got == want
        assert list(got) == list(want)


@pytest.mark.parametrize("case", ["aes", "noc", "quad"])
def test_net_points_match_router_scan(aes_placed, noc_placed, quad_placed,
                                      case):
    """Driver first, then sinks in order, pads where the net has one."""
    module, floorplan = {"aes": aes_placed, "noc": noc_placed,
                         "quad": quad_placed}[case]
    _assert_points_match_router_scan(module, floorplan)
    # After buffering, rewired sinks come last on their new nets.
    module = copy.deepcopy(module)
    _split_net(module)
    _assert_points_match_router_scan(module, floorplan)


@pytest.mark.parametrize("is_3d", [False, True])
def test_router_run_bit_identical(aes_placed, lib45_2d, is_3d):
    module, floorplan = aes_placed
    router = GlobalRouter(lib45_2d, _interconnect(is_3d), floorplan)
    _assert_router_matches_oracle(router, module)


def test_grid_demand_booking_is_monotone():
    """Property: booking edges only ever grows tile demand (the update
    the batched ``np.add.at`` accumulation must preserve)."""
    node = get_node("45nm")
    grid = RoutingGrid.for_core(120.0, 120.0, build_stack_2d(node))
    cls = next(iter(grid.tile_capacity_um))
    rng = np.random.default_rng(9)
    prev = grid.demand[cls].copy()
    for _ in range(200):
        x0, y0, x1, y1 = rng.uniform(0.0, 120.0, 4)
        oracle.add_edge_demand(grid, cls, float(x0), float(y0), float(x1),
                               float(y1))
        now = grid.demand[cls]
        assert np.all(now >= prev - 1e-12)
        assert np.all(now >= 0.0)
        prev = now.copy()


# -- scenario-space workloads ------------------------------------------------
#
# The kernels must match the oracle off the paper's operating
# point too: the mesh-NoC workload (regular medium-range channels
# instead of random-logic clusters) and a 4-tier interleaved fold with
# a derated routing capacity exercise branch patterns the AES runs
# never hit.


@pytest.fixture(scope="module")
def noc_placed(lib45_2d):
    module = generate_benchmark("noc", scale=0.05, seed=5)
    floorplan = Floorplan.for_module(module, lib45_2d, 0.75)
    return _placed(module, floorplan, lib45_2d)


def test_noc_place_global_bit_identical(noc_placed, lib45_2d):
    module, floorplan = noc_placed
    xp, yp = oracle.place_global(module, lib45_2d, floorplan)
    xn, yn = place_global(module, lib45_2d, floorplan)
    assert np.array_equal(xp, xn)
    assert np.array_equal(yp, yn)


def test_noc_sta_run_bit_identical(noc_placed, lib45_2d):
    module, floorplan = noc_placed
    rp, rn = _sta_pair(module, lib45_2d, floorplan, _interconnect())
    assert rp.arrival_ps == rn.arrival_ps
    assert rp.slew_ps == rn.slew_ps
    assert rp.endpoint_slack_ps == rn.endpoint_slack_ps
    assert rp.wns_ps == rn.wns_ps
    assert rp.critical_endpoint == rn.critical_endpoint


def test_noc_router_run_bit_identical(noc_placed, lib45_2d):
    module, floorplan = noc_placed
    router = GlobalRouter(lib45_2d, _interconnect(is_3d=True), floorplan)
    _assert_router_matches_oracle(router, module)


@pytest.fixture(scope="module")
def quad_placed(lib45_quad):
    module = generate_benchmark("aes", scale=0.05, seed=7)
    floorplan = Floorplan.for_module(module, lib45_quad, 0.75)
    return _placed(module, floorplan, lib45_quad)


def test_quad_tier_router_with_koz_derate_bit_identical(quad_placed,
                                                        lib45_quad):
    # The KOZ capacity derate is the new router input: run it off the
    # exact-no-op value so the scaled-capacity branch is the one tested.
    from repro.tech.miv import routing_capacity_scale

    module, floorplan = quad_placed
    scale = routing_capacity_scale(get_node("45nm"), 1.0, 4)
    assert scale < 1.0
    router = GlobalRouter(lib45_quad, _interconnect(is_3d=True), floorplan,
                          capacity_scale=scale)
    _assert_router_matches_oracle(router, module)


def test_quad_tier_sta_run_bit_identical(quad_placed, lib45_quad):
    module, floorplan = quad_placed
    rp, rn = _sta_pair(module, lib45_quad, floorplan,
                       _interconnect(is_3d=True))
    assert rp.arrival_ps == rn.arrival_ps
    assert rp.slew_ps == rn.slew_ps
    assert rp.wns_ps == rn.wns_ps
    assert rp.tns_ps == rn.tns_ps


# -- characterization kernels ------------------------------------------------


def test_mna_characterization_bit_identical():
    from repro.cells.netlist import build_cell_netlist
    from repro.cells.geometry import build_cell_geometry_2d
    from repro.extraction.rc import ExtractionMode, extract_cell
    from repro.characterize.charlib import (
        CharacterizationSetup,
        characterize_cell,
    )
    from repro.tech.node import NODE_45NM

    setup = CharacterizationSetup(node=NODE_45NM)
    # NAND2's series stack puts a drain and a source stamp on one free
    # node, so it pins the batch's stamp order; INV has no such node.
    for cell_type in ("INV", "NAND2"):
        nl = build_cell_netlist(cell_type, 1.0, NODE_45NM)
        parasitics = extract_cell(build_cell_geometry_2d(nl, NODE_45NM),
                                  ExtractionMode.FLAT)
        cp = oracle.characterize_cell(nl, parasitics, setup)
        cn = characterize_cell(nl, parasitics, setup)
        ap, an = cp.worst_arc(), cn.worst_arc()
        assert np.array_equal(ap.delay.values, an.delay.values)
        assert np.array_equal(ap.output_slew.values, an.output_slew.values)
        assert np.array_equal(ap.internal_energy.values,
                              an.internal_energy.values)
        assert cp.leakage_mw == cn.leakage_mw
        assert cp.setup_time_ps == cn.setup_time_ps


@pytest.mark.slow
def test_mna_characterization_bit_identical_sequential():
    from repro.cells.netlist import build_cell_netlist
    from repro.cells.geometry import build_cell_geometry_2d
    from repro.extraction.rc import ExtractionMode, extract_cell
    from repro.characterize.charlib import (
        CharacterizationSetup,
        characterize_cell,
    )
    from repro.tech.node import NODE_45NM

    nl = build_cell_netlist("DFF", 1.0, NODE_45NM)
    parasitics = extract_cell(build_cell_geometry_2d(nl, NODE_45NM),
                              ExtractionMode.FLAT)
    setup = CharacterizationSetup(node=NODE_45NM)
    cp = oracle.characterize_cell(nl, parasitics, setup)
    cn = characterize_cell(nl, parasitics, setup)
    ap, an = cp.worst_arc(), cn.worst_arc()
    assert np.array_equal(ap.delay.values, an.delay.values)
    assert np.array_equal(ap.output_slew.values, an.output_slew.values)
    assert np.array_equal(ap.internal_energy.values,
                          an.internal_energy.values)
    assert cp.setup_time_ps == cn.setup_time_ps


def _gate_only_circuit(width_um):
    """A free node nothing conducts to (an NMOS gate), which makes every
    Newton matrix singular, beside a supply that only drives a gate, so
    its KCL residual is exactly +0.0."""
    from repro.cells.transistor import device_params_for
    from repro.characterize.mna import MNACircuit
    from repro.characterize.waveforms import constant
    from repro.tech.node import NODE_45NM

    nmos = device_params_for(NODE_45NM, is_pmos=False)
    circuit = MNACircuit()
    circuit.drive("VG", constant(1.1), is_supply=True)
    circuit.drive("VDD", constant(1.1))
    circuit.add_resistor("VDD", "OUT", 20.0)
    circuit.add_capacitor("OUT", "GND", 2.0)
    circuit.add_mosfet(nmos, width_um, gate="IN", drain="OUT",
                       source="GND")
    circuit.add_mosfet(nmos, width_um, gate="VG", drain="OUT",
                       source="GND")
    return circuit


def _quiet_ramp_circuit(slew_ps):
    """A supply ramp coupled so weakly to its one free node that each
    step's first Newton check passes while the ramp still moves: a
    step that changes only a driver must not count as a repeat."""
    from repro.characterize.mna import MNACircuit
    from repro.characterize.waveforms import RampStimulus

    circuit = MNACircuit()
    circuit.drive("X", RampStimulus(v0=0.0, v1=0.01, start_ns=0.005,
                                    slew_ps=slew_ps), is_supply=True)
    circuit.add_capacitor("X", "Y", 1.0e-5)
    circuit.add_capacitor("Y", "GND", 1.0)
    circuit.add_resistor("Y", "GND", 1.0)
    return circuit


def test_transient_batch_matches_solo_loop():
    # One mixed call: INV_X1/X4 in 2D and T-MI (widths and resistances
    # differ inside one lockstep group), two loads and two step sizes
    # (different step counts), all-node and one-node records, runs with
    # and without initial state, a singular group that takes the
    # per-sim solve/lstsq fallback, and a driver that moves while the
    # rest of its circuit holds still.
    from repro.cells.netlist import build_cell_netlist
    from repro.cells.geometry import build_cell_geometry_2d
    from repro.cells.folding import fold_cell_geometry
    from repro.extraction.rc import ExtractionMode, extract_cell
    from repro.characterize.charlib import _build_circuit
    from repro.characterize.mna_batch import (
        TransientSpec,
        _signature,
        transient_batch,
    )
    from repro.characterize.waveforms import RampStimulus
    from repro.tech.node import NODE_45NM

    specs = []
    for strength in (1.0, 4.0):
        nl = build_cell_netlist("INV", strength, NODE_45NM)
        for parasitics in (
                extract_cell(build_cell_geometry_2d(nl, NODE_45NM),
                             ExtractionMode.FLAT),
                extract_cell(fold_cell_geometry(nl, NODE_45NM),
                             ExtractionMode.DIELECTRIC)):
            for load_ff, dt_ns in ((0.8, 0.0015), (12.8, 0.004)):
                for rising in (True, False):
                    circuit, far = _build_circuit(nl, parasitics, NODE_45NM,
                                                  load_ff, "ZN")
                    v0 = 0.0 if rising else 1.1
                    circuit.drive("A", RampStimulus(v0=v0, v1=1.1 - v0,
                                                    start_ns=0.02,
                                                    slew_ps=37.5))
                    initial = ({"ZN": 1.1 - v0, far["ZN"]: 1.1 - v0}
                               if rising else None)
                    record = [far["ZN"]] if load_ff > 1.0 else None
                    specs.append(TransientSpec(circuit, 0.4, dt_ns, record,
                                               initial))
    assert len({_signature(s.circuit) for s in specs}) == 1
    for width_um in (0.415, 1.66):
        specs.append(TransientSpec(_gate_only_circuit(width_um), 0.05,
                                   0.001, None, {"IN": 0.3}))
    for slew_ps in (10.0, 20.0):
        specs.append(TransientSpec(_quiet_ramp_circuit(slew_ps), 0.04,
                                   0.001))
    assert len({s.t_stop_ns / s.dt_ns for s in specs}) > 2

    lstsq_calls = []
    real_lstsq = np.linalg.lstsq

    def lstsq(*args, **kwargs):
        lstsq_calls.append(1)
        return real_lstsq(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "lstsq", lstsq)
        batch = transient_batch(specs)
    assert lstsq_calls
    for spec, got in zip(specs, batch):
        want = oracle.transient(spec.circuit, spec.t_stop_ns, spec.dt_ns,
                                spec.record, spec.initial)
        assert got.times_ns.tobytes() == want.times_ns.tobytes()
        assert list(got.voltages) == list(want.voltages)
        for name, wave in want.voltages.items():
            assert got.voltages[name].tobytes() == wave.tobytes(), name
        assert (got.supply_current_ua.tobytes()
                == want.supply_current_ua.tobytes())
        assert got.supply_energy_fj == want.supply_energy_fj
    # The gate-only supply's current is +0.0 (Python's sum from int 0).
    assert np.signbit(batch[-3].supply_current_ua).sum() == 0


# -- dtype and degenerate-input regressions ----------------------------------


def test_corner_rc_coerces_integer_unit_values():
    # Stacks defined with machine-integer (or narrow numpy) unit values
    # must come out as exact float64 — the derating multiply used to run
    # in whatever dtype the stack author happened to use.
    from repro.tech.captable import corner_rc
    from repro.tech.interconnect import WireRC

    class _IntModel:
        def wire_rc(self, layer_name):
            return WireRC(layer_name=layer_name,
                          resistance_ohm_per_um=np.int32(4),
                          capacitance_ff_per_um=2)

    rc = corner_rc(_IntModel(), "M2", "max")
    assert type(rc.resistance_ohm_per_um) is float
    assert type(rc.capacitance_ff_per_um) is float
    assert rc.resistance_ohm_per_um == 4.0 * 1.18
    assert rc.capacitance_ff_per_um == 2.0 * 1.12


def test_extract_cell_coerces_integer_geometry():
    from repro.cells.geometry import CellGeometry, ViaGroup, WireSegment
    from repro.extraction.rc import ExtractionMode, extract_cell

    geom = CellGeometry(
        cell_name="X", node_name="45nm", width_um=1.0, height_um=1.0,
        is_3d=False,
        segments=[WireSegment(layer="M1", net="a",
                              length_um=np.int32(2))],
        vias=[ViaGroup(kind="CT", net="a", count=np.int64(3))],
    )
    para = extract_cell(geom, ExtractionMode.FLAT)
    net = para.net("a")
    assert type(net.resistance_kohm) is float
    assert type(net.capacitance_ff) is float
    # 2 um of M1 plus a 3-contact group (parallel paths).
    assert net.resistance_kohm == pytest.approx((4.2 * 2 + 8.0 / 3) / 1000)
    assert net.capacitance_ff == pytest.approx(0.205 * 2 + 0.022 * 3)


def test_extract_cell_empty_and_via_only_nets():
    from repro.cells.geometry import CellGeometry, ViaGroup
    from repro.extraction.rc import ExtractionMode, extract_cell

    empty = CellGeometry(cell_name="E", node_name="45nm",
                         width_um=1.0, height_um=1.0, is_3d=False)
    para = extract_cell(empty, ExtractionMode.FLAT)
    assert para.nets == {}
    assert para.total_r_kohm == 0.0

    via_only = CellGeometry(
        cell_name="V", node_name="45nm", width_um=1.0, height_um=1.0,
        is_3d=False, vias=[ViaGroup(kind="CT", net="n", count=0)])
    para = extract_cell(via_only, ExtractionMode.FLAT)
    net = para.net("n")
    # A zero-count group contributes one full contact R and no C.
    assert net.resistance_kohm == pytest.approx(8.0 / 1000.0)
    assert net.capacitance_ff == 0.0


def test_netmodel_degenerate_nets_match(aes_placed):
    # With no pad positions, IO-only nets collapse below two placed pins
    # and must come out (0, 0) from both the scalar and the bulk path;
    # an empty batch must also be a no-op.
    module, _floorplan = aes_placed
    interconnect = _interconnect()
    scalar_model = PlacedNetModel(module, interconnect)
    bulk_model = PlacedNetModel(module, interconnect)
    r, c = bulk_model.net_rc_bulk(module.nets, len(module.nets))
    degenerate = 0
    for net in module.nets:
        rr, cc = scalar_model.net_rc(net)
        assert r[net.index] == rr
        assert c[net.index] == cc
        if rr == 0.0 and cc == 0.0:
            degenerate += 1
    assert degenerate > 0

    r0, c0 = PlacedNetModel(module, interconnect).net_rc_bulk(
        [], len(module.nets))
    assert not r0.any() and not c0.any()


# -- budget checks (DRV fixing, synthesis sizing) ----------------------------
#
# ``fix_drv`` and ``Synthesizer._upsize_overloaded`` find their candidates
# with array code and run the scalar fix on those alone; the oracle scans
# every net or instance.  Each check runs the oracle on a deep copy and
# demands the same edits and counts.


def _netlist_state(module):
    """Everything the budget checks can edit: cells, pins, sinks and
    positions."""
    return ([inst.cell_name for inst in module.instances],
            [dict(inst.pin_nets) for inst in module.instances],
            [list(net.sinks) for net in module.nets],
            [(inst.x_um, inst.y_um) for inst in module.instances])


def _fix_drv_checked(module, library, floorplan, net_model, fix=fix_drv):
    want_module, want_model = copy.deepcopy((module, net_model))
    want = oracle.fix_drv(want_module, library, floorplan, want_model)
    got = fix(module, library, floorplan, net_model)
    assert got == want
    assert _netlist_state(module) == _netlist_state(want_module)
    return got


def _upsize_checked(synthesizer, module, report,
                    upsize=Synthesizer._upsize_overloaded):
    want_module = copy.deepcopy(module)
    want = oracle.upsize_overloaded(synthesizer, want_module, report)
    got = upsize(synthesizer, module, report)
    assert got == want
    assert _netlist_state(module) == _netlist_state(want_module)
    return got


class _WireCaps(NetModel):
    """Wire caps set by hand, per net index (none elsewhere), so a test
    can put a load on its budget to the last bit."""

    def __init__(self, caps=None):
        self.caps = dict(caps or {})

    def net_rc(self, net):
        return 0.0, self.caps.get(net.index, 0.0)

    def invalidate(self, net_idx=None):
        if net_idx is None:
            self.caps.clear()
        else:
            self.caps.pop(net_idx, None)


def _crafted_floorplan():
    return Floorplan(width_um=50.0, height_um=50.0, row_height_um=1.4,
                     target_utilization=0.8)


def _fan(module, net, cell, count, x0=10.0):
    """``count`` sinks of ``cell`` on ``net`` along a row, each driving
    a primary output of its own."""
    for k in range(count):
        inst = module.add_instance(f"{module.nets[net].name}_{k}", cell)
        module.connect(inst, "A", net)
        out = module.add_net(f"{module.nets[net].name}_o{k}")
        module.connect(inst, "ZN" if cell.startswith("INV") else "Z", out,
                       is_driver=True)
        module.mark_primary_output(out)
        inst.x_um, inst.y_um = x0 + k, 10.0


def _driven(module, name, cell, pins):
    """An instance of ``cell`` at (10, 10) connected as ``pins`` says:
    pin -> (net, is_driver)."""
    inst = module.add_instance(name, cell)
    for pin, (net, is_driver) in pins.items():
        module.connect(inst, pin, net, is_driver=is_driver)
    inst.x_um, inst.y_um = 10.0, 10.0
    return inst


@pytest.fixture()
def fpu_placed(lib45_2d):
    module = generate_benchmark("fpu", scale=0.1)
    placement = Placer(lib45_2d, 0.80).run(module)
    return module, placement.floorplan


def test_fix_drv_matches_oracle_on_placed_fpu(fpu_placed, lib45_2d):
    module, floorplan = fpu_placed
    net_model = PlacedNetModel(module, _interconnect(),
                               io_positions=floorplan.io_positions)
    upsized, buffers = _fix_drv_checked(module, lib45_2d, floorplan,
                                        net_model)
    assert upsized > 0 and buffers > 0


def test_upsize_overloaded_matches_oracle_on_placed_fpu(fpu_placed,
                                                        lib45_2d):
    module, floorplan = fpu_placed
    wlm = WireLoadModel.estimate("fpu", 5000.0, 0.8, _interconnect(),
                                 is_3d=False)
    synthesizer = Synthesizer(lib45_2d, wlm)
    net_model = PlacedNetModel(module, _interconnect(),
                               io_positions=floorplan.io_positions)
    analyzer = TimingAnalyzer(module, lib45_2d, net_model, 10.0)
    changes = [_upsize_checked(synthesizer, module, analyzer.run())
               for _pass in range(3)]
    assert changes[0] > 0


def test_fix_drv_rechecks_nets_after_an_upsize(lib45_2d):
    # ``late`` feeds the driver of the earlier net ``early``.  Fixing
    # ``early`` upsizes that driver, whose bigger input cap pushes
    # ``late`` over its budget: the pass must read ``late`` again,
    # though its load was under budget when the pass began.
    module = Module("recheck")
    early = module.add_net("early")
    late = module.add_net("late")
    pi = module.add_net("pi")
    module.mark_primary_input(pi)
    first = _driven(module, "first", "INV_X1",
                    {"A": (pi, False), "ZN": (late, True)})
    _driven(module, "second", "INV_X1",
            {"A": (late, False), "ZN": (early, True)})
    _fan(module, early, "INV_X8", 8)
    _fan(module, late, "INV_X1", 10)
    net_model = _WireCaps()
    budget = MAX_LOAD_RATIO * lib45_2d.cell("INV_X1").max_input_cap_ff()
    assert sum(_net_load(module, lib45_2d, net_model,
                         module.nets[late])) <= budget
    _fix_drv_checked(module, lib45_2d, _crafted_floorplan(), net_model)
    assert module.instance_by_name("second").cell_name == "INV_X8"
    assert first.cell_name == "INV_X2"


def test_fix_drv_two_output_driver_over_budget_on_both(lib45_2d):
    # FA_X1 has no bigger size: both of its overloaded outputs get
    # buffered, each against the same driver.
    module = Module("fa")
    s, co = module.add_net("s"), module.add_net("co")
    pins = {"S": (s, True), "CO": (co, True)}
    for pin in ("A", "B", "CI"):
        net = module.add_net(pin)
        module.mark_primary_input(net)
        pins[pin] = (net, False)
    _driven(module, "fa", "FA_X1", pins)
    _fan(module, s, "INV_X32", 6)
    _fan(module, co, "INV_X32", 6, x0=20.0)
    _upsized, buffers = _fix_drv_checked(module, lib45_2d,
                                         _crafted_floorplan(), _WireCaps())
    assert buffers >= 2
    assert module.instance_by_name("fa").cell_name == "FA_X1"


def test_fix_drv_keeps_a_load_exactly_at_its_budget(lib45_2d):
    # Two INV_X1 drivers of one INV_X8 sink each: wire caps put one load
    # on the budget to the last bit (``<=`` keeps it) and the other one
    # ulp over.
    module = Module("exact")
    budget = MAX_LOAD_RATIO * lib45_2d.cell("INV_X1").max_input_cap_ff()
    pin_cap = lib45_2d.cell("INV_X8").pin_cap_ff("A")
    wire = budget - pin_cap
    while wire + pin_cap < budget:
        wire = np.nextafter(wire, np.inf)
    above = wire
    while above + pin_cap <= budget:
        above = np.nextafter(above, np.inf)
    assert wire + pin_cap == budget
    caps = {}
    for name, cap in (("at", wire), ("over", above)):
        pi = module.add_net(f"{name}_in")
        module.mark_primary_input(pi)
        net = module.add_net(name)
        _driven(module, f"{name}_drv", "INV_X1",
                {"A": (pi, False), "ZN": (net, True)})
        _fan(module, net, "INV_X8", 1)
        caps[net] = float(cap)
    assert _fix_drv_checked(module, lib45_2d, _crafted_floorplan(),
                            _WireCaps(caps)) == (1, 0)
    assert module.instance_by_name("at_drv").cell_name == "INV_X1"
    assert module.instance_by_name("over_drv").cell_name == "INV_X2"


def test_fix_drv_never_touches_clock_or_pi_driven_nets(lib45_2d):
    # A flop's overloaded output is fixed by upsizing the flop, whose
    # pins also sit on a later clock net and a later PI-driven net, both
    # far over any budget: the re-check must not reach either.
    module = Module("clocked")
    q = module.add_net("q")
    clk = module.add_net("clk")
    din = module.add_net("din")
    module.mark_primary_input(din)
    clk_in = module.add_net("clk_in")
    module.mark_primary_input(clk_in)
    _driven(module, "clkbuf", "CLKBUF_X1",
            {"A": (clk_in, False), "Z": (clk, True)})
    module.mark_clock_net(clk)
    flop = _driven(module, "flop", "DFF_X1",
                   {"D": (din, False), "CK": (clk, False), "Q": (q, True)})
    _fan(module, q, "INV_X8", 2)
    _fan(module, clk, "INV_X8", 8)
    _fan(module, din, "INV_X8", 8, x0=20.0)
    before = _netlist_state(module)
    _fix_drv_checked(module, lib45_2d, _crafted_floorplan(), _WireCaps())
    assert flop.cell_name == "DFF_X2"
    assert module.instance_by_name("clkbuf").cell_name == "CLKBUF_X1"
    for net in (clk, din, clk_in):
        assert module.nets[net].sinks == before[2][net]


def test_upsize_overloaded_crafted_loads(lib45_2d):
    # Loads set in the report: FA_X1 over on both outputs (no bigger
    # size), DFF_X1 over on both (the second output compares against
    # the upsized DFF_X2, at its top), an INV_X1 load exactly on its
    # limit (kept) and one ulp over, and an output with no load.
    module = Module("sizing")
    loads = {}
    limit = LOAD_RATIO_LIMIT * max(
        lib45_2d.cell("INV_X1").max_input_cap_ff(), 0.05)
    specs = (("fa", "FA_X1", {"S": 1e3, "CO": 1e3}),
             ("flop", "DFF_X1", {"Q": 1e3, "QN": 1e3}),
             ("at", "INV_X1", {"ZN": limit}),
             ("over", "INV_X1", {"ZN": float(np.nextafter(limit, np.inf))}),
             ("unloaded", "INV_X1", {"ZN": None}))
    for name, cell, outputs in specs:
        inst = module.add_instance(name, cell)
        for pin in lib45_2d.cell(cell).pins:
            net = module.add_net(f"{name}_{pin}")
            module.connect(inst, pin, net, is_driver=pin in outputs)
            if pin in outputs and outputs[pin] is not None:
                loads[net] = outputs[pin]
            elif pin not in outputs:
                module.mark_primary_input(net)
    report = TimingReport(clock_ps=1000.0, arrival_ps={}, slew_ps={},
                          endpoint_slack_ps={}, wns_ps=0.0, tns_ps=0.0,
                          critical_endpoint=None, load_ff=loads)
    wlm = WireLoadModel.estimate("sizing", 100.0, 0.8, _interconnect(),
                                 is_3d=False)
    assert _upsize_checked(Synthesizer(lib45_2d, wlm), module,
                           report) == 2
    assert [inst.cell_name for inst in module.instances] \
        == ["FA_X1", "DFF_X2", "INV_X1", "INV_X2", "INV_X1"]


# -- incremental STA -----------------------------------------------------------
#
# The analyzer keeps its timing graph and wire-RC arrays alive between
# runs, and the optimizer invalidates only the nets it buffers.  These
# tests re-time every run of whole flows from scratch with the scalar
# oracle on a fresh net model.


def _fresh_net_model(model):
    """A cache-free copy of a net model (WLM and routed models hold no
    per-net cache, so they are their own fresh copy)."""
    if isinstance(model, PlacedNetModel):
        return PlacedNetModel(
            model.module, model.interconnect,
            io_positions=model.io_positions,
            local_threshold_um=model.local_threshold_um,
            intermediate_threshold_um=model.intermediate_threshold_um)
    return model


def _assert_reports_equal(got, want):
    assert got.clock_ps == want.clock_ps
    assert got.arrival_ps == want.arrival_ps
    assert got.slew_ps == want.slew_ps
    assert got.load_ff == want.load_ff
    assert got.endpoint_slack_ps == want.endpoint_slack_ps
    assert got.wns_ps == want.wns_ps
    assert got.tns_ps == want.tns_ps
    assert got.critical_endpoint == want.critical_endpoint


@pytest.fixture()
def checked_sta(monkeypatch):
    """Compare every STA run with a from-scratch oracle run.

    Yields a tally: ``runs`` compared and ``reused`` runs that kept the
    analyzer's timing graph from its previous run.
    """
    run = TimingAnalyzer.run
    tally = {"runs": 0, "reused": 0}

    def checked(self):
        state = self._incremental
        graph = state.graph if state is not None else None
        report = run(self)
        tally["runs"] += 1
        tally["reused"] += int(graph is not None
                               and self._incremental.graph is graph)
        reference = copy.copy(self)
        reference.net_model = _fresh_net_model(self.net_model)
        _assert_reports_equal(report, oracle.sta_run(reference))
        return report

    monkeypatch.setattr(TimingAnalyzer, "run", checked)
    return tally


@pytest.mark.parametrize("circuit,scale,is_3d,extra", [
    ("fpu", 0.05, False, {}),
    ("fpu", 0.05, True, {}),
    ("aes", 0.05, False, {}),
    ("aes", 0.05, True, {}),
    ("noc", 0.03, True, {"tiers": 4, "fold_style": "interleave"}),
])
def test_incremental_sta_matches_reference_through_flow(
        checked_sta, circuit, scale, is_3d, extra):
    from repro.flow.design_flow import FlowConfig, run_flow

    run_flow(FlowConfig(circuit=circuit, scale=scale, seed=1,
                        is_3d=is_3d, **extra))
    # Synthesis, DRV fixing, the optimizer loop, recovery and sign-off
    # all ran, and resize-only batches re-timed on the kept graph.
    assert checked_sta["runs"] >= 5
    assert checked_sta["reused"] >= 1


@pytest.fixture()
def checked_layout(monkeypatch):
    """Compare every global placement, legalization, wirelength sum and
    route with the oracle, each on the inputs the flow passed.

    Yields a tally of the ``place``, ``legalize`` and ``route`` calls
    compared.
    """
    from repro.place import placer

    place = placer.place_global
    legal = placer.legalize
    hpwl = placer.total_hpwl
    route = GlobalRouter.run
    tally = {"place": 0, "legalize": 0, "route": 0}

    def checked_place(module, library, floorplan):
        x, y = place(module, library, floorplan)
        want_x, want_y = oracle.place_global(module, library, floorplan)
        assert np.array_equal(x, want_x)
        assert np.array_equal(y, want_y)
        tally["place"] += 1
        return x, y

    def checked_legalize(module, library, floorplan, x, y, **kwargs):
        want = copy.deepcopy(module)
        oracle.legalize(want, library, floorplan, x, y, **kwargs)
        legal(module, library, floorplan, x, y, **kwargs)
        assert [(i.x_um, i.y_um) for i in module.instances] \
            == [(i.x_um, i.y_um) for i in want.instances]
        tally["legalize"] += 1

    def checked_hpwl(module, floorplan):
        total = hpwl(module, floorplan)
        assert total == oracle.total_hpwl(module, floorplan)
        return total

    def checked_route(self, module, include_clock=True):
        result = route(self, module, include_clock)
        _assert_routes_equal(result,
                             oracle.route(self, module, include_clock))
        tally["route"] += 1
        return result

    monkeypatch.setattr(placer, "place_global", checked_place)
    monkeypatch.setattr(placer, "legalize", checked_legalize)
    monkeypatch.setattr(placer, "total_hpwl", checked_hpwl)
    monkeypatch.setattr(GlobalRouter, "run", checked_route)
    return tally


@pytest.fixture()
def checked_graph(monkeypatch):
    """Compare every timing graph built with the oracle's object scan of
    the same module.  Yields the number of graphs compared."""
    init = CombGraph.__init__
    tally = {"graphs": 0}

    def checked(self, module, library):
        init(self, module, library)
        _assert_graphs_equal(self, oracle.CombGraphScan(module, library))
        tally["graphs"] += 1

    monkeypatch.setattr(CombGraph, "__init__", checked)
    return tally


@pytest.fixture()
def checked_budgets(monkeypatch):
    """Repeat every DRV fix and synthesis overload check with the oracle
    on a deep copy of its inputs.  Yields a tally of the calls compared.
    """
    from repro.opt import optimizer

    fix = optimizer.fix_drv
    upsize = Synthesizer._upsize_overloaded
    tally = {"fix_drv": 0, "upsize": 0}

    def checked_fix(module, library, floorplan, net_model):
        got = _fix_drv_checked(module, library, floorplan, net_model,
                               fix=fix)
        tally["fix_drv"] += 1
        return got

    def checked_upsize(self, module, report):
        got = _upsize_checked(self, module, report, upsize=upsize)
        tally["upsize"] += 1
        return got

    monkeypatch.setattr(optimizer, "fix_drv", checked_fix)
    monkeypatch.setattr(Synthesizer, "_upsize_overloaded", checked_upsize)
    return tally


@pytest.mark.parametrize("circuit,seed,is_3d", [
    ("aes", 1, False),
    ("des", 2, True),
], ids=["aes_2d", "des_3d"])
def test_flow_kernels_match_oracle(checked_layout, checked_sta,
                                   checked_graph, checked_budgets,
                                   circuit, seed, is_3d):
    from repro.flow.design_flow import FlowConfig, run_flow

    run_flow(FlowConfig(circuit=circuit, scale=0.06, seed=seed,
                        is_3d=is_3d))
    assert checked_layout["place"] >= 1
    assert checked_layout["legalize"] >= 1
    assert checked_layout["route"] >= 1
    assert checked_sta["runs"] >= 5
    # Synthesis, optimization, sign-off and power all built graphs.
    assert checked_graph["graphs"] >= 5
    assert checked_budgets["fix_drv"] >= 1
    assert checked_budgets["upsize"] >= 1


def _split_net(module):
    """Buffer the far half of the first net with four or more sinks."""
    net = next(n for n in module.nets
               if not n.is_clock and n.driver is not None
               and n.driver[0] >= 0 and n.fanout >= 4)
    sinks = [s for s in net.sinks if s[0] >= 0][net.fanout // 2:]
    xs = [module.instances[s[0]].x_um for s in sinks]
    ys = [module.instances[s[0]].y_um for s in sinks]
    buf = module.insert_buffer(net.index, "BUF_X4", sinks,
                               x_um=sum(xs) / len(xs),
                               y_um=sum(ys) / len(ys))
    return net.index, buf


def test_net_rc_bulk_after_targeted_invalidation_matches_fresh(aes_placed):
    module = copy.deepcopy(aes_placed[0])
    floorplan = aes_placed[1]
    interconnect = _interconnect()
    model = PlacedNetModel(module, interconnect,
                           io_positions=floorplan.io_positions)
    n = len(module.nets)
    model.net_rc_bulk(module.nets, n)

    # Move one cell: only its nets change, and only they are refreshed.
    inst = next(i for i in module.instances if len(i.pin_nets) >= 3)
    inst.x_um += 40.0
    inst.y_um += 25.0
    stale_r, _ = model.net_rc_bulk(module.nets, n)
    for net_idx in inst.pin_nets.values():
        model.invalidate(net_idx)
    r, c = model.net_rc_bulk(module.nets, n)
    fresh_r, fresh_c = _fresh_net_model(model).net_rc_bulk(module.nets, n)
    assert not np.array_equal(stale_r, fresh_r)
    assert np.array_equal(r, fresh_r) and np.array_equal(c, fresh_c)

    # Buffer insertion: the split net is invalidated, the new one grows
    # the arrays.
    net_idx, buf = _split_net(module)
    model.invalidate(net_idx)
    r, c = model.net_rc_bulk(module.nets, len(module.nets))
    fresh_r, fresh_c = _fresh_net_model(model).net_rc_bulk(
        module.nets, len(module.nets))
    assert r.size == n + 1 and buf.pin_nets["Z"] == n
    assert np.array_equal(r, fresh_r) and np.array_equal(c, fresh_c)
    # Scalar reads agree with the bulk arrays.
    for net in module.nets:
        assert model.net_rc(net) == (r[net.index], c[net.index])


def test_incremental_sta_tracks_resizes_and_buffers(aes_placed, lib45_2d):
    module = copy.deepcopy(aes_placed[0])
    floorplan = aes_placed[1]
    model = PlacedNetModel(module, _interconnect(),
                           io_positions=floorplan.io_positions)
    analyzer = TimingAnalyzer(module, lib45_2d, model, clock_ns=2.0)

    def reference():
        return oracle.sta_run(TimingAnalyzer(
            module, lib45_2d, _fresh_net_model(model), clock_ns=2.0))

    analyzer.run()
    graph = analyzer._incremental.graph
    # A resize keeps the graph and re-reads the cell.
    inst = next(i for i in module.instances if i.cell_name == "NAND2_X1")
    module.resize_instance(inst, "NAND2_X2")
    _assert_reports_equal(analyzer.run(), reference())
    assert analyzer._incremental.graph is graph
    # A structural edit that adds no instance (a new primary-output
    # endpoint) rebuilds it.
    net = module.nets[inst.pin_nets["ZN"]]
    assert net.index not in module.primary_outputs
    module.mark_primary_output(net.index)
    model.invalidate(net.index)
    _assert_reports_equal(analyzer.run(), reference())
    assert analyzer._incremental.graph is not graph
    graph = analyzer._incremental.graph
    # So does a buffer insertion.
    net_idx, _buf = _split_net(module)
    model.invalidate(net_idx)
    _assert_reports_equal(analyzer.run(), reference())
    assert analyzer._incremental.graph is not graph


def test_incremental_sta_rejects_resize_to_other_pins(aes_placed,
                                                      lib45_2d):
    # A resize to a cell with other pin names changes no topology, but
    # the kept graph no longer fits: like the oracle, the run fails
    # instead of timing a pin the cell does not have.
    from repro.errors import ReproError

    module = copy.deepcopy(aes_placed[0])
    model = PlacedNetModel(module, _interconnect(),
                           io_positions=aes_placed[1].io_positions)
    analyzer = TimingAnalyzer(module, lib45_2d, model, clock_ns=2.0)
    analyzer.run()
    inst = next(i for i in module.instances if i.cell_name == "NAND2_X1")
    module.resize_instance(inst, "INV_X1")
    with pytest.raises(ReproError):
        analyzer.run()
    with pytest.raises(ReproError):
        oracle.sta_run(analyzer)
