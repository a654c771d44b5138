"""Clock-tree synthesis structural tests."""

import pytest

from repro.circuits.netlist import Module
from repro.opt.cts import (
    synthesize_clock_tree,
    LEAF_GROUP_SIZE,
)
from repro.place.floorplan import Floorplan


def _flop_grid(n_x: int, n_y: int, spacing_um: float = 10.0) -> Module:
    m = Module("flops")
    clk = m.add_net("clk")
    m.mark_primary_input(clk)
    m.set_clock(clk)
    d = m.add_net("d")
    m.mark_primary_input(d)
    prev = d
    for i in range(n_x):
        for j in range(n_y):
            ff = m.add_instance(f"ff_{i}_{j}", "DFF_X1")
            m.connect(ff, "D", prev)
            m.connect(ff, "CK", clk)
            q = m.add_net(f"q_{i}_{j}")
            m.connect(ff, "Q", q, is_driver=True)
            ff.x_um = i * spacing_um
            ff.y_um = j * spacing_um
            prev = q
    m.mark_primary_output(prev)
    return m


def _fp(size: float) -> Floorplan:
    return Floorplan(width_um=size, height_um=size, row_height_um=1.4,
                     target_utilization=0.8)


def test_leaf_groups_bounded(lib45_2d):
    m = _flop_grid(10, 10)
    result = synthesize_clock_tree(m, lib45_2d, _fp(100.0))
    assert result.n_sinks == 100
    # Enough leaf buffers to keep every group within the bound.
    assert result.n_buffers >= 100 // LEAF_GROUP_SIZE
    for net in m.nets:
        if not net.is_clock:
            continue
        seq_sinks = [s for s in net.sinks
                     if s[0] >= 0 and lib45_2d.cell(
                         m.instances[s[0]].cell_name).is_sequential]
        assert len(seq_sinks) <= LEAF_GROUP_SIZE


def test_tree_has_levels_for_many_flops(lib45_2d):
    m = _flop_grid(16, 16)
    result = synthesize_clock_tree(m, lib45_2d, _fp(160.0))
    assert result.n_levels >= 2


def test_buffers_near_their_groups(lib45_2d):
    m = _flop_grid(8, 8, spacing_um=12.0)
    fp = _fp(96.0)
    synthesize_clock_tree(m, lib45_2d, fp)
    for inst in m.instances:
        if not inst.cell_name.startswith("CLKBUF"):
            continue
        driven = m.nets[inst.pin_nets["Z"]]
        xs, ys = [], []
        for sink_idx, _pin in driven.sinks:
            if sink_idx >= 0:
                xs.append(m.instances[sink_idx].x_um)
                ys.append(m.instances[sink_idx].y_um)
        if not xs:
            continue
        cx = sum(xs) / len(xs)
        cy = sum(ys) / len(ys)
        # The buffer sits near its sinks' centroid (row snapping allowed).
        assert abs(inst.x_um - cx) < 40.0
        assert abs(inst.y_um - cy) < 40.0


def test_no_clock_net_is_noop(lib45_2d):
    m = Module("comb")
    a = m.add_net("a")
    m.mark_primary_input(a)
    g = m.add_instance("g", "INV_X1")
    m.connect(g, "A", a)
    z = m.add_net("z")
    m.connect(g, "ZN", z, is_driver=True)
    m.mark_primary_output(z)
    result = synthesize_clock_tree(m, lib45_2d, _fp(10.0))
    assert result.n_buffers == 0
    assert result.n_sinks == 0


def test_clock_activity_after_cts(lib45_2d):
    from repro.power.activity import propagate_activity, CLOCK_ACTIVITY

    m = _flop_grid(6, 6)
    synthesize_clock_tree(m, lib45_2d, _fp(60.0))
    act = propagate_activity(m, lib45_2d)
    for net in m.nets:
        if net.is_clock:
            assert act.net_density(net.index) == CLOCK_ACTIVITY


@pytest.mark.xfail(strict=True, reason=(
    "known defect: levelize treats clock nets as ready, and CTS creates "
    "leaf buffers before their trunk buffers, so each leaf reads its "
    "trunk net before that net's activity is computed and propagates "
    "density 0.0 instead of the clock's 2.0; fixing it moves the "
    "Table 4 rows and the recorded sweep frontier"))
def test_clock_activity_after_deep_cts(lib45_2d):
    from repro.power.activity import propagate_activity, CLOCK_ACTIVITY

    # 400 flops need a trunk level, unlike the 36 above.
    m = _flop_grid(20, 20)
    result = synthesize_clock_tree(m, lib45_2d, _fp(200.0))
    assert (result.n_buffers, result.n_levels) == (36, 2)
    act = propagate_activity(m, lib45_2d)
    low = [net.name for net in m.nets
           if net.is_clock and act.net_density(net.index) < CLOCK_ACTIVITY]
    assert low == []
