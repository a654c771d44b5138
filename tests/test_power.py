"""Power analysis tests: activity propagation and the power breakdown.

The oracle tests hold the array code to the frozen scalar walk in
``tests/power_oracle.py`` bit for bit, on whole flows, on hand-built
corner cases and on random netlists.
"""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cells import logic
from repro.cells.nangate import CELL_DEFINITIONS
from repro.check import capture_artifacts
from repro.errors import PowerError
from repro.circuits.netlist import Module
from repro.circuits.generators import generate_benchmark
from repro.flow.design_flow import FlowConfig, run_flow
from repro.opt.cts import synthesize_clock_tree
from repro.place.floorplan import Floorplan
from repro.power.activity import propagate_activity, CLOCK_ACTIVITY
from repro.power.analysis import analyze_power
from repro.timing.netmodel import NetModel

from tests import power_oracle as oracle


class FixedWireModel(NetModel):
    def __init__(self, c_ff=2.0):
        self.c = c_ff

    def net_rc(self, net):
        return 0.1, self.c

    def net_length_um(self, net):
        return 10.0


def _inv_chain(n):
    m = Module("chain")
    prev = m.add_net("in")
    m.mark_primary_input(prev)
    for k in range(n):
        inst = m.add_instance(f"i{k}", "INV_X1")
        m.connect(inst, "A", prev)
        out = m.add_net(f"n{k}")
        m.connect(inst, "ZN", out, is_driver=True)
        prev = out
    m.mark_primary_output(prev)
    return m


def test_inverter_chain_activity_preserved(lib45_2d):
    m = _inv_chain(5)
    act = propagate_activity(m, lib45_2d, pi_activity=0.2)
    # An inverter propagates density unchanged (boolean difference = 1).
    for net in m.nets:
        assert act.net_density(net.index) == pytest.approx(0.2)


def test_nand_attenuates_activity(lib45_2d):
    m = Module("nand")
    a = m.add_net("a")
    b = m.add_net("b")
    m.mark_primary_input(a)
    m.mark_primary_input(b)
    g = m.add_instance("g", "NAND2_X1")
    m.connect(g, "A", a)
    m.connect(g, "B", b)
    z = m.add_net("z")
    m.connect(g, "ZN", z, is_driver=True)
    m.mark_primary_output(z)
    act = propagate_activity(m, lib45_2d, pi_activity=0.2)
    # Each input toggles through with probability 0.5 -> 0.2*0.5*2 = 0.2
    assert act.net_density(m.net_by_name("z").index) == pytest.approx(0.2)


def test_clock_density(lib45_2d):
    m = generate_benchmark("fpu", scale=0.06)
    act = propagate_activity(m, lib45_2d)
    assert act.net_density(m.clock_net) == CLOCK_ACTIVITY


def test_power_breakdown_sums(lib45_2d):
    m = generate_benchmark("fpu", scale=0.06)
    report = analyze_power(m, lib45_2d, FixedWireModel(), clock_ns=2.0)
    assert report.total_mw == pytest.approx(
        report.cell_mw + report.net_mw + report.leakage_mw, rel=1e-9)
    assert report.net_mw == pytest.approx(
        report.net_wire_mw + report.net_pin_mw, rel=1e-9)
    assert report.cell_mw > 0 and report.net_mw > 0
    assert report.leakage_mw > 0
    assert report.clock_mw > 0


def test_power_scales_inverse_with_period(lib45_2d):
    m = generate_benchmark("fpu", scale=0.06)
    fast = analyze_power(m, lib45_2d, FixedWireModel(), clock_ns=1.0)
    slow = analyze_power(m, lib45_2d, FixedWireModel(), clock_ns=2.0)
    # Dynamic power halves; leakage unchanged.
    assert fast.net_mw == pytest.approx(slow.net_mw * 2.0, rel=1e-6)
    assert fast.leakage_mw == pytest.approx(slow.leakage_mw)


def test_power_scales_with_activity(lib45_2d):
    m = generate_benchmark("fpu", scale=0.06)
    lo = analyze_power(m, lib45_2d, FixedWireModel(), 2.0,
                       seq_activity=0.1)
    hi = analyze_power(m, lib45_2d, FixedWireModel(), 2.0,
                       seq_activity=0.3)
    assert hi.total_mw > lo.total_mw
    assert hi.leakage_mw == pytest.approx(lo.leakage_mw)


def test_wire_cap_affects_only_net_power(lib45_2d):
    m = generate_benchmark("fpu", scale=0.06)
    thin = analyze_power(m, lib45_2d, FixedWireModel(1.0), 2.0)
    fat = analyze_power(m, lib45_2d, FixedWireModel(4.0), 2.0)
    assert fat.net_wire_mw > thin.net_wire_mw * 3.0
    assert fat.net_pin_mw == pytest.approx(thin.net_pin_mw)
    assert fat.leakage_mw == pytest.approx(thin.leakage_mw)


def test_bad_clock_raises(lib45_2d):
    m = _inv_chain(2)
    with pytest.raises(PowerError):
        analyze_power(m, lib45_2d, FixedWireModel(), clock_ns=0.0)


def test_negative_activity_raises(lib45_2d):
    m = _inv_chain(2)
    with pytest.raises(PowerError):
        propagate_activity(m, lib45_2d, pi_activity=-0.1)


# -- bit-identity against the frozen scalar walk ------------------------------


class IndexedWireModel(NetModel):
    """A distinct wire cap per net, so cap sums depend on their order."""

    def net_rc(self, net):
        return 0.1, 0.7 + 0.37 * (net.index % 11)

    def net_length_um(self, net):
        return 10.0


def _bits(values):
    """Float bit patterns: -0.0 differs from 0.0, NaN equals itself."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def _assert_activity_matches(module, library, **activities):
    got = propagate_activity(module, library, **activities)
    want = oracle.propagate_activity(module, library, **activities)
    n = len(module.nets)
    assert got.density.shape == got.probability.shape == (n,)
    assert _bits(got.density) == _bits(
        [want.net_density(i) for i in range(n)])
    assert _bits(got.probability) == _bits(
        [want.net_probability(i) for i in range(n)])


def _assert_power_matches(module, library, net_model, clock_ns,
                          **activities):
    _assert_activity_matches(module, library, **activities)
    got = analyze_power(module, library, net_model, clock_ns, **activities)
    want = oracle.analyze_power(module, library, net_model, clock_ns,
                                **activities)
    assert _bits(astuple(got)) == _bits(astuple(want))
    return got


def _assert_flow_matches(artifacts):
    got = _assert_power_matches(artifacts.module, artifacts.library,
                                artifacts.routed_model, artifacts.clock_ns,
                                pi_activity=artifacts.config.pi_activity,
                                seq_activity=artifacts.config.seq_activity)
    assert _bits(astuple(artifacts.power)) == _bits(astuple(got))


def _n_clock_nets(module):
    return sum(1 for net in module.nets if net.is_clock)


@pytest.fixture(scope="module")
def trunk_tree_flows():
    """m256 and DES in both styles: each clock tree has a trunk level."""
    with capture_artifacts() as bucket:
        for circuit, scale in (("m256", 0.02), ("des", 0.05)):
            for is_3d in (False, True):
                run_flow(FlowConfig(circuit=circuit, scale=scale,
                                    is_3d=is_3d))
    return list(bucket)


def test_flows_with_trunk_clock_trees_match_oracle(trunk_tree_flows):
    assert len(trunk_tree_flows) == 4
    for artifacts in trunk_tree_flows:
        assert _n_clock_nets(artifacts.module) > 9, artifacts.label
        _assert_flow_matches(artifacts)


@pytest.mark.parametrize("pi_activity, seq_activity",
                         [(0.0, 0.4), (0.4, 0.0), (0.0, 0.0)])
def test_activity_extremes_match_oracle(trunk_tree_flows, pi_activity,
                                        seq_activity):
    artifacts = trunk_tree_flows[0]
    _assert_power_matches(artifacts.module, artifacts.library,
                          artifacts.routed_model, artifacts.clock_ns,
                          pi_activity=pi_activity,
                          seq_activity=seq_activity)


def test_aes_flows_match_oracle(aes_capture_small):
    _comparison, bucket = aes_capture_small
    assert len(bucket) == 2
    for artifacts in bucket:
        _assert_flow_matches(artifacts)


def test_four_tier_noc_flow_matches_oracle():
    with capture_artifacts() as bucket:
        run_flow(FlowConfig(circuit="noc", scale=0.05, is_3d=True,
                            tiers=4, fold_style="interleave"))
    _assert_flow_matches(bucket[-1])


def _deep_cts_grid(lib):
    from tests.test_cts_deep import _flop_grid

    m = _flop_grid(20, 20)
    fp = Floorplan(width_um=200.0, height_um=200.0, row_height_um=1.4,
                   target_utilization=0.8)
    result = synthesize_clock_tree(m, lib, fp)
    assert (result.n_buffers, result.n_levels) == (36, 2)
    return m


def test_deep_cts_grid_matches_oracle(lib45_2d):
    m = _deep_cts_grid(lib45_2d)
    _assert_power_matches(m, lib45_2d, IndexedWireModel(), 1.5)


def test_top_down_clock_tree_reads_live_values(lib45_2d):
    # Trunk buffers created before their leaves: every level-0 reader
    # comes after its driver, so the whole tree carries the clock.
    m = Module("top_down")
    clk = m.add_net("clk")
    m.mark_primary_input(clk)
    m.set_clock(clk)
    d = m.add_net("d")
    m.mark_primary_input(d)
    trunk = []
    for t in range(2):
        buf = m.add_instance(f"trunk{t}", "CLKBUF_X8")
        m.connect(buf, "A", clk)
        out = m.add_net(f"trunk{t}_z")
        m.connect(buf, "Z", out, is_driver=True)
        m.mark_clock_net(out)
        trunk.append(out)
    for k in range(4):
        leaf = m.add_instance(f"leaf{k}", "CLKBUF_X4")
        m.connect(leaf, "A", trunk[k % 2])
        z = m.add_net(f"leaf{k}_z")
        m.connect(leaf, "Z", z, is_driver=True)
        m.mark_clock_net(z)
        ff = m.add_instance(f"ff{k}", "DFF_X1")
        m.connect(ff, "D", d)
        m.connect(ff, "CK", z)
        q = m.add_net(f"q{k}")
        m.connect(ff, "Q", q, is_driver=True)
        m.mark_primary_output(q)
    _assert_power_matches(m, lib45_2d, IndexedWireModel(), 1.0)
    act = propagate_activity(m, lib45_2d)
    for net in m.nets:
        if net.is_clock:
            assert act.net_density(net.index) == CLOCK_ACTIVITY


def test_level_one_clock_reader_follows_visit_order(lib45_2d):
    # x (index 0) reads clock net c, which y (index 1) drives; both sit
    # in level 1.  levelize enqueues y first (its driver r comes before
    # x's driver q), so x reads y's value, not the defaults.
    m = Module("level_one")
    a = m.add_net("a")
    m.mark_primary_input(a)
    nets = {name: m.add_net(name) for name in ("c", "n_r", "n_q", "z")}
    m.mark_clock_net(nets["c"])
    x = m.add_instance("x", "AND2_X1")
    y = m.add_instance("y", "CLKBUF_X1")
    for name, out in (("r", "n_r"), ("q", "n_q")):
        buf = m.add_instance(name, "BUF_X1")
        m.connect(buf, "A", a)
        m.connect(buf, "Z", nets[out], is_driver=True)
    m.connect(x, "A1", nets["c"])
    m.connect(x, "A2", nets["n_q"])
    m.connect(x, "Z", nets["z"], is_driver=True)
    m.mark_primary_output(nets["z"])
    m.connect(y, "A", nets["n_r"])
    m.connect(y, "Z", nets["c"], is_driver=True)
    _assert_power_matches(m, lib45_2d, IndexedWireModel(), 1.0)
    act = propagate_activity(m, lib45_2d, pi_activity=0.2)
    assert act.net_density(nets["c"]) == pytest.approx(0.2)
    assert act.net_density(nets["z"]) == pytest.approx(0.2)


def _two_input_module(cell, pins):
    """PIs a, b feeding one ``cell`` wired in ``pins`` order."""
    m = Module("hand")
    nets = {}
    for name in ("a", "b", "c"):
        nets[name] = m.add_net(name)
        m.mark_primary_input(nets[name])
    g = m.add_instance("g", cell)
    for pin, net_name, is_driver in pins:
        if net_name not in nets:
            nets[net_name] = m.add_net(net_name)
            m.mark_primary_output(nets[net_name])
        m.connect(g, pin, nets[net_name], is_driver=is_driver)
    return m


@pytest.mark.parametrize("cell, pins", [
    # Two outputs, outputs first.
    ("HA_X1", [("CO", "co", True), ("S", "s", True),
               ("B", "b", False), ("A", "a", False)]),
    ("FA_X1", [("A", "a", False), ("S", "s", True), ("CI", "c", False),
               ("CO", "co", True), ("B", "b", False)]),
    # Non-declared input order: the density adds S, B, A in that order.
    ("MUX2_X1", [("S", "c", False), ("Z", "z", True), ("B", "b", False),
                 ("A", "a", False)]),
    # Declared input B left unconnected: probability 0.5, no density.
    ("NAND2_X1", [("A", "a", False), ("ZN", "z", True)]),
    ("AOI21_X1", [("B", "c", False), ("ZN", "z", True),
                  ("A1", "a", False)]),
])
@pytest.mark.parametrize("pi_activity", [0.0, 0.2, 0.4])
def test_hand_built_cells_match_oracle(lib45_2d, cell, pins, pi_activity):
    m = _two_input_module(cell, pins)
    _assert_power_matches(m, lib45_2d, IndexedWireModel(), 1.0,
                          pi_activity=pi_activity)


def test_constant_nets_match_oracle(lib45_2d):
    # AND2(x, x) squares the probability under the independence
    # assumption: eleven stages underflow it to exactly 0.0, and a NAND2
    # of the result reads exactly 1.0.
    m = Module("const")
    x = m.add_net("x")
    m.mark_primary_input(x)
    for k in range(12):
        g = m.add_instance(f"and{k}", "AND2_X1")
        m.connect(g, "A1", x)
        m.connect(g, "A2", x)
        x = m.add_net(f"x{k}")
        m.connect(g, "Z", x, is_driver=True)
    y = m.add_net("y")
    g = m.add_instance("nand", "NAND2_X1")
    m.connect(g, "A", x)
    m.connect(g, "B", x)
    m.connect(g, "ZN", y, is_driver=True)
    z = m.add_net("z")
    g = m.add_instance("nor", "NOR4_X1")
    for pin in ("A", "B", "C", "D"):
        m.connect(g, pin, y)
    m.connect(g, "ZN", z, is_driver=True)
    m.mark_primary_output(z)
    act = propagate_activity(m, lib45_2d)
    assert act.probability[x] == 0.0
    assert act.probability[y] == 1.0
    assert act.probability[z] == 0.0
    _assert_power_matches(m, lib45_2d, IndexedWireModel(), 1.0)


_COMB_TYPES = [cell_type for cell_type, _ in CELL_DEFINITIONS
               if logic.is_combinational(cell_type)]
_COMB_CELLS = [f"{cell_type}_X1" for cell_type in _COMB_TYPES]


@pytest.mark.parametrize("cell_type", _COMB_TYPES)
def test_truth_table_matches_scalar_enumeration(cell_type):
    # Netlist probabilities start at 0.5 and stay close to dyadic, where
    # any summation order is exact; arbitrary probabilities expose an
    # order change.  Single rows too: numpy reduces a one-row batch
    # pairwise but a taller one column by column.
    table = logic.truth_table(cell_type)
    rng = np.random.default_rng(7)
    probs = rng.random((64, len(table.inputs)))
    probs[:16] = rng.choice([0.0, 0.5, 1.0], size=(16, len(table.inputs)))
    out, bd = table.propagate(probs)
    for row, values in enumerate(probs.tolist()):
        named = dict(zip(table.inputs, values))
        want_out = [oracle.output_probabilities(cell_type, named)[o]
                    for o in table.outputs]
        want_bd = [[oracle.boolean_difference_probability(
                        cell_type, pin, out_pin, named)
                    for pin in table.inputs] for out_pin in table.outputs]
        one_out, one_bd = table.propagate(probs[row:row + 1])
        for got_out, got_bd in ((out[row], bd[row]), (one_out[0], one_bd[0])):
            assert _bits(got_out) == _bits(want_out)
            assert _bits(got_bd) == _bits(want_bd)


@st.composite
def random_netlists(draw):
    """Small random DAGs of the library's combinational cells.

    Instances are created in a random order and wired in random pin
    orders, with some inputs left open, some flops, and some gate
    outputs marked as clock nets, so ``levelize`` visits readers of
    clock nets both before and after their drivers.
    """
    n_pi = draw(st.integers(1, 3))
    n_gates = draw(st.integers(1, 12))
    gates = []
    sources = [("pi", k) for k in range(n_pi)] + [("clk", 0)]
    for g in range(n_gates):
        cell = draw(st.sampled_from(_COMB_CELLS + ["DFF_X1"]))
        if cell == "DFF_X1":
            ins = {"D": draw(st.sampled_from(sources)), "CK": ("clk", 0)}
            outs = ["Q"]
        else:
            table = logic.truth_table(cell.rsplit("_", 1)[0])
            ins = {}
            for pin in table.inputs:
                if not draw(st.integers(0, 7)):
                    continue                      # left unconnected
                ins[pin] = draw(st.sampled_from(sources))
            outs = [table.outputs[0]] + [
                out for out in table.outputs[1:] if draw(st.booleans())]
        is_clock = draw(st.booleans())
        pins = list(ins) + outs
        order = draw(st.permutations(pins))
        gates.append((cell, ins, outs, is_clock, order))
        sources = sources + [("gate", g, out) for out in outs]
    creation = draw(st.permutations(range(n_gates)))

    m = Module("random")
    clk = m.add_net("clk")
    m.mark_primary_input(clk)
    m.set_clock(clk)
    nets = {("clk", 0): clk}
    for k in range(n_pi):
        nets[("pi", k)] = m.add_net(f"pi{k}")
        m.mark_primary_input(nets[("pi", k)])
    for g, (_cell, _ins, outs, is_clock, _order) in enumerate(gates):
        for out in outs:
            net = nets[("gate", g, out)] = m.add_net(f"g{g}_{out}")
            if is_clock:
                m.mark_clock_net(net)
    for g in creation:
        cell, ins, outs, _is_clock, order = gates[g]
        inst = m.add_instance(f"g{g}", cell)
        for pin in order:
            if pin in ins:
                m.connect(inst, pin, nets[ins[pin]])
            else:
                m.connect(inst, pin, nets[("gate", g, pin)], is_driver=True)
    return m


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(module=random_netlists(),
       pi_activity=st.floats(0.0, 1.0),
       seq_activity=st.floats(0.0, 1.0))
def test_random_netlists_match_oracle(lib45_2d, module, pi_activity,
                                      seq_activity):
    _assert_power_matches(module, lib45_2d, IndexedWireModel(), 1.3,
                          pi_activity=pi_activity,
                          seq_activity=seq_activity)
