"""STA engine tests on hand-built netlists."""

import pytest

from repro.errors import TimingError
from repro.circuits.netlist import Module
from repro.timing.graph import levelize
from repro.timing.netmodel import NetModel
from repro.timing.sta import TimingAnalyzer


class ZeroWireModel(NetModel):
    """No wire parasitics: pure cell-delay chains."""

    def net_rc(self, net):
        return 0.0, 0.0

    def net_length_um(self, net):
        return 0.0


class FixedWireModel(NetModel):
    def __init__(self, r_kohm, c_ff):
        self.r = r_kohm
        self.c = c_ff

    def net_rc(self, net):
        return self.r, self.c

    def net_length_um(self, net):
        return 10.0


def _chain(n_inverters: int) -> Module:
    m = Module(f"chain{n_inverters}")
    prev = m.add_net("in")
    m.mark_primary_input(prev)
    for k in range(n_inverters):
        inst = m.add_instance(f"i{k}", "INV_X1")
        m.connect(inst, "A", prev)
        out = m.add_net(f"n{k}")
        m.connect(inst, "ZN", out, is_driver=True)
        prev = out
    m.mark_primary_output(prev)
    return m


def _registered_pair() -> Module:
    """FF -> INV -> FF with a clock net."""
    m = Module("regpair")
    clk = m.add_net("clk")
    m.mark_primary_input(clk)
    m.set_clock(clk)
    d_in = m.add_net("din")
    m.mark_primary_input(d_in)
    ff1 = m.add_instance("ff1", "DFF_X1")
    m.connect(ff1, "D", d_in)
    m.connect(ff1, "CK", clk)
    q1 = m.add_net("q1")
    m.connect(ff1, "Q", q1, is_driver=True)
    inv = m.add_instance("inv", "INV_X1")
    m.connect(inv, "A", q1)
    z = m.add_net("z")
    m.connect(inv, "ZN", z, is_driver=True)
    ff2 = m.add_instance("ff2", "DFF_X1")
    m.connect(ff2, "D", z)
    m.connect(ff2, "CK", clk)
    q2 = m.add_net("q2")
    m.connect(ff2, "Q", q2, is_driver=True)
    m.mark_primary_output(q2)
    return m


def test_levelize_chain(lib45_2d):
    m = _chain(5)
    order = levelize(m, lib45_2d)
    assert [m.instances[i].name for i in order] == \
        ["i0", "i1", "i2", "i3", "i4"]


def test_levelize_detects_loop(lib45_2d):
    m = Module("loop")
    a = m.add_net("a")
    b = m.add_net("b")
    g1 = m.add_instance("g1", "INV_X1")
    g2 = m.add_instance("g2", "INV_X1")
    m.connect(g1, "A", b)
    m.connect(g1, "ZN", a, is_driver=True)
    m.connect(g2, "A", a)
    m.connect(g2, "ZN", b, is_driver=True)
    with pytest.raises(TimingError):
        levelize(m, lib45_2d)


def test_chain_delay_accumulates(lib45_2d):
    short = _chain(4)
    long = _chain(12)
    a_short = TimingAnalyzer(short, lib45_2d, ZeroWireModel(), 10.0)
    a_long = TimingAnalyzer(long, lib45_2d, ZeroWireModel(), 10.0)
    d_short = a_short.max_arrival_ps()
    d_long = a_long.max_arrival_ps()
    assert d_long > d_short * 2.0
    # Per-stage delay in a sane range (tens of ps).
    per_stage = (d_long - d_short) / 8.0
    assert 10.0 < per_stage < 120.0


def test_wire_rc_increases_delay(lib45_2d):
    m = _chain(6)
    base = TimingAnalyzer(m, lib45_2d, ZeroWireModel(), 10.0)
    loaded = TimingAnalyzer(_chain(6), lib45_2d,
                            FixedWireModel(0.5, 5.0), 10.0)
    assert loaded.max_arrival_ps() > base.max_arrival_ps()


def test_slack_and_wns(lib45_2d):
    m = _registered_pair()
    report = TimingAnalyzer(m, lib45_2d, ZeroWireModel(), 10.0).run()
    assert report.met
    # Two FF D endpoints (ff1 fed by the PI, ff2) plus one PO endpoint.
    assert len(report.endpoint_slack_ps) == 3
    tight = TimingAnalyzer(_registered_pair(), lib45_2d, ZeroWireModel(),
                           0.05).run()
    assert not tight.met
    assert tight.tns_ps < 0.0


def test_registered_path_includes_clk_to_q_and_setup(lib45_2d):
    m = _registered_pair()
    report = TimingAnalyzer(m, lib45_2d, ZeroWireModel(), 10.0).run()
    ff2 = m.instance_by_name("ff2")
    slack = report.endpoint_slack_ps[(ff2.index, "D")]
    dff = lib45_2d.cell("DFF_X1")
    path = 10000.0 - slack
    # Path must exceed clk->Q alone (inverter + setup included).
    assert path > dff.delay_ps(30.0, 1.0)


def test_bad_clock_raises(lib45_2d):
    with pytest.raises(TimingError):
        TimingAnalyzer(_chain(2), lib45_2d, ZeroWireModel(), 0.0)


def test_load_includes_pin_caps(lib45_2d):
    m = Module("fan")
    a = m.add_net("a")
    m.mark_primary_input(a)
    drv = m.add_instance("drv", "INV_X1")
    m.connect(drv, "A", a)
    z = m.add_net("z")
    m.connect(drv, "ZN", z, is_driver=True)
    for k in range(4):
        g = m.add_instance(f"s{k}", "INV_X4")
        m.connect(g, "A", z)
        out = m.add_net(f"o{k}")
        m.connect(g, "ZN", out, is_driver=True)
        m.mark_primary_output(out)
    analyzer = TimingAnalyzer(m, lib45_2d, ZeroWireModel(), 10.0)
    load = analyzer.net_load_ff(m.nets[z])
    expected = 4 * lib45_2d.cell("INV_X4").pin_cap_ff("A")
    assert load == pytest.approx(expected)
