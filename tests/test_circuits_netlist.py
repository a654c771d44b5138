"""Gate-level netlist container tests."""

import pytest

from repro.errors import NetlistError
from repro.circuits.netlist import Module, PIN_DRIVER, PO_SINK


def _tiny_module():
    m = Module("tiny")
    a = m.add_net("a")
    b = m.add_net("b")
    z = m.add_net("z")
    m.mark_primary_input(a)
    m.mark_primary_input(b)
    g = m.add_instance("g1", "NAND2_X1")
    m.connect(g, "A", a)
    m.connect(g, "B", b)
    m.connect(g, "ZN", z, is_driver=True)
    m.mark_primary_output(z)
    return m, g, (a, b, z)


def test_construction_and_validate():
    m, g, (a, b, z) = _tiny_module()
    m.validate()
    assert m.n_cells == 1
    assert m.n_nets == 3
    assert m.nets[z].driver == (g.index, "ZN")
    assert (PO_SINK, "z") in m.nets[z].sinks
    assert m.nets[a].driver == (PIN_DRIVER, "a")


def test_duplicate_names_rejected():
    m, _g, _ = _tiny_module()
    with pytest.raises(NetlistError):
        m.add_net("a")
    with pytest.raises(NetlistError):
        m.add_instance("g1", "INV_X1")


def test_double_driver_rejected():
    m, g, (a, _b, z) = _tiny_module()
    g2 = m.add_instance("g2", "INV_X1")
    with pytest.raises(NetlistError):
        m.connect(g2, "ZN", z, is_driver=True)


def test_resize_instance():
    m, g, _ = _tiny_module()
    m.resize_instance(g, "NAND2_X4")
    assert g.cell_name == "NAND2_X4"


def test_insert_buffer_rewires_sinks():
    m, g, (a, b, z) = _tiny_module()
    g2 = m.add_instance("g2", "INV_X1")
    m.connect(g2, "A", z)
    m.connect(g2, "ZN", m.add_net("z2"), is_driver=True)
    m.mark_primary_output(m.net_by_name("z2").index)
    buf = m.insert_buffer(z, "BUF_X4", [(g2.index, "A")])
    new_net = m.nets[buf.pin_nets["Z"]]
    assert (g2.index, "A") in new_net.sinks
    assert (g2.index, "A") not in m.nets[z].sinks
    assert (buf.index, "A") in m.nets[z].sinks
    assert g2.pin_nets["A"] == new_net.index
    m.validate()


def test_rewire_missing_sink_raises():
    m, _g, (a, _b, z) = _tiny_module()
    other = m.add_net("other")
    with pytest.raises(NetlistError):
        m.rewire_sink(z, (999, "X"), other)


def test_validate_catches_undriven_net():
    m = Module("bad")
    n = m.add_net("floating")
    inst = m.add_instance("g", "INV_X1")
    m.connect(inst, "A", n)
    with pytest.raises(NetlistError):
        m.validate()


def test_fresh_names_unique():
    m, _g, _ = _tiny_module()
    n1 = m.fresh_net_name("x_")
    m.add_net(n1)
    n2 = m.fresh_net_name("x_")
    assert n1 != n2


def test_average_fanout():
    m, _g, _ = _tiny_module()
    # Nets a, b, z each have exactly one sink.
    assert m.average_fanout() == pytest.approx(1.0)


def test_clock_marking():
    m = Module("clk")
    c = m.add_net("clk")
    m.mark_primary_input(c)
    m.set_clock(c)
    assert m.clock_net == c
    assert m.nets[c].is_clock


def _edit(m, g, nets, mutator):
    """Prepare one structural edit on the tiny module; returns the call."""
    a, b, z = nets
    if mutator == "add_net":
        return lambda: m.add_net("n_new")
    if mutator == "add_instance":
        return lambda: m.add_instance("g_new", "INV_X1")
    if mutator == "connect":
        inst = m.add_instance("g_new", "INV_X1")
        return lambda: m.connect(inst, "A", z)
    if mutator == "rewire_sink":
        return lambda: m.rewire_sink(a, (g.index, "A"), b)
    if mutator == "mark_primary_input":
        net = m.add_net("n_new")
        return lambda: m.mark_primary_input(net)
    if mutator == "mark_primary_output":
        return lambda: m.mark_primary_output(z)
    if mutator == "set_clock":
        return lambda: m.set_clock(a)
    assert mutator == "mark_clock_net"
    return lambda: m.mark_clock_net(b)


@pytest.mark.parametrize("mutator", [
    "add_net", "add_instance", "connect", "rewire_sink",
    "mark_primary_input", "mark_primary_output", "set_clock",
    "mark_clock_net"])
def test_structural_edits_bump_topology_version(mutator):
    m, g, nets = _tiny_module()
    edit = _edit(m, g, nets, mutator)
    before = m.topology_version
    edit()
    assert m.topology_version > before


def test_resize_keeps_topology_version():
    m, g, _ = _tiny_module()
    before = m.topology_version
    m.resize_instance(g, "NAND2_X4")
    assert m.topology_version == before


def test_mark_clock_net_flags_net():
    m, _g, (a, b, _z) = _tiny_module()
    m.mark_clock_net(b)
    assert m.nets[b].is_clock and m.clock_net is None


def test_modules_pickled_without_counter_load_at_version_zero():
    import pickle

    m, _g, _ = _tiny_module()
    assert m.topology_version > 0
    state = dict(m.__dict__)
    del state["topology_version"]
    old = Module.__new__(Module)
    old.__dict__.update(state)
    restored = pickle.loads(pickle.dumps(old))
    assert restored.topology_version == 0
