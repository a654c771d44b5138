"""The module pin table and its CSR snapshot (``Module.connectivity``).

The snapshot is built from the append-only table with array operations;
these tests demand that it always read exactly like a scan of the
objects it shadows: ``net.driver``, ``net.sinks`` in order, and
``inst.pin_nets`` in order.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuits.generators import generate_benchmark
from repro.circuits.netlist import NO_DRIVER, Module
from repro.errors import NetlistError

PINS = ("A", "B", "C", "Z", "ZN")


def _scan(module: Module):
    """(drivers, sinks, pins, clock nets) read from the objects."""
    return ([net.driver for net in module.nets],
            [list(net.sinks) for net in module.nets],
            [list(inst.pin_nets.items()) for inst in module.instances],
            [net.index for net in module.nets if net.is_clock])


def _from_snapshot(module: Module):
    """The same four lists read from the snapshot's arrays."""
    conn = module.connectivity()
    assert (conn.n_inst, conn.n_nets) == (len(module.instances),
                                          len(module.nets))

    def name(inst: int, pid: int) -> str:
        return module.nets[-1 - pid].name if inst < 0 \
            else conn.pin_names[pid]

    drivers = [None if d == NO_DRIVER else (d, name(d, p))
               for d, p in zip(conn.driver_inst.tolist(),
                               conn.driver_pin.tolist())]
    sink_pairs = [(i, name(i, p)) for i, p in zip(conn.sink_inst.tolist(),
                                                  conn.sink_pin.tolist())]
    off = conn.sink_off.tolist()
    sinks = [sink_pairs[off[k]:off[k + 1]] for k in range(conn.n_nets)]
    assert conn.sink_net.tolist() == [k for k in range(conn.n_nets)
                                      for _ in sinks[k]]
    pin_pairs = [(conn.pin_names[p], n) for p, n in zip(
        conn.pin_id.tolist(), conn.pin_net.tolist())]
    off = conn.pin_off.tolist()
    pins = [pin_pairs[off[i]:off[i + 1]] for i in range(conn.n_inst)]
    assert conn.pin_owner.tolist() == [i for i in range(conn.n_inst)
                                       for _ in pins[i]]
    return (drivers, sinks, pins,
            np.flatnonzero(conn.is_clock).tolist())


def _assert_snapshot_matches(module: Module) -> None:
    assert _from_snapshot(module) == _scan(module)


# -- random edit sequences ----------------------------------------------------

OPS = ("add_net", "add_instance", "connect", "connect_driver", "rewire",
       "insert_buffer", "mark_pi", "mark_po", "mark_clock")


def _apply(module: Module, data, op: str) -> None:
    nets = module.nets
    insts = module.instances
    if op == "add_net" or not nets:
        module.add_net(module.fresh_net_name("n"))
    elif op == "add_instance" or not insts:
        module.add_instance(module.fresh_instance_name("g"), "INV_X1")
    elif op in ("connect", "connect_driver"):
        inst = data.draw(st.sampled_from(insts))
        pin = data.draw(st.sampled_from(PINS))
        net = data.draw(st.sampled_from(nets))
        is_driver = op == "connect_driver"
        if pin in inst.pin_nets or (is_driver and net.driver is not None):
            rows = len(module._pin_inst)
            with pytest.raises(NetlistError):
                module.connect(inst, pin, net.index, is_driver=is_driver)
            assert len(module._pin_inst) == rows
        else:
            module.connect(inst, pin, net.index, is_driver=is_driver)
    elif op == "rewire":
        loaded = [n for n in nets if n.sinks]
        if loaded:
            net = data.draw(st.sampled_from(loaded))
            sink = data.draw(st.sampled_from(net.sinks))
            dest = data.draw(st.sampled_from(nets))
            module.rewire_sink(net.index, sink, dest.index)
    elif op == "insert_buffer":
        loaded = [n for n in nets if n.sinks]
        if loaded:
            net = data.draw(st.sampled_from(loaded))
            moved = data.draw(st.lists(st.sampled_from(net.sinks),
                                       unique=True, max_size=4))
            module.insert_buffer(net.index, "BUF_X1", moved)
    elif op == "mark_pi":
        net = data.draw(st.sampled_from(nets))
        if net.driver is not None:
            with pytest.raises(NetlistError):
                module.mark_primary_input(net.index)
        else:
            module.mark_primary_input(net.index)
    elif op == "mark_po":
        # A net may be marked twice: it then carries two output sinks.
        module.mark_primary_output(data.draw(st.sampled_from(nets)).index)
    else:
        module.mark_clock_net(data.draw(st.sampled_from(nets)).index)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), ops=st.lists(st.sampled_from(OPS), max_size=40))
def test_snapshot_matches_scan_after_every_edit(data, ops):
    module = Module("random")
    _assert_snapshot_matches(module)
    for op in ops:
        _apply(module, data, op)
        _assert_snapshot_matches(module)
    # The table travels with the module.
    _assert_snapshot_matches(pickle.loads(pickle.dumps(module)))


def test_rewired_pin_keeps_its_place_and_takes_its_last_net():
    m = Module("rewire")
    a, b, c = (m.add_net(n) for n in "abc")
    g = m.add_instance("g", "NAND2_X1")
    h = m.add_instance("h", "INV_X1")
    m.connect(g, "A1", a)
    m.connect(h, "A", a)
    m.connect(g, "A2", a)
    m.connect(g, "ZN", b, is_driver=True)
    m.rewire_sink(a, (g.index, "A1"), c)
    m.rewire_sink(c, (g.index, "A1"), a)
    # A1 keeps its first place on g but is now a's last sink.
    assert list(g.pin_nets) == ["A1", "A2", "ZN"]
    assert m.nets[a].sinks == [(h.index, "A"), (g.index, "A2"),
                               (g.index, "A1")]
    _assert_snapshot_matches(m)


def test_moved_primary_outputs_keep_their_names_and_copies():
    m = Module("po")
    a = m.add_net("a")
    m.mark_primary_input(a)
    z = m.add_net("z")
    g = m.add_instance("g", "INV_X1")
    m.connect(g, "A", a)
    m.connect(g, "ZN", z, is_driver=True)
    m.mark_primary_output(z)
    m.mark_primary_output(z)
    m.mark_primary_output(a)
    # Moving one of z's two outputs leaves the other on z.
    buf = m.insert_buffer(z, "BUF_X1", [(-2, "z")])
    out = buf.pin_nets["Z"]
    assert m.nets[out].sinks == [(-2, "z")]
    assert m.nets[z].sinks == [(-2, "z"), (buf.index, "A")]
    _assert_snapshot_matches(m)
    m.rewire_sink(z, (-2, "z"), a)
    m.rewire_sink(a, (-2, "a"), out)
    m.rewire_sink(out, (-2, "z"), a)
    m.mark_primary_output(z)
    assert m.nets[a].sinks == [(g.index, "A"), (-2, "z"), (-2, "z")]
    _assert_snapshot_matches(m)


def test_snapshot_of_generated_and_buffered_benchmark():
    m = generate_benchmark("aes", scale=0.05, seed=3)
    _assert_snapshot_matches(m)
    rng = np.random.default_rng(4)
    loaded = [n for n in m.nets if n.fanout >= 3 and not n.is_clock]
    for k in rng.choice(len(loaded), size=20, replace=False).tolist():
        net = loaded[k]
        m.insert_buffer(net.index, "BUF_X1", net.sinks[::2])
    _assert_snapshot_matches(m)


def test_pin_table_memory_is_compact():
    # Four int32/int8 columns: no per-pin Python objects.
    m = generate_benchmark("aes", scale=0.05, seed=3)
    rows = len(m._pin_inst)
    assert rows == sum(len(i.pin_nets) for i in m.instances) \
        + len(m.primary_inputs) + len(m.primary_outputs)
    for column in (m._pin_inst, m._pin_net, m._pin_id):
        assert column.itemsize == 4 and len(column) == rows
    assert m._pin_driver.itemsize == 1


@pytest.mark.parametrize("bound", [1, 300, 70_000])
def test_group_order_is_a_stable_sort(bound):
    # One 16-bit radix pass below 2**16, two above it.
    from repro.kernels.arrays import group_order

    keys = np.random.default_rng(bound).integers(0, bound, 5_000)
    assert np.array_equal(group_order(keys, bound),
                          np.argsort(keys, kind="stable"))
