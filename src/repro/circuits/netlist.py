"""Gate-level netlist containers.

A :class:`Module` holds instances (cell references) and nets.  Nets connect
one driver pin to a list of sink pins; primary inputs are modeled as nets
driven by the virtual ``PIN_DRIVER`` instance, primary outputs as nets with
a virtual ``PO_SINK`` sink.  The structures are index-based and mutable:
the synthesis and optimization engines resize cells and insert/remove
buffers in place.

Scales to the paper's largest benchmark (M256: ~200k cells) while staying
plain Python: instances and nets use ``__slots__`` and integer indices.

Every structural edit goes through a :class:`Module` method, which bumps
``Module.topology_version``; consumers that cache a view of the
connectivity (the vectorized STA's timing graph) compare the counter to
know when to rebuild.  A resize changes no connectivity and leaves the
counter alone.

Beside the objects, every mutator appends to one *pin table*: a row per
pin connection (instance, net, pin-name id, driver flag) in compact
int32/int8 columns.  Rows are never edited: a rewired sink gets a new
row, and a pin's net is the one on its last row.  :meth:`Module.
connectivity` turns the table into a read-only :class:`Connectivity`
snapshot of CSR arrays with array operations alone, which the timing
graph, the placer and the router read instead of walking the objects.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import NetlistError
from repro.kernels.arrays import group_order, ranges

# Virtual instance indices.
PIN_DRIVER = -1   # net driven by a primary input
PO_SINK = -2      # net observed by a primary output
NO_DRIVER = -3    # Connectivity.driver_inst of a net nothing drives
# Pin-table driver-flag value of a row that takes a primary-output sink
# off its net (see Module.rewire_sink).
_REMOVED = -1


class Instance:
    """One placed cell instance."""

    __slots__ = ("name", "cell_name", "pin_nets", "index", "x_um", "y_um",
                 "is_fixed")

    def __init__(self, name: str, cell_name: str) -> None:
        self.name = name
        self.cell_name = cell_name
        self.pin_nets: Dict[str, int] = {}
        self.index = -1
        self.x_um = 0.0
        self.y_um = 0.0
        self.is_fixed = False

    def __repr__(self) -> str:
        return f"Instance({self.name}, {self.cell_name})"


class Net:
    """A signal net: one driver pin, many sink pins.

    ``driver`` is (instance index, pin name); virtual indices mark primary
    I/O.  ``sinks`` is a list of (instance index, pin name).
    """

    __slots__ = ("name", "index", "driver", "sinks", "is_clock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.index = -1
        self.driver: Optional[Tuple[int, str]] = None
        self.sinks: List[Tuple[int, str]] = []
        self.is_clock = False

    @property
    def fanout(self) -> int:
        return len(self.sinks)

    def __repr__(self) -> str:
        return f"Net({self.name}, fanout={self.fanout})"


class Module:
    """A gate-level design."""

    # Bumped by every structural mutator below.  A class-level default,
    # so modules pickled before the counter existed load at version 0.
    topology_version = 0

    def __init__(self, name: str) -> None:
        self.name = name
        self.instances: List[Instance] = []
        self.nets: List[Net] = []
        self.primary_inputs: List[int] = []    # net indices
        self.primary_outputs: List[int] = []   # net indices
        self.clock_net: Optional[int] = None
        self._net_names: Dict[str, int] = {}
        self._inst_names: Dict[str, int] = {}
        # The pin table (see module doc).  A virtual pin (primary-input
        # driver, primary-output sink) stores -1 - k as its pin id,
        # where k is the net whose name the pin carries.  The driver
        # flag is 1 for a driver, 0 for a sink, _REMOVED for a removal.
        self._pin_inst = array("i")
        self._pin_net = array("i")
        self._pin_id = array("i")
        self._pin_driver = array("b")
        self._pin_names: List[str] = []
        self._pin_ids: Dict[str, int] = {}
        self._clock_nets = array("i")

    # -- construction ----------------------------------------------------------

    def add_net(self, name: str) -> int:
        if name in self._net_names:
            raise NetlistError(f"duplicate net name {name!r}")
        net = Net(name)
        net.index = len(self.nets)
        self.nets.append(net)
        self._net_names[name] = net.index
        self.topology_version += 1
        return net.index

    def add_instance(self, name: str, cell_name: str) -> Instance:
        if name in self._inst_names:
            raise NetlistError(f"duplicate instance name {name!r}")
        inst = Instance(name, cell_name)
        inst.index = len(self.instances)
        self.instances.append(inst)
        self._inst_names[name] = inst.index
        self.topology_version += 1
        return inst

    def connect(self, inst: Instance, pin: str, net_idx: int,
                is_driver: bool = False) -> None:
        net = self.nets[net_idx]
        if pin in inst.pin_nets:
            # One net per pin: a second connect would leave the pin on
            # two nets' lists (use rewire_sink to move a sink).
            raise NetlistError(
                f"pin {pin!r} of {inst.name!r} is already connected")
        if is_driver:
            if net.driver is not None:
                raise NetlistError(
                    f"net {net.name!r} already driven by {net.driver}")
            net.driver = (inst.index, pin)
        else:
            net.sinks.append((inst.index, pin))
        inst.pin_nets[pin] = net_idx
        self._add_row(inst.index, net_idx, self._pin_id_of(pin), is_driver)
        self.topology_version += 1

    def mark_primary_input(self, net_idx: int) -> None:
        net = self.nets[net_idx]
        if net.driver is not None:
            raise NetlistError(
                f"primary-input net {net.name!r} already has a driver")
        net.driver = (PIN_DRIVER, net.name)
        self.primary_inputs.append(net_idx)
        self._add_row(PIN_DRIVER, net_idx, -1 - net_idx, True)
        self.topology_version += 1

    def mark_primary_output(self, net_idx: int) -> None:
        net = self.nets[net_idx]
        net.sinks.append((PO_SINK, net.name))
        self.primary_outputs.append(net_idx)
        self._add_row(PO_SINK, net_idx, -1 - net_idx, False)
        self.topology_version += 1

    def set_clock(self, net_idx: int) -> None:
        self.clock_net = net_idx
        self.mark_clock_net(net_idx)

    def mark_clock_net(self, net_idx: int) -> None:
        """Flag a net as part of the clock network (not timed as data)."""
        self.nets[net_idx].is_clock = True
        self._clock_nets.append(net_idx)
        self.topology_version += 1

    def _pin_id_of(self, pin: str) -> int:
        pid = self._pin_ids.get(pin)
        if pid is None:
            pid = self._pin_ids[pin] = len(self._pin_names)
            self._pin_names.append(pin)
        return pid

    def _add_row(self, inst_idx: int, net_idx: int, pin_id: int,
                 is_driver: int) -> None:
        self._pin_inst.append(inst_idx)
        self._pin_net.append(net_idx)
        self._pin_id.append(pin_id)
        self._pin_driver.append(is_driver)

    # -- lookup ----------------------------------------------------------------

    def net_by_name(self, name: str) -> Net:
        try:
            return self.nets[self._net_names[name]]
        except KeyError:
            raise NetlistError(f"no net named {name!r}")

    def instance_by_name(self, name: str) -> Instance:
        try:
            return self.instances[self._inst_names[name]]
        except KeyError:
            raise NetlistError(f"no instance named {name!r}")

    def fresh_net_name(self, prefix: str) -> str:
        k = len(self.nets)
        while f"{prefix}{k}" in self._net_names:
            k += 1
        return f"{prefix}{k}"

    def fresh_instance_name(self, prefix: str) -> str:
        k = len(self.instances)
        while f"{prefix}{k}" in self._inst_names:
            k += 1
        return f"{prefix}{k}"

    # -- mutation (used by synthesis / optimization) ----------------------------

    def resize_instance(self, inst: Instance, new_cell_name: str) -> None:
        """Swap the instance's library cell (same footprint pin names).

        Connectivity is unchanged, so ``topology_version`` stays.
        """
        inst.cell_name = new_cell_name

    def rewire_sink(self, net_idx: int, sink: Tuple[int, str],
                    new_net_idx: int) -> None:
        """Move one sink from a net to another net."""
        net = self.nets[net_idx]
        try:
            net.sinks.remove(sink)
        except ValueError:
            raise NetlistError(
                f"sink {sink} not on net {net.name!r}")
        self.nets[new_net_idx].sinks.append(sink)
        if sink[0] >= 0:
            self.instances[sink[0]].pin_nets[sink[1]] = new_net_idx
            pin_id = self._pin_ids[sink[1]]
        else:
            # A net may carry one primary output twice, so the moved
            # copy is named by a removal row on the old net.
            pin_id = -1 - self._net_names[sink[1]]
            self._add_row(sink[0], net_idx, pin_id, _REMOVED)
        self._add_row(sink[0], new_net_idx, pin_id, False)
        self.topology_version += 1

    def insert_buffer(self, net_idx: int, buffer_cell: str,
                      sinks: Sequence[Tuple[int, str]],
                      in_pin: str = "A", out_pin: str = "Z",
                      x_um: float = 0.0, y_um: float = 0.0) -> Instance:
        """Insert a buffer driving the given subset of the net's sinks.

        Returns the new buffer instance; the new net it drives is named
        after the buffer.
        """
        inst = self.add_instance(self.fresh_instance_name("optbuf_"),
                                 buffer_cell)
        inst.x_um = x_um
        inst.y_um = y_um
        new_net = self.add_net(self.fresh_net_name("optnet_"))
        for sink in list(sinks):
            self.rewire_sink(net_idx, sink, new_net)
        self.connect(inst, in_pin, net_idx)          # buffer input
        self.connect(inst, out_pin, new_net, is_driver=True)
        return inst

    # -- connectivity snapshot -------------------------------------------------

    def connectivity(self) -> "Connectivity":
        """A read-only CSR view of the pin table as it is now."""
        return Connectivity(self)

    # -- validation --------------------------------------------------------------

    def validate(self) -> None:
        """Structural checks; raises NetlistError on problems."""
        for net in self.nets:
            if net.driver is None:
                raise NetlistError(f"net {net.name!r} has no driver")
            if not net.sinks and not net.is_clock:
                raise NetlistError(f"net {net.name!r} has no sinks")
        for inst in self.instances:
            if not inst.pin_nets:
                raise NetlistError(
                    f"instance {inst.name!r} has no connections")

    # -- summaries ----------------------------------------------------------------

    @property
    def n_cells(self) -> int:
        return len(self.instances)

    @property
    def n_nets(self) -> int:
        return len(self.nets)

    def cells_by_type_prefix(self, prefix: str) -> List[Instance]:
        return [i for i in self.instances if i.cell_name.startswith(prefix)]

    def sequential_instances(self, library) -> List[Instance]:
        """Instances whose library cell is sequential."""
        return [i for i in self.instances
                if library.cell(i.cell_name).is_sequential]

    def average_fanout(self) -> float:
        sig = [n for n in self.nets if not n.is_clock]
        if not sig:
            return 0.0
        return sum(n.fanout for n in sig) / len(sig)


def _column(values: array) -> np.ndarray:
    """A pin-table column as an intp array (a copy: the table grows)."""
    return np.frombuffer(values, dtype=np.dtype(values.typecode)
                         ).astype(np.intp) if len(values) \
        else np.zeros(0, dtype=np.intp)


def _removed_outputs(inst: np.ndarray, net: np.ndarray, pid: np.ndarray,
                     flag: np.ndarray, n_nets: int) -> np.ndarray:
    """Rows of primary-output sinks no longer on their net.

    ``rewire_sink`` takes the first copy of an output off its net, so
    among the rows of one (net, output), the i-th removal row takes away
    the i-th sink row; removal rows themselves are never live.
    """
    rows = np.flatnonzero(inst == PO_SINK)
    group = net[rows] * n_nets + (-1 - pid[rows])
    order = np.argsort(group, kind="stable")
    rows = rows[order]
    group = group[order]
    start = np.ones(rows.size, dtype=bool)
    start[1:] = group[1:] != group[:-1]
    run = np.cumsum(start) - 1
    is_sink = flag[rows] == 0
    sinks_before = np.cumsum(is_sink) - is_sink
    rank = sinks_before - sinks_before[start][run]
    removals = np.bincount(run[~is_sink], minlength=int(start.sum()))
    gone = np.zeros(inst.size, dtype=bool)
    gone[rows[is_sink & (rank < removals[run])]] = True
    gone[flag < 0] = True
    return gone


def _offsets(groups: np.ndarray, n: int) -> np.ndarray:
    """CSR offsets of ``groups`` (sorted group ids below ``n``)."""
    return np.concatenate(([0], np.cumsum(np.bincount(groups, minlength=n))))


class Connectivity:
    """Read-only CSR snapshot of a :class:`Module`'s pin table.

    Built with array operations alone; it equals a scan of the objects:

    * net side -- ``driver_inst``/``driver_pin`` per net (``NO_DRIVER``
      where nothing drives it), the sinks of net ``k`` at
      ``sink_off[k]:sink_off[k + 1]`` of ``sink_inst``/``sink_pin``/
      ``sink_net`` in ``net.sinks`` order, and ``is_clock``;
    * instance side -- the pins of instance ``i`` at
      ``pin_off[i]:pin_off[i + 1]`` of ``pin_id``/``pin_net``/
      ``pin_owner`` in ``inst.pin_nets`` order.

    Pin ids index ``pin_names``; a virtual pin's id is ``-1 - k``, where
    ``k`` is the net whose name it carries.  The table reads as objects
    do because of how it grows: a pin's net is the one on its last row,
    its place among its instance's pins is its first row (a dict keeps a
    key's position when its value changes), and a net's sinks come in
    row order (``rewire_sink`` appends the moved sink to its new net).
    """

    def __init__(self, module: Module) -> None:
        n_inst = len(module.instances)
        n_nets = len(module.nets)
        self.n_inst = n_inst
        self.n_nets = n_nets
        self.pin_names = list(module._pin_names)
        inst = _column(module._pin_inst)
        net = _column(module._pin_net)
        pid = _column(module._pin_id)
        flag = _column(module._pin_driver)
        drv = flag > 0
        n_rows = inst.size

        # The rows of one instance pin share a key, (instance, pin id);
        # every virtual row has a key of its own.
        n_pin_names = max(len(self.pin_names), 1)
        key = np.where(inst >= 0, inst * n_pin_names + pid,
                       n_inst * n_pin_names + np.arange(n_rows))
        order = np.argsort(key, kind="stable")
        ks = key[order]
        first = np.ones(n_rows, dtype=bool)
        first[1:] = ks[1:] != ks[:-1]
        if first.all():
            live = np.ones(n_rows, dtype=bool)
            pin_rows = np.arange(n_rows, dtype=np.intp)
        else:
            last = np.ones(n_rows, dtype=bool)
            last[:-1] = first[1:]
            live_rows = order[last]
            live = np.zeros(n_rows, dtype=bool)
            live[live_rows] = True
            # Each pin's live row, in the order of its first row.
            slot = np.full(n_rows, -1, dtype=np.intp)
            slot[order[first]] = live_rows
            pin_rows = slot[slot >= 0]
        if (flag < 0).any():
            live &= ~_removed_outputs(inst, net, pid, flag, n_nets)

        d = np.flatnonzero(live & drv)
        self.driver_inst = np.full(n_nets, NO_DRIVER, dtype=np.intp)
        self.driver_inst[net[d]] = inst[d]
        self.driver_pin = np.zeros(n_nets, dtype=np.intp)
        self.driver_pin[net[d]] = pid[d]

        s = np.flatnonzero(live & ~drv)
        s = s[group_order(net[s], n_nets)]
        self.sink_net = net[s]
        self.sink_inst = inst[s]
        self.sink_pin = pid[s]
        self.sink_off = _offsets(self.sink_net, n_nets)

        pin_rows = pin_rows[inst[pin_rows] >= 0]
        pin_rows = pin_rows[group_order(inst[pin_rows], n_inst)]
        self.pin_owner = inst[pin_rows]
        self.pin_net = net[pin_rows]
        self.pin_id = pid[pin_rows]
        self.pin_off = _offsets(self.pin_owner, n_inst)

        self.is_clock = np.zeros(n_nets, dtype=bool)
        self.is_clock[_column(module._clock_nets)] = True

    def net_pins(self, nets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(offsets, instances)``: each of ``nets``' pins, its driver
        first, then its sinks in order; virtual pins keep ``PIN_DRIVER``
        and ``PO_SINK``."""
        nets = np.asarray(nets, dtype=np.intp)
        has_drv = self.driver_inst[nets] != NO_DRIVER
        n_sink = self.sink_off[nets + 1] - self.sink_off[nets]
        off = np.concatenate(([0], np.cumsum(has_drv + n_sink)))
        pins = np.empty(int(off[-1]), dtype=np.intp)
        pins[off[:-1][has_drv]] = self.driver_inst[nets[has_drv]]
        sel = np.repeat(np.arange(nets.size, dtype=np.intp), n_sink)
        rank = ranges(n_sink)
        pins[off[:-1][sel] + has_drv[sel] + rank] = \
            self.sink_inst[self.sink_off[nets][sel] + rank]
        return off, pins
