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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import NetlistError

# Virtual instance indices.
PIN_DRIVER = -1   # net driven by a primary input
PO_SINK = -2      # net observed by a primary output


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
        if is_driver:
            if net.driver is not None:
                raise NetlistError(
                    f"net {net.name!r} already driven by {net.driver}")
            net.driver = (inst.index, pin)
        else:
            net.sinks.append((inst.index, pin))
        inst.pin_nets[pin] = net_idx
        self.topology_version += 1

    def mark_primary_input(self, net_idx: int) -> None:
        net = self.nets[net_idx]
        if net.driver is not None:
            raise NetlistError(
                f"primary-input net {net.name!r} already has a driver")
        net.driver = (PIN_DRIVER, net.name)
        self.primary_inputs.append(net_idx)
        self.topology_version += 1

    def mark_primary_output(self, net_idx: int) -> None:
        self.nets[net_idx].sinks.append((PO_SINK, self.nets[net_idx].name))
        self.primary_outputs.append(net_idx)
        self.topology_version += 1

    def set_clock(self, net_idx: int) -> None:
        self.clock_net = net_idx
        self.mark_clock_net(net_idx)

    def mark_clock_net(self, net_idx: int) -> None:
        """Flag a net as part of the clock network (not timed as data)."""
        self.nets[net_idx].is_clock = True
        self.topology_version += 1

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
