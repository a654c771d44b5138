"""Net parasitic models used by STA at different flow stages."""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.netlist import Module, Net
from repro.kernels.arrays import as_f64, as_index
from repro.tech.interconnect import InterconnectModel
from repro.tech.metal import LayerClass


class NetModel:
    """Interface: wire resistance and capacitance per net."""

    def net_rc(self, net: Net) -> Tuple[float, float]:
        """(resistance kohm, capacitance fF) of the net's wiring."""
        raise NotImplementedError

    def net_rc_bulk(self, nets: Sequence[Net], size: int
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """(R, C) arrays indexed by net index for a batch of nets.

        The base implementation just loops :meth:`net_rc`; models with a
        vectorizable estimate override it.
        """
        r = np.zeros(size)
        c = np.zeros(size)
        for net in nets:
            rr, cc = self.net_rc(net)
            r[net.index] = rr
            c[net.index] = cc
        return r, c

    def net_length_um(self, net: Net) -> float:
        """Estimated/routed wirelength of the net, um."""
        raise NotImplementedError


class WLMNetModel(NetModel):
    """Wire-load-model based estimates (synthesis stage).

    ``wlm`` must provide ``length_um(fanout)`` plus unit R/C attributes —
    see :class:`repro.synth.wlm.WireLoadModel`.
    """

    def __init__(self, wlm) -> None:
        self.wlm = wlm

    def net_length_um(self, net: Net) -> float:
        return self.wlm.length_um(max(net.fanout, 1))

    def net_rc(self, net: Net) -> Tuple[float, float]:
        length = self.net_length_um(net)
        return (length * self.wlm.unit_r_kohm_per_um,
                length * self.wlm.unit_c_ff_per_um)

    def net_rc_bulk(self, nets: Sequence[Net], size: int
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`net_rc` of every net, with one ``length_um`` call per
        distinct fanout and the same products, so bit-identical."""
        fanout = np.maximum(as_index([len(net.sinks) for net in nets]), 1)
        by_fanout = np.zeros(fanout.max(initial=0) + 1)
        for f in np.flatnonzero(np.bincount(fanout)).tolist():
            by_fanout[f] = self.wlm.length_um(f)
        length = by_fanout[fanout]
        idx = as_index([net.index for net in nets])
        r = np.zeros(size)
        c = np.zeros(size)
        r[idx] = length * self.wlm.unit_r_kohm_per_um
        c[idx] = length * self.wlm.unit_c_ff_per_um
        return r, c


def steiner_correction(fanout: int) -> float:
    """HPWL -> rectilinear Steiner length correction factor."""
    if fanout <= 3:
        return 1.0
    return 1.0 + 0.18 * math.sqrt(fanout - 3)


class PlacedNetModel(NetModel):
    """Steiner-length estimates from cell placement (pre-route).

    Wire RC uses per-class unit values from an
    :class:`~repro.tech.interconnect.InterconnectModel`, with the layer
    class picked by net length: short nets route on local layers,
    medium on intermediate, long on global — the assignment the real
    router performs by preference.

    Estimates are cached per net until :meth:`invalidate` drops them.
    :meth:`net_rc_bulk` also keeps R/C arrays across calls and refreshes
    only the entries of invalidated and new nets, so an edit batch that
    buffers a few nets costs a few estimates, not a full refill.
    """

    def __init__(self, module: Module, interconnect: InterconnectModel,
                 io_positions: Optional[Dict[int, Tuple[float, float]]] = None,
                 local_threshold_um: float = 40.0,
                 intermediate_threshold_um: float = 400.0) -> None:
        self.module = module
        self.interconnect = interconnect
        self.io_positions = io_positions or {}
        self.local_threshold_um = local_threshold_um
        self.intermediate_threshold_um = intermediate_threshold_um
        self._cache: Dict[int, Tuple[float, float, float]] = {}
        # Array mirror of the cache for net_rc_bulk: entry i is valid
        # while _fresh[i] holds (then it equals _cache[i]).
        self._r = np.zeros(0)
        self._c = np.zeros(0)
        self._fresh = np.zeros(0, dtype=bool)

    def invalidate(self, net_idx: Optional[int] = None) -> None:
        """Drop cached estimates (after placement/netlist changes).

        With a net index, only that net's estimate: enough after an edit
        that changed its pins (a buffer moves some of its sinks to a new
        net and adds its own input), as no other net's pins moved.
        """
        if net_idx is None:
            self._cache.clear()
            self._fresh[:] = False
        else:
            self._cache.pop(net_idx, None)
            if net_idx < self._fresh.size:
                self._fresh[net_idx] = False

    def _pin_position(self, inst_idx: int, net: Net
                      ) -> Optional[Tuple[float, float]]:
        if inst_idx >= 0:
            inst = self.module.instances[inst_idx]
            return inst.x_um, inst.y_um
        return self.io_positions.get(net.index)

    def net_length_um(self, net: Net) -> float:
        return self._entry(net)[0]

    def layer_class_for_length(self, length_um: float) -> LayerClass:
        scale = self.interconnect.node.geometry_scale
        if length_um <= self.local_threshold_um * scale:
            return LayerClass.LOCAL
        if length_um <= self.intermediate_threshold_um * scale:
            return LayerClass.INTERMEDIATE
        return LayerClass.GLOBAL

    def _entry(self, net: Net) -> Tuple[float, float, float]:
        cached = self._cache.get(net.index)
        if cached is not None:
            return cached
        xs, ys = [], []
        if net.driver is not None:
            pos = self._pin_position(net.driver[0], net)
            if pos is not None:
                xs.append(pos[0])
                ys.append(pos[1])
        for inst_idx, _pin in net.sinks:
            pos = self._pin_position(inst_idx, net)
            if pos is not None:
                xs.append(pos[0])
                ys.append(pos[1])
        if len(xs) < 2:
            entry = (0.0, 0.0, 0.0)
            self._cache[net.index] = entry
            return entry
        hpwl = (max(xs) - min(xs)) + (max(ys) - min(ys))
        length = hpwl * steiner_correction(net.fanout)
        rc = self.interconnect.class_rc(self.layer_class_for_length(length))
        entry = (length,
                 length * rc.resistance_kohm_per_um,
                 length * rc.capacitance_ff_per_um)
        self._cache[net.index] = entry
        return entry

    def net_rc(self, net: Net) -> Tuple[float, float]:
        _, r, c = self._entry(net)
        return r, c

    def net_rc_bulk(self, nets: Sequence[Net], size: int
                    ) -> Tuple[np.ndarray, np.ndarray]:
        if size > self._fresh.size:
            grow = size - self._fresh.size
            self._r = np.concatenate((self._r, np.zeros(grow)))
            self._c = np.concatenate((self._c, np.zeros(grow)))
            self._fresh = np.concatenate(
                (self._fresh, np.zeros(grow, dtype=bool)))
        if nets is self.module.nets:
            idx = np.arange(len(nets), dtype=np.intp)
        else:
            idx = as_index([net.index for net in nets])
        stale_pos = np.flatnonzero(~self._fresh[idx])
        if stale_pos.size:
            cache = self._cache
            stale = [nets[p] for p in stale_pos.tolist()]
            missing = [net for net in stale if net.index not in cache]
            if missing:
                self._fill_cache_bulk(missing)
            entries = [cache[net.index] for net in stale]
            rows = idx[stale_pos]
            self._r[rows] = [e[1] for e in entries]
            self._c[rows] = [e[2] for e in entries]
            self._fresh[rows] = True
        r = np.zeros(size)
        c = np.zeros(size)
        r[idx] = self._r[idx]
        c[idx] = self._c[idx]
        return r, c

    def _fill_cache_bulk(self, missing: List[Net]) -> None:
        """Vectorized :meth:`_entry` for a batch of uncached nets.

        Same point set, HPWL, Steiner correction, layer-class pick, and
        unit-RC products as the scalar path, so cached values are
        bit-identical whichever path filled them.
        """
        insts = self.module.instances
        inst_x = as_f64([inst.x_um for inst in insts])
        inst_y = as_f64([inst.y_um for inst in insts])
        n = len(missing)
        idx_flat: List[int] = []
        append = idx_flat.append
        io_get = self.io_positions.get
        counts_l: List[int] = []
        io_n_l: List[int] = []
        io_x_l: List[float] = []
        io_y_l: List[float] = []
        fan_l: List[int] = []
        for net in missing:
            iopos = io_get(net.index)
            members = 0
            ios = 0
            drv = net.driver
            if drv is not None:
                pi = drv[0]
                if pi >= 0:
                    append(pi)
                    members += 1
                elif iopos is not None:
                    ios += 1
            for sink_idx, _pin in net.sinks:
                if sink_idx >= 0:
                    append(sink_idx)
                    members += 1
                elif iopos is not None:
                    ios += 1
            counts_l.append(members)
            io_n_l.append(ios)
            if iopos is not None:
                io_x_l.append(iopos[0])
                io_y_l.append(iopos[1])
            else:
                io_x_l.append(0.0)
                io_y_l.append(0.0)
            fan_l.append(len(net.sinks))
        counts = as_index(counts_l)
        io_n = as_index(io_n_l)
        io_x = as_f64(io_x_l)
        io_y = as_f64(io_y_l)
        fan = as_index(fan_l)

        minx = np.full(n, np.inf)
        miny = np.full(n, np.inf)
        maxx = np.full(n, -np.inf)
        maxy = np.full(n, -np.inf)
        has_members = counts > 0
        if idx_flat and has_members.any():
            idx = as_index(idx_flat)
            xs = inst_x[idx]
            ys = inst_y[idx]
            offs = (np.cumsum(counts) - counts)[has_members]
            minx[has_members] = np.minimum.reduceat(xs, offs)
            miny[has_members] = np.minimum.reduceat(ys, offs)
            maxx[has_members] = np.maximum.reduceat(xs, offs)
            maxy[has_members] = np.maximum.reduceat(ys, offs)
        use_io = io_n > 0
        minx = np.where(use_io, np.minimum(minx, io_x), minx)
        miny = np.where(use_io, np.minimum(miny, io_y), miny)
        maxx = np.where(use_io, np.maximum(maxx, io_x), maxx)
        maxy = np.where(use_io, np.maximum(maxy, io_y), maxy)

        valid = (counts + io_n) >= 2
        for arr in (minx, miny, maxx, maxy):
            arr[~valid] = 0.0
        hpwl = (maxx - minx) + (maxy - miny)
        corr = np.where(fan <= 3, 1.0,
                        1.0 + 0.18 * np.sqrt(np.maximum(fan - 3, 0)))
        length = np.where(valid, hpwl * corr, 0.0)
        scale = self.interconnect.node.geometry_scale
        local_um = self.local_threshold_um * scale
        inter_um = self.intermediate_threshold_um * scale
        cls = np.where(length <= local_um, 0,
                       np.where(length <= inter_um, 1, 2))
        units = [self.interconnect.class_rc(k)
                 for k in (LayerClass.LOCAL, LayerClass.INTERMEDIATE,
                           LayerClass.GLOBAL)]
        r_unit = as_f64([u.resistance_kohm_per_um for u in units])
        c_unit = as_f64([u.capacitance_ff_per_um for u in units])
        r = length * r_unit[cls]
        c = length * c_unit[cls]
        length_l = length.tolist()
        r_l = r.tolist()
        c_l = c.tolist()
        cache = self._cache
        for pos, net in enumerate(missing):
            cache[net.index] = (length_l[pos], r_l[pos], c_l[pos])


class RoutedNetModel(NetModel):
    """Exact per-net RC handed over by the global router."""

    def __init__(self, lengths_um: Dict[int, float],
                 resistances_kohm: Dict[int, float],
                 capacitances_ff: Dict[int, float]) -> None:
        self.lengths_um = lengths_um
        self.resistances_kohm = resistances_kohm
        self.capacitances_ff = capacitances_ff

    def net_length_um(self, net: Net) -> float:
        return self.lengths_um.get(net.index, 0.0)

    def net_rc(self, net: Net) -> Tuple[float, float]:
        return (self.resistances_kohm.get(net.index, 0.0),
                self.capacitances_ff.get(net.index, 0.0))
