"""Level-batched STA propagation.

Propagates arrival/slew one topological level at a time: within a level
the worst input arrival (and the slew of the pin that set it, with the
reference engine's last-max-wins tie-break) is found by a padded-row
max, and the NLDM lookups of the whole level run as one batched bilinear
interpolation against tables stacked by cell id.  Every arithmetic
expression mirrors the scalar reference engine (frozen in
``tests/kernel_oracle.py``) term for term, so arrivals, slews, loads and
slacks come out bit-identical to it.

The engine keeps its state on the :class:`~repro.timing.sta.TimingAnalyzer`
between runs.  A :class:`TimingGraph` snapshot (levels, padded input
matrix, per-level output rows, load-pin index, start points, endpoints)
lives while ``Module.topology_version`` is unchanged; each run re-reads
only the instances' cell names, so a batch of resizes costs one
propagation, not a graph rebuild.  Wire RC comes from the net model,
which refreshes only the nets it was told changed.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.circuits.netlist import Module
from repro.errors import LibraryError
from repro.kernels.arrays import as_index, ranges
from repro.obs.trace import kernel
from repro.timing.graph import CombGraph, _gather_ragged


def _bracket(axes: np.ndarray, tids: np.ndarray, x: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray]:
    """:meth:`NLDMTable._bracket_batch` of each query against its own axis.

    ``axes`` stacks one strictly increasing axis per table row; query
    ``q`` brackets ``x[q]`` against row ``tids[q]``.  ``searchsorted``
    on such an axis is the count of points below ``x``, so one broadcast
    comparison brackets every query; index clamping and the fraction
    are the reference's expressions.
    """
    width = axes.shape[1]
    idx = (axes[tids] < x[..., None]).sum(axis=-1) - 1
    idx = np.minimum(np.maximum(idx, 0), width - 2)
    pos = tids * width + idx
    flat = axes.ravel()
    lo = flat[pos]
    frac = (x - lo) / (flat[pos + 1] - lo)
    return idx, frac


class CellTables:
    """Per-cell facts of one library, stacked into arrays by cell id.

    Cell names are interned to ids as they first appear.  Table row
    ``2 * cid`` is the cell's worst-arc delay table and ``2 * cid + 1``
    its output-slew table (the arc :meth:`Cell.delay_ps` picks);
    ``caps[cid, pin]`` is a pin capacitance (NaN where the cell has no
    such pin), ``setup[cid]`` the setup time, and ``signature[cid]``
    interns the pin facts a :class:`CombGraph` is built from, so a resize
    that changes them is caught.  Every table must share one shape with
    at least two points per axis; the stacked lookup has no other path.
    """

    def __init__(self, library) -> None:
        self.library = library
        self.ids: Dict[str, int] = {}
        self.pin_ids: Dict[str, int] = {}
        self._signature_ids: Dict[tuple, int] = {}
        self._cells: List[tuple] = []     # (tables, pin caps, setup, sig)
        self.shape: Tuple[int, int] = (2, 2)
        self._shaped = False
        self._stack()

    def cell_ids(self, module: Module) -> np.ndarray:
        """Cell id of every instance, interning names seen first here."""
        ids = self.ids
        try:
            return as_index([ids[inst.cell_name]
                             for inst in module.instances])
        except KeyError:
            for inst in module.instances:
                if inst.cell_name not in ids:
                    self._add_cell(inst.cell_name)
            self._stack()
            return as_index([ids[inst.cell_name]
                             for inst in module.instances])

    def pin_index(self, names: List[str]) -> np.ndarray:
        """Column of ``caps`` for each pin name, interning new ones."""
        new = [name for name in names if name not in self.pin_ids]
        for name in new:
            self.pin_ids[name] = len(self.pin_ids)
        if new:
            self._stack()
        return as_index([self.pin_ids[name] for name in names])

    def _add_cell(self, name: str) -> None:
        cell = self.library.cell(name)
        meta = self.library.timing_meta(name)
        tables = None
        if meta.output_pins:
            if cell.characterization is None:
                raise LibraryError(f"cell {name!r} is not characterized")
            arc = cell.characterization.worst_arc()
            tables = (arc.delay, arc.output_slew)
            for table in tables:
                shape = table.values.shape
                if not self._shaped:
                    if min(shape) < 2:
                        raise LibraryError(
                            f"cell {name!r}: batched STA needs NLDM tables "
                            f"with at least two points per axis, got "
                            f"{shape}")
                    self.shape = shape
                    self._shaped = True
                elif shape != self.shape:
                    raise LibraryError(
                        f"cell {name!r}: NLDM table shape {shape} differs "
                        f"from the library's {self.shape}; batched STA "
                        f"needs one shape")
        for pin in meta.pin_caps:
            if pin not in self.pin_ids:
                self.pin_ids[pin] = len(self.pin_ids)
        key = (meta.is_sequential, meta.input_pins, meta.output_pins,
               frozenset(p.name for p in cell.input_pins()))
        sig = self._signature_ids.setdefault(key, len(self._signature_ids))
        setup = (cell.characterization.setup_time_ps
                 if cell.characterization else 0.0)
        self.ids[name] = len(self._cells)
        self._cells.append((tables, meta.pin_caps, setup, sig))

    def _stack(self) -> None:
        n = len(self._cells)
        s, l = self.shape
        self.slew_axes = np.full((2 * n, s), np.nan)
        self.load_axes = np.full((2 * n, l), np.nan)
        values = np.full((2 * n, s, l), np.nan)
        self.caps = np.full((n, max(len(self.pin_ids), 1)), np.nan)
        self.setup = np.zeros(n)
        self.signature = np.zeros(n, dtype=np.intp)
        for cid, (tables, pin_caps, setup, sig) in enumerate(self._cells):
            if tables is not None:
                for k, table in enumerate(tables):
                    self.slew_axes[2 * cid + k] = table.slews_ps
                    self.load_axes[2 * cid + k] = table.loads_ff
                    values[2 * cid + k] = table.values
            for pin, cap in pin_caps.items():
                self.caps[cid, self.pin_ids[pin]] = cap
            self.setup[cid] = setup
            self.signature[cid] = sig
        self.values = values.ravel()

    def load_rows(self, tids: np.ndarray, loads: np.ndarray) -> np.ndarray:
        """Every slew row of each queried table, interpolated in load.

        Shape ``tids.shape + (slew points,)``: the ``v0``/``v1`` terms of
        :meth:`NLDMTable.lookup_batch` for all slew rows at once, so a
        query whose load is known before propagation only needs its
        slew bracket later (:meth:`lookup`).
        """
        s, l = self.shape
        li, lf = _bracket(self.load_axes, tids, loads[:, None])
        pos = (tids * (s * l) + li)[..., None] + np.arange(s) * l
        v = self.values
        lo = v[pos]
        return lo + (v[pos + 1] - lo) * lf[..., None]

    def lookup(self, tids: np.ndarray, rows_flat: np.ndarray,
               row_pos: np.ndarray, slews: np.ndarray) -> np.ndarray:
        """Finish the bilinear lookup along the slew axis.

        ``rows_flat[row_pos[q] + i]`` is query ``q``'s load-interpolated
        slew row ``i`` (from :meth:`load_rows`).
        """
        si, sf = _bracket(self.slew_axes, tids, slews[:, None])
        pos = row_pos + si
        v0 = rows_flat[pos]
        return v0 + (rows_flat[pos + 1] - v0) * sf


class TimingGraph:
    """Everything repeated runs over one module topology share.

    A :class:`CombGraph` and its levels, regrouped for propagation: the
    padded input matrix (columns reversed, so ``argmax`` finds the
    reference's last max; padding points at a sentinel net whose
    arrival is ``-inf``) and the output rows, both in level order, so a
    level is a contiguous slice of each.
    """

    def __init__(self, module: Module, library, tables: CellTables,
                 cids: np.ndarray) -> None:
        graph = CombGraph(module, library)
        levels = graph.levels()
        self.module = module
        self.version = module.topology_version
        self.graph = graph
        self.signature = tables.signature[cids]
        # Instance sinks of the load-pin index; primary-output sinks
        # take the analyzer's output load.
        inst_sinks = graph.load_inst >= 0
        self.load_sink_pos = np.flatnonzero(inst_sinks)
        self.load_sink_inst = graph.load_inst[inst_sinks]
        self.load_pin = tables.pin_index(graph.pin_names)[
            graph.load_pin[inst_sinks]]
        missing = np.isnan(
            tables.caps[cids[self.load_sink_inst], self.load_pin])
        if missing.any():
            k = int(np.flatnonzero(missing)[0])
            inst = module.instances[int(self.load_sink_inst[k])]
            pin = graph.pin_names[int(graph.load_pin[inst_sinks][k])]
            raise LibraryError(
                f"cell {inst.cell_name!r} has no pin {pin!r}")
        self.order_len = int(sum(lvl.size for lvl in levels))

        n_inst = graph.n_inst
        n_nets = graph.n_nets
        sentinel = n_nets
        width = max(int(graph.in_counts.max()) if n_inst else 0, 1)
        inmat = np.full((n_inst, width), sentinel, dtype=np.intp)
        if graph.in_arr.size:
            counts = graph.in_counts
            col = np.arange(graph.in_arr.size, dtype=np.intp) \
                - np.repeat(graph.in_off[:-1], counts)
            inmat[np.repeat(np.arange(n_inst, dtype=np.intp), counts),
                  col] = graph.in_arr
        order = np.concatenate(levels) if levels \
            else np.zeros(0, dtype=np.intp)
        self.inputs = np.ascontiguousarray(inmat[order, ::-1])
        self.row_ids = np.arange(max((lvl.size for lvl in levels),
                                     default=0), dtype=np.intp)

        # Output rows: net, driving instance, and row within its level;
        # ``levels`` holds each level's (input rows, output rows) bounds.
        sizes = as_index([lvl.size for lvl in levels])
        counts = graph.out_counts[order]
        self.o_net = _gather_ragged(graph.out_off, graph.out_arr, order)
        self.o_inst = np.repeat(order, counts)
        self.o_row = np.repeat(ranges(sizes), counts)
        in_bounds = np.concatenate(([0], np.cumsum(sizes))).astype(np.intp)
        out_bounds = np.concatenate(([0], np.cumsum(counts)))[in_bounds]
        self.levels = list(zip(in_bounds[:-1].tolist(),
                               in_bounds[1:].tolist(),
                               out_bounds[:-1].tolist(),
                               out_bounds[1:].tolist()))

        # Nets each run writes: arrival/slew unless a delay comes out
        # at or below -1 ps (the reference's "not yet seen" marker), load
        # always.
        candidates = np.zeros(n_nets, dtype=bool)
        candidates[graph.pi_nets] = True
        candidates[graph.seq_out_nets] = True
        candidates[self.o_net] = True
        self.written = candidates
        self.written_idx = np.flatnonzero(candidates)
        self.written_keys = self.written_idx.tolist()
        loaded = np.zeros(n_nets, dtype=bool)
        loaded[graph.seq_out_nets] = True
        loaded[self.o_net] = True
        self.load_idx = np.flatnonzero(loaded)
        self.load_keys = self.load_idx.tolist()

    def current(self, module: Module, tables: CellTables,
                cids: np.ndarray) -> bool:
        """Still valid for the module as it is now?"""
        return (module is self.module
                and module.topology_version == self.version
                and np.array_equal(tables.signature[cids], self.signature))


class IncrementalState:
    """What a :class:`TimingAnalyzer` keeps between runs."""

    def __init__(self, library) -> None:
        self.library = library
        self.tables = CellTables(library)
        self.graph = None

    def refresh(self, module: Module) -> Tuple[TimingGraph, np.ndarray]:
        """The module's timing graph (rebuilt on topology change) and the
        instances' current cell ids."""
        cids = self.tables.cell_ids(module)
        if self.graph is None or not self.graph.current(module, self.tables,
                                                        cids):
            self.graph = None     # free the stale graph before the build
            self.graph = TimingGraph(module, self.library, self.tables,
                                     cids)
        return self.graph, cids


def _two_tables(cids: np.ndarray) -> np.ndarray:
    """(delay, slew) table rows of each cell id, shape ``(n, 2)``."""
    return 2 * cids[:, None] + np.arange(2, dtype=np.intp)


def run_numpy(analyzer) -> "TimingReport":
    """The body of :meth:`TimingAnalyzer.run` (max-delay propagation)."""
    from repro.timing.sta import DEFAULT_CLOCK_SLEW_PS, LN2, TimingReport

    module = analyzer.module
    state = analyzer._incremental
    if state is None or state.library is not analyzer.library:
        state = analyzer._incremental = IncrementalState(analyzer.library)
    n_nets = len(module.nets)
    input_slew = float(analyzer.input_slew_ps)

    with kernel("sta.levelize"):
        tg, cids = state.refresh(module)
    graph = tg.graph
    tables = state.tables

    with kernel("sta.propagate", instances=tg.order_len):
        # Per-net wire parasitics and sink pin caps.  ``bincount``
        # accumulates each bin sequentially in input order, and the
        # load-pin index is in the reference's net-then-sink order, so
        # every net's sum replays ``_sink_pin_cap_ff`` bit for bit.
        r_net, c_wire = analyzer.net_model.net_rc_bulk(module.nets, n_nets)
        caps = np.full(graph.load_net.size, float(analyzer.output_load_ff))
        caps[tg.load_sink_pos] = tables.caps[cids[tg.load_sink_inst],
                                             tg.load_pin]
        c_pins = np.bincount(graph.load_net, weights=caps, minlength=n_nets)
        cc = c_wire / 2.0 + c_pins
        wire_delay = LN2 * r_net * cc
        wire_term = 2.2 * r_net * cc
        load_net = c_wire + c_pins

        # One sentinel slot past the last net: padding in the input
        # matrix reads arrival -inf there.
        arrival = np.zeros(n_nets + 1)
        arrival[n_nets] = -np.inf
        slew = np.full(n_nets + 1, input_slew)
        unwritten: List[np.ndarray] = []

        # Start points: primary inputs.
        pi = graph.pi_nets
        arrival[pi] = wire_delay[pi]
        slew[pi] = np.sqrt(input_slew * input_slew + wire_term[pi] ** 2)

        # Start points: sequential outputs (clk -> Q).
        nets = graph.seq_out_nets
        if nets.size:
            tids = _two_tables(cids[graph.seq_out_inst])
            rows = tables.load_rows(tids, load_net[nets]).ravel()
            clk_slew = np.full(nets.size, float(DEFAULT_CLOCK_SLEW_PS))
            out = tables.lookup(tids, rows, _row_pos(nets.size, tables),
                                clk_slew)
            s = out[:, 1]
            a = out[:, 0] + wire_delay[nets]
            ws = np.sqrt(s * s + wire_term[nets] ** 2)
            _write(arrival, slew, nets, a, ws, unwritten)

        # Combinational propagation, one level per batch.  Loads are
        # known up front, so every output's tables are interpolated in
        # load once; a level only brackets its input slews.
        o_net = tg.o_net
        o_tids = _two_tables(cids[tg.o_inst])
        rows = tables.load_rows(o_tids, load_net[o_net]).ravel()
        row_pos = _row_pos(o_net.size, tables)
        o_wire_delay = wire_delay[o_net]
        o_wire_term2 = wire_term[o_net] ** 2
        row_ids = tg.row_ids
        for i0, i1, a0, a1 in tg.levels:
            sub = tg.inputs[i0:i1]
            av = arrival[sub]
            row_max = av.max(axis=1)
            has_inputs = row_max >= 0.0
            in_arr = np.where(has_inputs, row_max, 0.0)
            # The scalar engine updates on ties (`a >= in_arrival`), so
            # the LAST pin achieving the max supplies the slew; the
            # columns are reversed, so that is argmax's first hit.
            src = sub[row_ids[:sub.shape[0]], np.argmax(av, axis=1)]
            in_sl = np.where(has_inputs, slew[src], input_slew)
            if a0 == a1:
                continue
            orow = tg.o_row[a0:a1]
            out = tables.lookup(o_tids[a0:a1], rows, row_pos[a0:a1],
                                in_sl[orow])
            s = out[:, 1]
            a = in_arr[orow] + out[:, 0] + o_wire_delay[a0:a1]
            ws = np.sqrt(s * s + o_wire_term2[a0:a1])
            _write(arrival, slew, o_net[a0:a1], a, ws, unwritten)

        # Endpoints: sequential data pins against clock - setup, then
        # primary outputs against the clock.
        ep_nets = graph.endpoint_nets
        setup = np.zeros(ep_nets.size)
        setup[:graph.n_seq_endpoints] = tables.setup[
            cids[graph.endpoint_inst]]
        slack = (analyzer.clock_ps - setup) - arrival[ep_nets]

    wns = analyzer.clock_ps
    critical = None
    if slack.size:
        # First minimum, skipping NaN like the reference's `slack < wns`.
        ranked = np.where(np.isnan(slack), np.inf, slack)
        k = int(np.argmin(ranked))
        if ranked[k] < np.inf:
            wns = float(slack[k])
            critical = graph.endpoints[k]
    # Sequential sum in endpoint order, as the reference accumulates.
    neg = slack[slack < 0.0]
    tns = float(np.add.accumulate(neg)[-1]) if neg.size else 0.0

    if unwritten:
        written = tg.written.copy()
        for nets in unwritten:
            written[nets] = False
        idx = np.flatnonzero(written)
        keys = idx.tolist()
    else:
        idx = tg.written_idx
        keys = tg.written_keys
    return TimingReport(
        clock_ps=analyzer.clock_ps,
        arrival_ps=dict(zip(keys, arrival[idx].tolist())),
        slew_ps=dict(zip(keys, slew[idx].tolist())),
        endpoint_slack_ps=dict(zip(graph.endpoints, slack.tolist())),
        wns_ps=wns,
        tns_ps=tns,
        critical_endpoint=critical,
        load_ff=dict(zip(tg.load_keys, load_net[tg.load_idx].tolist())),
    )


def _row_pos(n: int, tables: CellTables) -> np.ndarray:
    """Offset of each (query, table) pair's rows in a flat
    :meth:`CellTables.load_rows` result of ``n`` queries."""
    return np.arange(0, 2 * n * tables.shape[0], tables.shape[0],
                     dtype=np.intp).reshape(n, 2)


def _write(arrival: np.ndarray, slew: np.ndarray, nets: np.ndarray,
           a: np.ndarray, ws: np.ndarray, unwritten: List[np.ndarray]
           ) -> None:
    """Store arrivals above the reference's -1 ps "unseen" marker."""
    m = a > -1.0
    if m.all():
        arrival[nets] = a
        slew[nets] = ws
        return
    sel = nets[m]
    arrival[sel] = a[m]
    slew[sel] = ws[m]
    unwritten.append(nets[~m])
