"""The global-placement kernels as array code.

Three kernels, each bit-identical to the scalar loop it replaced (the
reference, frozen in ``tests/kernel_oracle.py``), and each reading the
netlist from one :class:`~repro.place.floorplan.NetPoints` built from
the module's pin-table snapshot, not from the ``Net`` objects:

* :class:`PlacementSystem` — the quadratic system assembled once as
  flat index/weight arrays (clique pairs and pad pulls in the exact
  order the reference loops emit them), then rebuilt per solve with
  ``bincount`` scatters instead of per-pair Python arithmetic;
* :func:`spread` — the recursive area bisection run level-
  synchronously: one stable lexsort per depth, per-segment cumulative
  areas as rows of a padded matrix (sequential ``cumsum`` per row, so
  every split sees bit-identical partial sums to the reference
  recursion), and a vectorized leaf scatter;
* :class:`MedianPlan` — the Gauss–Seidel median sweep scheduled as
  dependency waves: within a wave no cell reads another wave member,
  lower-indexed neighbors are read post-update and higher-indexed ones
  from the sweep-start snapshot, reproducing the reference's ascending
  in-place update bit for bit; a wave is one gather and one sort of a
  buffer holding both coordinates.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix

from repro.circuits.netlist import Module
from repro.kernels.arrays import as_index, group_order, ranges
from repro.place.floorplan import Floorplan, NetPoints

# Stop bisection when regions hold this few cells.
LEAF_CELLS = 4
# Fraction of the way each cell moves toward its connectivity median.
MEDIAN_STEP = 0.8


class PlacementSystem:
    """Flat-array form of one module's quadratic placement system.

    Built once per placement (the netlist and pad positions are static
    across the QP/spreading loop); :meth:`build` then assembles the
    Laplacian and right-hand sides for any anchor configuration with a
    handful of vectorized scatters.
    """

    def __init__(self, module: Module, floorplan: Floorplan,
                 points: Optional[NetPoints] = None) -> None:
        self.n = len(module.instances)
        self.width_um = floorplan.width_um
        self.height_um = floorplan.height_um
        if points is None:
            points = NetPoints(module, floorplan)

        # Every signal net with two or more points: its cells in point
        # order, and as many pad pulls as it has I/O pins at its pad.
        cell = points.inst >= 0
        cells_of = np.bincount(points.row[cell], minlength=points.nets.size)
        k = points.counts
        net_ok = k >= 2
        kept = net_ok[points.row]
        mem_flat_a = points.inst[cell & kept]
        mem_counts_a = cells_of[net_ok]
        pad_counts_a = (k - cells_of)[net_ok]
        pad = ~cell & kept
        pad_x = points.pad_x[pad]
        pad_y = points.pad_y[pad]
        w = 1.0 / (k[net_ok] - 1)
        n_kept = mem_counts_a.size

        # Clique pairs (i < j within each net, nets in order): the
        # ragged-range expansion of the reference's nested loop.
        reps = np.repeat(mem_counts_a, mem_counts_a) - 1 \
            - ranges(mem_counts_a)
        first_pos = np.repeat(np.arange(mem_flat_a.size, dtype=np.intp),
                              reps)
        pair_b = mem_flat_a[first_pos + 1 + ranges(reps)]
        pair_a = mem_flat_a[first_pos]
        pair_w = np.repeat(np.repeat(w, mem_counts_a), reps)
        del reps, first_pos

        # Pad pulls, pad-major within each net as the reference emits
        # them: for every (pad, member) pair, weight w and w * pad.
        mem_off = np.cumsum(mem_counts_a) - mem_counts_a
        net_of_pad = np.repeat(np.arange(n_kept, dtype=np.intp),
                               pad_counts_a)
        m_of_pad = mem_counts_a[net_of_pad]
        entry_pad = np.repeat(np.arange(net_of_pad.size, dtype=np.intp),
                              m_of_pad)
        net_of_entry = net_of_pad[entry_pad]
        pull_idx = mem_flat_a[ranges(m_of_pad) + mem_off[net_of_entry]]
        pull_w = w[net_of_entry]

        # Off-diagonal COO entries interleaved exactly as the reference
        # appends them: (a, b, -w) then (b, a, -w) per pair.  Their
        # values never change across solves (only the diagonal and the
        # right-hand sides track the anchors), so the CSR is built once.
        n = self.n
        npairs = pair_a.size
        rows = np.empty(2 * npairs, dtype=np.intp)
        cols = np.empty(2 * npairs, dtype=np.intp)
        rows[0::2] = pair_a
        rows[1::2] = pair_b
        cols[0::2] = pair_b
        cols[1::2] = pair_a
        del pair_a, pair_b
        self._offdiag = coo_matrix(
            (np.repeat(-pair_w, 2), (rows, cols)), shape=(n, n)).tocsr()
        del cols

        # Diagonal contributions in the reference's chronological order:
        # per net, every pair hits its (a, then b) diagonal, then the pad
        # pulls hit theirs.  :meth:`build` replays this sequence with
        # ``bincount``, which accumulates each bin sequentially in input
        # order, after one leading anchor entry per cell -- so each
        # cell's diagonal accumulates in the exact float order of the
        # scalar loop (addition is not associative; bin-at-a-time sums
        # drift by an ulp, which CG then amplifies).  The right-hand
        # sides replay the pad pulls the same way.
        pair_ent = mem_counts_a * (mem_counts_a - 1)
        pull_ent = pad_counts_a * mem_counts_a
        tot_ent = pair_ent + pull_ent
        start = n + np.cumsum(tot_ent) - tot_ent
        size = n + int(tot_ent.sum())
        self._diag_idx = np.empty(size, dtype=np.intp)
        self._diag_w = np.empty(size)
        self._diag_idx[:n] = np.arange(n, dtype=np.intp)
        pair_pos = np.repeat(start, pair_ent) + ranges(pair_ent)
        self._diag_idx[pair_pos] = rows  # (a, b) interleaved per pair
        self._diag_w[pair_pos] = np.repeat(pair_w, 2)
        del rows, pair_w, pair_pos
        pull_pos = (start[net_of_entry] + pair_ent[net_of_entry]
                    + ranges(pull_ent))
        self._diag_idx[pull_pos] = pull_idx
        self._diag_w[pull_pos] = pull_w
        self._pull_idx = np.concatenate((np.arange(n, dtype=np.intp),
                                         pull_idx))
        self._pull_bx = np.concatenate((np.zeros(n),
                                        pull_w * pad_x[entry_pad]))
        self._pull_by = np.concatenate((np.zeros(n),
                                        pull_w * pad_y[entry_pad]))
        self._eye_rows = self._diag_idx[:n]

    def build(self, anchor_x: Optional[np.ndarray],
              anchor_y: Optional[np.ndarray], anchor_weight: float
              ) -> Tuple[csr_matrix, np.ndarray, np.ndarray]:
        """(Laplacian, bx, by) for one solve."""
        n = self.n
        self._diag_w[:n] = anchor_weight
        diag = np.bincount(self._diag_idx, weights=self._diag_w,
                           minlength=n)
        if anchor_x is not None and anchor_y is not None:
            self._pull_bx[:n] = anchor_weight * anchor_x
            self._pull_by[:n] = anchor_weight * anchor_y
        else:
            self._pull_bx[:n] = anchor_weight * self.width_um / 2.0
            self._pull_by[:n] = anchor_weight * self.height_um / 2.0
        bx = np.bincount(self._pull_idx, weights=self._pull_bx, minlength=n)
        by = np.bincount(self._pull_idx, weights=self._pull_by, minlength=n)
        lap = self._offdiag + csr_matrix(
            (diag, (self._eye_rows, self._eye_rows)), shape=(n, n))
        return lap, bx, by


def spread(areas: np.ndarray, floorplan: Floorplan,
           x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Level-synchronous area bisection; bit-compatible with the
    reference recursion (same sorts, same per-segment cumulative sums,
    same split/fraction arithmetic)."""
    n = x.size
    out_x = np.empty(n)
    out_y = np.empty(n)
    if n == 0:
        return out_x, out_y

    order = np.arange(n, dtype=np.intp)
    seg_of = np.zeros(n, dtype=np.intp)
    bounds = np.array([[0.0, 0.0, floorplan.width_um,
                        floorplan.height_um]])
    vert = np.array([floorplan.width_um >= floorplan.height_um])
    sizes = np.array([n], dtype=np.intp)

    while order.size:
        leaf_seg = sizes <= LEAF_CELLS
        leaf_entry = leaf_seg[seg_of]
        if leaf_entry.any():
            lord = order[leaf_entry]
            lseg = seg_of[leaf_entry]
            # Stable per-leaf sort by the QP x coordinate, then scatter
            # at (k + 0.5) / size across the leaf region.
            perm = np.lexsort((x[lord], lseg))
            lord = lord[perm]
            lseg = lseg[perm]
            lsizes = sizes[lseg]
            starts = np.cumsum(np.bincount(
                lseg, minlength=sizes.size))[lseg] - lsizes
            rank = np.arange(lord.size, dtype=np.intp) - starts
            frac = (rank + 0.5) / lsizes
            b = bounds[lseg]
            out_x[lord] = b[:, 0] + frac * (b[:, 2] - b[:, 0])
            out_y[lord] = (b[:, 1] + b[:, 3]) / 2.0
            keep = ~leaf_entry
            order = order[keep]
            seg_of = seg_of[keep]
            if not order.size:
                break

        # Compact the surviving (internal) segments.
        internal = np.flatnonzero(~leaf_seg)
        remap = np.full(sizes.size, -1, dtype=np.intp)
        remap[internal] = np.arange(internal.size, dtype=np.intp)
        seg_of = remap[seg_of]
        bounds = bounds[internal]
        vert = vert[internal]
        sizes = sizes[internal]
        n_seg = internal.size

        # Stable sort within each segment by the cut-direction key.
        key = np.where(vert[seg_of], x[order], y[order])
        perm = np.lexsort((key, seg_of))
        order = order[perm]
        seg_of = seg_of[perm]

        starts = np.cumsum(sizes) - sizes
        local = np.arange(order.size, dtype=np.intp) - starts[seg_of]
        max_len = int(sizes.max())
        padded = np.zeros((n_seg, max_len))
        padded[seg_of, local] = areas[order]
        csum = np.cumsum(padded, axis=1)
        total = csum[np.arange(n_seg), sizes - 1]
        half = total / 2.0
        split = (csum < half[:, None]).sum(axis=1)
        split = np.minimum(np.maximum(split, 1), sizes - 1)
        frac = csum[np.arange(n_seg), split - 1] / total

        x0, y0, x1, y1 = bounds[:, 0], bounds[:, 1], bounds[:, 2], bounds[:, 3]
        new_bounds = np.empty((2 * n_seg, 4))
        new_vert = np.empty(2 * n_seg, dtype=bool)
        v = vert
        xm = x0 + frac * (x1 - x0)
        ym = y0 + frac * (y1 - y0)
        # Vertical cut -> children split at xm, next cut horizontal.
        new_bounds[0::2, 0] = x0
        new_bounds[0::2, 1] = y0
        new_bounds[0::2, 2] = np.where(v, xm, x1)
        new_bounds[0::2, 3] = np.where(v, y1, ym)
        new_bounds[1::2, 0] = np.where(v, xm, x0)
        new_bounds[1::2, 1] = np.where(v, y0, ym)
        new_bounds[1::2, 2] = x1
        new_bounds[1::2, 3] = y1
        new_vert[0::2] = ~v
        new_vert[1::2] = ~v

        right = local >= split[seg_of]
        seg_of = 2 * seg_of + right
        bounds = new_bounds
        vert = new_vert
        new_sizes = np.empty(2 * n_seg, dtype=np.intp)
        new_sizes[0::2] = split
        new_sizes[1::2] = sizes - split
        sizes = new_sizes

    return out_x, out_y


class MedianPlan:
    """Wave schedule for the Gauss–Seidel median sweep.

    A cell's median runs over its connected pins: for every signal net
    of two to twelve cells it is on, each other cell of the net (once
    per pin pair) and the net's pad (once per pin pair with an I/O pin).
    Only that multiset matters, as the median sorts it.  Wave ``w``
    holds cells whose lower-indexed neighbors all live in earlier
    waves, so a whole wave updates at once while reading lower-indexed
    neighbors post-update and higher-indexed ones from the sweep-start
    snapshot -- exactly the reference's ascending in-place sweep.

    Both coordinates live in one buffer, ``[current | sweep start | pads
    | +inf]`` for x over the same for y, and every wave keeps one flat
    source index per entry (``+inf`` pads a short row), so a wave is one
    gather, one sort, one median gather and one update.
    """

    def __init__(self, module: Module, floorplan: Floorplan,
                 points: Optional[NetPoints] = None) -> None:
        n = self.n = len(module.instances)
        if points is None:
            points = NetPoints(module, floorplan)
        cell = points.inst >= 0
        cells_of = np.bincount(points.row[cell], minlength=points.nets.size)
        k = points.counts
        net_ok = (k >= 2) & (cells_of <= 12)

        # The member pins of every kept net, and for each member pin one
        # entry per other member pin on another cell and per pad pin.
        member = cell & net_ok[points.row]
        m_inst = points.inst[member]
        m_row = points.row[member]
        m_count = np.where(net_ok, cells_of, 0)
        m_start = np.cumsum(m_count) - m_count
        reps = m_count[m_row]
        a = np.repeat(np.arange(m_inst.size, dtype=np.intp), reps)
        b = np.repeat(m_start[m_row], reps) + ranges(reps)
        nb_cell = m_inst[a]
        nb = m_inst[b]
        other = nb_cell != nb
        nb_cell = nb_cell[other]
        nb = nb[other]
        has_pad = net_ok & (k > cells_of)
        slot = np.cumsum(has_pad) - 1
        pad_reps = (k - cells_of)[m_row]
        pad_cell = np.repeat(m_inst, pad_reps)
        pad_slot = np.repeat(slot[m_row], pad_reps)
        # One buffer slot per net pad (a net's I/O pins share its pad).
        pad_xy = np.zeros((2, points.nets.size))
        pad_xy[0, points.row[~cell]] = points.pad_x[~cell]
        pad_xy[1, points.row[~cell]] = points.pad_y[~cell]
        self.pads = pad_xy[:, has_pad]
        n_slots = self.pads.shape[1]

        # Levels: one more than the deepest lower-indexed neighbor.
        lower = nb < nb_cell
        lo_cell = nb_cell[lower]
        lo_nb = nb[lower]
        order = group_order(lo_cell, max(n, 1))
        lo_cell = lo_cell[order]
        lo_nb = lo_nb[order].tolist()
        level = [0] * n
        starts = np.flatnonzero(np.diff(lo_cell, prepend=-1))
        stops = np.append(starts[1:], lo_cell.size)
        for i, lo, hi in zip(lo_cell[starts].tolist(), starts.tolist(),
                             stops.tolist()):
            level[i] = max(map(level.__getitem__, lo_nb[lo:hi])) + 1

        # Entries by cell, as flat buffer indices.
        e_cell = np.concatenate((nb_cell, pad_cell))
        e_src = np.concatenate((np.where(lower, nb, n + nb),
                                2 * n + pad_slot))
        deg = np.bincount(e_cell, minlength=n)
        cells = np.flatnonzero(deg)
        lev = as_index(level)[cells]
        cells = cells[np.argsort(lev, kind="stable")]
        lev = np.sort(lev, kind="stable")
        w_start = np.flatnonzero(np.diff(lev, prepend=-1))
        sizes = np.diff(np.append(w_start, cells.size))
        widths = np.maximum.reduceat(deg[cells], w_start)
        wave = np.repeat(np.arange(sizes.size, dtype=np.intp), sizes)
        base = np.cumsum(sizes * widths) - sizes * widths
        row_base = np.zeros(n, dtype=np.intp)
        row_base[cells] = base[wave] + (np.arange(cells.size, dtype=np.intp)
                                        - w_start[wave]) * widths[wave]
        order = group_order(e_cell, max(n, 1))
        e_cell = e_cell[order]
        col = np.arange(e_cell.size, dtype=np.intp) \
            - (np.cumsum(deg) - deg)[e_cell]
        self.inf = 2 * n + n_slots
        flat = np.full(int((sizes * widths).sum()), self.inf, dtype=np.intp)
        flat[row_base[e_cell] + col] = e_src[order]
        self.waves = []
        for w0, size, width, b0 in zip(w_start.tolist(), sizes.tolist(),
                                       widths.tolist(), base.tolist()):
            wave_cells = cells[w0:w0 + size]
            self.waves.append((
                wave_cells,
                flat[b0:b0 + size * width].reshape(size, width),
                np.arange(size, dtype=np.intp),
                deg[wave_cells] // 2))

    def sweep(self, x: np.ndarray, y: np.ndarray, sweeps: int) -> None:
        """Run ``sweeps`` median sweeps in place over x and y."""
        n = self.n
        buf = np.empty((2, self.inf + 1))
        buf[0, :n] = x
        buf[1, :n] = y
        buf[:, 2 * n:self.inf] = self.pads
        buf[:, self.inf] = np.inf
        cur = buf[:, :n]
        for _ in range(sweeps):
            buf[:, n:2 * n] = cur
            for cells, src, rows, half in self.waves:
                vals = buf[:, src]
                vals.sort(axis=-1)
                at = buf[:, cells]
                buf[:, cells] = at + MEDIAN_STEP * (vals[:, rows, half] - at)
        x[:] = buf[0, :n]
        y[:] = buf[1, :n]
