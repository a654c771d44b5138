"""The global-placement kernels as array code.

Three kernels, each bit-identical to the scalar loop it replaced (the
reference, frozen in ``tests/kernel_oracle.py``):

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
  in-place update bit for bit.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix

from repro.circuits.netlist import Module, PIN_DRIVER, PO_SINK
from repro.kernels.arrays import as_f64, as_index, ranges
from repro.place.floorplan import Floorplan

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

    def __init__(self, module: Module, floorplan: Floorplan) -> None:
        self.n = len(module.instances)
        self.width_um = floorplan.width_um
        self.height_um = floorplan.height_um

        mem_flat: List[int] = []
        mem_counts: List[int] = []
        pad_x: List[float] = []
        pad_y: List[float] = []
        pad_counts: List[int] = []
        weights: List[float] = []
        for net in module.nets:
            if net.is_clock:
                continue
            members: List[int] = []
            pads: List[Tuple[float, float]] = []
            if net.driver is not None:
                if net.driver[0] >= 0:
                    members.append(net.driver[0])
                elif net.driver[0] == PIN_DRIVER:
                    pos = floorplan.io_positions.get(net.index)
                    if pos is not None:
                        pads.append(pos)
            for inst_idx, _pin in net.sinks:
                if inst_idx >= 0:
                    members.append(inst_idx)
                elif inst_idx == PO_SINK:
                    pos = floorplan.io_positions.get(net.index)
                    if pos is not None:
                        pads.append(pos)
            k = len(members) + len(pads)
            if k < 2:
                continue
            weights.append(1.0 / (k - 1))
            mem_flat.extend(members)
            mem_counts.append(len(members))
            for (px, py) in pads:
                pad_x.append(px)
                pad_y.append(py)
            pad_counts.append(len(pads))

        mem_flat_a = as_index(mem_flat)
        mem_counts_a = as_index(mem_counts)
        pad_counts_a = as_index(pad_counts)
        w = as_f64(weights)

        # Clique pairs (i < j within each net, nets in order): the
        # ragged-range expansion of the reference's nested loop.
        local_i = ranges(mem_counts_a)
        k_rep = np.repeat(mem_counts_a, mem_counts_a)
        reps = k_rep - 1 - local_i
        first_pos = np.repeat(np.arange(mem_flat_a.size, dtype=np.intp),
                              reps)
        second_pos = first_pos + 1 + ranges(reps)
        self.pair_a = mem_flat_a[first_pos]
        self.pair_b = mem_flat_a[second_pos]
        self.pair_w = np.repeat(np.repeat(w, mem_counts_a), reps)

        # Pad pulls, pad-major within each net as the reference emits
        # them: for every (pad, member) pair, weight w and w * pad.
        mem_off = np.cumsum(mem_counts_a) - mem_counts_a
        net_of_pad = np.repeat(np.arange(len(mem_counts), dtype=np.intp),
                               pad_counts_a)
        m_of_pad = mem_counts_a[net_of_pad]
        entry_pad = np.repeat(np.arange(net_of_pad.size, dtype=np.intp),
                              m_of_pad)
        net_of_entry = net_of_pad[entry_pad]
        member_pos = ranges(m_of_pad) + mem_off[net_of_entry]
        self.pull_idx = mem_flat_a[member_pos]
        self.pull_w = w[net_of_entry]
        self.pull_bx = self.pull_w * as_f64(pad_x)[entry_pad]
        self.pull_by = self.pull_w * as_f64(pad_y)[entry_pad]

        # Off-diagonal COO entries interleaved exactly as the reference
        # appends them: (a, b, -w) then (b, a, -w) per pair.
        npairs = self.pair_a.size
        rows = np.empty(2 * npairs, dtype=np.intp)
        cols = np.empty(2 * npairs, dtype=np.intp)
        rows[0::2] = self.pair_a
        rows[1::2] = self.pair_b
        cols[0::2] = self.pair_b
        cols[1::2] = self.pair_a
        vals = np.repeat(-self.pair_w, 2)
        self._rows = rows
        self._cols = cols
        self._vals = vals

        # Diagonal contributions in the reference's chronological order:
        # per net, every pair hits its (a, then b) diagonal, then the pad
        # pulls hit theirs.  ``np.add.at`` in :meth:`build` replays this
        # sequence, so each cell's diagonal accumulates in the exact same
        # float order as the scalar loop (addition is not associative;
        # bin-at-a-time sums drift by an ulp, which CG then amplifies).
        pair_cnt = mem_counts_a * (mem_counts_a - 1) // 2
        pair_ent = 2 * pair_cnt
        pull_ent = pad_counts_a * mem_counts_a
        tot_ent = pair_ent + pull_ent
        start = np.cumsum(tot_ent) - tot_ent
        diag_idx = np.empty(int(tot_ent.sum()), dtype=np.intp)
        diag_w = np.empty(diag_idx.size)
        net_of_pair_ent = np.repeat(
            np.arange(len(mem_counts), dtype=np.intp), pair_ent)
        pair_pos = start[net_of_pair_ent] + ranges(pair_ent)
        diag_idx[pair_pos] = rows  # (a, b) interleaved per pair
        diag_w[pair_pos] = np.repeat(self.pair_w, 2)
        pull_pos = (start[net_of_entry] + pair_ent[net_of_entry]
                    + ranges(pull_ent))
        diag_idx[pull_pos] = self.pull_idx
        diag_w[pull_pos] = self.pull_w
        self._diag_idx = diag_idx
        self._diag_w = diag_w

        # Static pieces of :meth:`build`: the off-diagonal CSR (its
        # values never change across solves — only the diagonal and
        # right-hand sides track the anchors) and the index vectors of
        # the bincount replays.  ``bincount`` accumulates each bin
        # sequentially in input order, so prepending one base entry per
        # cell reproduces "start from the anchor term, then add the
        # chronological contributions" bit for bit — at a fraction of
        # ``np.add.at``'s cost.
        n = self.n
        idx0 = np.arange(n, dtype=np.intp)
        self._offdiag = coo_matrix(
            (self._vals, (self._rows, self._cols)), shape=(n, n)).tocsr()
        self._diag_cat_idx = np.concatenate((idx0, diag_idx))
        self._pull_cat_idx = np.concatenate((idx0, self.pull_idx))
        self._eye_rows = idx0

    def build(self, anchor_x: Optional[np.ndarray],
              anchor_y: Optional[np.ndarray], anchor_weight: float
              ) -> Tuple[csr_matrix, np.ndarray, np.ndarray]:
        """(Laplacian, bx, by) for one solve."""
        n = self.n
        diag = np.bincount(
            self._diag_cat_idx,
            weights=np.concatenate((np.full(n, anchor_weight),
                                    self._diag_w)),
            minlength=n)
        if anchor_x is not None and anchor_y is not None:
            bx0 = anchor_weight * anchor_x
            by0 = anchor_weight * anchor_y
        else:
            bx0 = np.full(n, anchor_weight * self.width_um / 2.0)
            by0 = np.full(n, anchor_weight * self.height_um / 2.0)
        bx = np.bincount(self._pull_cat_idx,
                         weights=np.concatenate((bx0, self.pull_bx)),
                         minlength=n)
        by = np.bincount(self._pull_cat_idx,
                         weights=np.concatenate((by0, self.pull_by)),
                         minlength=n)
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

    Wave ``w`` holds cells whose lower-indexed neighbors all live in
    earlier waves, so a whole wave updates at once while reading
    lower-indexed neighbors post-update (``x_cur``) and higher-indexed
    ones from the sweep-start snapshot (``x_pre``) — exactly the
    reference's ascending in-place sweep.
    """

    def __init__(self, adjacency) -> None:
        n = len(adjacency)
        level = [0] * n
        for i, neigh in enumerate(adjacency):
            worst = -1
            for (j, _px, _py) in neigh:
                if 0 <= j < i and level[j] > worst:
                    worst = level[j]
            level[i] = worst + 1

        by_level = {}
        for i, neigh in enumerate(adjacency):
            if neigh:
                by_level.setdefault(level[i], []).append(i)

        self.waves = []
        for lev in sorted(by_level):
            cells = np.asarray(by_level[lev], dtype=np.intp)
            deg = np.asarray([len(adjacency[i]) for i in cells],
                             dtype=np.intp)
            width = int(deg.max())
            nbj = np.full((cells.size, width), -1, dtype=np.intp)
            px = np.zeros((cells.size, width))
            py = np.zeros((cells.size, width))
            is_pad = np.zeros((cells.size, width), dtype=bool)
            valid = np.zeros((cells.size, width), dtype=bool)
            for r, i in enumerate(cells):
                for c, (j, jx, jy) in enumerate(adjacency[i]):
                    valid[r, c] = True
                    if j >= 0:
                        nbj[r, c] = j
                    else:
                        is_pad[r, c] = True
                        px[r, c] = jx
                        py[r, c] = jy
            lower = valid & ~is_pad & (nbj < cells[:, None])
            self.waves.append((cells, nbj, px, py, is_pad, valid, lower,
                               deg))

    def sweep(self, x: np.ndarray, y: np.ndarray, sweeps: int) -> None:
        """Run ``sweeps`` median sweeps in place over x and y."""
        for _ in range(sweeps):
            x_pre = x.copy()
            y_pre = y.copy()
            for (cells, nbj, px, py, is_pad, valid, lower, deg) in \
                    self.waves:
                vx = np.where(lower, x[nbj], x_pre[nbj])
                vx = np.where(is_pad, px, vx)
                vx = np.where(valid, vx, np.inf)
                vy = np.where(lower, y[nbj], y_pre[nbj])
                vy = np.where(is_pad, py, vy)
                vy = np.where(valid, vy, np.inf)
                vx.sort(axis=1)
                vy.sort(axis=1)
                rows = np.arange(cells.size, dtype=np.intp)
                mx = vx[rows, deg // 2]
                my = vy[rows, deg // 2]
                x[cells] += MEDIAN_STEP * (mx - x[cells])
                y[cells] += MEDIAN_STEP * (my - y[cells])
