"""Array-batched global routing.

The three router passes vectorize along different axes while keeping
the sequential arithmetic of the scalar reference engine (frozen in
``tests/kernel_oracle.py``) bit-for-bit:

* **topology** — 2- and 3-pin nets (the overwhelming majority) get
  closed-form rectilinear MSTs evaluated as arrays; Prim's algorithm
  emulation for 3 pins reproduces the reference tie-breaks (argmin
  first-max, strict-improvement parent updates).  Larger nets fall
  back to the shared :func:`rsmt_length_um`.
* **layer assignment** — nets sorted by length have monotone preferred
  classes, so each (preference run, spill class) pair admits a prefix
  of fitting nets; the prefix boundary comes from a cumulative sum
  seeded with the class's running usage, which reproduces the scalar
  loop's float accumulation exactly.  The rare balance-overflow tail
  keeps the scalar loop.
* **tile demand / RC annotation** — every L-booking's per-tile
  contributions are expanded with ragged ranges and accumulated with
  ``np.add.at`` in the reference booking order; totals use cumulative
  sums so the running float state matches the scalar ``+=`` chains.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.circuits.netlist import Module
from repro.kernels.arrays import as_f64, as_index, ranges
from repro.obs import metrics as obs_metrics
from repro.obs.trace import kernel
from repro.route.grid import RoutingGrid
from repro.route.steiner import (MAX_EXACT_PINS, RSMT_FACTOR,
                                 rsmt_edges_batch, rsmt_length_um)
from repro.tech.metal import LayerClass

_CLASSES = (LayerClass.LOCAL, LayerClass.INTERMEDIATE, LayerClass.GLOBAL)
_CODE = {cls: code for code, cls in enumerate(_CLASSES)}


def run_numpy(router, module: Module, include_clock: bool):
    """The body of :meth:`GlobalRouter.run`."""
    from repro.route.router import (MB1_LENGTH_SHARE, MB1_NET_FRACTION,
                                    RoutingResult)

    grid = RoutingGrid.for_core(router.floorplan.width_um,
                                router.floorplan.height_um,
                                router.interconnect.stack,
                                router.capacity_scale)

    # Pass 1: topologies and lengths.
    net_ids: List[int] = []
    points_by_net: Dict[int, List[Tuple[float, float]]] = {}
    with kernel("route.topology"):
        for net in module.nets:
            if net.is_clock and not include_clock:
                continue
            points_by_net[net.index] = router._net_points(module, net)
            net_ids.append(net.index)
        n = len(net_ids)
        kcounts = as_index([len(points_by_net[i]) for i in net_ids])
        lens_arr = np.zeros(n)
        three_pin: Dict[int, Tuple[int, int]] = {}  # net -> (n1, parent)

        pos2 = np.flatnonzero(kcounts == 2)
        if pos2.size:
            pts = [points_by_net[net_ids[p]] for p in pos2.tolist()]
            c = as_f64([[p[0][0], p[0][1], p[1][0], p[1][1]] for p in pts])
            lens_arr[pos2] = (np.abs(c[:, 0] - c[:, 2])
                              + np.abs(c[:, 1] - c[:, 3]))

        pos3 = np.flatnonzero(kcounts == 3)
        if pos3.size:
            pts = [points_by_net[net_ids[p]] for p in pos3.tolist()]
            c = as_f64([[q for p in row for q in p] for row in pts])
            d01 = np.abs(c[:, 0] - c[:, 2]) + np.abs(c[:, 1] - c[:, 3])
            d02 = np.abs(c[:, 0] - c[:, 4]) + np.abs(c[:, 1] - c[:, 5])
            d12 = np.abs(c[:, 2] - c[:, 4]) + np.abs(c[:, 3] - c[:, 5])
            # Prim from pin 0: argmin ties pick the lower index.
            n1 = np.where(d02 < d01, 2, 1)
            e1 = np.where(d02 < d01, d02, d01)
            d0m = np.where(n1 == 2, d01, d02)
            # Second edge: the remaining pin joins via pin n1 only on a
            # strict improvement over its distance to pin 0.
            par = np.where(d12 < d0m, n1, 0)
            e2 = np.where(d12 < d0m, d12, d0m)
            lens_arr[pos3] = e1 + e2
            for row, p in enumerate(pos3.tolist()):
                three_pin[net_ids[p]] = (int(n1[row]), int(par[row]))

        # 4..MAX_EXACT_PINS nets: one lockstep Prim for the whole set,
        # then the reference's sequential edge-length sum per net.
        pos4 = np.flatnonzero((kcounts > 3) & (kcounts <= MAX_EXACT_PINS))
        if pos4.size:
            plist = [points_by_net[net_ids[p]] for p in pos4.tolist()]
            batch_edges = rsmt_edges_batch(plist)
            for row, p in enumerate(pos4.tolist()):
                pts = plist[row]
                mst_len = sum(
                    abs(pts[a][0] - pts[b][0]) + abs(pts[a][1] - pts[b][1])
                    for a, b in batch_edges[row])
                lens_arr[p] = mst_len * RSMT_FACTOR
        for p in np.flatnonzero(kcounts > MAX_EXACT_PINS).tolist():
            lens_arr[p] = rsmt_length_um(points_by_net[net_ids[p]])

        net_length = {net_ids[p]: float(lens_arr[p]) for p in range(n)}

    # Layer assignment (see GlobalRouter.run for the policy).
    class_cap_total = {
        cls: cap * grid.n_x * grid.n_y
        for cls, cap in grid.tile_capacity_um.items()
    }
    class_used = {cls: 0.0 for cls in class_cap_total}
    fill_order = [cls for cls in _CLASSES if cls in class_cap_total]
    spill = {
        LayerClass.LOCAL: (LayerClass.LOCAL, LayerClass.INTERMEDIATE,
                           LayerClass.GLOBAL),
        LayerClass.INTERMEDIATE: (LayerClass.INTERMEDIATE,
                                  LayerClass.LOCAL,
                                  LayerClass.GLOBAL),
        LayerClass.GLOBAL: (LayerClass.GLOBAL,
                            LayerClass.INTERMEDIATE,
                            LayerClass.LOCAL),
    }
    fill_target = 0.85
    spills = obs_metrics.counter("router.spills")
    ripups = obs_metrics.counter("router.ripups")
    assignment: Dict[int, LayerClass] = {}
    with kernel("route.layer_assign"):
        order = np.argsort(lens_arr, kind="stable")
        sorted_len = lens_arr[order]
        router._preferred_class(0.0)
        pref_code = np.where(
            sorted_len <= router._xover_local, 0,
            np.where(sorted_len <= router._xover_intermediate, 1, 2))
        budgets = {cls: class_cap_total[cls] * fill_target
                   for cls in class_cap_total}
        chosen_code = np.zeros(n, dtype=np.intp)
        run_starts = ([0] + (np.flatnonzero(np.diff(pref_code)) + 1).tolist()
                      if n else [])
        run_stops = run_starts[1:] + [n]
        for start, stop in zip(run_starts, run_stops):
            preferred = _CLASSES[int(pref_code[start])]
            rem = np.arange(start, stop, dtype=np.intp)
            for cls in spill[preferred]:
                if rem.size == 0:
                    break
                if cls not in class_cap_total:
                    continue
                cs = np.cumsum(
                    np.concatenate(([class_used[cls]], sorted_len[rem])))
                n_fit = int(np.searchsorted(cs[1:], budgets[cls],
                                            side="right"))
                if n_fit:
                    chosen_code[rem[:n_fit]] = _CODE[cls]
                    class_used[cls] = float(cs[n_fit])
                    if cls is not preferred:
                        spills.inc(n_fit)
                    rem = rem[n_fit:]
            # Everything at the fill target: balance by fill ratio,
            # sequentially (each pick moves the ratios).
            for p in rem.tolist():
                chosen = min(fill_order,
                             key=lambda c: class_used[c]
                             / class_cap_total[c])
                ripups.inc()
                chosen_code[p] = _CODE[chosen]
                class_used[chosen] += float(sorted_len[p])
        for p in range(n):
            assignment[net_ids[int(order[p])]] = _CLASSES[int(chosen_code[p])]

    # Pass 2: book tile demand along L-routed tree edges.
    with kernel("route.tile_demand"):
        ex0: List[float] = []
        ey0: List[float] = []
        ex1: List[float] = []
        ey1: List[float] = []
        ecls: List[int] = []

        def _edge(points, a, b, code):
            ex0.append(points[a][0])
            ey0.append(points[a][1])
            ex1.append(points[b][0])
            ey1.append(points[b][1])
            ecls.append(code)

        # One lockstep Prim for every 4..MAX_EXACT_PINS net that books
        # demand (the reference calls rsmt_edges per net right here, so
        # the batch stays charged to this span).
        booked4 = [net_idx for net_idx in net_ids
                   if 3 < len(points_by_net[net_idx]) <= MAX_EXACT_PINS
                   and assignment[net_idx] in grid.tile_capacity_um]
        edges4 = dict(zip(booked4, rsmt_edges_batch(
            [points_by_net[net_idx] for net_idx in booked4])))

        for net_idx in net_ids:
            points = points_by_net[net_idx]
            if len(points) < 2:
                continue
            cls = assignment[net_idx]
            if cls not in grid.tile_capacity_um:
                continue
            code = _CODE[cls]
            if len(points) == 2:
                _edge(points, 0, 1, code)
            elif len(points) == 3:
                n1, par = three_pin[net_idx]
                _edge(points, 0, n1, code)
                _edge(points, par, 3 - n1, code)
            elif len(points) <= MAX_EXACT_PINS:
                for a, b in edges4[net_idx]:
                    _edge(points, a, b, code)
            else:
                xs = [p[0] for p in points]
                ys = [p[1] for p in points]
                ex0.append(min(xs))
                ey0.append(min(ys))
                ex1.append(max(xs))
                ey1.append(max(ys))
                ecls.append(code)

        if ecls:
            x0 = as_f64(ex0)
            y0 = as_f64(ey0)
            x1 = as_f64(ex1)
            y1 = as_f64(ey1)
            ncls = as_index(ecls)
            # Two L-bookings per edge, each at half weight: the
            # reference books (x0,y0)->(x1,y1) then the flipped L.
            nb = 2 * ncls.size
            bx0 = np.empty(nb)
            by0 = np.empty(nb)
            bx1 = np.empty(nb)
            by1 = np.empty(nb)
            bx0[0::2], by0[0::2], bx1[0::2], by1[0::2] = x0, y0, x1, y1
            bx0[1::2], by0[1::2], bx1[1::2], by1[1::2] = x1, y1, x0, y0
            bcls = np.repeat(ncls, 2)
            weight = 0.5
            tile_w = grid.width_um / grid.n_x
            tile_h = grid.height_um / grid.n_y

            def tile_x(x):
                return np.clip((x / grid.width_um * grid.n_x
                                ).astype(np.intp), 0, grid.n_x - 1)

            def tile_y(y):
                return np.clip((y / grid.height_um * grid.n_y
                                ).astype(np.intp), 0, grid.n_y - 1)

            ty0 = tile_y(by0)
            xa = np.minimum(bx0, bx1)
            xb = np.maximum(bx0, bx1)
            tx_lo = tile_x(xa)
            nh = tile_x(xb) - tx_lo + 1
            tx1 = tile_x(bx1)
            ya = np.minimum(by0, by1)
            yb = np.maximum(by0, by1)
            ty_lo = tile_y(ya)
            nv = tile_y(yb) - ty_lo + 1

            booking_ids = np.arange(nb, dtype=np.intp)
            h_b = np.repeat(booking_ids, nh)
            h_rank = ranges(nh)
            h_tx = tx_lo[h_b] + h_rank
            h_lo = np.maximum(xa[h_b], h_tx * tile_w)
            h_hi = np.minimum(xb[h_b], (h_tx + 1) * tile_w)
            h_keep = h_hi > h_lo
            v_b = np.repeat(booking_ids, nv)
            v_rank = ranges(nv)
            v_ty = ty_lo[v_b] + v_rank
            v_lo = np.maximum(ya[v_b], v_ty * tile_h)
            v_hi = np.minimum(yb[v_b], (v_ty + 1) * tile_h)
            v_keep = v_hi > v_lo

            entry_b = np.concatenate((h_b[h_keep], v_b[v_keep]))
            entry_leg = np.concatenate(
                (np.zeros(int(h_keep.sum()), dtype=np.intp),
                 np.ones(int(v_keep.sum()), dtype=np.intp)))
            entry_rank = np.concatenate((h_rank[h_keep], v_rank[v_keep]))
            entry_flat = np.concatenate(
                ((h_tx * grid.n_y + ty0[h_b])[h_keep],
                 (tx1[v_b] * grid.n_y + v_ty)[v_keep]))
            entry_val = np.concatenate(
                (((h_hi - h_lo) * weight)[h_keep],
                 ((v_hi - v_lo) * weight)[v_keep]))
            # Restore the reference accumulation order: per booking,
            # horizontal tiles ascending, then vertical tiles.
            perm = np.lexsort((entry_rank, entry_leg, entry_b))
            entry_flat = entry_flat[perm]
            entry_val = entry_val[perm]
            entry_code = bcls[entry_b[perm]]
            # bincount, not np.add.at: both accumulate sequentially in
            # input order (so the running float state still matches the
            # scalar += chains), but bincount is several times cheaper.
            for cls in grid.tile_capacity_um:
                sel = entry_code == _CODE[cls]
                if not sel.any():
                    continue
                flat_demand = grid.demand[cls].reshape(-1)
                flat_demand += np.bincount(entry_flat[sel],
                                           weights=entry_val[sel],
                                           minlength=flat_demand.size)

    # Per-class detour factors from that class's peak overflow.
    detour_by_class: Dict[LayerClass, float] = {}
    for cls in class_cap_total:
        over = max(0.0, grid.peak_overflow_ratio(cls) - 1.0)
        detour_by_class[cls] = min(1.0 + router.detour_coeff * over, 1.35)
    detour = max(detour_by_class.values()) if detour_by_class else 1.0

    with kernel("route.rc_annotate"):
        code_ins = np.zeros(n, dtype=np.intp)
        code_ins[order] = chosen_code
        det_code = as_f64([detour_by_class.get(cls, 1.0)
                           for cls in _CLASSES])
        r_unit = np.zeros(3)
        c_unit = np.zeros(3)
        for code in np.unique(code_ins).tolist():
            cls = _CLASSES[code]
            rc = (router.interconnect.class_rc(cls)
                  if cls in grid.tile_capacity_um
                  else router.interconnect.class_rc(LayerClass.LOCAL))
            r_unit[code] = rc.resistance_kohm_per_um
            c_unit[code] = rc.capacitance_ff_per_um
        final_len = lens_arr * det_code[code_ins]
        res_arr = final_len * r_unit[code_ins]
        cap_arr = final_len * c_unit[code_ins]
        lengths = {net_ids[p]: float(final_len[p]) for p in range(n)}
        res = {net_ids[p]: float(res_arr[p]) for p in range(n)}
        cap = {net_ids[p]: float(cap_arr[p]) for p in range(n)}
        by_class: Dict[LayerClass, float] = {
            cls: 0.0 for cls in class_cap_total}
        for cls in class_cap_total:
            vals = final_len[code_ins == _CODE[cls]]
            if vals.size:
                by_class[cls] = float(np.cumsum(vals)[-1])
        total = float(np.cumsum(final_len)[-1]) if n else 0.0

    # MB1 usage for T-MI: the shortest nets dip to the bottom tier.
    mb1_len = 0.0
    if router.interconnect.stack.is_3d and net_length:
        take = max(1, int(n * MB1_NET_FRACTION))
        vals = final_len[order[:take]] * MB1_LENGTH_SHARE
        mb1_len = float(np.cumsum(vals)[-1])

    return RoutingResult(
        lengths_um=lengths,
        resistances_kohm=res,
        capacitances_ff=cap,
        layer_class=assignment,
        grid=grid,
        total_wirelength_um=total,
        mb1_wirelength_um=mb1_len,
        wirelength_by_class=by_class,
        detour_factor=detour,
    )
