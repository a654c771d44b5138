"""Array-batched global routing.

The three router passes vectorize along different axes while keeping
the sequential arithmetic of the scalar reference engine (frozen in
``tests/kernel_oracle.py``) bit-for-bit:

* **topology** — every net's pin points come as arrays from one
  :class:`~repro.place.floorplan.NetPoints` over the module's pin-table
  snapshot (driver, then sinks in order, pads where the net has one).
  2- and 3-pin nets (the overwhelming majority) get closed-form
  rectilinear MSTs evaluated as arrays; Prim's algorithm emulation for
  3 pins reproduces the reference tie-breaks (argmin first-max,
  strict-improvement parent updates).  Up to ``MAX_EXACT_PINS`` pins
  one lockstep Prim serves every net, larger nets fall back to the
  shared :func:`rsmt_length_um`.
* **layer assignment** — nets sorted by length have monotone preferred
  classes, so each (preference run, spill class) pair admits a prefix
  of fitting nets; the prefix boundary comes from a cumulative sum
  seeded with the class's running usage, which reproduces the scalar
  loop's float accumulation exactly.  The rare balance-overflow tail
  keeps the scalar loop.
* **tile demand / RC annotation** — the tree edges are laid out as
  point-index arrays in the reference's net order; every L-booking's
  per-tile contributions are expanded with ragged ranges and
  accumulated with ``bincount`` in the reference booking order; totals
  use cumulative sums so the running float state matches the scalar
  ``+=`` chains.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.circuits.netlist import Module
from repro.kernels.arrays import as_f64, ranges
from repro.obs.trace import counter, kernel
from repro.place.floorplan import NetPoints
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
    with kernel("route.topology"):
        points = NetPoints(module, router.floorplan, include_clock)
        px, py = points.coords(
            np.array([inst.x_um for inst in module.instances]),
            np.array([inst.y_um for inst in module.instances]))
        net_ids = points.nets.tolist()
        n = len(net_ids)
        kcounts = points.counts
        first = points.off[:-1]
        lens_arr = np.zeros(n)

        pos2 = np.flatnonzero(kcounts == 2)
        if pos2.size:
            p0 = first[pos2]
            lens_arr[pos2] = (np.abs(px[p0] - px[p0 + 1])
                              + np.abs(py[p0] - py[p0 + 1]))

        pos3 = np.flatnonzero(kcounts == 3)
        if pos3.size:
            p0 = first[pos3]
            d01 = np.abs(px[p0] - px[p0 + 1]) + np.abs(py[p0] - py[p0 + 1])
            d02 = np.abs(px[p0] - px[p0 + 2]) + np.abs(py[p0] - py[p0 + 2])
            d12 = (np.abs(px[p0 + 1] - px[p0 + 2])
                   + np.abs(py[p0 + 1] - py[p0 + 2]))
            # Prim from pin 0: argmin ties pick the lower index.
            n1 = np.where(d02 < d01, 2, 1)
            e1 = np.where(d02 < d01, d02, d01)
            d0m = np.where(n1 == 2, d01, d02)
            # Second edge: the remaining pin joins via pin n1 only on a
            # strict improvement over its distance to pin 0.
            par = np.where(d12 < d0m, n1, 0)
            e2 = np.where(d12 < d0m, d12, d0m)
            lens_arr[pos3] = e1 + e2

        # Larger nets as point lists: 4..MAX_EXACT_PINS get one lockstep
        # Prim for the whole set, then the reference's sequential
        # edge-length sum per net.
        big = np.flatnonzero(kcounts > 3).tolist()
        off = points.off.tolist()
        big_points = {p: list(zip(px[off[p]:off[p + 1]].tolist(),
                                  py[off[p]:off[p + 1]].tolist()))
                      for p in big}
        pos4 = [p for p in big if kcounts[p] <= MAX_EXACT_PINS]
        edges4 = dict(zip(pos4, rsmt_edges_batch(
            [big_points[p] for p in pos4])))
        for p in pos4:
            pts = big_points[p]
            mst_len = sum(
                abs(pts[a][0] - pts[b][0]) + abs(pts[a][1] - pts[b][1])
                for a, b in edges4[p])
            lens_arr[p] = mst_len * RSMT_FACTOR
        for p in big:
            if kcounts[p] > MAX_EXACT_PINS:
                lens_arr[p] = rsmt_length_um(big_points[p])

        net_length = dict(zip(net_ids, lens_arr.tolist()))

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
    spills = counter("router.spills")
    ripups = counter("router.ripups")
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
    code_ins = np.zeros(n, dtype=np.intp)
    code_ins[order] = chosen_code
    with kernel("route.tile_demand"):
        # Edges per net, in net order: the rectilinear MST's (one for 2
        # pins, two for 3, k - 1 for up to MAX_EXACT_PINS) or one
        # bounding-box diagonal for larger nets; none for a net with
        # fewer than two points or a class without tile capacity.
        in_grid = np.array([cls in grid.tile_capacity_um
                            for cls in _CLASSES])
        booked = (kcounts >= 2) & in_grid[code_ins]
        n_edges = np.where(kcounts <= MAX_EXACT_PINS, kcounts - 1, 1)
        n_edges[~booked] = 0
        e_first = np.cumsum(n_edges) - n_edges
        ea = np.empty(int(n_edges.sum()), dtype=np.intp)
        eb = np.empty_like(ea)

        b2 = pos2[booked[pos2]]
        ea[e_first[b2]] = first[b2]
        eb[e_first[b2]] = first[b2] + 1
        if pos3.size:
            b3 = booked[pos3]
            at = e_first[pos3[b3]]
            p0 = first[pos3[b3]]
            ea[at] = p0
            eb[at] = p0 + n1[b3]
            ea[at + 1] = p0 + par[b3]
            eb[at + 1] = p0 + 3 - n1[b3]
        for p in pos4:
            if booked[p]:
                at = e_first[p]
                for k, (a, b) in enumerate(edges4[p]):
                    ea[at + k] = first[p] + a
                    eb[at + k] = first[p] + b
        boxes = [p for p in big
                 if booked[p] and kcounts[p] > MAX_EXACT_PINS]
        for p in boxes:
            ea[e_first[p]] = eb[e_first[p]] = first[p]
        x0 = px[ea]
        y0 = py[ea]
        x1 = px[eb]
        y1 = py[eb]
        for p in boxes:
            xs = [q[0] for q in big_points[p]]
            ys = [q[1] for q in big_points[p]]
            at = e_first[p]
            x0[at], y0[at], x1[at], y1[at] = \
                min(xs), min(ys), max(xs), max(ys)
        ncls = np.repeat(code_ins, n_edges)

        if ncls.size:
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
