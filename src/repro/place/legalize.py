"""Tetris-style minimum-displacement row legalization.

Cells are processed in x order; each cell tries the rows nearest its
desired y and is placed at ``max(row edge, desired x)``; the row with the
least displacement cost wins.  Processing in x order means a cell can
never be pushed left of an already-placed cell, so rows fill
left-to-right with bounded drift — the classic Tetris legalizer, which
keeps displacement small at the utilizations the paper uses (<= 80 %).

The rows of the search window are scored outward from the desired row,
and each side stops at the first row whose weighted vertical distance
alone exceeds the best cost found.  The bound is exact: on either side
the distance grows with every row, also in floating point, and a cost
``dx + Y_COST_WEIGHT * dy`` with ``dx >= 0`` never rounds below its
second term, so no row past the stop could win or tie.  Ties go to the
lower row, the one an ascending scan with a strict ``<`` keeps.
"""

from __future__ import annotations


import numpy as np

from repro.circuits.netlist import Module
from repro.place.floorplan import Floorplan

# Vertical displacement is costlier than horizontal (breaks row locality).
Y_COST_WEIGHT = 2.0
# Rows examined around the desired row before expanding the search.
ROW_SEARCH_RADIUS = 6


def legalize(module: Module, library, floorplan: Floorplan,
             x: np.ndarray, y: np.ndarray,
             capacity_factor: float = 1.0) -> None:
    """Assign legal positions in place (writes inst.x_um / inst.y_um).

    ``capacity_factor`` scales each row's width capacity — 2.0 models a
    two-tier (G-MI) core where planar cells on both tiers share x/y.
    """
    n = len(module.instances)
    if n == 0:
        return
    # The Tetris loop runs on Python floats: the same IEEE doubles as
    # numpy scalars, at a fraction of the cost per operation.
    widths = (np.array([library.cell(i.cell_name).width_um
                        for i in module.instances])
              / capacity_factor).tolist()
    xs = x.tolist()
    ys = y.tolist()
    row_h = floorplan.row_height_um
    n_rows = floorplan.n_rows
    capacity = floorplan.width_um
    edges = [0.0] * n_rows            # current right edge per row
    used = [0.0] * n_rows             # occupied width per row

    for i in np.argsort(x, kind="stable").tolist():
        w = widths[i]
        desired_x = xs[i]
        y_i = ys[i]
        desired_row = min(max(int(y_i / row_h), 0), n_rows - 1)
        best_row = -1
        best_cost = float("inf")
        best_pos = 0.0
        radius = ROW_SEARCH_RADIUS
        while best_row < 0:
            lo = max(desired_row - radius, 0)
            hi = min(desired_row + radius, n_rows - 1)
            # The desired row and the rows above it, upward; then the
            # rows below it, downward (see the module doc).
            for first, last, step in ((desired_row, hi, 1),
                                      (desired_row - 1, lo, -1)):
                for r in range(first, last + step, step):
                    dy = abs((r + 0.5) * row_h - y_i)
                    if Y_COST_WEIGHT * dy > best_cost:
                        break
                    if used[r] + w > capacity:
                        continue
                    pos = max(edges[r], min(desired_x - w / 2.0,
                                            capacity - w))
                    if pos + w > capacity:
                        continue
                    cost = abs(pos + w / 2.0 - desired_x) \
                        + Y_COST_WEIGHT * dy
                    if cost < best_cost or (cost == best_cost
                                            and r < best_row):
                        best_cost = cost
                        best_row = r
                        best_pos = pos
            if best_row < 0:
                if lo == 0 and hi == n_rows - 1:
                    # Gap fragmentation left no row with edge space near
                    # the desired x: fall back to the emptiest row,
                    # left-packed.  Some row must fit at <= 100 % density.
                    for r in range(n_rows):
                        if edges[r] + w <= capacity:
                            pos = edges[r]
                            dy = abs((r + 0.5) * row_h - y_i)
                            cost = abs(pos + w / 2.0 - desired_x) \
                                + Y_COST_WEIGHT * dy
                            if cost < best_cost:
                                best_cost = cost
                                best_row = r
                                best_pos = pos
                    if best_row < 0:
                        # Last resort: tolerate a small overlap at the
                        # right edge of the least-used row rather than
                        # fail — harmless at global-routing abstraction.
                        best_row = used.index(min(used))
                        best_pos = max(capacity - w, 0.0)
                    break
                radius *= 2
        inst = module.instances[i]
        inst.x_um = best_pos + w / 2.0
        inst.y_um = (best_row + 0.5) * row_h
        edges[best_row] = best_pos + w
        used[best_row] += w


def place_instance_near(module: Module, library, floorplan: Floorplan,
                        inst, x_um: float, y_um: float) -> None:
    """Drop a new instance (e.g. an optimization buffer) near a point.

    Incremental legalization is approximated by snapping to the nearest
    row; small local overlaps are acceptable at global-route abstraction.
    """
    row_h = floorplan.row_height_um
    r = min(max(int(y_um / row_h), 0), floorplan.n_rows - 1)
    inst.x_um = min(max(x_um, 0.0), floorplan.width_um)
    inst.y_um = (r + 0.5) * row_h
